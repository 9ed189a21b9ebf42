// Tests for aggregation and normalization: per-MuT rates, uniform-weight
// group averages, Catastrophic exclusion, CE twin shadowing, N/A rules.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "core/report.h"

namespace ballista::core {
namespace {

MuT* make_mut(std::string name, ApiKind api, FuncGroup group,
              bool twin = false, std::string twin_of = {}) {
  // Report tests build results by hand; the MuT descriptors they point at
  // live in this pool for the test binary's lifetime.
  static std::deque<MuT> pool;
  MuT* m = &pool.emplace_back();
  m->name = std::move(name);
  m->api = api;
  m->group = group;
  m->variant_mask = kMaskEverything;
  m->has_unicode_twin = twin;
  m->twin_of = std::move(twin_of);
  return m;
}

MutStats stats_for(MuT* m, std::uint64_t executed, std::uint64_t aborts,
                   std::uint64_t restarts = 0, bool catastrophic = false) {
  MutStats s;
  s.mut = m;
  s.planned = executed;
  s.executed = executed;
  s.aborts = aborts;
  s.restarts = restarts;
  s.passes = executed - aborts - restarts;
  s.catastrophic = catastrophic;
  return s;
}

TEST(Report, SummarizeSplitsSysAndClib) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWinNT4;
  r.stats.push_back(stats_for(
      make_mut("sys1", ApiKind::kWin32Sys, FuncGroup::kIoPrimitives), 100,
      50));
  r.stats.push_back(stats_for(
      make_mut("sys2", ApiKind::kWin32Sys, FuncGroup::kIoPrimitives), 100, 0));
  r.stats.push_back(stats_for(
      make_mut("c1", ApiKind::kCLib, FuncGroup::kCString), 100, 10));
  const VariantSummary s = summarize(r);
  EXPECT_EQ(s.sys_tested, 2);
  EXPECT_EQ(s.clib_tested, 1);
  EXPECT_DOUBLE_EQ(s.sys_abort, 0.25);   // uniform MuT weights
  EXPECT_DOUBLE_EQ(s.clib_abort, 0.10);
  EXPECT_DOUBLE_EQ(s.overall_abort, 0.20);
}

TEST(Report, CatastrophicMutsExcludedFromRates) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWin98;
  r.stats.push_back(stats_for(
      make_mut("good", ApiKind::kWin32Sys, FuncGroup::kIoPrimitives), 100,
      20));
  // The crashing MuT has a wild abort rate from its truncated run; it must
  // not pollute the average.
  r.stats.push_back(
      stats_for(make_mut("crash", ApiKind::kWin32Sys,
                         FuncGroup::kIoPrimitives),
                3, 3, 0, /*catastrophic=*/true));
  const VariantSummary s = summarize(r);
  EXPECT_EQ(s.sys_tested, 2);
  EXPECT_EQ(s.sys_catastrophic, 1);
  EXPECT_DOUBLE_EQ(s.sys_abort, 0.20);
}

TEST(Report, GroupRateAveragesUniformly) {
  CampaignResult r;
  r.variant = sim::OsVariant::kLinux;
  r.stats.push_back(stats_for(
      make_mut("a", ApiKind::kPosixSys, FuncGroup::kMemoryManagement), 10, 5));
  r.stats.push_back(stats_for(
      make_mut("b", ApiKind::kPosixSys, FuncGroup::kMemoryManagement), 1000,
      100, 100));
  const GroupRate g = group_rate(r, FuncGroup::kMemoryManagement);
  EXPECT_EQ(g.functions, 2);
  EXPECT_DOUBLE_EQ(g.abort_rate, (0.5 + 0.1) / 2);
  EXPECT_DOUBLE_EQ(g.restart_rate, 0.05);
  EXPECT_DOUBLE_EQ(g.failure_rate, g.abort_rate + g.restart_rate);
  EXPECT_FALSE(g.no_data);
  EXPECT_FALSE(g.has_catastrophic);
}

TEST(Report, GroupWithMostlyCatastrophicMembersReportsNoData) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWinCE;
  r.stats.push_back(stats_for(
      make_mut("x", ApiKind::kCLib, FuncGroup::kCStreamIo), 5, 0, 0, true));
  r.stats.push_back(stats_for(
      make_mut("y", ApiKind::kCLib, FuncGroup::kCStreamIo), 5, 0, 0, true));
  r.stats.push_back(stats_for(
      make_mut("z", ApiKind::kCLib, FuncGroup::kCStreamIo), 100, 10));
  const GroupRate g = group_rate(r, FuncGroup::kCStreamIo);
  EXPECT_TRUE(g.no_data);  // 2 of 3 catastrophic (paper §4's CE rule)
  EXPECT_TRUE(g.has_catastrophic);
}

TEST(Report, EmptyGroupIsNoData) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWinCE;
  const GroupRate g = group_rate(r, FuncGroup::kCTime);
  EXPECT_TRUE(g.no_data);
  EXPECT_EQ(g.functions, 0);
}

TEST(Report, CeTwinShadowingDropsAsciiVersion) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWinCE;
  r.stats.push_back(stats_for(
      make_mut("strcpy", ApiKind::kCLib, FuncGroup::kCString, true), 100,
      100));  // ASCII twin with a (deliberately wild) 100% rate
  r.stats.push_back(stats_for(
      make_mut("wcscpy", ApiKind::kCLib, FuncGroup::kCString, false,
               "strcpy"),
      100, 10));
  const VariantSummary s = summarize(r);
  EXPECT_EQ(s.clib_tested, 1);                // ASCII shadowed
  EXPECT_EQ(s.clib_tested_with_twins, 2);     // parenthesized count
  EXPECT_DOUBLE_EQ(s.clib_abort, 0.10);       // UNICODE rate reported
  const GroupRate g = group_rate(r, FuncGroup::kCString);
  EXPECT_EQ(g.functions, 1);
  EXPECT_DOUBLE_EQ(g.abort_rate, 0.10);
}

TEST(Report, TwinShadowingOnlyAppliesOnCe) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWinNT4;
  r.stats.push_back(stats_for(
      make_mut("strcpy", ApiKind::kCLib, FuncGroup::kCString, true), 100, 50));
  const VariantSummary s = summarize(r);
  EXPECT_EQ(s.clib_tested, 1);
}

TEST(Report, CatastrophicListSortedAndStarred) {
  CampaignResult r;
  r.variant = sim::OsVariant::kWin98;
  auto crash = stats_for(
      make_mut("zeta", ApiKind::kWin32Sys, FuncGroup::kIoPrimitives), 2, 0, 0,
      true);
  crash.crash_reproducible_single = true;
  r.stats.push_back(crash);
  auto starred = stats_for(
      make_mut("alpha", ApiKind::kWin32Sys, FuncGroup::kIoPrimitives), 2, 0, 0,
      true);
  starred.crash_reproducible_single = false;
  r.stats.push_back(starred);
  const auto list = catastrophic_list(r);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "alpha");
  EXPECT_TRUE(list[0].starred);
  EXPECT_EQ(list[1].name, "zeta");
  EXPECT_FALSE(list[1].starred);
}

TEST(Report, PercentFormatting) {
  EXPECT_EQ(percent(0.125), "12.5%");
  EXPECT_EQ(percent(0.0), "0.0%");
  EXPECT_EQ(percent(0.3333, 2), "33.33%");
  EXPECT_EQ(percent(1.0), "100.0%");
}

TEST(Report, GroupNamesAreDistinct) {
  std::set<std::string_view> names;
  for (FuncGroup g : kAllGroups) names.insert(group_name(g));
  EXPECT_EQ(names.size(), kAllGroups.size());
}

TEST(Report, PrintersProduceOutput) {
  CampaignResult r;
  r.variant = sim::OsVariant::kLinux;
  r.stats.push_back(stats_for(
      make_mut("a", ApiKind::kPosixSys, FuncGroup::kMemoryManagement), 10, 5));
  std::vector<CampaignResult> rs;
  rs.push_back(std::move(r));
  std::ostringstream t1, t2, f1, t3;
  print_table1(t1, rs);
  print_table2(t2, rs);
  print_figure1(f1, rs);
  print_table3(t3, rs);
  EXPECT_NE(t1.str().find("Linux"), std::string::npos);
  EXPECT_NE(t2.str().find("Memory Man"), std::string::npos);
  EXPECT_NE(f1.str().find("#"), std::string::npos);
  EXPECT_NE(t3.str().find("(none)"), std::string::npos);
}

}  // namespace
}  // namespace ballista::core
