// Tests for the thirteenth functional group — Win32 synchronization — and
// the data-driven group registry that admits it: per-variant MuT subsets,
// default-plan exclusion, --groups mask plumbing through plan/campaign/
// store, parallel determinism, and the NT-vs-Win9x error-model contrast the
// group was built to exhibit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "core/ballista.h"
#include "core/diff.h"
#include "store/store.h"
#include "tests/test_util.h"

namespace ballista {
namespace {

using core::ApiKind;
using core::Campaign;
using core::CampaignOptions;
using core::CampaignResult;
using core::FuncGroup;
using sim::OsVariant;
using testing::find_value;
using testing::shared_world;

constexpr std::uint32_t kSyncBit = core::group_bit(FuncGroup::kWin32Sync);

std::size_t sync_count(OsVariant v) {
  std::size_t n = 0;
  for (const core::MuT* m : shared_world().registry.for_variant(v))
    if (m->group == FuncGroup::kWin32Sync) ++n;
  return n;
}

TEST(SyncGroup, RegistryShapePerVariant) {
  const auto& reg = shared_world().registry;
  EXPECT_EQ(reg.count_group(FuncGroup::kWin32Sync), 19u);
  // SignalObjectAndWait is NT-family only; the Open*/semaphore calls and
  // PulseEvent are absent on CE; InterlockedExchangeAdd/CompareExchange
  // postdate Win95.
  EXPECT_EQ(sync_count(OsVariant::kWinNT4), 19u);
  EXPECT_EQ(sync_count(OsVariant::kWin2000), 19u);
  EXPECT_EQ(sync_count(OsVariant::kWin98), 18u);
  EXPECT_EQ(sync_count(OsVariant::kWin98SE), 18u);
  EXPECT_EQ(sync_count(OsVariant::kWin95), 16u);
  EXPECT_EQ(sync_count(OsVariant::kWinCE), 10u);
  EXPECT_EQ(sync_count(OsVariant::kLinux), 0u);
}

TEST(SyncGroup, TableDerivationsAndTokenParsing) {
  const auto* d = core::group_from_token("sync");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->id, FuncGroup::kWin32Sync);
  EXPECT_FALSE(d->in_default_campaign);
  EXPECT_FALSE(d->crash_default);
  EXPECT_FALSE(core::is_clib_group(FuncGroup::kWin32Sync));
  EXPECT_EQ(core::group_name(FuncGroup::kWin32Sync), "Win32 Synchronization");
  // The default-campaign mask is exactly the paper's twelve groups.
  EXPECT_EQ(core::kDefaultCampaignGroupMask & kSyncBit, 0u);
  EXPECT_EQ(core::kEveryGroupMask,
            core::kDefaultCampaignGroupMask | kSyncBit |
                core::group_bit(FuncGroup::kSockets));

  std::string err;
  EXPECT_EQ(core::parse_group_list("sync", &err), kSyncBit);
  EXPECT_EQ(core::parse_group_list("sync,filedir", &err),
            kSyncBit | core::group_bit(FuncGroup::kFileDirAccess));
  EXPECT_EQ(core::parse_group_list("all", &err), core::kEveryGroupMask);
  EXPECT_EQ(core::parse_group_list("bogus", &err), std::nullopt);
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(SyncGroup, DefaultPlanExcludesSyncMuts) {
  core::PlanOptions opt;
  opt.cap = 24;
  const core::Plan plan =
      core::make_plan(OsVariant::kWinNT4, shared_world().registry, opt);
  for (const core::MuT* m : plan.muts)
    EXPECT_NE(m->group, FuncGroup::kWin32Sync) << m->name;
  opt.group_mask = kSyncBit;
  const core::Plan sync_plan =
      core::make_plan(OsVariant::kWinNT4, shared_world().registry, opt);
  EXPECT_EQ(sync_plan.muts.size(), 19u);
  for (const core::MuT* m : sync_plan.muts)
    EXPECT_EQ(m->group, FuncGroup::kWin32Sync) << m->name;
}

TEST(SyncGroup, CampaignMaskSelectsOnlySync) {
  CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = kSyncBit;
  const CampaignResult r =
      Campaign::run(OsVariant::kWinNT4, shared_world().registry, opt);
  EXPECT_EQ(r.stats.size(), 19u);
  for (const auto& s : r.stats)
    EXPECT_EQ(s.mut->group, FuncGroup::kWin32Sync) << s.mut->name;
  EXPECT_GT(r.total_cases, 0u);
}

TEST(SyncGroup, ParallelCampaignsAreBitIdentical) {
  for (OsVariant v : sim::kAllVariants) {
    if (v == OsVariant::kLinux) continue;  // no sync MuTs there
    CampaignOptions seq, par;
    seq.cap = par.cap = 24;
    seq.group_mask = par.group_mask = kSyncBit;
    par.jobs = 4;
    const auto a = Campaign::run(v, shared_world().registry, seq);
    const auto b = Campaign::run(v, shared_world().registry, par);
    ASSERT_EQ(a.stats.size(), b.stats.size()) << sim::variant_name(v);
    for (std::size_t i = 0; i < a.stats.size(); ++i) {
      EXPECT_EQ(a.stats[i].mut, b.stats[i].mut);
      EXPECT_EQ(a.stats[i].case_codes, b.stats[i].case_codes)
          << sim::variant_name(v) << " / " << a.stats[i].mut->name;
      EXPECT_EQ(a.stats[i].aborts, b.stats[i].aborts);
      EXPECT_EQ(a.stats[i].silent_candidates, b.stats[i].silent_candidates);
    }
    EXPECT_EQ(a.reboots, b.reboots) << sim::variant_name(v);
  }
}

/// Runs one case of a *sync-group* MuT (bare names would resolve to the
/// paper's process-primitives twin) on `machine`, whose variant it takes.
core::CaseResult run_sync_case(std::string_view name,
                               const std::vector<std::string>& value_names,
                               sim::Machine* machine) {
  const core::MuT* mut =
      shared_world().registry.find(name, FuncGroup::kWin32Sync);
  EXPECT_NE(mut, nullptr) << name;
  std::vector<const core::TestValue*> tuple;
  for (std::size_t i = 0; i < value_names.size(); ++i)
    tuple.push_back(find_value(*mut->params[i], value_names[i]));
  core::Executor executor(*machine);
  return executor.run_case(*mut, tuple);
}

TEST(SyncGroup, NtReportsInvalidHandleWhereWin9xSilentlySucceeds) {
  // SetEvent on a closed handle: NT4 reports ERROR_INVALID_HANDLE (a proper
  // error return), Win95's loose stub reports success having done nothing —
  // a Silent candidate for Figure-2 voting.
  sim::Machine nt(OsVariant::kWinNT4);
  const auto rn = run_sync_case("SetEvent", {"ev_closed"}, &nt);
  EXPECT_EQ(rn.outcome, core::Outcome::kPass);
  EXPECT_FALSE(rn.success_no_error);

  sim::Machine w95(OsVariant::kWin95);
  const auto r9 = run_sync_case("SetEvent", {"ev_closed"}, &w95);
  EXPECT_EQ(r9.outcome, core::Outcome::kPass);
  EXPECT_TRUE(r9.success_no_error);
}

TEST(SyncGroup, WaitSemanticsConsumeTheSignal) {
  // An auto-reset event satisfies exactly one zero-timeout wait; a second
  // wait times out.  Manual-reset events keep satisfying waits.
  sim::Machine nt(OsVariant::kWinNT4);
  auto first = run_sync_case("WaitForSingleObject",
                             {"w_event_signaled", "st_0"}, &nt);
  EXPECT_EQ(first.outcome, core::Outcome::kPass);

  // ReleaseMutex without ownership is an error on every variant — Win9x
  // validates mutex ownership even where it skips handle validation.
  sim::Machine w98(OsVariant::kWin98);
  const auto rm = run_sync_case("ReleaseMutex", {"mx_free"}, &w98);
  EXPECT_EQ(rm.outcome, core::Outcome::kPass);
  EXPECT_FALSE(rm.success_no_error);
}

TEST(SyncGroup, InfiniteWaitOnUnsignaledObjectHangsTheTask) {
  sim::Machine nt(OsVariant::kWinNT4);
  const auto r = run_sync_case("WaitForSingleObject",
                               {"w_event_unsignaled", "st_infinite"}, &nt);
  EXPECT_EQ(r.outcome, core::Outcome::kRestart);  // watchdog kills the hang
}

TEST(SyncGroup, StoreRoundTripPreservesGroupFilter) {
  const std::string path = ::testing::TempDir() + "ballista_syncstore." +
                           std::to_string(::getpid()) + ".blog";
  CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = kSyncBit;
  const store::StoreRun written = store::run_with_store(
      OsVariant::kWinNT4, shared_world().registry, opt, path,
      /*resume=*/false);
  ASSERT_TRUE(written.ok) << written.error;

  const store::StoreContents contents = store::read_store_file(path);
  ASSERT_EQ(contents.status, store::ReadStatus::kOk);
  EXPECT_EQ(contents.header.has_group_filter, 1);
  EXPECT_EQ(contents.header.group_mask, kSyncBit);

  // A loaded log replays to the same campaign: the header's group-filter
  // tail re-parameterizes plan_for, so MuT lists line up.
  const store::StoreRun loaded = store::load_result(shared_world().registry,
                                                    path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const core::CampaignDiff d =
      core::diff_campaigns(written.result, loaded.result);
  EXPECT_TRUE(d.identical());

  // Unfiltered logs keep the legacy header: no group-filter tail at all.
  const std::string legacy = path + ".legacy";
  CampaignOptions plain;
  plain.cap = 24;
  const store::StoreRun base = store::run_with_store(
      OsVariant::kWinNT4, shared_world().registry, plain, legacy, false);
  ASSERT_TRUE(base.ok) << base.error;
  const store::StoreContents lc = store::read_store_file(legacy);
  ASSERT_EQ(lc.status, store::ReadStatus::kOk);
  EXPECT_EQ(lc.header.has_group_filter, 0);
  std::remove(path.c_str());
  std::remove(legacy.c_str());
}

TEST(SyncGroup, SilentRatesSplitByPersonality) {
  // Campaign-level version of the contrast: the Win9x stubs turn bad sync
  // handles into Silent candidates, the NT family into reported errors.
  CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = kSyncBit;
  std::uint64_t nt_silent = 0, w95_silent = 0, nt_cases = 0, w95_cases = 0;
  for (const auto& s :
       Campaign::run(OsVariant::kWinNT4, shared_world().registry, opt).stats) {
    nt_silent += s.silent_candidates;
    nt_cases += s.executed;
  }
  for (const auto& s :
       Campaign::run(OsVariant::kWin95, shared_world().registry, opt).stats) {
    w95_silent += s.silent_candidates;
    w95_cases += s.executed;
  }
  ASSERT_GT(nt_cases, 0u);
  ASSERT_GT(w95_cases, 0u);
  const double nt_rate = static_cast<double>(nt_silent) / nt_cases;
  const double w95_rate = static_cast<double>(w95_silent) / w95_cases;
  EXPECT_GT(w95_rate, nt_rate);
  EXPECT_GT(w95_rate, 0.05);
}

}  // namespace
}  // namespace ballista
