// Tests for the Figure 2 Silent-failure voting analysis.
#include <gtest/gtest.h>

#include <deque>

#include "core/voting.h"

namespace ballista::core {
namespace {

/// A MuT descriptor owned by this file's pool for the test binary's lifetime.
MuT* make_mut(std::string name, FuncGroup group = FuncGroup::kCString) {
  static std::deque<MuT> pool;
  MuT* m = &pool.emplace_back();
  m->name = std::move(name);
  m->api = ApiKind::kCLib;
  m->group = group;
  m->variant_mask = kMaskEverything;
  return m;
}

CampaignResult variant_result(sim::OsVariant v, MuT* m,
                              std::vector<CaseCode> codes) {
  CampaignResult r;
  r.variant = v;
  MutStats s;
  s.mut = m;
  s.executed = codes.size();
  s.planned = codes.size();
  s.case_codes = std::move(codes);
  r.stats.push_back(std::move(s));
  return r;
}

TEST(Voting, PassNoErrorAgainstErrorIsSilent) {
  MuT* m = make_mut("fn");
  std::vector<CampaignResult> rs;
  rs.push_back(variant_result(sim::OsVariant::kWin95, m,
                              {CaseCode::kPassNoError, CaseCode::kPassNoError}));
  rs.push_back(variant_result(sim::OsVariant::kWinNT4, m,
                              {CaseCode::kPassWithError, CaseCode::kAbort}));
  const VotingResult v = vote_silent(rs);
  EXPECT_DOUBLE_EQ(v.per_mut[0].at("fn"), 1.0);   // both cases voted silent
  EXPECT_DOUBLE_EQ(v.per_mut[1].at("fn"), 0.0);   // NT reported properly
  EXPECT_DOUBLE_EQ(v.overall_silent[0], 1.0);
}

TEST(Voting, UnanimousPassNoErrorIsNotSilent) {
  // The paper's acknowledged blind spot: "it cannot find instances in which
  // all versions of Windows suffer a Silent failure."
  MuT* m = make_mut("fn");
  std::vector<CampaignResult> rs;
  rs.push_back(
      variant_result(sim::OsVariant::kWin95, m, {CaseCode::kPassNoError}));
  rs.push_back(
      variant_result(sim::OsVariant::kWinNT4, m, {CaseCode::kPassNoError}));
  const VotingResult v = vote_silent(rs);
  EXPECT_DOUBLE_EQ(v.overall_silent[0], 0.0);
  EXPECT_DOUBLE_EQ(v.overall_silent[1], 0.0);
}

TEST(Voting, RestartAndHinderingCountAsErrorIndications) {
  MuT* m = make_mut("fn");
  std::vector<CampaignResult> rs;
  rs.push_back(variant_result(sim::OsVariant::kWin95, m,
                              {CaseCode::kPassNoError, CaseCode::kPassNoError}));
  rs.push_back(variant_result(sim::OsVariant::kWin98, m,
                              {CaseCode::kRestart, CaseCode::kHindering}));
  const VotingResult v = vote_silent(rs);
  EXPECT_DOUBLE_EQ(v.per_mut[0].at("fn"), 1.0);
}

TEST(Voting, CatastrophicIsNotAnErrorIndication) {
  // A sibling's system crash yields no comparable observation.
  MuT* m = make_mut("fn");
  std::vector<CampaignResult> rs;
  rs.push_back(
      variant_result(sim::OsVariant::kWin95, m, {CaseCode::kPassNoError}));
  rs.push_back(
      variant_result(sim::OsVariant::kWin98, m, {CaseCode::kCatastrophic}));
  const VotingResult v = vote_silent(rs);
  EXPECT_DOUBLE_EQ(v.per_mut[0].at("fn"), 0.0);
}

TEST(Voting, TruncatedRunsCompareOnlyCommonPrefix) {
  MuT* m = make_mut("fn");
  std::vector<CampaignResult> rs;
  rs.push_back(variant_result(
      sim::OsVariant::kWin95, m,
      {CaseCode::kPassNoError, CaseCode::kPassNoError, CaseCode::kPassNoError,
       CaseCode::kPassNoError}));
  rs.push_back(variant_result(sim::OsVariant::kWin98, m,
                              {CaseCode::kPassWithError}));  // interrupted
  const VotingResult v = vote_silent(rs);
  // Only case 0 is comparable; it votes silent -> rate 1/1.
  EXPECT_DOUBLE_EQ(v.per_mut[0].at("fn"), 1.0);
}

TEST(Voting, MutMissingOnOneVariantIsExcluded) {
  MuT* a = make_mut("everywhere");
  MuT* b = make_mut("only95");
  std::vector<CampaignResult> rs(2);
  rs[0].variant = sim::OsVariant::kWin95;
  rs[1].variant = sim::OsVariant::kWin98;
  for (MuT* m : {a, b}) {
    MutStats s;
    s.mut = m;
    s.executed = 1;
    s.case_codes = {CaseCode::kPassNoError};
    rs[0].stats.push_back(s);
  }
  MutStats s;
  s.mut = a;
  s.executed = 1;
  s.case_codes = {CaseCode::kAbort};
  rs[1].stats.push_back(s);

  const VotingResult v = vote_silent(rs);
  EXPECT_EQ(v.per_mut[0].count("everywhere"), 1u);
  EXPECT_EQ(v.per_mut[0].count("only95"), 0u);
}

TEST(Voting, GroupAveragesAreUniform) {
  MuT* a = make_mut("a", FuncGroup::kCString);
  MuT* b = make_mut("b", FuncGroup::kCString);
  std::vector<CampaignResult> rs(2);
  rs[0].variant = sim::OsVariant::kWin95;
  rs[1].variant = sim::OsVariant::kWin98;
  auto add = [](CampaignResult& r, MuT* m, std::vector<CaseCode> codes) {
    MutStats s;
    s.mut = m;
    s.executed = codes.size();
    s.case_codes = std::move(codes);
    r.stats.push_back(std::move(s));
  };
  // a: 95 silent on both cases; b: silent on neither.
  add(rs[0], a, {CaseCode::kPassNoError, CaseCode::kPassNoError});
  add(rs[0], b, {CaseCode::kPassWithError, CaseCode::kPassWithError});
  add(rs[1], a, {CaseCode::kAbort, CaseCode::kAbort});
  add(rs[1], b, {CaseCode::kPassWithError, CaseCode::kPassWithError});
  const VotingResult v = vote_silent(rs);
  const std::size_t cstring_idx =
      static_cast<std::size_t>(FuncGroup::kCString) -
      static_cast<std::size_t>(FuncGroup::kMemoryManagement);
  EXPECT_DOUBLE_EQ(v.by_group[0][cstring_idx].silent_rate, 0.5);
  EXPECT_EQ(v.by_group[0][cstring_idx].functions, 2);
}

TEST(Voting, EmptyInputYieldsEmptyResult) {
  const VotingResult v = vote_silent({});
  EXPECT_TRUE(v.by_group.empty());
  EXPECT_TRUE(v.overall_silent.empty());
}

}  // namespace
}  // namespace ballista::core
