// Tests for campaign orchestration: crash interruption, reboots, the
// single-test reproduction pass (Table 3's '*'), and blame attribution for
// deferred crashes.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;

/// A registry with controllable MuTs over one tiny data type.
class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() {
    auto& t = lib.make("tiny");
    for (int i = 0; i < 4; ++i) {
      t.add("v" + std::to_string(i), i >= 2,
            [i](ValueCtx&) { return static_cast<RawArg>(i); });
    }
    tiny = &lib.get("tiny");
  }

  MuT make(std::string name, ApiImpl impl,
           std::map<OsVariant, CrashStyle> hazards = {}) {
    MuT m;
    m.name = std::move(name);
    m.api = ApiKind::kWin32Sys;
    m.group = FuncGroup::kProcessPrimitives;
    m.params = {tiny};
    m.impl = std::move(impl);
    m.variant_mask = kMaskEverything;
    m.hazards = std::move(hazards);
    return m;
  }

  TypeLibrary lib;
  const DataType* tiny = nullptr;
  Registry reg;
};

TEST_F(CampaignTest, CleanMutRunsAllCases) {
  reg.add(make("clean", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run(OsVariant::kLinux, reg);
  ASSERT_EQ(r.stats.size(), 1u);
  EXPECT_EQ(r.stats[0].executed, 4u);
  EXPECT_EQ(r.stats[0].planned, 4u);
  EXPECT_EQ(r.stats[0].passes, 4u);
  EXPECT_FALSE(r.stats[0].catastrophic);
  EXPECT_EQ(r.reboots, 0);
}

TEST_F(CampaignTest, AbortsAndRestartsAreCounted) {
  reg.add(make("mixed", [](CallContext& c) -> CallOutcome {
    switch (c.arg32(0)) {
      case 0: return ok(0);
      case 1: c.proc().mem().read_u8(0, sim::Access::kUser); return ok(0);
      case 2: c.proc().hang("x");
      default: return c.win_fail(87);
    }
  }));
  const auto r = Campaign::run(OsVariant::kWinNT4, reg);
  EXPECT_EQ(r.stats[0].aborts, 1u);
  EXPECT_EQ(r.stats[0].restarts, 1u);
  EXPECT_EQ(r.stats[0].passes, 2u);
  EXPECT_DOUBLE_EQ(r.stats[0].abort_rate(), 0.25);
}

TEST_F(CampaignTest, ImmediateCrashInterruptsTheMut) {
  reg.add(make("crasher", [](CallContext& c) -> CallOutcome {
    if (c.arg32(0) == 1) c.machine().panic(sim::PanicKind::kInduced);
    return ok(0);
  }));
  reg.add(make("after", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run(OsVariant::kWin98, reg);
  ASSERT_EQ(r.stats.size(), 2u);
  const MutStats& crasher = r.stats[0];
  EXPECT_TRUE(crasher.catastrophic);
  EXPECT_EQ(crasher.executed, 2u);        // interrupted after the crash
  EXPECT_EQ(crasher.crash_case, 1);
  EXPECT_TRUE(crasher.crash_reproducible_single);  // crashes alone too
  EXPECT_GE(r.reboots, 2);  // campaign reboot + repro-pass reboot
  // Later MuTs still run on the rebooted machine.
  EXPECT_EQ(r.stats[1].executed, 4u);
}

TEST_F(CampaignTest, DeferredCrashIsStarred) {
  // Corrupts the arena on exceptional args; never panics by itself.
  reg.add(make(
      "deferred",
      [](CallContext& c) -> CallOutcome {
        std::uint8_t junk[4] = {};
        if (c.arg32(0) >= 2) (void)c.k_write(0xDEAD0000, junk);
        return ok(0);
      },
      {{OsVariant::kWin98, CrashStyle::kDeferred}}));
  // Give the fuse kernel entries to burn through.
  reg.add(make("filler", [](CallContext&) { return ok(0); }));
  reg.add(make("filler2", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run(OsVariant::kWin98, reg);
  const MutStats* deferred = r.find("deferred");
  ASSERT_NE(deferred, nullptr);
  EXPECT_TRUE(deferred->catastrophic);
  // The crash does not reproduce as a single test: the Table 3 '*'.
  EXPECT_FALSE(deferred->crash_reproducible_single);
}

TEST_F(CampaignTest, DeferredCrashOnlyOnTheHazardVariant) {
  reg.add(make(
      "deferred",
      [](CallContext& c) -> CallOutcome {
        std::uint8_t junk[4] = {};
        if (c.arg32(0) >= 2) {
          const MemStatus st = c.k_write(0xDEAD0000, junk);
          if (st != MemStatus::kOk) return c.win_mem_fail(st);
        }
        return ok(0);
      },
      {{OsVariant::kWin98, CrashStyle::kDeferred}}));
  reg.add(make("fillerA", [](CallContext&) { return ok(0); }));
  reg.add(make("fillerB", [](CallContext&) { return ok(0); }));
  for (OsVariant v : {OsVariant::kWinNT4, OsVariant::kLinux}) {
    const auto r = Campaign::run(v, reg);
    EXPECT_FALSE(r.stats[0].catastrophic) << sim::variant_name(v);
  }
  const auto r98 = Campaign::run(OsVariant::kWin98, reg);
  EXPECT_TRUE(r98.stats[0].catastrophic);
}

TEST_F(CampaignTest, CaseCodesAreRecordedPerCase) {
  reg.add(make("mixed", [](CallContext& c) -> CallOutcome {
    return c.arg32(0) < 2 ? ok(0) : c.win_fail(87);
  }));
  const auto r = Campaign::run(OsVariant::kWinNT4, reg);
  ASSERT_EQ(r.stats[0].case_codes.size(), 4u);
  EXPECT_EQ(r.stats[0].case_codes[0], CaseCode::kPassNoError);
  EXPECT_EQ(r.stats[0].case_codes[3], CaseCode::kPassWithError);
}

TEST_F(CampaignTest, OnlyApiFilterRestrictsTheRun) {
  reg.add(make("sys", [](CallContext&) { return ok(0); }));
  MuT clib = make("clibfn", [](CallContext&) { return ok(0); });
  clib.api = ApiKind::kCLib;
  reg.add(std::move(clib));
  CampaignOptions opt;
  opt.only_api = ApiKind::kCLib;
  const auto r = Campaign::run(OsVariant::kLinux, reg, opt);
  ASSERT_EQ(r.stats.size(), 1u);
  EXPECT_EQ(r.stats[0].mut->name, "clibfn");
}

TEST_F(CampaignTest, VariantMaskExcludesMuTs) {
  MuT only95 = make("only95", [](CallContext&) { return ok(0); });
  only95.variant_mask = variant_bit(OsVariant::kWin95);
  reg.add(std::move(only95));
  EXPECT_EQ(Campaign::run(OsVariant::kWin95, reg).stats.size(), 1u);
  EXPECT_EQ(Campaign::run(OsVariant::kWin98, reg).stats.size(), 0u);
}

TEST_F(CampaignTest, SilentCandidatesNeedExceptionalArgs) {
  reg.add(make("always_ok", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run(OsVariant::kLinux, reg);
  // tiny pool: v2/v3 are exceptional -> 2 silent candidates out of 4.
  EXPECT_EQ(r.stats[0].silent_candidates, 2u);
}

TEST_F(CampaignTest, TotalsAccumulate) {
  reg.add(make("a", [](CallContext&) { return ok(0); }));
  reg.add(make("b", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run(OsVariant::kLinux, reg);
  EXPECT_EQ(r.total_cases, 8u);
}

}  // namespace
}  // namespace ballista::core
