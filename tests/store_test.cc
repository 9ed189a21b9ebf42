// Persistent campaign store: write/read round-trips, fingerprint interlock,
// codec round-trips and the cross-run diff engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/wire.h"
#include "core/diff.h"
#include "core/sched.h"
#include "store/store.h"
#include "tests/store_test_util.h"
#include "tests/test_util.h"

namespace ballista::store {
namespace {

using core::CampaignResult;
using sim::OsVariant;
using testing::expect_same_result;
using testing::shared_world;
using testing::TinyWorld;
using testing::tiny_options;

// The pid keeps paths unique when ctest runs the gtest-discovered copy of a
// test and its aggregate entry (store_fuzz / store_resume) concurrently.
std::string temp_blog(const std::string& stem) {
  return ::testing::TempDir() + "ballista_" + stem + "." +
         std::to_string(::getpid()) + ".blog";
}

// --- write / read round trips -----------------------------------------------

TEST(Store, StoredRunMatchesPlainRunAndLoadsBack) {
  const auto& world = shared_world();
  // win98 exercises deferred-hazard chains and crash traces; nt4 the
  // splittable no-hazard plans.
  for (OsVariant v : {OsVariant::kWin98, OsVariant::kWinNT4}) {
    core::CampaignOptions opt;
    opt.cap = 25;
    const std::string label = std::string(sim::variant_name(v));
    const CampaignResult plain = core::Campaign::run(v, world.registry, opt);

    const std::string path = temp_blog("roundtrip");
    const StoreRun stored =
        run_with_store(v, world.registry, opt, path, /*resume=*/false);
    ASSERT_TRUE(stored.ok) << stored.error;
    EXPECT_EQ(stored.shards_reused, 0u) << label;
    expect_same_result(plain, stored.result, label + " stored-vs-plain");

    const StoreContents contents = read_store_file(path);
    EXPECT_EQ(contents.status, ReadStatus::kOk) << contents.error;
    EXPECT_TRUE(contents.complete) << label;
    EXPECT_EQ(contents.outcomes.size(), stored.shards_executed) << label;

    const StoreRun loaded = load_result(world.registry, path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    expect_same_result(plain, loaded.result, label + " loaded-vs-plain");
    std::remove(path.c_str());
  }
}

TEST(Store, ShardOutcomeCodecRoundTripsEveryShard) {
  const auto& world = shared_world();
  core::CampaignOptions opt;
  opt.cap = 25;
  std::vector<core::ShardOutcome> outcomes;
  opt.on_shard_complete = [&](const core::ShardOutcome& o) {
    outcomes.push_back(o);
  };
  // win95 produces catastrophic shards, so crash traces and tuples travel
  // through the codec too.
  core::Campaign::run(OsVariant::kWin95, world.registry, opt);
  ASSERT_FALSE(outcomes.empty());

  for (const core::ShardOutcome& o : outcomes) {
    const std::vector<std::uint8_t> bytes = encode_shard_outcome(o);
    core::ShardOutcome back;
    ASSERT_TRUE(decode_shard_outcome(bytes.data(), bytes.size(), back));
    EXPECT_EQ(back.shard_index, o.shard_index);
    EXPECT_EQ(back.reboots, o.reboots);
    EXPECT_EQ(back.executed_cases, o.executed_cases);
    ASSERT_EQ(back.partials.size(), o.partials.size());
    for (std::size_t i = 0; i < o.partials.size(); ++i) {
      EXPECT_EQ(back.partials[i].stats.mut, nullptr);
      EXPECT_EQ(back.partials[i].stats.crash_trace,
                o.partials[i].stats.crash_trace);
    }
    // Re-encoding the decode must reproduce the exact bytes.
    EXPECT_EQ(encode_shard_outcome(back), bytes);
  }
}

// --- fingerprint interlock ---------------------------------------------------

TEST(Store, ResumeRejectsFingerprintMismatch) {
  const auto& world = shared_world();
  core::CampaignOptions opt;
  opt.cap = 20;
  const std::string path = temp_blog("fingerprint");
  const StoreRun first =
      run_with_store(OsVariant::kWinNT4, world.registry, opt, path, false);
  ASSERT_TRUE(first.ok) << first.error;

  // Different cap => different plan => the log must be refused, loudly.
  core::CampaignOptions other = opt;
  other.cap = 21;
  const StoreRun mismatched =
      run_with_store(OsVariant::kWinNT4, world.registry, other, path, true);
  EXPECT_FALSE(mismatched.ok);
  EXPECT_NE(mismatched.error.find("cap"), std::string::npos)
      << mismatched.error;

  // Different variant is also a different fingerprint.
  const StoreRun wrong_os =
      run_with_store(OsVariant::kLinux, world.registry, opt, path, true);
  EXPECT_FALSE(wrong_os.ok);

  // A registry whose value pool differs must be refused too.
  TinyWorld tiny;
  const StoreRun wrong_registry =
      run_with_store(OsVariant::kWinNT4, tiny.registry, opt, path, true);
  EXPECT_FALSE(wrong_registry.ok);
  std::remove(path.c_str());
}

TEST(Store, RetiredShardBytesTailIsABadHeader) {
  // A header payload as format version 1 lays it out, with no tails.
  std::vector<std::uint8_t> header;
  wire::put_u8(header, static_cast<std::uint8_t>(OsVariant::kWinNT4));
  wire::put_u64(header, 0x1111);  // mut_list_hash
  wire::put_u64(header, 0x2222);  // value_pool_hash
  wire::put_u64(header, 20);      // cap
  wire::put_u64(header, 7);       // seed
  wire::put_u8(header, 0);        // has_only_api
  wire::put_u8(header, 0);        // only_api
  wire::put_u8(header, 1);        // record_cases
  wire::put_u8(header, 1);        // repro_pass
  wire::put_u64(header, 2048);    // shard_cases
  wire::put_u64(header, 3);       // plan_shards
  wire::put_u64(header, 60);      // total_planned
  const auto log_with = [](const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> log;
    wire::put_u32(log, kMagic);
    wire::put_u32(log, kFormatVersion);
    wire::put_frame(log, static_cast<std::uint8_t>(RecordType::kRunHeader),
                    payload);
    return log;
  };
  ASSERT_EQ(read_store(log_with(header)).status, ReadStatus::kOk);

  // Tail tag 3 carried a retired per-shard byte budget, which moved shard
  // boundaries: such a log must fail loudly, never be re-planned.
  wire::put_u8(header, 3);
  wire::put_u64(header, 1u << 20);
  const StoreContents c = read_store(log_with(header));
  EXPECT_EQ(c.status, ReadStatus::kBadHeader);
  EXPECT_NE(c.error.find("header"), std::string::npos) << c.error;
}

TEST(Store, LoadRejectsIncompleteAndBogusLogs) {
  const auto& world = shared_world();
  const std::string path = temp_blog("incomplete");

  // Header-only log: never sealed.
  {
    core::CampaignOptions opt;
    opt.cap = 20;
    const core::Plan plan =
        core::plan_for(OsVariant::kWinNT4, world.registry, opt);
    std::string err;
    auto log = CampaignStore::create(path, make_run_header(plan, opt), &err);
    ASSERT_NE(log, nullptr) << err;
  }
  const StoreRun incomplete = load_result(world.registry, path);
  EXPECT_FALSE(incomplete.ok);
  EXPECT_NE(incomplete.error.find("incomplete"), std::string::npos)
      << incomplete.error;

  // Not a log at all.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "definitely not a campaign log";
  }
  const StoreRun bogus = load_result(world.registry, path);
  EXPECT_FALSE(bogus.ok);
  EXPECT_EQ(bogus.log_status, ReadStatus::kBadHeader);

  const StoreRun missing = load_result(world.registry, path + ".nope");
  EXPECT_FALSE(missing.ok);
  std::remove(path.c_str());
}

TEST(Store, StoreRefusesAmbientStateCampaigns) {
  const auto& world = shared_world();
  core::CampaignOptions opt;
  opt.cap = 20;
  opt.machine_setup = [](sim::Machine&) {};
  const StoreRun run = run_with_store(OsVariant::kWinNT4, world.registry, opt,
                                      temp_blog("ambient"), false);
  EXPECT_FALSE(run.ok);
}

// --- cross-run diffing -------------------------------------------------------

TEST(StoreDiff, IdenticalRunsShowNoDrift) {
  const auto& world = shared_world();
  core::CampaignOptions opt;
  opt.cap = 25;
  const CampaignResult a =
      core::Campaign::run(OsVariant::kWin2000, world.registry, opt);
  const core::CampaignDiff d = core::diff_campaigns(a, a);
  EXPECT_TRUE(d.identical());
  EXPECT_EQ(d.total_verdict_changes(), 0u);
  EXPECT_GT(d.muts_compared, 0u);
  EXPECT_GT(d.cases_compared, 0u);
}

TEST(StoreDiff, PerturbedBehaviourIsPinpointedToExactCases) {
  TinyWorld baseline;
  TinyWorld perturbed(/*perturb=*/true);
  const core::CampaignOptions opt = tiny_options();
  const CampaignResult before =
      core::Campaign::run(OsVariant::kWinNT4, baseline.registry, opt);
  const CampaignResult after =
      core::Campaign::run(OsVariant::kWinNT4, perturbed.registry, opt);

  const core::CampaignDiff d = core::diff_campaigns(before, after);
  ASSERT_EQ(d.drift.size(), 1u);
  const core::MutDrift& m = d.drift.front();
  EXPECT_EQ(m.mut, "tiny_probe");
  EXPECT_TRUE(m.has(core::DriftKind::kVerdictChanged));
  // Exactly the one perturbed tuple (value v3 at case index 3) flipped.
  ASSERT_EQ(m.cases.size(), 1u);
  EXPECT_EQ(m.cases[0].case_index, 3u);
  EXPECT_EQ(m.cases[0].before, core::CaseCode::kPassNoError);
  EXPECT_EQ(m.cases[0].after, core::CaseCode::kHindering);
  EXPECT_EQ(d.total_verdict_changes(), 1u);
}

TEST(StoreDiff, AddedAndRemovedMutsAreReported) {
  TinyWorld tiny;
  const core::CampaignOptions opt = tiny_options();
  const CampaignResult both =
      core::Campaign::run(OsVariant::kWinNT4, tiny.registry, opt);
  ASSERT_EQ(both.stats.size(), 2u);

  // A run missing tiny_echo: drop its stats rather than rebuild a registry.
  CampaignResult less = both;
  less.stats.erase(less.stats.begin() + 1);

  const core::CampaignDiff removed = core::diff_campaigns(both, less);
  ASSERT_EQ(removed.drift.size(), 1u);
  EXPECT_EQ(removed.drift[0].mut, "tiny_echo");
  EXPECT_TRUE(removed.drift[0].has(core::DriftKind::kMutRemoved));

  const core::CampaignDiff added = core::diff_campaigns(less, both);
  ASSERT_EQ(added.drift.size(), 1u);
  EXPECT_TRUE(added.drift[0].has(core::DriftKind::kMutAdded));
}

TEST(StoreDiff, SealedLogsDiffLikeInMemoryResults) {
  // The end-to-end path the CLI uses: two stored runs, loaded back, diffed.
  TinyWorld baseline;
  TinyWorld perturbed(/*perturb=*/true);
  const core::CampaignOptions opt = tiny_options();
  const std::string path_a = temp_blog("diff_a");
  const std::string path_b = temp_blog("diff_b");

  const StoreRun a = run_with_store(OsVariant::kWinNT4, baseline.registry, opt,
                                    path_a, false);
  const StoreRun b = run_with_store(OsVariant::kWinNT4, perturbed.registry,
                                    opt, path_b, false);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;

  const StoreRun la = load_result(baseline.registry, path_a);
  const StoreRun lb = load_result(perturbed.registry, path_b);
  ASSERT_TRUE(la.ok) << la.error;
  ASSERT_TRUE(lb.ok) << lb.error;

  const core::CampaignDiff d = core::diff_campaigns(la.result, lb.result);
  EXPECT_EQ(d.total_verdict_changes(), 1u);
  ASSERT_EQ(d.drift.size(), 1u);
  EXPECT_EQ(d.drift[0].mut, "tiny_probe");

  EXPECT_TRUE(core::diff_campaigns(la.result, la.result).identical());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace ballista::store
