// Crash-consistency campaigns (core/crashplan + the store's crash flavor):
// plan derivation from the group mask, merged-result determinism across
// --jobs, the shard-hook contract of both engines, agreement between the
// campaign engine and the standalone crash_probe_case repro path, the
// kCrashOutcome codec, and the crash log's resume/load drivers including
// record-flavor strictness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ballista.h"
#include "core/crashplan.h"
#include "sim/mutation.h"
#include "store/store.h"
#include "tests/store_test_util.h"
#include "tests/test_util.h"

namespace ballista {
namespace {

using core::CrashOptions;
using core::CrashShardOutcome;
using core::CrashVerdict;
using core::crash_group_bit;
using sim::OsVariant;
using store::CampaignStore;
using store::ReadStatus;
using testing::shared_world;

// The pid keeps paths unique when ctest runs the gtest-discovered copy of a
// test and the crashplan aggregate entry concurrently.
std::string temp_blog(const std::string& stem) {
  return ::testing::TempDir() + "ballista_crash_" + stem + "." +
         std::to_string(::getpid()) + ".blog";
}

/// Small-but-real options: a few cuts per case over the default groups keeps
/// each test in the low hundreds of executed cases.
CrashOptions small_options() {
  CrashOptions opt;
  opt.cap = 8;
  opt.max_cuts = 3;
  opt.shard_cases = 16;
  return opt;
}

TEST(CrashPlan, SelectsOnlyGroupsInTheMask) {
  const auto& world = shared_world();
  const core::Plan plan =
      core::crash_plan_for(OsVariant::kWinNT4, world.registry, small_options());
  ASSERT_FALSE(plan.muts.empty());
  std::uint64_t planned = 0;
  for (const core::MuT* m : plan.muts) {
    const bool file_dir = m->group == core::FuncGroup::kFileDirAccess;
    const bool memory = m->group == core::FuncGroup::kMemoryManagement;
    EXPECT_TRUE(file_dir || memory) << m->name;
  }
  for (const core::Shard& s : plan.shards)
    for (const core::ShardItem& it : s.items) {
      EXPECT_LE(it.range.count, small_options().shard_cases);
      EXPECT_EQ(plan.muts[it.mut_index], it.mut);
      planned += it.range.count;
    }
  EXPECT_EQ(planned, plan.total_planned);

  CrashOptions mem_only = small_options();
  mem_only.group_mask = crash_group_bit(core::FuncGroup::kMemoryManagement);
  const core::Plan mem_plan =
      core::crash_plan_for(OsVariant::kWinNT4, world.registry, mem_only);
  ASSERT_FALSE(mem_plan.muts.empty());
  EXPECT_LT(mem_plan.muts.size(), plan.muts.size());
  for (const core::MuT* m : mem_plan.muts)
    EXPECT_EQ(m->group, core::FuncGroup::kMemoryManagement) << m->name;
}

TEST(CrashEngine, MergedResultIsIdenticalForAnyJobsValue) {
  const auto& world = shared_world();
  CrashOptions opt = small_options();
  const auto seq =
      core::run_crash_engine(OsVariant::kWin95, world.registry, opt);
  const auto seq2 =
      core::run_crash_engine(OsVariant::kWin95, world.registry, opt);
  EXPECT_EQ(core::diff_crash_results(seq, seq2), "");

  opt.jobs = 4;
  const auto par =
      core::run_crash_engine(OsVariant::kWin95, world.registry, opt);
  EXPECT_EQ(core::diff_crash_results(seq, par), "");
  EXPECT_GT(seq.total_points, 0u);
  EXPECT_GT(seq.total_cuts, 0u);
  EXPECT_EQ(seq.total_cuts, seq.consistent + seq.inconsistent + seq.no_cut);
}

TEST(CrashEngine, ThrowingHookStopsTheCampaign) {
  // CrashOptions promises CampaignOptions' hook contract: a throwing
  // on_shard_complete aborts the campaign at any jobs value, and no hook
  // call follows the throw.  Both engines, so the contract cannot drift.
  struct HookFailed {};
  const auto& world = shared_world();
  for (const unsigned jobs : {1u, 4u}) {
    const std::string label = "jobs=" + std::to_string(jobs);
    int calls = 0;  // hook calls never overlap: the engine takes them in turn

    CrashOptions crash = small_options();
    crash.shard_cases = 4;
    crash.jobs = jobs;
    ASSERT_GT(core::crash_plan_for(OsVariant::kWinNT4, world.registry, crash)
                  .shards.size(),
              2 * jobs);
    crash.on_shard_complete = [&](const CrashShardOutcome&) {
      if (++calls == 2) throw HookFailed{};
    };
    EXPECT_THROW(
        core::run_crash_engine(OsVariant::kWinNT4, world.registry, crash),
        HookFailed)
        << label;
    EXPECT_EQ(calls, 2) << "crash engine, " << label;

    core::CampaignOptions robust;
    robust.cap = 8;
    robust.shard_cases = 4;
    robust.jobs = jobs;
    ASSERT_GT(core::plan_for(OsVariant::kWinNT4, world.registry, robust)
                  .shards.size(),
              2 * jobs);
    calls = 0;
    robust.on_shard_complete = [&](const core::ShardOutcome&) {
      if (++calls == 2) throw HookFailed{};
    };
    EXPECT_THROW(
        core::Campaign::run(OsVariant::kWinNT4, world.registry, robust),
        HookFailed)
        << label;
    EXPECT_EQ(calls, 2) << "robustness engine, " << label;
  }
}

/// Runs one engine (`run(opt)`) at opt.jobs with every third shard adopted
/// from `reference`, the outcomes of a jobs-1 run by shard index, and checks
/// the hook calls: never two at once, one per executed shard, none for an
/// adopted shard.
template <class Options, class Outcome, class Run>
void expect_hook_contract(Options opt, const std::vector<Outcome>& reference,
                          Run run, const std::string& label) {
  std::vector<unsigned> reported(reference.size(), 0);
  std::atomic<unsigned> in_flight{0};
  std::atomic<bool> overlapped{false};
  opt.shard_cache = [&](const core::Shard& s) -> const Outcome* {
    return s.index % 3 == 0 ? &reference[s.index] : nullptr;
  };
  opt.on_shard_complete = [&](const Outcome& o) {
    // The in-flight count must never go above 1.
    if (in_flight.fetch_add(1) != 0) overlapped = true;
    // Hold the call open long enough for another worker's shard to finish.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    ++reported[o.shard_index];
    in_flight.fetch_sub(1);
  };
  run(opt);
  EXPECT_FALSE(overlapped.load()) << label;
  for (std::size_t i = 0; i < reported.size(); ++i)
    EXPECT_EQ(reported[i], i % 3 == 0 ? 0u : 1u) << label << ", shard " << i;
}

TEST(CrashEngine, HookCallsNeverOverlapAndSkipAdoptedShards) {
  // Above jobs 1 the hook runs on the worker that finished the shard, so
  // only the engine's mutex keeps two calls apart.  Both engines, so the
  // contract cannot drift.
  const auto& world = shared_world();
  CrashOptions crash = small_options();
  crash.shard_cases = 4;
  std::vector<CrashShardOutcome> crash_ref(
      core::crash_plan_for(OsVariant::kWinNT4, world.registry, crash)
          .shards.size());
  crash.on_shard_complete = [&](const CrashShardOutcome& o) {
    crash_ref[o.shard_index] = o;
  };
  core::run_crash_engine(OsVariant::kWinNT4, world.registry, crash);
  crash.on_shard_complete = nullptr;

  core::CampaignOptions robust;
  robust.cap = 8;
  robust.shard_cases = 4;
  std::vector<core::ShardOutcome> robust_ref(
      core::plan_for(OsVariant::kWinNT4, world.registry, robust)
          .shards.size());
  robust.on_shard_complete = [&](const core::ShardOutcome& o) {
    robust_ref[o.shard_index] = o;
  };
  core::Campaign::run(OsVariant::kWinNT4, world.registry, robust);
  robust.on_shard_complete = nullptr;

  for (const unsigned jobs : {4u, 8u}) {
    const std::string label = "jobs=" + std::to_string(jobs);
    crash.jobs = robust.jobs = jobs;
    ASSERT_GT(crash_ref.size(), 2 * jobs);
    ASSERT_GT(robust_ref.size(), 2 * jobs);
    expect_hook_contract(
        crash, crash_ref,
        [&](const CrashOptions& o) {
          core::run_crash_engine(OsVariant::kWinNT4, world.registry, o);
        },
        "crash engine, " + label);
    expect_hook_contract(
        robust, robust_ref,
        [&](const core::CampaignOptions& o) {
          core::Campaign::run(OsVariant::kWinNT4, world.registry, o);
        },
        "robustness engine, " + label);
  }
}

TEST(CrashProbe, MatchesTheCountingPassAndRejectsOutOfRangeCuts) {
  const auto& world = shared_world();
  const core::MuT* mut = world.registry.find("CreateFile");
  ASSERT_NE(mut, nullptr);

  // Find a case with at least one persistence point, the same way the
  // campaign's counting pass does.
  sim::Machine machine(OsVariant::kWinNT4);
  core::Executor executor(machine);
  sim::MutationHub& hub = machine.mutations();
  core::TupleGenerator gen(*mut, /*cap=*/8);
  std::uint64_t case_index = 0, points = 0;
  for (; case_index < gen.count(); ++case_index) {
    hub.reset_counts();
    hub.set_counting(true);
    executor.run_case(*mut, gen.tuple(case_index),
                      static_cast<std::int64_t>(case_index));
    hub.set_counting(false);
    if (machine.crashed()) machine.restore(sim::RestoreLevel::kReboot);
    if (hub.seq() > 0) {
      points = hub.seq();
      break;
    }
  }
  ASSERT_GT(points, 0u) << "no CreateFile case announced a mutation point";

  // Every in-range cut fires and yields a real verdict; the detail string is
  // empty exactly when the verdict is consistent.
  const std::uint64_t seed = CrashOptions{}.seed;
  for (std::uint64_t k = 1; k <= points; ++k) {
    std::string detail;
    const CrashVerdict v = core::crash_probe_case(
        OsVariant::kWinNT4, *mut, case_index, k, /*cap=*/8, seed, &detail);
    EXPECT_NE(v, CrashVerdict::kNoCut) << "k=" << k;
    EXPECT_EQ(detail.empty(), v == CrashVerdict::kConsistent) << "k=" << k;
  }

  // A cut past the counting pass's point total never fires.
  std::string detail;
  EXPECT_EQ(core::crash_probe_case(OsVariant::kWinNT4, *mut, case_index,
                                   points + 1, /*cap=*/8, seed, &detail),
            CrashVerdict::kNoCut);
  EXPECT_NE(detail, "");
  // And an out-of-range case index is reported as kNoCut, not a crash.
  EXPECT_EQ(core::crash_probe_case(OsVariant::kWinNT4, *mut, gen.count() + 7, 1,
                                   /*cap=*/8, seed, nullptr),
            CrashVerdict::kNoCut);
}

TEST(CrashStoreCodec, CrashShardOutcomeRoundTripsExactly) {
  CrashShardOutcome o;
  o.shard_index = 3;
  o.cuts_tested = 42;
  o.reboots = 45;
  CrashShardOutcome::MutPartial p;
  p.mut_index = 2;
  p.range_first = 16;
  p.stats.planned = 24;
  p.stats.cases_counted = 8;
  p.stats.points_total = 31;
  p.stats.cuts_tested = 42;
  p.stats.consistent = 40;
  p.stats.inconsistent = 1;
  p.stats.no_cut = 1;
  for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
    p.stats.point_counts[k] = 100 + k;
  p.stats.findings.push_back(
      {/*case_index=*/5, /*cut_at=*/2, CrashVerdict::kInconsistent,
       "fs: node dangles"});
  p.stats.findings.push_back(
      {/*case_index=*/6, /*cut_at=*/1, CrashVerdict::kNoCut,
       "armed cut at point 1 fired at 0"});
  o.partials.push_back(p);

  const std::vector<std::uint8_t> bytes = store::encode_crash_shard_outcome(o);
  CrashShardOutcome back;
  ASSERT_TRUE(
      store::decode_crash_shard_outcome(bytes.data(), bytes.size(), back));
  EXPECT_EQ(back.shard_index, o.shard_index);
  EXPECT_EQ(back.cuts_tested, o.cuts_tested);
  EXPECT_EQ(back.reboots, o.reboots);
  ASSERT_EQ(back.partials.size(), 1u);
  const auto& q = back.partials[0];
  EXPECT_EQ(q.mut_index, p.mut_index);
  EXPECT_EQ(q.range_first, p.range_first);
  EXPECT_EQ(q.stats.points_total, p.stats.points_total);
  EXPECT_EQ(q.stats.point_counts, p.stats.point_counts);
  ASSERT_EQ(q.stats.findings.size(), 2u);
  EXPECT_EQ(q.stats.findings[0], p.stats.findings[0]);
  EXPECT_EQ(q.stats.findings[1], p.stats.findings[1]);

  // Any truncation is a strict decode failure, never a partial record.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    CrashShardOutcome scratch;
    EXPECT_FALSE(store::decode_crash_shard_outcome(bytes.data(), cut, scratch))
        << "decoder accepted a " << cut << "-byte prefix";
  }
}

TEST(CrashStoreCodec, CrashHeaderTailRoundTripsThroughAFile) {
  const auto& world = shared_world();
  CrashOptions opt = small_options();
  opt.group_mask = crash_group_bit(core::FuncGroup::kFileDirAccess);
  const core::Plan plan =
      core::crash_plan_for(OsVariant::kWin2000, world.registry, opt);
  const store::RunHeader header = store::make_run_header(plan, opt);
  EXPECT_EQ(header.crash_mode, 1u);
  EXPECT_EQ(header.crash_max_cuts, opt.max_cuts);
  EXPECT_EQ(header.crash_group_mask, opt.group_mask);
  EXPECT_EQ(header.record_cases, 0u);

  const std::string path = temp_blog("header");
  std::string err;
  {
    auto log = CampaignStore::create(path, header, &err);
    ASSERT_NE(log, nullptr) << err;
  }
  const store::StoreContents c = store::read_store_file(path);
  EXPECT_EQ(c.status, ReadStatus::kOk) << c.error;
  EXPECT_EQ(c.header, header);
  std::remove(path.c_str());
}

TEST(CrashStore, FreshRunSealsAndLoadsBack) {
  const auto& world = shared_world();
  const CrashOptions opt = small_options();
  const std::string path = temp_blog("fresh");
  const store::CrashStoreRun run = store::run_with_store(
      OsVariant::kWinNT4, world.registry, opt, path, /*resume=*/false);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.shards_reused, 0u);
  EXPECT_GT(run.shards_executed, 0u);
  EXPECT_GT(run.result.total_cuts, 0u);

  const store::CrashStoreRun loaded =
      store::load_crash_result(world.registry, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.shards_executed, 0u);
  EXPECT_EQ(core::diff_crash_results(run.result, loaded.result), "");

  // The in-memory engine and the stored run agree exactly.
  const auto direct =
      core::run_crash_engine(OsVariant::kWinNT4, world.registry, opt);
  EXPECT_EQ(core::diff_crash_results(direct, run.result), "");
  std::remove(path.c_str());
}

TEST(CrashStore, TruncatedLogResumesToTheIdenticalResult) {
  const auto& world = shared_world();
  // jobs 4 sends the replayed prefix through the executor's cache path on
  // worker threads, and the re-executed suffix through the completion rings.
  for (const unsigned jobs : {1u, 4u}) {
    const std::string label = "jobs=" + std::to_string(jobs);
    CrashOptions opt = small_options();
    opt.jobs = jobs;
    const std::string master = temp_blog("resume_master");
    const store::CrashStoreRun full = store::run_with_store(
        OsVariant::kWinNT4, world.registry, opt, master, false);
    ASSERT_TRUE(full.ok) << label << ": " << full.error;

    std::vector<char> bytes;
    {
      std::ifstream f(master, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 64u) << label;

    // Cut the sealed log roughly in half (mid-frame) and resume: the
    // replayed prefix plus the re-executed suffix must merge to the
    // identical result.
    const std::string stub = temp_blog("resume_cut");
    {
      std::ofstream f(stub, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    const store::CrashStoreRun resumed = store::run_with_store(
        OsVariant::kWinNT4, world.registry, opt, stub, /*resume=*/true);
    ASSERT_TRUE(resumed.ok) << label << ": " << resumed.error;
    EXPECT_GT(resumed.shards_reused, 0u) << label;
    EXPECT_GT(resumed.shards_executed, 0u) << label;
    EXPECT_EQ(core::diff_crash_results(full.result, resumed.result), "")
        << label;

    const store::CrashStoreRun loaded =
        store::load_crash_result(world.registry, stub);
    ASSERT_TRUE(loaded.ok) << label << ": " << loaded.error;
    EXPECT_EQ(core::diff_crash_results(full.result, loaded.result), "")
        << label;
    std::remove(master.c_str());
    std::remove(stub.c_str());
  }
}

TEST(CrashStore, ResumeRejectsFingerprintMismatch) {
  const auto& world = shared_world();
  const CrashOptions opt = small_options();
  const std::string path = temp_blog("fingerprint");
  ASSERT_TRUE(store::run_with_store(OsVariant::kWinNT4, world.registry, opt,
                                    path, /*resume=*/false)
                  .ok);
  // Tear the log in half, so a resume that trusted it would trim the torn
  // tail and append to it.
  std::vector<char> bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  CrashOptions more_cuts = opt;
  more_cuts.max_cuts = opt.max_cuts + 1;
  CrashOptions memory_only = opt;
  memory_only.group_mask = crash_group_bit(core::FuncGroup::kMemoryManagement);
  for (const auto& [other, field] :
       {std::pair{more_cuts, "crash_max_cuts"},
        std::pair{memory_only, "crash_group_mask"}}) {
    const store::CrashStoreRun r = store::run_with_store(
        OsVariant::kWinNT4, world.registry, other, path, /*resume=*/true);
    EXPECT_FALSE(r.ok) << field;
    EXPECT_NE(r.error.find(field), std::string::npos) << r.error;
  }

  // A refused resume leaves the log exactly as it found it.
  std::ifstream f(path, std::ios::binary);
  EXPECT_EQ(std::vector<char>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>()),
            bytes);
  std::remove(path.c_str());
}

TEST(CrashStore, RecordFlavorsNeverMix) {
  const auto& world = shared_world();
  const CrashOptions copt = small_options();
  const core::Plan crash_plan =
      core::crash_plan_for(OsVariant::kWinNT4, world.registry, copt);
  std::string err;

  // A base-campaign shard record inside a crash log ends the valid prefix.
  const std::string crash_path = temp_blog("flavor_crash");
  {
    auto log = CampaignStore::create(
        crash_path, store::make_run_header(crash_plan, copt), &err);
    ASSERT_NE(log, nullptr) << err;
    core::ShardOutcome base;
    base.shard_index = 0;
    ASSERT_TRUE(log->append_shard(base));
  }
  const store::StoreContents c1 = store::read_store_file(crash_path);
  EXPECT_EQ(c1.status, ReadStatus::kCorrupt);
  EXPECT_TRUE(c1.crash_outcomes.empty());
  // load_result refuses a crash log by naming its flavour.
  const store::StoreRun not_base =
      store::load_result(world.registry, crash_path);
  EXPECT_FALSE(not_base.ok);
  EXPECT_NE(not_base.error.find("records a crash-enumeration campaign"),
            std::string::npos)
      << not_base.error;

  // And a crash record inside a base log is equally rejected.
  testing::TinyWorld tiny;
  const core::CampaignOptions base_opt = testing::tiny_options();
  core::PlanOptions base_popt;
  base_popt.cap = base_opt.cap;
  base_popt.seed = base_opt.seed;
  base_popt.only_api = base_opt.only_api;
  base_popt.shard_cases = base_opt.shard_cases;
  const core::Plan base_plan =
      core::make_plan(OsVariant::kWinNT4, tiny.registry, base_popt);
  const std::string base_path = temp_blog("flavor_base");
  {
    auto log = CampaignStore::create(
        base_path, store::make_run_header(base_plan, base_opt), &err);
    ASSERT_NE(log, nullptr) << err;
    CrashShardOutcome crash;
    crash.shard_index = 0;
    ASSERT_TRUE(log->append_shard(crash));
  }
  const store::StoreContents c2 = store::read_store_file(base_path);
  EXPECT_EQ(c2.status, ReadStatus::kCorrupt);
  EXPECT_TRUE(c2.outcomes.empty());

  // And load_crash_result refuses a base-campaign log.
  const store::CrashStoreRun wrong =
      store::load_crash_result(tiny.registry, base_path);
  EXPECT_FALSE(wrong.ok);
  EXPECT_NE(wrong.error.find("crash"), std::string::npos) << wrong.error;
  std::remove(crash_path.c_str());
  std::remove(base_path.c_str());
}

}  // namespace
}  // namespace ballista
