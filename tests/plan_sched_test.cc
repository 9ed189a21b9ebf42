// Tests for the plan/schedule/execute engine: plan structure (chains,
// splitting, single-shard mode), MachinePool reuse, work-stealing queue
// coverage, and the determinism contract — the merged CampaignResult must be
// bit-identical across worker counts and identical to the legacy sequential
// loop, for every OS variant and every shard size.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/plan.h"
#include "core/sched.h"
#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using testing::expect_same_result;
using testing::shared_world;

// --- plan structure ---------------------------------------------------------

TEST(Plan, CoversEveryPlannedCaseExactlyOnce) {
  const auto& world = shared_world();
  for (OsVariant v : sim::kAllVariants) {
    PlanOptions opt;
    opt.cap = 30;
    opt.shard_cases = 7;
    const Plan plan = make_plan(v, world.registry, opt);
    // Per-MuT case coverage: the union of ranges is [0, planned), disjoint.
    std::map<const MuT*, std::set<std::uint64_t>> seen;
    for (const Shard& s : plan.shards) {
      for (const ShardItem& it : s.items) {
        EXPECT_EQ(plan.muts.at(it.mut_index), it.mut);
        for (std::uint64_t i = 0; i < it.range.count; ++i) {
          const bool fresh =
              seen[it.mut].insert(it.range.first + i).second;
          EXPECT_TRUE(fresh) << it.mut->name << " case duplicated";
        }
      }
    }
    std::uint64_t covered = 0;
    for (const auto& [mut, cases] : seen) covered += cases.size();
    EXPECT_EQ(covered, plan.total_planned) << sim::variant_name(v);
  }
}

TEST(Plan, DeferredHazardsChainUntilTheFuseIsBurned) {
  const auto& world = shared_world();
  PlanOptions opt;
  opt.cap = 30;
  const Plan plan = make_plan(OsVariant::kWin98, world.registry, opt);
  const int fuse = sim::personality_for(OsVariant::kWin98).corruption_fuse;
  for (const Shard& s : plan.shards) {
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (s.items[i].mut->hazard_on(OsVariant::kWin98) !=
          CrashStyle::kDeferred)
        continue;
      // Enough later cases must ride in the same shard to burn the fuse —
      // or the chain runs to the end of the plan (nothing left to chain).
      std::uint64_t tail = 0;
      for (std::size_t j = i + 1; j < s.items.size(); ++j)
        tail += s.items[j].range.count;
      const bool last_shard = s.index + 1 == plan.shards.size();
      EXPECT_TRUE(tail >= static_cast<std::uint64_t>(fuse) || last_shard)
          << s.items[i].mut->name << " dirty window leaks out of shard "
          << s.index;
    }
  }
}

TEST(Plan, HazardFreeVariantsSplitIntoCaseRanges) {
  const auto& world = shared_world();
  PlanOptions opt;
  opt.cap = 30;
  opt.shard_cases = 7;
  // NT4 has no shared arena: every MuT is chain-free and splittable.
  const Plan plan = make_plan(OsVariant::kWinNT4, world.registry, opt);
  bool saw_split = false;
  for (const Shard& s : plan.shards) {
    for (const ShardItem& it : s.items) {
      EXPECT_LE(it.range.count, opt.shard_cases);
      if (it.range.first != 0) saw_split = true;
    }
  }
  EXPECT_TRUE(saw_split);
  EXPECT_GT(plan.shards.size(), plan.muts.size());
}

TEST(Plan, SingleShardModeEmitsOneShard) {
  const auto& world = shared_world();
  PlanOptions opt;
  opt.cap = 30;
  opt.single_shard = true;
  const Plan plan = make_plan(OsVariant::kWin98, world.registry, opt);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].case_count(), plan.total_planned);
}

// --- scheduling infrastructure ----------------------------------------------

TEST(MachinePool, CheckoutResetsToPristineBootState) {
  sim::Machine reference(OsVariant::kWin98);
  MachinePool pool(OsVariant::kWin98, 2);
  sim::Machine& m = pool.checkout(0);
  m.age_arena(3);
  {
    auto proc = m.create_process();
    ASSERT_EQ(m.panic(sim::PanicKind::kInduced), sim::Verdict::kDown);
  }
  sim::Machine& again = pool.checkout(0);
  EXPECT_EQ(&again, &m);  // same machine, reused
  EXPECT_FALSE(again.crashed());
  EXPECT_EQ(again.panic_count(), 0);
  EXPECT_EQ(again.arena().corruption(), 0);
  EXPECT_EQ(again.ticks(), reference.ticks());
  // Fresh pids: a new process gets the same pid a fresh machine would give.
  EXPECT_EQ(again.create_process()->pid(), reference.create_process()->pid());
}

TEST(MachinePool, VariantRoundTripReusesTheCachedMachine) {
  // The campaign service checks a slot out for different variants as it
  // multiplexes sessions; returning to an earlier variant must hit the slot
  // cache, not boot a new machine.
  MachinePool pool(OsVariant::kWin98, 1);
  sim::Machine& a = pool.checkout(0);
  EXPECT_EQ(a.variant(), OsVariant::kWin98);
  EXPECT_EQ(pool.machine_rebuilds(), 1u);

  sim::Machine& b = pool.checkout(0, OsVariant::kWinNT4);
  EXPECT_EQ(b.variant(), OsVariant::kWinNT4);
  EXPECT_NE(&b, &a);
  EXPECT_EQ(pool.machine_rebuilds(), 2u);

  a.age_arena(2);  // dirty it so the reset-on-hit is observable
  sim::Machine& a_again = pool.checkout(0, OsVariant::kWin98);
  EXPECT_EQ(&a_again, &a);  // cache hit: the very same machine object
  EXPECT_EQ(pool.machine_rebuilds(), 2u);
  EXPECT_EQ(a_again.arena().corruption(), 0);  // still pristine on checkout
}

TEST(MachinePool, SlotCacheEvictsTheLeastRecentlyUsedVariant) {
  static_assert(MachinePool::kSlotCacheCap == 4,
                "sequence below assumes a 4-deep slot cache");
  MachinePool pool(OsVariant::kWin95, 1);
  const OsVariant seq[] = {OsVariant::kWin95, OsVariant::kWin98,
                           OsVariant::kWin98SE, OsVariant::kWinNT4,
                           OsVariant::kWin2000};
  for (OsVariant v : seq) (void)pool.checkout(0, v);
  EXPECT_EQ(pool.machine_rebuilds(), 5u);  // five distinct variants

  // kWin95 was pushed out by the fifth variant: coming back rebuilds it...
  (void)pool.checkout(0, OsVariant::kWin95);
  EXPECT_EQ(pool.machine_rebuilds(), 6u);
  // ...which in turn evicted kWin98 (now the LRU); the rest are still warm.
  (void)pool.checkout(0, OsVariant::kWin2000);
  (void)pool.checkout(0, OsVariant::kWinNT4);
  (void)pool.checkout(0, OsVariant::kWin98SE);
  EXPECT_EQ(pool.machine_rebuilds(), 6u);
  (void)pool.checkout(0, OsVariant::kWin98);
  EXPECT_EQ(pool.machine_rebuilds(), 7u);
}

TEST(MachinePool, WorkerSlotsCacheIndependently) {
  MachinePool pool(OsVariant::kLinux, 2);
  sim::Machine& w0 = pool.checkout(0);
  sim::Machine& w1 = pool.checkout(1);
  EXPECT_NE(&w0, &w1);
  EXPECT_EQ(pool.machine_rebuilds(), 2u);
  // Each slot hits its own cache on re-checkout.
  EXPECT_EQ(&pool.checkout(0), &w0);
  EXPECT_EQ(&pool.checkout(1), &w1);
  EXPECT_EQ(pool.machine_rebuilds(), 2u);
}

TEST(ShardQueue, DeliversEveryShardExactlyOnce) {
  const auto& world = shared_world();
  PlanOptions opt;
  opt.cap = 30;
  opt.shard_cases = 5;
  const Plan plan = make_plan(OsVariant::kLinux, world.registry, opt);
  ASSERT_GT(plan.shards.size(), 4u);

  ShardQueue queue(plan, 3);
  std::set<const Shard*> delivered;
  // Worker 1 drains everything: its own deque first, then steals the rest.
  while (const Shard* s = queue.next(1)) {
    EXPECT_TRUE(delivered.insert(s).second) << "shard delivered twice";
  }
  EXPECT_EQ(delivered.size(), plan.shards.size());
  EXPECT_EQ(queue.next(0), nullptr);
  EXPECT_EQ(queue.next(2), nullptr);
}

// --- the determinism contract -----------------------------------------------

TEST(ParallelDeterminism, EngineMatchesSequentialOnEveryVariant) {
  const auto& world = shared_world();
  for (OsVariant v : sim::kAllVariants) {
    CampaignOptions opt;
    opt.cap = 25;
    opt.shard_cases = 8;
    const auto legacy = Campaign::run_sequential(v, world.registry, opt);

    opt.jobs = 1;
    const auto serial = Campaign::run(v, world.registry, opt);
    expect_same_result(legacy, serial,
                       std::string(sim::variant_name(v)) + " jobs=1");

    opt.jobs = 4;
    const auto parallel = Campaign::run(v, world.registry, opt);
    expect_same_result(legacy, parallel,
                       std::string(sim::variant_name(v)) + " jobs=4");
  }
}

TEST(ParallelDeterminism, ShardSizeOneMatchesSequential) {
  const auto& world = shared_world();
  CampaignOptions opt;
  opt.cap = 20;
  const auto legacy =
      Campaign::run_sequential(OsVariant::kWin98, world.registry, opt);
  opt.shard_cases = 1;  // every splittable case is its own shard
  opt.jobs = 4;
  const auto parallel = Campaign::run(OsVariant::kWin98, world.registry, opt);
  expect_same_result(legacy, parallel, "shard_cases=1");
}

TEST(ParallelDeterminism, ShardSizeBeyondCaseCountMatchesSequential) {
  const auto& world = shared_world();
  CampaignOptions opt;
  opt.cap = 20;
  const auto legacy =
      Campaign::run_sequential(OsVariant::kWinCE, world.registry, opt);
  opt.shard_cases = 1'000'000;  // no MuT ever splits
  opt.jobs = 4;
  const auto parallel = Campaign::run(OsVariant::kWinCE, world.registry, opt);
  expect_same_result(legacy, parallel, "shard_cases=1000000");
}

TEST(ParallelDeterminism, FilesystemMutationsDoNotLeakAcrossShards) {
  // Regression: chmod("/", ...)-style root metadata damage used to survive
  // Executor's per-case fixture reset (and Machine::reset), so a worker
  // machine that had already run the mutating shard gave different results
  // for later shards than a fresh one — scheduling-dependent output.
  TypeLibrary lib;
  auto& t = lib.make("tiny");
  for (int i = 0; i < 4; ++i)
    t.add("v" + std::to_string(i), false,
          [i](ValueCtx&) { return static_cast<RawArg>(i); });
  Registry reg;
  auto make = [&](std::string name, ApiImpl impl) {
    MuT m;
    m.name = std::move(name);
    m.api = ApiKind::kWin32Sys;
    m.group = FuncGroup::kProcessPrimitives;
    m.params = {&lib.get("tiny")};
    m.impl = std::move(impl);
    m.variant_mask = kMaskEverything;
    return m;
  };
  reg.add(make("poisons_root", [](CallContext& c) {
    c.machine().fs().root()->set_read_only(true);
    return ok(0);
  }));
  reg.add(make("observes_root", [](CallContext& c) -> CallOutcome {
    if (c.machine().fs().root()->read_only()) return c.win_fail(5);
    return ok(0);
  }));

  CampaignOptions opt;
  opt.shard_cases = 1;  // maximal shard interleaving
  const auto legacy =
      Campaign::run_sequential(OsVariant::kWinNT4, reg, opt);
  opt.jobs = 4;
  const auto parallel = Campaign::run(OsVariant::kWinNT4, reg, opt);
  expect_same_result(legacy, parallel, "fs leak");
  // The per-case fixture reset means nobody ever observes the poisoned root.
  EXPECT_EQ(parallel.find("observes_root")->passes, 4u);
}

TEST(ParallelDeterminism, MachineSetupForcesExactSequentialBehaviour) {
  const auto& world = shared_world();
  CampaignOptions opt;
  opt.cap = 20;
  opt.machine_setup = [](sim::Machine& m) { m.age_arena(5); };
  const auto legacy =
      Campaign::run_sequential(OsVariant::kWin95, world.registry, opt);
  opt.jobs = 4;  // pre-aged machine: the plan degrades to one shard
  const auto parallel = Campaign::run(OsVariant::kWin95, world.registry, opt);
  expect_same_result(legacy, parallel, "machine_setup");
}

}  // namespace
}  // namespace ballista::core
