// Scheduling, execution and merge layers of the campaign engine.
//
//   plan      (core/plan)      enumerate shards, no machine involved
//   schedule  (core/workqueue) per-worker Chase–Lev deques + seeded stealing;
//             (this file)      execute_plan: MachinePool + fan_out workers,
//                              shared by the robustness campaign, the crash
//                              campaign (core/crashplan) and, through
//                              fan_out alone, the campaign server; jobs = 1
//                              degenerates to the exact legacy sequential
//                              order
//   execute   (this file)      run_shard mirrors the legacy single-machine
//                              loop (crash blame, reboot bookkeeping, repro
//                              pass) on one pooled machine
//   merge     (this file)      fold per-shard MutStats back into a
//                              CampaignResult in plan order, moving bulk
//                              payloads instead of copying them
//
// Determinism contract: for the same (variant, registry, cap, seed), the
// merged CampaignResult is bit-identical for any worker count, and identical
// to Campaign::run_sequential, because every shard boundary the plan emits is
// a provably clean machine state (see core/plan.h) and the merge order is
// fixed by the plan, not by thread timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/plan.h"
#include "core/workqueue.h"
#include "sim/machine.h"

namespace ballista::core {

/// What one worker produced from one shard.  Partial MutStats are folded
/// back into the CampaignResult by merge_outcomes.
struct ShardOutcome {
  struct MutPartial {
    std::size_t mut_index = 0;
    std::uint64_t range_first = 0;
    MutStats stats;
  };
  std::size_t shard_index = 0;
  /// One entry per ShardItem, in shard order (crash blame may retarget an
  /// earlier partial of the same shard, exactly like the sequential loop).
  std::vector<MutPartial> partials;
  int reboots = 0;
  std::uint64_t executed_cases = 0;
};

/// Observability counters for one run_engine invocation, filled when
/// CampaignOptions::metrics points at an instance.  Purely diagnostic: the
/// merged CampaignResult never depends on any of these.
struct EngineMetrics {
  double plan_seconds = 0.0;
  double execute_seconds = 0.0;
  double merge_seconds = 0.0;
  std::uint64_t shards = 0;
  unsigned jobs = 0;
  /// Steal attempts that lost a claim race in the work-stealing queue.
  std::uint64_t contended_steals = 0;
  /// Machines constructed from scratch by the pool (cache misses).
  std::uint64_t machine_rebuilds = 0;
  /// Reset work the pool's machines did: fixture restores that walked the
  /// tree because a node had been edited, and process recycles that
  /// rebuilt an edited environment or cwd.  Host-independent, so
  /// alloc_count_gate pins both.
  std::uint64_t fixture_walks = 0;
  std::uint64_t env_rebuilds = 0;
};

/// Executes one shard.  Precondition: `machine` is in freshly-booted state
/// (MachinePool::checkout provides that).  Applies opt.machine_setup when
/// set — the plan guarantees such campaigns are single-shard.
ShardOutcome run_shard(sim::Machine& machine, const Shard& shard,
                       const CampaignOptions& opt);

/// Independent sim::Machine instances, one per worker.  Each worker slot
/// keeps a small MRU cache keyed by OS variant: the campaign service
/// multiplexes sessions on different variants over one pool, and rebuilding
/// a machine (boot + personality setup) is far more expensive than restoring
/// one, so a slot bouncing between a handful of variants stops paying the
/// rebuild on every switch.  A cached machine is reset to pristine boot
/// state on every checkout, so it is indistinguishable from a freshly
/// constructed one.
class MachinePool {
 public:
  /// Distinct variants one worker slot keeps warm before evicting the
  /// least-recently-used machine.
  static constexpr std::size_t kSlotCacheCap = 4;

  MachinePool(sim::OsVariant variant, unsigned workers);
  ~MachinePool();

  /// The worker's machine for the pool's campaign variant, reset via
  /// sim::Machine::restore(kFullReset).
  sim::Machine& checkout(unsigned worker);

  /// Same, but for an explicit OS variant.
  sim::Machine& checkout(unsigned worker, sim::OsVariant variant);

  unsigned size() const noexcept { return workers_; }

  /// Machines constructed from scratch (slot-cache misses) so far.
  std::uint64_t machine_rebuilds() const noexcept;

  /// Fills metrics->fixture_walks and env_rebuilds from the machines the
  /// pool holds.  Not thread-safe: call once the workers are done.
  void count_reset_work(EngineMetrics& metrics) const noexcept;

 private:
  struct Slot;
  sim::OsVariant variant_;
  unsigned workers_ = 0;
  std::vector<Slot> slots_;
};

/// Merge layer: folds shard outcomes (indexed by shard) back into a
/// CampaignResult whose stats follow plan.muts order.  Consumes the
/// outcomes: per-case code vectors and crash payloads are moved, not copied.
CampaignResult merge_outcomes(const Plan& plan,
                              std::vector<ShardOutcome> outcomes);

/// The exact Plan the engine would execute for (variant, registry, opt).
/// Shared with the persistent store (src/store) so a resumed campaign
/// re-plans bit-identically to the run that wrote the log.
Plan plan_for(sim::OsVariant variant, const Registry& registry,
              const CampaignOptions& opt);

/// The one place src/ starts threads.  Runs work(w, stop) for every worker
/// w in [0, workers): on the calling thread when workers == 1, else each on
/// a thread of its own.  While they run, the calling thread calls `drain`
/// (when set) every 200 µs, and once more after the last worker has
/// returned.  An exception from a worker or from `drain` raises `stop`
/// (workers poll it between units of work) and is rethrown once every
/// thread has joined, a worker's in preference to drain's; a throwing
/// `drain` is never called again.
void fan_out(unsigned workers,
             const std::function<void(unsigned worker,
                                      const std::atomic<bool>& stop)>& work,
             const std::function<void()>& drain = {});

namespace detail {
/// Type-erased body of execute_plan.  `adopt(shard)` returns true when the
/// shard's outcome came from the cache, `run` executes one shard and
/// `complete` (may be empty) reports one executed shard by index.
void execute_shards(const Plan& plan, unsigned jobs,
                    const std::function<bool(const Shard&)>& adopt,
                    const std::function<void(sim::Machine&, const Shard&)>& run,
                    const std::function<void(std::size_t)>& complete,
                    EngineMetrics* metrics);
}  // namespace detail

/// The shard executor every campaign flavour shares, generic over its
/// options and outcome types (CampaignOptions/ShardOutcome,
/// CrashOptions/CrashShardOutcome).  Runs `run` over every shard of `plan`
/// on min(opt.jobs, shards) pooled machines and returns the outcomes indexed
/// by shard.  A shard opt.shard_cache returns is adopted and neither re-run
/// nor reported.  opt.on_shard_complete fires once per executed shard, always
/// on the calling thread: inline right after the shard at jobs 1, else from
/// the completion-ring drain.  A throwing hook or shard stops the campaign
/// and propagates.  `metrics`, when set, receives jobs, contended steals and
/// machine rebuilds.
template <class Options, class Outcome>
std::vector<Outcome> execute_plan(const Plan& plan, const Options& opt,
                                  Outcome (*run)(sim::Machine&, const Shard&,
                                                 const Options&),
                                  EngineMetrics* metrics = nullptr) {
  std::vector<Outcome> outcomes(plan.shards.size());
  std::function<void(std::size_t)> complete;
  if (opt.on_shard_complete)
    complete = [&](std::size_t i) { opt.on_shard_complete(outcomes[i]); };
  detail::execute_shards(
      plan, opt.jobs,
      [&](const Shard& s) {
        const Outcome* c = opt.shard_cache ? opt.shard_cache(s) : nullptr;
        if (c != nullptr) outcomes[s.index] = *c;
        return c != nullptr;
      },
      [&](sim::Machine& m, const Shard& s) {
        outcomes[s.index] = run(m, s, opt);
      },
      complete, metrics);
  return outcomes;
}

/// The full engine: plan -> schedule/execute -> merge.  Campaign::run is a
/// thin façade over this.
CampaignResult run_engine(sim::OsVariant variant, const Registry& registry,
                          const CampaignOptions& opt);

}  // namespace ballista::core
