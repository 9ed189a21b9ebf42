// Scheduling, execution and merge layers of the campaign engine.
//
//   plan      (core/plan)      enumerate shards, no machine involved
//   schedule  (core/workqueue) one atomic cursor that hands out shards in
//                              plan order;
//             (this file)      WorkerPool, the persistent threads every
//                              parallel path runs on; execute_plan:
//                              MachinePool + one WorkerPool per campaign,
//                              shared by the robustness campaign and the
//                              crash campaign (core/crashplan); the campaign
//                              server keeps its own WorkerPool for its
//                              lifetime; jobs = 1 runs every shard in plan
//                              order on one machine, on the calling thread
//   execute   (this file)      run_shard is the campaign loop (crash blame,
//                              reboot bookkeeping, repro pass) on one pooled
//                              machine
//   merge     (this file)      fold per-shard MutStats back into a
//                              CampaignResult in plan order, moving bulk
//                              payloads instead of copying them
//
// Determinism contract: for the same (variant, registry, cap, seed), the
// merged CampaignResult is bit-identical for any worker count, and identical
// to Campaign::run_sequential (the whole campaign as one shard), because
// every shard boundary the plan emits is a provably clean machine state (see
// core/plan.h) and the merge order is fixed by the plan, not by thread
// timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/campaign.h"
#include "core/plan.h"
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
  /// earlier partial of the same shard).
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

/// The one place src/ starts threads: `workers` persistent threads, started
/// by the constructor and joined by the destructor, that run one Work at a
/// time, work(w, stop) on every worker w in [0, workers).  A pool of one
/// worker starts no thread and allocates nothing: run() calls work(0, stop)
/// on the calling thread.  Idle threads block; they never spin.
class WorkerPool {
 public:
  using Work =
      std::function<void(unsigned worker, const std::atomic<bool>& stop)>;

  explicit WorkerPool(unsigned workers);
  /// Raises the stop flag, waits for a started Work to return on every
  /// worker (its exceptions are dropped) and joins the threads.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned size() const noexcept { return workers_; }

  /// Runs `work` on every worker and returns once each has returned.  An
  /// exception from a worker raises `stop` (workers poll it between units of
  /// work) and is rethrown once every worker has returned; when several
  /// workers threw, the lowest-numbered worker's exception wins.
  void run(const Work& work);

  /// Hands `work` to every worker and returns at once, for a Work that
  /// lives as long as the pool: the destructor ends it.  Needs size() > 1.
  void start(Work work);
  /// Raises the stop flag the started Work polls.  A Work that blocks on a
  /// condition of its own must also be woken.
  void request_stop() noexcept;

 private:
  struct Threads;
  unsigned workers_;
  std::unique_ptr<Threads> threads_;  // null at one worker
};

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
/// nor reported.  opt.on_shard_complete fires once per executed shard, right
/// after it, on the worker that ran it (the calling thread at jobs 1, where
/// shards run in plan order), one call at a time under one mutex, in
/// completion order.  Once a hook call has thrown, no other starts.  A
/// throwing hook or shard stops the campaign and propagates.  `metrics`,
/// when set, receives jobs, machine rebuilds and reset work.
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
