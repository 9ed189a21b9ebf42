#include "core/sched.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "core/report.h"

namespace ballista::core {

ShardOutcome run_shard(sim::Machine& machine, const Shard& shard,
                       const CampaignOptions& opt) {
  ShardOutcome out;
  out.shard_index = shard.index;

  if (opt.machine_setup) opt.machine_setup(machine);
  Executor executor(machine);
  if (opt.task_setup) executor.set_task_setup(opt.task_setup);

  // Index (into out.partials) of the MuT whose test case most recently
  // corrupted the shared arena: deferred panics are blamed on it.  The plan
  // guarantees corruption never crosses a shard boundary, so chain-local
  // blame reproduces the sequential campaign's blame exactly.
  std::int64_t last_corruptor = -1;
  int corruption_seen = machine.arena().corruption();

  // Shard lifecycle markers (observability only: emitted outside any case,
  // so they never enter per-case counter deltas and cannot perturb the
  // determinism contract).
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardStart, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));

  // One scratch for the whole shard: the per-case tuple is generated into it
  // by cursor advance, so the hot loop allocates nothing.
  TupleScratch scratch;

  for (const ShardItem& item : shard.items) {
    const std::int64_t self = static_cast<std::int64_t>(out.partials.size());
    out.partials.push_back({item.mut_index, item.range.first, {}});
    MutStats& stats = out.partials.back().stats;
    stats.mut = item.mut;
    stats.planned = item.planned;
    if (item.range.count == 0) continue;
    TupleGenerator gen(*item.mut, opt.cap, opt.seed);
    const std::uint64_t end = item.range.first + item.range.count;
    stats.case_codes.reserve(static_cast<std::size_t>(item.range.count));
    TupleCursor cur = gen.begin(item.range.first, scratch);

    for (std::uint64_t i = item.range.first; i < end;) {
      const auto tuple = cur.values();
      const CaseResult r =
          executor.run_case(*item.mut, tuple, static_cast<std::int64_t>(i));
      ++stats.executed;
      ++out.executed_cases;
      stats.event_counts += r.events;
      stats.case_codes.push_back(case_code(r));

      if (machine.arena().corruption() > corruption_seen) {
        corruption_seen = machine.arena().corruption();
        last_corruptor = self;
      }

      switch (r.outcome) {
        case Outcome::kPass:
          ++stats.passes;
          if (r.success_no_error && r.any_exceptional)
            ++stats.silent_candidates;
          if (r.wrong_error) ++stats.hindering;
          break;
        case Outcome::kAbort:
          ++stats.aborts;
          break;
        case Outcome::kRestart:
          ++stats.restarts;
          break;
        case Outcome::kNotRun:
          break;
        case Outcome::kCatastrophic: {
          // Blame the arena corruptor for deferred panics; the immediate
          // crash is the current MuT's own.
          const bool deferred = r.panic == sim::PanicKind::kDeferredFuse;
          MutStats* blamed = &stats;
          if (deferred && last_corruptor >= 0 && last_corruptor != self)
            blamed =
                &out.partials[static_cast<std::size_t>(last_corruptor)].stats;

          if (!blamed->catastrophic) {
            blamed->catastrophic = true;
            blamed->crash_detail = describe_stop(r);
            blamed->crash_trace = r.trace_tail;
            if (blamed == &stats) {
              blamed->crash_case = static_cast<std::int64_t>(i);
              blamed->crash_tuple = describe_tuple(tuple);
            }
          }

          machine.restore(sim::RestoreLevel::kReboot);
          ++out.reboots;
          corruption_seen = 0;
          last_corruptor = -1;

          if (blamed == &stats) {
            // Single-test reproduction pass (paper §4): run the crashing
            // case alone on the rebooted machine.  Immediate-style crashes
            // reproduce; interference-style ones do not (`*`).
            const CaseResult rerun = executor.run_case(
                *item.mut, tuple, static_cast<std::int64_t>(i));
            stats.crash_reproducible_single =
                rerun.outcome == Outcome::kCatastrophic;
            if (machine.crashed()) {
              machine.restore(sim::RestoreLevel::kReboot);
              ++out.reboots;
            } else if (machine.arena().corruption() > 0) {
              // The repro attempt may have re-corrupted the arena without
              // dying; clear it so the next MuT starts clean.
              machine.restore(sim::RestoreLevel::kReboot);
            }
            corruption_seen = 0;
            last_corruptor = -1;
            // The crash interrupted this MuT's test set; it stays incomplete.
            i = end;  // terminate loop
          }
          break;
        }
      }
      ++i;
      if (i < end) cur.advance();
    }
  }
  machine.trace().emit(trace::shard_event(
      trace::EventKind::kShardEnd, shard.index,
      static_cast<std::uint32_t>(shard.items.size())));
  return out;
}

struct MachinePool::Slot {
  /// MRU-ordered variant cache; front is the most recently used machine.
  /// Touched only by the owning worker thread.
  std::vector<std::unique_ptr<sim::Machine>> cache;
  /// Relaxed atomic so machine_rebuilds() may be read while workers run.
  std::atomic<std::uint64_t> rebuilds{0};
};

MachinePool::MachinePool(sim::OsVariant variant, unsigned workers)
    : variant_(variant),
      workers_(std::max(workers, 1u)),
      slots_(workers_) {}

MachinePool::~MachinePool() = default;

sim::Machine& MachinePool::checkout(unsigned worker) {
  return checkout(worker, variant_);
}

sim::Machine& MachinePool::checkout(unsigned worker, sim::OsVariant variant) {
  auto& cache = slots_.at(worker).cache;
  for (std::size_t k = 0; k < cache.size(); ++k) {
    if (cache[k]->variant() == variant) {
      if (k != 0)
        std::rotate(cache.begin(), cache.begin() + k, cache.begin() + k + 1);
      cache.front()->restore(sim::RestoreLevel::kFullReset);
      return *cache.front();
    }
  }
  slots_[worker].rebuilds.fetch_add(1, std::memory_order_relaxed);
  cache.insert(cache.begin(), std::make_unique<sim::Machine>(variant));
  if (cache.size() > kSlotCacheCap) cache.pop_back();
  return *cache.front();
}

std::uint64_t MachinePool::machine_rebuilds() const noexcept {
  std::uint64_t n = 0;
  for (const Slot& s : slots_) n += s.rebuilds.load(std::memory_order_relaxed);
  return n;
}

void MachinePool::count_reset_work(EngineMetrics& metrics) const noexcept {
  metrics.fixture_walks = metrics.env_rebuilds = 0;
  for (const Slot& s : slots_) {
    for (const auto& m : s.cache) {
      metrics.fixture_walks += m->fs().fixture_walks();
      metrics.env_rebuilds += m->env_rebuilds();
    }
  }
}

CampaignResult merge_outcomes(const Plan& plan,
                              std::vector<ShardOutcome> outcomes) {
  CampaignResult result;
  result.variant = plan.variant;
  result.stats.resize(plan.muts.size());
  for (std::size_t i = 0; i < plan.muts.size(); ++i)
    result.stats[i].mut = plan.muts[i];

  std::sort(outcomes.begin(), outcomes.end(),
            [](const ShardOutcome& a, const ShardOutcome& b) {
              return a.shard_index < b.shard_index;
            });

  // Counting pass: how many partials and per-case codes land on each MuT, so
  // the fold below can move single-partial payloads wholesale and size the
  // multi-partial appends exactly once.
  std::vector<std::uint32_t> parts(result.stats.size(), 0);
  std::vector<std::size_t> code_total(result.stats.size(), 0);
  for (const ShardOutcome& o : outcomes)
    for (const auto& p : o.partials) {
      ++parts[p.mut_index];
      code_total[p.mut_index] += p.stats.case_codes.size();
    }

  for (ShardOutcome& o : outcomes) {
    result.reboots += o.reboots;
    result.total_cases += o.executed_cases;
    for (ShardOutcome::MutPartial& p : o.partials) {
      MutStats& dst = result.stats[p.mut_index];
      MutStats& src = p.stats;
      dst.planned = src.planned;
      dst.executed += src.executed;
      dst.passes += src.passes;
      dst.aborts += src.aborts;
      dst.restarts += src.restarts;
      dst.silent_candidates += src.silent_candidates;
      dst.hindering += src.hindering;
      // Ranges of one MuT occupy consecutive shards in ascending case order,
      // so appending per shard keeps case_codes index-aligned.  The common
      // case — the whole MuT in one shard — moves the vector instead.
      if (parts[p.mut_index] == 1) {
        dst.case_codes = std::move(src.case_codes);
      } else {
        if (dst.case_codes.empty())
          dst.case_codes.reserve(code_total[p.mut_index]);
        dst.case_codes.insert(dst.case_codes.end(), src.case_codes.begin(),
                              src.case_codes.end());
      }
      dst.event_counts += src.event_counts;
      if (src.catastrophic && !dst.catastrophic) {
        dst.catastrophic = true;
        dst.crash_case = src.crash_case;
        dst.crash_detail = std::move(src.crash_detail);
        dst.crash_tuple = std::move(src.crash_tuple);
        dst.crash_trace = std::move(src.crash_trace);
        dst.crash_reproducible_single = src.crash_reproducible_single;
      }
    }
  }
  for (const MutStats& s : result.stats) result.event_counters += s.event_counts;
  return result;
}

Plan plan_for(sim::OsVariant variant, const Registry& registry,
              const CampaignOptions& opt) {
  PlanOptions popt;
  popt.cap = opt.cap;
  popt.seed = opt.seed;
  popt.only_api = opt.only_api;
  popt.group_mask = opt.group_mask;
  popt.shard_cases = opt.shard_cases;
  popt.single_shard = static_cast<bool>(opt.machine_setup);
  return make_plan(variant, registry, popt);
}

void fan_out(unsigned workers,
             const std::function<void(unsigned, const std::atomic<bool>&)>& work,
             const std::function<void()>& drain) {
  std::atomic<bool> stop{false};
  if (workers <= 1) {
    work(0, stop);
    if (drain) drain();
    return;
  }
  std::atomic<unsigned> active{workers};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          work(w, stop);
        } catch (...) {
          errors[w] = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
        }
        active.fetch_sub(1, std::memory_order_release);
      });
    }
  } catch (...) {  // a thread could not be started: stop and join the rest
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
    throw;
  }
  // The final pass runs after every worker has published (acquire pairs
  // with their release), so nothing a worker handed over is left undrained.
  std::exception_ptr drain_error;
  if (drain) {
    for (;;) {
      const bool final_pass = active.load(std::memory_order_acquire) == 0;
      try {
        drain();
      } catch (...) {
        drain_error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (final_pass) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  if (drain_error) std::rethrow_exception(drain_error);
}

namespace {

/// Wait-free completion hand-off: each worker appends finished shard indices
/// to its own ring and publishes with a release store; the calling thread is
/// the only consumer.  Capacity is the full shard count, so a producer can
/// never block or wrap.
struct CompletionRing {
  std::vector<std::size_t> slots;
  alignas(64) std::atomic<std::size_t> published{0};
  std::size_t drained = 0;  // consumer-only cursor
};

}  // namespace

void detail::execute_shards(
    const Plan& plan, unsigned jobs,
    const std::function<bool(const Shard&)>& adopt,
    const std::function<void(sim::Machine&, const Shard&)>& run,
    const std::function<void(std::size_t)>& complete, EngineMetrics* metrics) {
  jobs = std::max(1u, std::min<unsigned>(
                          jobs, plan.shards.empty()
                                    ? 1u
                                    : static_cast<unsigned>(plan.shards.size())));
  MachinePool pool(plan.variant, jobs);
  // At jobs 1 the single deque pops in plan order and the hook runs inline
  // right after its shard; otherwise workers publish completions to their
  // rings and the calling thread drains them, keeping hook calls serialized
  // without a critical section.
  ShardQueue queue(plan, jobs);
  std::vector<CompletionRing> rings(jobs > 1 && complete ? jobs : 0);
  for (auto& r : rings) r.slots.resize(plan.shards.size());

  const auto work = [&](unsigned w, const std::atomic<bool>& stop) {
    while (const Shard* s = queue.next(w)) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (adopt(*s)) continue;
      run(pool.checkout(w), *s);
      if (!complete) continue;
      if (rings.empty()) {
        complete(s->index);
      } else {
        CompletionRing& r = rings[w];
        const std::size_t n = r.published.load(std::memory_order_relaxed);
        r.slots[n] = s->index;
        r.published.store(n + 1, std::memory_order_release);
      }
    }
  };
  std::function<void()> drain;
  if (!rings.empty()) {
    drain = [&] {
      for (CompletionRing& r : rings) {
        const std::size_t pub = r.published.load(std::memory_order_acquire);
        while (r.drained < pub) complete(r.slots[r.drained++]);
      }
    };
  }
  fan_out(jobs, work, drain);

  if (metrics) {
    metrics->jobs = jobs;
    metrics->contended_steals = queue.contended_steals();
    metrics->machine_rebuilds = pool.machine_rebuilds();
    pool.count_reset_work(*metrics);
  }
}

CampaignResult run_engine(sim::OsVariant variant, const Registry& registry,
                          const CampaignOptions& opt) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto t0 = Clock::now();
  const Plan plan = plan_for(variant, registry, opt);
  const auto t_planned = Clock::now();
  std::vector<ShardOutcome> outcomes =
      execute_plan(plan, opt, run_shard, opt.metrics);
  const auto t_executed = Clock::now();
  CampaignResult result = merge_outcomes(plan, std::move(outcomes));
  if (opt.metrics) {
    opt.metrics->plan_seconds = seconds(t0, t_planned);
    opt.metrics->execute_seconds = seconds(t_planned, t_executed);
    opt.metrics->merge_seconds = seconds(t_executed, Clock::now());
    opt.metrics->shards = plan.shards.size();
  }
  return result;
}

}  // namespace ballista::core
