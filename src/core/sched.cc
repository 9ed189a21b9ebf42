#include "core/sched.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "core/report.h"
#include "core/workqueue.h"

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

struct WorkerPool::Threads {
  std::mutex mu;
  std::condition_variable wake;  // workers: a new Work, or exit
  std::condition_variable idle;  // run(), ~WorkerPool: every worker returned
  Work work;
  std::uint64_t generation = 0;  // bumped by every start()
  unsigned running = 0;          // workers still inside the current Work
  bool exit = false;
  std::atomic<bool> stop{false};
  std::vector<std::exception_ptr> errors;  // one per worker
  std::vector<std::thread> threads;

  void main(unsigned w) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      wake.wait(lock, [&] { return exit || generation != seen; });
      if (exit) return;
      seen = generation;
      lock.unlock();
      try {
        work(w, stop);
      } catch (...) {
        errors[w] = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
      lock.lock();
      if (--running == 0) idle.notify_all();
    }
  }
};

WorkerPool::WorkerPool(unsigned workers) : workers_(std::max(workers, 1u)) {
  if (workers_ == 1) return;
  threads_ = std::make_unique<Threads>();
  Threads& t = *threads_;
  t.errors.resize(workers_);
  t.threads.reserve(workers_);
  try {
    for (unsigned w = 0; w < workers_; ++w)
      t.threads.emplace_back([&t, w] { t.main(w); });
  } catch (...) {  // a thread could not be started: join the rest
    {
      const std::lock_guard<std::mutex> lock(t.mu);
      t.exit = true;
    }
    t.wake.notify_all();
    for (auto& th : t.threads) th.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  if (!threads_) return;
  Threads& t = *threads_;
  {
    std::unique_lock<std::mutex> lock(t.mu);
    t.stop.store(true, std::memory_order_relaxed);
    t.idle.wait(lock, [&] { return t.running == 0; });
    t.exit = true;
  }
  t.wake.notify_all();
  for (auto& th : t.threads) th.join();
}

void WorkerPool::start(Work work) {
  Threads& t = *threads_;
  const std::lock_guard<std::mutex> lock(t.mu);
  t.work = std::move(work);
  t.stop.store(false, std::memory_order_relaxed);
  t.running = workers_;
  ++t.generation;
  t.wake.notify_all();
}

void WorkerPool::request_stop() noexcept {
  if (threads_) threads_->stop.store(true, std::memory_order_relaxed);
}

void WorkerPool::run(const Work& work) {
  if (!threads_) {
    std::atomic<bool> stop{false};
    work(0, stop);
    return;
  }
  start(work);
  Threads& t = *threads_;
  std::unique_lock<std::mutex> lock(t.mu);
  t.idle.wait(lock, [&] { return t.running == 0; });
  std::exception_ptr error;
  for (std::exception_ptr& e : t.errors) {
    if (e && !error) error = e;
    e = nullptr;
  }
  t.work = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

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
  WorkerPool workers(jobs);
  ShardQueue queue(plan);
  // Hook calls take turns under one mutex, on the worker that ran the shard.
  // `hook_threw` is set for the length of each call, so it stays set only
  // after a call that threw, and no later call starts.
  std::mutex hook_mu;
  bool hook_threw = false;

  workers.run([&](unsigned w, const std::atomic<bool>& stop) {
    while (const Shard* s = queue.next()) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (adopt(*s)) continue;
      run(pool.checkout(w), *s);
      if (!complete) continue;
      const std::lock_guard<std::mutex> lock(hook_mu);
      if (hook_threw) break;
      hook_threw = true;
      complete(s->index);
      hook_threw = false;
    }
  });

  if (metrics) {
    metrics->jobs = jobs;
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
