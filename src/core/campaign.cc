#include "core/campaign.h"

#include "core/report.h"
#include "core/sched.h"

namespace ballista::core {

CampaignResult Campaign::run(sim::OsVariant variant, const Registry& registry,
                             const CampaignOptions& opt) {
  return run_engine(variant, registry, opt);
}

CampaignResult Campaign::run_sequential(sim::OsVariant variant,
                                        const Registry& registry,
                                        const CampaignOptions& opt) {
  CampaignResult result;
  result.variant = variant;

  sim::Machine machine(variant);
  if (opt.machine_setup) opt.machine_setup(machine);
  Executor executor(machine);
  if (opt.task_setup) executor.set_task_setup(opt.task_setup);

  // Index (into result.stats) of the MuT whose test case most recently
  // corrupted the shared arena: deferred panics are blamed on it.  Ambient
  // wear installed by machine_setup predates every MuT and blames nobody.
  std::int64_t last_corruptor = -1;
  int corruption_seen = machine.arena().corruption();

  const std::uint32_t gmask =
      opt.group_mask.value_or(kDefaultCampaignGroupMask);
  for (const MuT* mut : registry.for_variant(variant)) {
    if (opt.only_api && mut->api != *opt.only_api) continue;
    if ((gmask & group_bit(mut->group)) == 0) continue;

    MutStats stats;
    stats.mut = mut;
    TupleGenerator gen(*mut, opt.cap, opt.seed);
    stats.planned = gen.count();
    const std::int64_t self = static_cast<std::int64_t>(result.stats.size());

    for (std::uint64_t i = 0; i < gen.count(); ++i) {
      const auto tuple = gen.tuple(i);
      const CaseResult r =
          executor.run_case(*mut, tuple, static_cast<std::int64_t>(i));
      ++stats.executed;
      ++result.total_cases;
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
            blamed = &result.stats[static_cast<std::size_t>(last_corruptor)];

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
          ++result.reboots;
          corruption_seen = 0;
          last_corruptor = -1;

          if (blamed == &stats) {
            // Single-test reproduction pass (paper §4): run the crashing
            // case alone on the rebooted machine.  Immediate-style crashes
            // reproduce; interference-style ones do not (`*`).
            const CaseResult rerun = executor.run_case(
                *mut, tuple, static_cast<std::int64_t>(i));
            stats.crash_reproducible_single =
                rerun.outcome == Outcome::kCatastrophic;
            if (machine.crashed()) {
              machine.restore(sim::RestoreLevel::kReboot);
              ++result.reboots;
            } else if (machine.arena().corruption() > 0) {
              // The repro attempt may have re-corrupted the arena without
              // dying; clear it so the next MuT starts clean.
              machine.restore(sim::RestoreLevel::kReboot);
            }
            corruption_seen = 0;
            last_corruptor = -1;
            // The crash interrupted this MuT's test set; it stays incomplete.
            i = gen.count();  // terminate loop
          }
          break;
        }
      }
    }
    result.stats.push_back(std::move(stats));
  }
  for (const MutStats& s : result.stats) result.event_counters += s.event_counts;
  return result;
}

}  // namespace ballista::core
