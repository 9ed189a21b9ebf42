// Campaign runner: executes the full Ballista test matrix for one OS variant,
// handling crash/reboot bookkeeping exactly as the paper describes — a
// Catastrophic failure interrupts the MuT's test set (leaving it incomplete
// and excluded from rate averages), the machine is rebooted, and a
// single-test reproduction pass decides whether the crash earns the Table 3
// `*` ("could not isolate the system crash to a single test case").
//
// Campaign::run is a façade over the plan/schedule/execute engine
// (core/plan, core/sched): the test matrix is enumerated into shards, run on
// a pool of independent machines (CampaignOptions::jobs worker threads), and
// merged back deterministically.  Campaign::run_sequential runs the whole
// campaign as one shard on one machine, through the same per-shard loop
// (core/sched run_shard); the committed golden logs pin that loop's results.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/executor.h"
#include "core/generator.h"
#include "core/registry.h"
#include "core/trace.h"

namespace ballista::core {

struct Shard;          // core/plan.h
struct ShardOutcome;   // core/sched.h
struct EngineMetrics;  // core/sched.h

/// Compact per-case record kept for the Figure 2 voting analysis.
enum class CaseCode : std::uint8_t {
  kPassWithError = 0,  // robust: failure reported with an error code
  kPassNoError = 1,    // returned success, no error indication
  kAbort = 2,
  kRestart = 3,
  kCatastrophic = 4,
  kHindering = 5,  // failure reported with a wrong error code
};

/// Maps a classified CaseResult onto the compact per-case code.  Shared by
/// run_shard and the CE file-drop client (rpc/ce_file_drop) so the two paths
/// can never drift apart.
inline CaseCode case_code(const CaseResult& r) noexcept {
  switch (r.outcome) {
    case Outcome::kAbort: return CaseCode::kAbort;
    case Outcome::kRestart: return CaseCode::kRestart;
    case Outcome::kCatastrophic: return CaseCode::kCatastrophic;
    case Outcome::kPass:
    case Outcome::kNotRun:
      break;
  }
  if (r.wrong_error) return CaseCode::kHindering;
  return r.success_no_error ? CaseCode::kPassNoError
                            : CaseCode::kPassWithError;
}

struct MutStats {
  const MuT* mut = nullptr;
  std::uint64_t planned = 0;
  std::uint64_t executed = 0;
  std::uint64_t passes = 0;
  std::uint64_t aborts = 0;
  std::uint64_t restarts = 0;
  /// Pass-no-error cases whose tuple contained an exceptional value: the
  /// direct (oracle-based) Silent candidates.  Figure 2 uses voting instead.
  std::uint64_t silent_candidates = 0;
  std::uint64_t hindering = 0;

  bool catastrophic = false;
  std::int64_t crash_case = -1;
  std::string crash_detail;
  std::string crash_tuple;
  /// True when re-running the crashing case alone on a rebooted machine
  /// crashes again; false is the paper's `*` (inter-test interference).
  bool crash_reproducible_single = false;

  /// One code per executed case, in case order: Figure 2's voting and the
  /// cross-run diff (core/diff.h) read it.
  std::vector<CaseCode> case_codes;

  /// Per-event-kind totals over this MuT's executed cases (repro-pass reruns
  /// excluded).  Summed from per-case deltas, so identical across worker
  /// counts and vs. the one-shard run_sequential.
  trace::Counters event_counts;
  /// Event tail captured when this MuT was blamed for a Catastrophic failure
  /// (for a deferred `*` crash the tail spans the victim cases' syscall
  /// entries back to this MuT's corrupting hazard write).
  std::vector<trace::TraceEvent> crash_trace;

  double abort_rate() const noexcept {
    return executed == 0 ? 0.0 : static_cast<double>(aborts) / executed;
  }
  double restart_rate() const noexcept {
    return executed == 0 ? 0.0 : static_cast<double>(restarts) / executed;
  }
  double silent_candidate_rate() const noexcept {
    return executed == 0 ? 0.0
                         : static_cast<double>(silent_candidates) / executed;
  }
};

struct CampaignOptions {
  std::uint64_t cap = kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  /// Restrict to one ApiKind (e.g. C library only); nullopt = everything the
  /// variant supports.
  std::optional<ApiKind> only_api;
  /// Restrict to a set of functional groups (bitmask over FuncGroup wire
  /// ids, see core/groups.h).  Unset = the registry's default-campaign
  /// groups; growth groups (e.g. Win32 sync) run only when selected here.
  std::optional<std::uint32_t> group_mask;
  /// Load-testing hooks (paper §5 future work).  `machine_setup` runs once
  /// on the freshly booted machine (pre-aging, ambient state); `task_setup`
  /// runs in every test task after creation, before argument construction
  /// (per-task pressure: handles, heap, filesystem clutter).  Setting
  /// `machine_setup` forces a single-shard (exactly sequential) plan, since
  /// a pre-aged machine has no provably clean shard boundaries; `task_setup`
  /// must be thread-safe when jobs > 1 (it runs concurrently on independent
  /// machines).
  std::function<void(sim::Machine&)> machine_setup;
  std::function<void(sim::SimProcess&)> task_setup;
  /// Worker threads for the plan/schedule/execute engine.  1 = one machine
  /// runs every shard in plan order; N > 1 runs shards on N independent
  /// machines and merges deterministically, so the result is identical for
  /// every value of `jobs`.
  unsigned jobs = 1;
  /// Maximum case-range size when the planner slices hazard-free MuTs into
  /// parallel shards (see core/plan.h).
  std::uint64_t shard_cases = 2048;
  /// When non-null, run_engine fills these observability counters (phase
  /// timings, machine rebuilds, reset work).  Never affects results.
  EngineMetrics* metrics = nullptr;
  /// Persistent-store hooks (src/store).  `shard_cache` is consulted before
  /// a shard executes: returning non-null substitutes the cached outcome and
  /// skips execution entirely (the --resume path; cached shards do NOT fire
  /// on_shard_complete).  `on_shard_complete` fires once per *executed*
  /// shard, on the worker that ran it, as soon as it finishes: the calling
  /// thread at jobs 1.  Calls never overlap (the engine makes them one at a
  /// time under one mutex), but arrive in completion order, which is
  /// schedule-dependent; only the merged result is deterministic.  An
  /// exception thrown from on_shard_complete aborts the campaign (no other
  /// hook call starts, and it propagates out of Campaign::run), which is
  /// exactly how a dying log writer should behave.
  std::function<const ShardOutcome*(const Shard&)> shard_cache;
  std::function<void(const ShardOutcome&)> on_shard_complete;
};

struct CampaignResult {
  sim::OsVariant variant{};
  std::vector<MutStats> stats;
  int reboots = 0;
  std::uint64_t total_cases = 0;
  /// Aggregate per-event-kind counters, folded from stats in plan order.
  trace::Counters event_counters;

  const MutStats* find(std::string_view name) const noexcept {
    for (const auto& s : stats)
      if (s.mut->name == name) return &s;
    return nullptr;
  }
};

class Campaign {
 public:
  /// Runs the campaign through the plan/schedule/execute engine
  /// (core/plan + core/sched), honouring opt.jobs.
  static CampaignResult run(sim::OsVariant variant, const Registry& registry,
                            const CampaignOptions& opt = {});

  /// The whole campaign as one shard (PlanOptions::single_shard), run by
  /// run_shard on one freshly booted machine: the reference the engine's
  /// determinism tests compare sharded plans against.  Ignores opt.jobs /
  /// opt.shard_cases.
  static CampaignResult run_sequential(sim::OsVariant variant,
                                       const Registry& registry,
                                       const CampaignOptions& opt = {});
};

}  // namespace ballista::core
