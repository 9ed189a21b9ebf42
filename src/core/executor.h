// Runs a single Ballista test case in a fresh simulated task and classifies
// the result on the CRASH scale.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/execctx.h"
#include "core/registry.h"
#include "core/trace.h"
#include "sim/machine.h"

namespace ballista::core {

struct CaseResult {
  Outcome outcome = Outcome::kPass;
  /// Return path details for Silent/Hindering analysis (only meaningful when
  /// outcome == kPass).
  bool success_no_error = false;  // returned success with no error indication
  bool wrong_error = false;       // Hindering candidate
  bool any_exceptional = false;   // tuple contained >= 1 exceptional value
  sim::FaultType fault = sim::FaultType::kAccessViolation;  // when kAbort
  sim::PanicKind panic = sim::PanicKind::kNone;             // when kCatastrophic
  /// Rendered view (exception messages come from the shared describe_*
  /// formatters; never assembled ad hoc here).
  std::string detail;
  /// Trace events this case emitted, by kind (delta of the machine sink's
  /// counters across the case).
  trace::Counters events;
  /// Event tail captured at the moment of death (Catastrophic only) — for a
  /// deferred fuse panic it reaches back through earlier cases' entries to
  /// the corrupting hazard write.
  std::vector<trace::TraceEvent> trace_tail;
};

/// A bug in the harness, never a verdict: a fault recorded but not returned,
/// recorded twice, or taken by harness code (value materialization, CRT
/// set-up); a kernel panic not returned (the machine died but the call
/// returned another outcome), or a persistence point announced after it.
/// The message names the MuT.
class HarnessError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Executor {
 public:
  explicit Executor(sim::Machine& machine) : machine_(machine) {}

  /// Precondition: !machine().crashed().  Restores the machine to its
  /// checkpoint (RestoreLevel::kCaseReset), acquires a pristine task from the
  /// machine's process pool, materializes the tuple, dispatches, classifies,
  /// and releases the task for recycling.
  /// `case_index` stamps the emitted trace events (-1 = unindexed run).
  /// A faulted call classifies as Abort; the fault arrives as a value (the
  /// CallContext's recorded fault behind a kFaulted outcome), and any
  /// mismatch between the two throws HarnessError.  A panicked call (the
  /// machine crashed and the call returned kPanicked) classifies as
  /// Catastrophic, with the panic's causal trace tail.
  CaseResult run_case(const MuT& mut, std::span<const TestValue* const> tuple,
                      std::int64_t case_index = -1);

  /// Installs per-task ambient state (load testing); runs after task
  /// creation and before argument construction.
  void set_task_setup(std::function<void(sim::SimProcess&)> hook) {
    task_setup_ = std::move(hook);
  }

  sim::Machine& machine() noexcept { return machine_; }

 private:
  sim::Machine& machine_;
  std::function<void(sim::SimProcess&)> task_setup_;
  /// The materialized arguments of the case in flight, reused across cases.
  std::vector<RawArg> args_;
};

}  // namespace ballista::core
