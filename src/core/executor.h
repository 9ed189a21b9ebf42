// Runs a single Ballista test case in a fresh simulated task and classifies
// the result on the CRASH scale.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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
  /// What stopped the call, as recorded where it happened: the fault when
  /// kAbort, the panic when kCatastrophic, the hang site when kRestart (a
  /// view of the MuT's name or of a literal).  describe_stop renders it.
  sim::Fault fault;
  sim::PanicKind panic = sim::PanicKind::kNone;
  std::string_view hang_site;
  /// Trace events this case emitted, by kind (delta of the machine sink's
  /// counters across the case).
  trace::Counters events;
  /// Event tail captured at the moment of death (Catastrophic only) — for a
  /// deferred fuse panic it reaches back through earlier cases' entries to
  /// the corrupting hazard write.
  std::vector<trace::TraceEvent> trace_tail;
};

/// The text of a case's stop, from the shared describe_* formatters: the
/// fault (Abort), the panic (Catastrophic) or the hang (Restart); empty for
/// any other outcome.
std::string describe_stop(const CaseResult& r);

/// A bug in the harness, never a verdict: a fault, hang or panic recorded
/// but not returned; a stopped outcome with no recorded cause or with two;
/// a fault taken by harness code (value materialization, CRT set-up); or a
/// persistence point announced after a panic.  The message names the MuT.
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
  /// A stopped call classifies by the one cause recorded for it: a crashed
  /// machine is Catastrophic (with the panic's causal trace tail), a hang
  /// site on the CallContext is Restart, a fault on it is Abort.  A stop
  /// with no cause or two, or a cause behind a call that returned normally,
  /// throws HarnessError.
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
