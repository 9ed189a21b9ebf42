#include "core/executor.h"

#include <algorithm>
#include <cassert>

namespace ballista::core {
namespace {

// The schedule-invariant causal window behind a panic, cut from the last
// kDefaultCapacity events of the ring.  The ring spans the machine's whole
// recent history, which differs between the sequential loop and a freshly
// checked-out shard machine; the chain from the corrupting case (deferred
// fuse) or the dying case (immediate panic) to the kPanic event is
// guaranteed identical across schedules by the plan's corruption-stays-in-
// shard invariant, so only that window is kept.  The window is found in
// place and copied out once.
std::vector<trace::TraceEvent> causal_window(const trace::TraceSink& sink,
                                             sim::PanicKind why) {
  const std::size_t n =
      std::min(sink.size(), trace::TraceSink::kDefaultCapacity);
  if (n == 0) return {};
  // Event k of the n-event tail, oldest first.
  const auto at = [&](std::size_t k) -> const trace::TraceEvent& {
    return sink.recent(n - 1 - k);
  };
  std::size_t anchor = n - 1;  // the kPanic event
  if (why == sim::PanicKind::kDeferredFuse) {
    for (std::size_t k = n; k-- > 0;) {
      if (at(k).kind == trace::EventKind::kArenaCorruption) {
        anchor = k;
        break;
      }
    }
  }
  // Walk back to the anchor case's first kernel event (its kSyscallEnter).
  const std::int64_t c = at(anchor).case_index;
  std::size_t start = anchor;
  while (start > 0 && at(start).kind != trace::EventKind::kSyscallEnter &&
         at(start - 1).case_index == c)
    --start;
  return sink.tail(n - start);
}

[[noreturn]] void harness_error(const MuT& mut, std::string_view what) {
  std::string s{"harness error in "};
  s += mut.name;
  s += ": ";
  s += what;
  throw HarnessError(s);
}

}  // namespace

std::string describe_stop(const CaseResult& r) {
  switch (r.outcome) {
    case Outcome::kAbort: return sim::describe_fault(r.fault);
    case Outcome::kRestart: return sim::describe_hang(r.hang_site);
    case Outcome::kCatastrophic: return sim::describe_panic(r.panic);
    case Outcome::kPass:
    case Outcome::kNotRun: break;
  }
  return {};
}

CaseResult Executor::run_case(const MuT& mut,
                              std::span<const TestValue* const> tuple,
                              std::int64_t case_index) {
  assert(!machine_.crashed());
  assert(tuple.size() == mut.params.size());

  trace::TraceSink& sink = machine_.trace();
  sink.set_case_index(case_index);
  const trace::Counters before = sink.counters();

  CaseResult result;
  for (const TestValue* v : tuple)
    if (v->exceptional) result.any_exceptional = true;

  // Paper §2: each test cleans up lingering state (temporary files) before the
  // next; the lifecycle restore gives constructors a known disk image at a
  // cost proportional to what the previous case dirtied (after a reboot,
  // whose restore already settled the disk, this verifies instead of
  // rebuilding a second time).
  machine_.restore(sim::RestoreLevel::kCaseReset);

  auto proc = machine_.acquire_process();
  if (task_setup_) task_setup_(*proc);
  ValueCtx vctx{machine_, *proc};

  args_.clear();
  try {
    for (const TestValue* v : tuple) args_.push_back(v->make(vctx));
  } catch (const std::logic_error& e) {
    harness_error(mut, e.what());
  }

  // Sentinel error state so the classifier can see whether the call reported.
  proc->set_last_error(0);
  proc->set_errno(0);

  CallContext ctx(machine_, *proc, mut, args_);
  // Mutation points exist only while the module under test runs: harness
  // work (tuple materialization above, process recycling, fixture restores)
  // must never count as a persistence point.
  sim::MutationHub& hub = machine_.mutations();
  hub.open_window();
  try {
    const CallOutcome out = machine_.kernel_enter() == sim::Verdict::kDown
                                ? stopped()
                                : mut.impl(ctx);
    if (hub.late_announcements() != 0)
      harness_error(mut, "a persistence point was announced after a panic");
    const bool down = machine_.crashed();
    const int causes = ctx.causes_recorded() + (down ? 1 : 0);
    if (out.status != CallStatus::kStopped) {
      if (causes != 0)
        harness_error(mut, down ? "a kernel panic was not returned"
                           : ctx.hang_site()
                               ? "a hang was recorded but not returned"
                               : "a fault was recorded but not returned");
      sink.emit(trace::syscall_exit_event(out.status, out.ret));
      result.outcome = Outcome::kPass;
      result.wrong_error = out.status == CallStatus::kWrongError;
      result.success_no_error = out.status == CallStatus::kSuccess ||
                                out.status == CallStatus::kSilentSuccess;
    } else if (causes != 1) {
      harness_error(mut, causes == 0
                             ? "a stopped outcome carries no recorded cause"
                             : "a stopped outcome has two recorded causes");
    } else if (down) {
      // The machine died under the call: nothing ran past the panic, so the
      // ring still ends at the kPanic event, the causal chain behind it.
      result.outcome = Outcome::kCatastrophic;
      result.panic = machine_.panic_kind();
      result.trace_tail = causal_window(sink, result.panic);
    } else if (ctx.hang_site()) {
      // The task blocks with no possible waker; the watchdog fires.
      result.outcome = Outcome::kRestart;
      result.hang_site = *ctx.hang_site();
    } else {
      // The task took a hardware-class fault: it never returns to its
      // caller, so no kSyscallExit.
      result.outcome = Outcome::kAbort;
      result.fault = *ctx.fault();
    }
  } catch (const HarnessError&) {
    throw;
  } catch (const std::logic_error& e) {
    // A fault in harness code the call runs (CRT set-up).
    harness_error(mut, e.what());
  }
  hub.close_window();
  sink.emit(trace::classified_event(result.outcome, result.fault.type,
                                    result.success_no_error,
                                    result.wrong_error));
  result.events = sink.counters() - before;
  sink.set_case_index(-1);
  machine_.release_process(std::move(proc));
  return result;
}

}  // namespace ballista::core
