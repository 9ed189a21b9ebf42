#include "core/executor.h"

#include <cassert>

namespace ballista::core {
namespace {

// Trims a raw ring tail down to the schedule-invariant causal window behind a
// panic.  The ring spans the machine's whole recent history, which differs
// between the sequential loop and a freshly checked-out shard machine; the
// chain from the corrupting case (deferred fuse) or the dying case (immediate
// panic) to the kPanic event is guaranteed identical across schedules by the
// plan's corruption-stays-in-shard invariant, so only that window is kept.
std::vector<trace::TraceEvent> causal_window(std::vector<trace::TraceEvent> tail,
                                             sim::PanicKind why) {
  if (tail.empty()) return tail;
  std::size_t anchor = tail.size() - 1;  // the kPanic event
  if (why == sim::PanicKind::kDeferredFuse) {
    for (std::size_t k = tail.size(); k-- > 0;) {
      if (tail[k].kind == trace::EventKind::kArenaCorruption) {
        anchor = k;
        break;
      }
    }
  }
  // Walk back to the anchor case's first kernel event (its kSyscallEnter).
  const std::int64_t c = tail[anchor].case_index;
  std::size_t start = anchor;
  while (start > 0 && tail[start].kind != trace::EventKind::kSyscallEnter &&
         tail[start - 1].case_index == c)
    --start;
  tail.erase(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(start));
  return tail;
}

}  // namespace

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
  for (const TestValue* v : tuple) args_.push_back(v->make(vctx));

  // Sentinel error state so the classifier can see whether the call reported.
  proc->set_last_error(0);
  proc->set_errno(0);

  CallContext ctx(machine_, *proc, mut, args_);
  // Mutation points exist only while the module under test runs: harness
  // work (tuple materialization above, process recycling, fixture restores)
  // must never count as a persistence point.
  machine_.mutations().open_window();
  try {
    machine_.kernel_enter();
    const CallOutcome out = mut.impl(ctx);
    sink.emit(trace::syscall_exit_event(out.status, out.ret));
    switch (out.status) {
      case CallStatus::kErrorReported:
        result.outcome = Outcome::kPass;
        break;
      case CallStatus::kWrongError:
        result.outcome = Outcome::kPass;
        result.wrong_error = true;
        break;
      case CallStatus::kSuccess:
      case CallStatus::kSilentSuccess:
        result.outcome = Outcome::kPass;
        result.success_no_error = true;
        break;
    }
  } catch (const sim::KernelPanic& p) {
    result.outcome = Outcome::kCatastrophic;
    result.panic = p.kind();
    result.detail = p.what();
    // The ring ends at the kPanic event: the causal chain behind the crash.
    result.trace_tail = causal_window(sink.tail(), result.panic);
  } catch (const sim::TaskHang& h) {
    result.outcome = Outcome::kRestart;
    result.detail = h.what();
  } catch (const sim::SimFault& f) {
    result.outcome = Outcome::kAbort;
    result.fault = f.fault().type;
    result.detail = f.what();
  }
  machine_.mutations().close_window();
  sink.emit(trace::classified_event(result.outcome, result.fault,
                                    result.success_no_error,
                                    result.wrong_error));
  result.events = sink.counters() - before;
  sink.set_case_index(-1);
  machine_.release_process(std::move(proc));
  return result;
}

}  // namespace ballista::core
