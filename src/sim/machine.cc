#include "sim/machine.h"

#include <cassert>

namespace ballista::sim {

Machine::Machine(OsVariant variant)
    : pers_(personality_for(variant)), mutations_(*this) {
  trace_.bind_clock(&ticks_);
  fs_.set_mutation_hub(&mutations_);
}

std::unique_ptr<SimProcess> Machine::acquire_process() {
  assert(!crashed_ && "cannot start a task on a crashed machine");
  std::unique_ptr<SimProcess> proc;
  if (!process_pool_.empty() && policy_ == ResetPolicy::kIncremental) {
    proc = std::move(process_pool_.back());
    process_pool_.pop_back();
    if (proc->env_dirty() || proc->cwd_dirty()) ++env_rebuilds_;
    proc->recycle(next_pid_++);
    ++recycled_;
  } else {
    proc = std::make_unique<SimProcess>(
        *this, next_pid_++, pers_.has_shared_arena ? &arena_ : nullptr,
        pers_.strict_alignment, pers_.api == ApiFlavor::kPosix);
    proc->mem().set_trace(&trace_);
    proc->mem().set_mutation_hub(&mutations_);
    proc->handles().set_mutation_hub(&mutations_);
    proc->open_std_streams();
    ++built_;
  }
  return proc;
}

void Machine::release_process(std::unique_ptr<SimProcess> proc) {
  if (proc == nullptr || policy_ != ResetPolicy::kIncremental) return;
  if (process_pool_.size() < kMaxPooledProcesses)
    process_pool_.push_back(std::move(proc));
}

Verdict Machine::kernel_enter() {
  ticks_ += 1;
  if (crashed_) return Verdict::kDown;
  trace_.emit(trace::syscall_enter_event(fuse_remaining_));
  if (fuse_remaining_ > 0) {
    trace_.emit(trace::fuse_burn_event(fuse_remaining_ - 1));
    if (--fuse_remaining_ == 0) return panic(PanicKind::kDeferredFuse);
  }
  return Verdict::kUp;
}

Verdict Machine::panic(PanicKind why) {
  crashed_ = true;
  panic_kind_ = why;
  ++panic_count_;
  fuse_remaining_ = -1;
  mutations_.set_machine_down(true);
  trace_.emit(trace::panic_event(why));
  return Verdict::kDown;
}

Verdict Machine::note_arena_corruption(Addr where, bool critical) {
  arena_.note_corruption();
  trace_.emit(trace::corruption_event(where, critical));
  if (critical) return panic(PanicKind::kCriticalArenaWrite);
  if (fuse_remaining_ < 0) fuse_remaining_ = pers_.corruption_fuse;
  return Verdict::kUp;
}

void Machine::age_arena(int fuse_entries) {
  if (!pers_.has_shared_arena || fuse_entries <= 0) return;
  arena_.note_corruption();
  fuse_remaining_ = fuse_entries;
}

void Machine::checkpoint() { fs_.checkpoint(); }

void Machine::restore(RestoreLevel level) {
  if (level == RestoreLevel::kCaseReset) {
    // Between-cases cleanup on a live machine: the paper's harness removes
    // lingering state (temporary files) so constructors see a known disk
    // image.  A crashed machine needs at least kReboot.
    assert(!crashed_ && "kCaseReset on a crashed machine; use kReboot");
    if (policy_ == ResetPolicy::kAlwaysRebuild)
      fs_.rebuild_fixture();
    else
      fs_.restore_fixture();
    // Port bindings are case-local like temp files; a leaked binding would
    // make case outcomes depend on what ran before them.
    net_.reset();
    return;
  }

  // kReboot and above: clear the crash, the fuse and the shared arena, and
  // restore the disk.  The reboot event lands in the surviving trace ring, so
  // a post-reboot tail still shows the death.
  crashed_ = false;
  panic_kind_ = PanicKind::kNone;
  fuse_remaining_ = -1;
  mutations_.set_machine_down(false);
  arena_.clear();
  if (policy_ == ResetPolicy::kAlwaysRebuild)
    fs_.rebuild_fixture();
  else
    fs_.restore_fixture();
  net_.reset();
  trace_.emit(trace::reboot_event(panic_count_));

  if (level == RestoreLevel::kFullReset) {
    // Pristine post-construction boot state: also the clock, the pid
    // counter, the panic count and the trace sink (ring + counters).
    ticks_ = kBootTicks;
    next_pid_ = kFirstPid;
    panic_count_ = 0;
    trace_.clear();
    mutations_.full_reset();
  }
}

}  // namespace ballista::sim
