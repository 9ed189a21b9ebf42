#include "sim/process.h"

#include "sim/machine.h"

namespace ballista::sim {

namespace {

// A modest stack so functions that "use" stack space have something real to
// overflow (guard page below).
constexpr Addr kStackTop = 0x7ff0'0000;
constexpr std::uint64_t kStackSize = 64 * 1024;

/// The environment every fresh (or recycled) task starts with.  Shared const
/// canonical copy: recycle copies it back only when the previous case
/// edited the environment.
const std::map<std::string, std::string>& default_env() {
  static const std::map<std::string, std::string> env = {
      {"PATH", "/bin:/usr/bin"},
      {"HOME", "/tmp"},
      {"TMP", "/tmp"},
      {"TEMP", "/tmp"},
      {"BALLISTA", "1"}};
  return env;
}

/// The working directory every fresh (or recycled) task starts in.
const ParsedPath& default_cwd() {
  static const ParsedPath cwd{{std::string(FileSystem::kScratchDir)}};
  return cwd;
}

constexpr std::uint64_t kDefaultHeapInitial = 1 << 20;

/// Brings `obj` back to its just-constructed state: in place (T::reset
/// takes the constructor's arguments) when the process's own `own`
/// references are the only ones, otherwise as a new object, so whoever
/// still holds the old one keeps it as it was.
template <typename T, typename... Args>
void renew(std::shared_ptr<T>& obj, long own, Args... args) {
  if (obj.use_count() == own)
    obj->reset(args...);
  else
    obj = std::make_shared<T>(args...);
}

}  // namespace

SimProcess::SimProcess(Machine& machine, std::uint64_t pid, SharedArena* arena,
                       bool strict_align, bool posix_fd_numbering)
    : machine_(machine),
      pid_(pid),
      mem_(arena, strict_align),
      env_(default_env()),
      cwd_(default_cwd()),
      next_tid_(pid * 1000 + 1) {
  handles_.set_posix_numbering(posix_fd_numbering);
  // The hub is wired after construction, so the stack map announces nothing.
  (void)mem_.map(kStackTop - kStackSize, kStackSize, kPermRW);
  mem_.checkpoint();  // the pristine image recycle() restores to

  main_thread_ = std::make_shared<ThreadObject>(next_tid_++, pid_);
  self_object_ = std::make_shared<ProcessObject>(pid_);
  default_heap_ = std::make_shared<HeapObject>(kDefaultHeapInitial, 0);
  for (auto& pipe : std_pipes_) pipe = std::make_shared<PipeObject>();
}

void SimProcess::recycle(std::uint64_t pid) {
  pid_ = pid;
  next_tid_ = pid * 1000 + 1;

  // Back to the boot image in cost proportional to the dirt: pages mapped
  // by the case are retired, stack pages it wrote are re-zeroed, untouched
  // stack pages cost nothing.
  mem_.restore();
  // The standard streams keep their slots; every handle after them goes.
  handles_.rewind(std_pipes_.size());

  last_error_ = 0;
  errno_ = 0;

  // Environment and cwd: every edit goes through edit_env/set_cwd, so an
  // untouched environment (the overwhelmingly common case) costs a flag
  // test.
  if (env_dirty_) env_ = default_env();
  if (cwd_dirty_) cwd_ = default_cwd();
  env_dirty_ = cwd_dirty_ = false;

  // Kernel objects a case can mutate (thread context, priorities, exit
  // codes, heap bookkeeping, std-stream buffers) are reset in place: rebuilt
  // they cost six allocations per case.  Each reset() names every mutable
  // field of its class, and Lifecycle.RecycledProcessIsObservationallyFresh
  // dirties every one of them and compares against a fresh process, so a
  // field added without a reset fails that test.  The handle table was
  // rewound above, so an object shared beyond the process's own references
  // (a std pipe's slot is one) is held by someone outside the process, and
  // gets a successor instead, which takes over the slot.
  renew(main_thread_, 1, next_tid_++, pid_);
  renew(self_object_, 1, pid_);
  renew(default_heap_, 1, kDefaultHeapInitial, std::uint64_t{0});
  for (std::size_t k = 0; k < std_pipes_.size(); ++k) {
    auto& pipe = std_pipes_[k];
    renew(pipe, handles_.holds(std_handles_[k], pipe.get()) ? 2 : 1);
    handles_.install(std_handles_[k], pipe);
  }

  // CRT state lives in the (now reset) simulated memory; the clib layer
  // rebuilds it lazily at identical addresses (the bump allocator rewound).
  crt_state_.reset();

  // SetStdHandle may have pointed these elsewhere.
  std_in = std_handles_[0];
  std_out = std_handles_[1];
  std_err = std_handles_[2];
}

void SimProcess::open_std_streams() {
  // POSIX numbering gives fds 0/1/2, Win32 numbering handles 4/8/12 —
  // decided by the table.
  // Runs in acquire_process, outside the module window: nothing announces.
  for (std::size_t k = 0; k < std_pipes_.size(); ++k)
    std_handles_[k] = handles_.insert(std_pipes_[k]).value;
  std_in = std_handles_[0];
  std_out = std_handles_[1];
  std_err = std_handles_[2];
}

Survived<std::shared_ptr<ThreadObject>> SimProcess::spawn_thread() {
  // Announce before allocating the tid: a cut here leaves the process table
  // without the new thread *and* the tid counter unadvanced.
  if (machine_.mutations().notify(MutationKind::kProcessUpdate, next_tid_) ==
      Verdict::kDown)
    return {nullptr, Verdict::kDown};
  return {std::make_shared<ThreadObject>(next_tid_++, pid_)};
}

}  // namespace ballista::sim
