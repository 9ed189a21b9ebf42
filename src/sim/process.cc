#include "sim/process.h"

#include "sim/machine.h"

namespace ballista::sim {

namespace {

// A modest stack so functions that "use" stack space have something real to
// overflow (guard page below).
constexpr Addr kStackTop = 0x7ff0'0000;
constexpr std::uint64_t kStackSize = 64 * 1024;

/// The environment every fresh (or recycled) task starts with.  Shared const
/// canonical copy: recycle compares against it and only pays for a rebuild
/// when the previous case actually edited the environment.
const std::map<std::string, std::string>& default_env() {
  static const std::map<std::string, std::string> env = {
      {"PATH", "/bin:/usr/bin"},
      {"HOME", "/tmp"},
      {"TMP", "/tmp"},
      {"TEMP", "/tmp"},
      {"BALLISTA", "1"}};
  return env;
}

constexpr std::uint64_t kDefaultHeapInitial = 1 << 20;

/// Brings `obj` back to its just-constructed state: in place (T::reset
/// takes the constructor's arguments) when the process holds the only
/// reference, otherwise as a new object, so whoever still holds the old one
/// keeps it as it was.
template <typename T, typename... Args>
void renew(std::shared_ptr<T>& obj, Args... args) {
  if (obj.use_count() == 1)
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
      cwd_(FileSystem::root_path()),
      next_tid_(pid * 1000 + 1) {
  handles_.set_posix_numbering(posix_fd_numbering);
  mem_.map(kStackTop - kStackSize, kStackSize, kPermRW);
  mem_.checkpoint();  // the pristine image recycle() restores to

  main_thread_ = std::make_shared<ThreadObject>(next_tid_++, pid_);
  self_object_ = std::make_shared<ProcessObject>(pid_);
  default_heap_ = std::make_shared<HeapObject>(kDefaultHeapInitial, 0);
  for (auto& pipe : std_pipes_) pipe = std::make_shared<PipeObject>();

  env_ = default_env();
  cwd_.components = {"tmp"};
}

void SimProcess::recycle(std::uint64_t pid) {
  pid_ = pid;
  next_tid_ = pid * 1000 + 1;

  // Back to the boot image in cost proportional to the dirt: pages mapped
  // by the case are retired, stack pages it wrote are re-zeroed, untouched
  // stack pages cost nothing.
  mem_.restore();
  handles_.reset();

  last_error_ = 0;
  errno_ = 0;

  // Environment and cwd: verify-or-rebuild, so an untouched environment (the
  // overwhelmingly common case) costs five string compares, not five map
  // node allocations.
  if (env_ != default_env()) env_ = default_env();
  if (!cwd_.valid || cwd_.components.size() != 1 ||
      cwd_.components[0] != "tmp") {
    cwd_ = FileSystem::root_path();
    cwd_.components = {"tmp"};
  }

  // Kernel objects a case can mutate (thread context, priorities, exit
  // codes, heap bookkeeping, std-stream buffers) are reset in place: rebuilt
  // they cost six allocations per case.  Each reset() names every mutable
  // field of its class, and Lifecycle.RecycledProcessIsObservationallyFresh
  // dirties every one of them and compares against a fresh process, so a
  // field added without a reset fails that test.  The handle table was
  // reset above, so an object still shared here is held by someone outside
  // the process, and gets a successor instead.
  renew(main_thread_, next_tid_++, pid_);
  renew(self_object_, pid_);
  renew(default_heap_, kDefaultHeapInitial, std::uint64_t{0});
  for (auto& pipe : std_pipes_) renew(pipe);

  // CRT state lives in the (now reset) simulated memory; the clib layer
  // rebuilds it lazily at identical addresses (the bump allocator rewound).
  crt_state_.reset();

  std_in = std_out = std_err = 0;
}

void SimProcess::open_std_streams() {
  // POSIX numbering gives fds 0/1/2, Win32 numbering handles 4/8/12 —
  // decided by the table.
  std_in = handles_.insert(std_pipes_[0]);
  std_out = handles_.insert(std_pipes_[1]);
  std_err = handles_.insert(std_pipes_[2]);
}

std::shared_ptr<ThreadObject> SimProcess::spawn_thread() {
  // Announce before allocating the tid: a cut here leaves the process table
  // without the new thread *and* the tid counter unadvanced.
  machine_.mutations().notify(MutationKind::kProcessUpdate, next_tid_);
  return std::make_shared<ThreadObject>(next_tid_++, pid_);
}

}  // namespace ballista::sim
