// A simulated task.  Each Ballista test case runs in a fresh SimProcess
// (paper §2: "Each test case ... is executed as a separate task to minimize
// the occurrence of cross-test interference") — what *can* leak between tests
// is exactly the machine-shared state (the Win9x arena and the filesystem),
// which is how the paper's inter-test-interference crashes are reproduced.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/addrspace.h"
#include "sim/filesystem.h"
#include "sim/kobject.h"
#include "sim/personality.h"

namespace ballista::sim {

class Machine;

class SimProcess {
 public:
  SimProcess(Machine& machine, std::uint64_t pid, SharedArena* arena,
             bool strict_align, bool posix_fd_numbering);

  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  /// Returns the task to freshly-constructed state under a new pid, in cost
  /// proportional to what the previous case dirtied: mappings and handles
  /// are their own dirty sets, env/cwd are rebuilt only when their dirty
  /// flags are set, the standard streams stay in their handle slots, and
  /// the kernel objects are reset in place.  Machine::acquire_process calls
  /// this when it hands out a pooled process; a recycled task is
  /// observationally identical to a new one (same addresses, same handle
  /// values, same defaults).
  void recycle(std::uint64_t pid);

  /// Installs the standard-stream pipes in the handle table and records
  /// their handles in std_in/std_out/std_err.  Machine::acquire_process
  /// calls this once, on a process it has just built and wired to the
  /// machine's mutation hub; recycle() keeps them installed.
  void open_std_streams();

  Machine& machine() noexcept { return machine_; }
  std::uint64_t pid() const noexcept { return pid_; }

  AddressSpace& mem() noexcept { return mem_; }
  const AddressSpace& mem() const noexcept { return mem_; }
  HandleTable& handles() noexcept { return handles_; }

  // --- error reporting state ------------------------------------------------

  /// Win32 GetLastError value.
  std::uint32_t last_error() const noexcept { return last_error_; }
  void set_last_error(std::uint32_t e) noexcept { last_error_ = e; }
  /// POSIX / C errno.
  int err_no() const noexcept { return errno_; }
  void set_errno(int e) noexcept { errno_ = e; }

  // --- environment / cwd ----------------------------------------------------

  const std::map<std::string, std::string>& env() const noexcept {
    return env_;
  }
  /// The environment, for an edit about to happen (setenv, putenv,
  /// SetEnvironmentVariable): recycle() will rebuild it.
  std::map<std::string, std::string>& edit_env() noexcept {
    env_dirty_ = true;
    return env_;
  }
  const ParsedPath& cwd() const noexcept { return cwd_; }
  /// chdir / SetCurrentDirectory: recycle() will rebuild the cwd.
  void set_cwd(ParsedPath p) {
    cwd_ = std::move(p);
    cwd_dirty_ = true;
  }
  /// Whether the environment / cwd were edited since the task was built or
  /// last recycled.  While clear, each equals the default a fresh task has.
  bool env_dirty() const noexcept { return env_dirty_; }
  bool cwd_dirty() const noexcept { return cwd_dirty_; }

  // --- threads ---------------------------------------------------------------

  const std::shared_ptr<ThreadObject>& main_thread() const noexcept {
    return main_thread_;
  }
  /// The kernel object GetCurrentProcess()'s pseudo-handle resolves to.
  const std::shared_ptr<ProcessObject>& self_object() const noexcept {
    return self_object_;
  }
  /// A new thread of this process; kDown, with no thread made and the tid
  /// counter unadvanced, when an armed cut fires on its kProcessUpdate point.
  Survived<std::shared_ptr<ThreadObject>> spawn_thread();

  // --- process-wide default heap (Win32 GetProcessHeap / C malloc arena) -----

  const std::shared_ptr<HeapObject>& default_heap() const noexcept {
    return default_heap_;
  }

  /// Opaque per-process C-runtime state, owned by the clib layer (keeps the
  /// sim layer free of CRT knowledge while giving each task its own stdio
  /// table, ctype tables and FILE structures in simulated memory).
  const std::shared_ptr<void>& crt_state() const noexcept { return crt_state_; }
  void set_crt_state(std::shared_ptr<void> s) noexcept {
    crt_state_ = std::move(s);
  }

  /// Standard handles (Win32 STD_INPUT_HANDLE etc. / POSIX fds 0-2).
  std::uint64_t std_in = 0, std_out = 0, std_err = 0;

 private:
  Machine& machine_;
  std::uint64_t pid_;
  AddressSpace mem_;
  HandleTable handles_;
  std::uint32_t last_error_ = 0;
  int errno_ = 0;
  std::map<std::string, std::string> env_;
  ParsedPath cwd_;
  bool env_dirty_ = false;
  bool cwd_dirty_ = false;
  std::shared_ptr<ThreadObject> main_thread_;
  std::shared_ptr<ProcessObject> self_object_;
  std::shared_ptr<HeapObject> default_heap_;
  /// stdin, stdout and stderr, and the handles open_std_streams gave them.
  std::array<std::shared_ptr<PipeObject>, 3> std_pipes_;
  std::array<std::uint64_t, 3> std_handles_{};
  std::shared_ptr<void> crt_state_;
  std::uint64_t next_tid_;
};

}  // namespace ballista::sim
