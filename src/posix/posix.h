// Simulated POSIX API surface: the 91 Linux system calls (paper Table 1),
// grouped as Memory Management 8, File/Directory Access 30, I/O Primitives
// 10 (§3.3's exact list), Process Primitives 25, Process Environment 18.
//
// Linux validation architecture: system calls copy user data through
// copy_from_user/copy_to_user and return EFAULT on bad pointers — robust
// error returns, giving Linux the lowest system-call Abort rate in Figure 1.
// The residual Aborts come from calls whose glibc wrapper dereferences in
// user space before trapping (readdir's DIR*, execv's argv walk, ...).
#pragma once

#include <cerrno>

#include "clib/defs.h"
#include "core/execctx.h"
#include "core/typelib.h"
#include "sim/kobject.h"

namespace ballista::posix_api {

using clib::Defs;
using core::CallContext;
using core::CallOutcome;
using core::MemStatus;
using sim::Addr;

/// Resolves an fd to a kernel object; on failure the optional carries the
/// EBADF outcome.
struct FdCheck {
  std::shared_ptr<sim::KernelObject> obj;
  std::optional<CallOutcome> fail;
};
FdCheck check_fd(CallContext& ctx, std::uint64_t fd,
                 std::optional<sim::ObjectKind> want = std::nullopt);

/// Reads a path with copy_from_user semantics (EFAULT / ENAMETOOLONG).
struct PosixPath {
  std::optional<std::string> path;
  CallOutcome fail;
};
PosixPath read_posix_path(CallContext& ctx, Addr a);

void register_posix(core::TypeLibrary& lib, core::Registry& reg);

void register_posix_types(core::TypeLibrary& lib);
void register_posix_mem(core::TypeLibrary& lib, core::Registry& reg);
void register_posix_fs(core::TypeLibrary& lib, core::Registry& reg);
void register_posix_io(core::TypeLibrary& lib, core::Registry& reg);
void register_posix_proc(core::TypeLibrary& lib, core::Registry& reg);
void register_posix_env(core::TypeLibrary& lib, core::Registry& reg);
/// The sockets growth group (FuncGroup::kSockets), BSD flavor: the shared
/// socket service (core/socket_service.h) under Linux's errno convention.
/// Pools are shared with the Winsock flavor (core/socket_types.h).
void register_posix_socket(core::TypeLibrary& lib, core::Registry& reg);

}  // namespace ballista::posix_api
