// Simulated Win32 API surface: 143 system calls in the paper's five
// functional groups (Memory Management 24, File/Directory Access 34, I/O
// Primitives 15, Process Primitives 38, Process Environment 32).
//
// Win32 error-reporting model (paper §3.1): BOOL/handle returns plus
// GetLastError().  Invalid handles are rejected with ERROR_INVALID_HANDLE by
// the NT family and CE; the Win9x stubs frequently return success without
// doing the work — the Silent failures Figure 2's voting surfaces.
#pragma once

#include <memory>
#include <optional>

#include "clib/defs.h"
#include "core/execctx.h"
#include "core/typelib.h"
#include "sim/kobject.h"

namespace ballista::win32 {

using clib::Defs;
using core::CallContext;
using core::CallOutcome;
using core::MemStatus;
using sim::Addr;

// Win32 error codes (values from the platform SDK).
inline constexpr std::uint32_t ERR_FILE_NOT_FOUND = 2;
inline constexpr std::uint32_t ERR_PATH_NOT_FOUND = 3;
inline constexpr std::uint32_t ERR_ACCESS_DENIED = 5;
inline constexpr std::uint32_t ERR_INVALID_HANDLE = 6;
inline constexpr std::uint32_t ERR_NOT_ENOUGH_MEMORY = 8;
inline constexpr std::uint32_t ERR_INVALID_DATA = 13;
inline constexpr std::uint32_t ERR_WRITE_PROTECT = 19;
inline constexpr std::uint32_t ERR_NOT_SUPPORTED = 50;
inline constexpr std::uint32_t ERR_INVALID_PARAMETER = 87;
inline constexpr std::uint32_t ERR_INVALID_NAME = 123;
inline constexpr std::uint32_t ERR_DIR_NOT_EMPTY = 145;
inline constexpr std::uint32_t ERR_ALREADY_EXISTS = 183;
inline constexpr std::uint32_t ERR_ENVVAR_NOT_FOUND = 203;
inline constexpr std::uint32_t ERR_NO_MORE_FILES = 18;
inline constexpr std::uint32_t ERR_FILE_EXISTS = 80;
inline constexpr std::uint32_t ERR_NOACCESS = 998;
inline constexpr std::uint32_t ERR_LOCK_VIOLATION = 33;
inline constexpr std::uint32_t ERR_NOT_OWNER = 288;
inline constexpr std::uint32_t ERR_TOO_MANY_POSTS = 298;

// Winsock error codes (WSAGetLastError shares the GetLastError slot).
inline constexpr std::uint32_t WSAEFAULT = 10014;
inline constexpr std::uint32_t WSAEINVAL = 10022;
inline constexpr std::uint32_t WSAEWOULDBLOCK = 10035;
inline constexpr std::uint32_t WSAENOTSOCK = 10038;
inline constexpr std::uint32_t WSAEMSGSIZE = 10040;
inline constexpr std::uint32_t WSAENOPROTOOPT = 10042;
inline constexpr std::uint32_t WSAEPROTONOSUPPORT = 10043;
inline constexpr std::uint32_t WSAESOCKTNOSUPPORT = 10044;
inline constexpr std::uint32_t WSAEOPNOTSUPP = 10045;
inline constexpr std::uint32_t WSAEAFNOSUPPORT = 10047;
inline constexpr std::uint32_t WSAEADDRINUSE = 10048;
inline constexpr std::uint32_t WSAEADDRNOTAVAIL = 10049;
inline constexpr std::uint32_t WSAECONNRESET = 10054;
inline constexpr std::uint32_t WSAEISCONN = 10056;
inline constexpr std::uint32_t WSAENOTCONN = 10057;
inline constexpr std::uint32_t WSAESHUTDOWN = 10058;
inline constexpr std::uint32_t WSAETIMEDOUT = 10060;
inline constexpr std::uint32_t WSAECONNREFUSED = 10061;

/// SOCKET_ERROR and INVALID_SOCKET alike: (int)-1.
inline constexpr std::uint64_t SOCKET_ERROR32 = 0xffffffffull;

inline constexpr std::uint64_t INVALID_HANDLE_VALUE32 = 0xffffffffull;
inline constexpr std::uint64_t kPseudoCurrentProcess = 0xffffffffull;
inline constexpr std::uint64_t kPseudoCurrentThread = 0xfffffffeull;
inline constexpr std::uint32_t WAIT_OBJECT_0 = 0;
inline constexpr std::uint32_t WAIT_TIMEOUT = 0x102;
inline constexpr std::uint32_t WAIT_FAILED = 0xffffffff;
inline constexpr std::uint32_t INFINITE32 = 0xffffffff;

/// Resolves a HANDLE argument, honoring the pseudo-handles.  On failure the
/// optional carries the correct per-personality outcome: ERROR_INVALID_HANDLE
/// on NT/CE, a do-nothing success on the loose Win9x stubs.
struct HandleCheck {
  std::shared_ptr<sim::KernelObject> obj;
  std::optional<CallOutcome> fail;
};

HandleCheck check_handle(CallContext& ctx, std::uint64_t h,
                         std::optional<sim::ObjectKind> want = std::nullopt,
                         std::uint64_t fail_ret = 0);

/// Reads a path argument with kernel copy-in semantics; nullopt means the
/// caller should return `fail` (already shaped for this personality).
struct PathRead {
  std::optional<std::string> path;
  CallOutcome fail;
};
PathRead read_path_arg(CallContext& ctx, Addr a, std::uint64_t fail_ret = 0);

/// The kernel-object calls both the Process Primitives group and the sync
/// growth group register, defined once in sync_calls.cc.  `op` picks
/// Set/Reset/PulseEvent (0-2) or InterlockedIncrement, Decrement, Exchange,
/// ExchangeAdd and CompareExchange (0-4).
CallOutcome do_create_event(CallContext& ctx);
CallOutcome event_op(CallContext& ctx, int op);
CallOutcome do_create_mutex(CallContext& ctx);
CallOutcome do_release_mutex(CallContext& ctx);
CallOutcome do_release_semaphore(CallContext& ctx);
CallOutcome do_wait_single(CallContext& ctx);
CallOutcome interlocked(CallContext& ctx, int op);

/// Registers Win32-specific data types (HANDLE kinds, CONTEXT*, FILETIME*,
/// wait arrays...) and all 143 system calls of the paper's five groups,
/// plus the post-paper synchronization growth group (sync_calls.cc).
void register_win32(core::TypeLibrary& lib, core::Registry& reg);

void register_win32_types(core::TypeLibrary& lib);
void register_memory_calls(core::TypeLibrary& lib, core::Registry& reg);
void register_file_calls(core::TypeLibrary& lib, core::Registry& reg);
void register_io_calls(core::TypeLibrary& lib, core::Registry& reg);
void register_proc_calls(core::TypeLibrary& lib, core::Registry& reg);
void register_env_calls(core::TypeLibrary& lib, core::Registry& reg);
/// The thirteenth functional group (FuncGroup::kWin32Sync): kernel-object
/// synchronization with sync-focused value pools.  Registered last so the
/// paper groups keep their registry order; excluded from default campaigns
/// by the group registry (core/groups.h) until its goldens are committed.
void register_sync_calls(core::TypeLibrary& lib, core::Registry& reg);
/// The fourteenth group (FuncGroup::kSockets), Winsock flavor: the shared
/// socket service (core/socket_service.h) under the WSA error convention.
/// Pools are shared with the POSIX flavor (core/socket_types.h).
void register_socket_calls(core::TypeLibrary& lib, core::Registry& reg);

}  // namespace ballista::win32
