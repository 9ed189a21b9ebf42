// Sockets group, Winsock flavor (FuncGroup::kSockets, wire id 13): the
// Winsock 1.1 surface of the shared socket service (core/socket_service.h),
// served under the Winsock convention below.
//
// Error model: SOCKET_ERROR/INVALID_SOCKET returns with WSA* codes in the
// shared last-error slot (WSAGetLastError aliases GetLastError here).  The
// per-variant contrast is where a bad sockaddr* dies: the NT family probes
// it in the kernel copy-in (WSAEFAULT or a raised exception → Abort), the
// Win9x user-mode stubs swallow obviously-bad pointers and report success
// (Silent), and CE thunks sendto/recvfrom address copies through the kernel
// (deferred-corruption hazards, like Table 3's Interlocked rows).
#include "core/socket_service.h"
#include "core/socket_types.h"
#include "win32/win32.h"

namespace ballista::win32 {

namespace {

CallOutcome wsa_fail(CallContext& ctx, std::uint32_t code) {
  return ctx.win_fail(code, SOCKET_ERROR32);
}

/// Winsock's check_handle: the reject is WSAENOTSOCK (not
/// ERROR_INVALID_HANDLE), and success for the int-returning calls is 0, so
/// the Win9x do-nothing stub reports 0.
std::optional<CallOutcome> lookup_socket(
    CallContext& ctx, std::uint64_t h, std::shared_ptr<sim::SocketObject>* s) {
  auto obj = ctx.proc().handles().get(static_cast<std::uint32_t>(h));
  if (obj != nullptr && obj->kind() == sim::ObjectKind::kSocket) {
    *s = std::static_pointer_cast<sim::SocketObject>(obj);
    return std::nullopt;
  }
  if (ctx.os().pointer_policy == sim::PointerPolicy::kStubCheckLoose)
    return core::silent_success(0);
  return wsa_fail(ctx, WSAENOTSOCK);
}

constexpr core::SocketConvention kWinsock{
    .lookup = lookup_socket,
    .fail = wsa_fail,
    .codes = {.fault = WSAEFAULT,
              .short_length = WSAEFAULT,
              .bad_type = WSAESOCKTNOSUPPORT,
              .af_no_support = WSAEAFNOSUPPORT,
              .proto_no_support = WSAEPROTONOSUPPORT,
              .op_not_supp = WSAEOPNOTSUPP,
              .invalid = WSAEINVAL,
              .no_proto_opt = WSAENOPROTOOPT,
              .would_block = WSAEWOULDBLOCK,
              .recv_timeout = WSAETIMEDOUT,
              .connect_timeout = WSAETIMEDOUT,
              .msg_size = WSAEMSGSIZE,
              .shutdown = WSAESHUTDOWN,
              .addr_in_use = WSAEADDRINUSE,
              .addr_not_avail = WSAEADDRNOTAVAIL,
              .conn_refused = WSAECONNREFUSED,
              .not_conn = WSAENOTCONN,
              .is_conn = WSAEISCONN,
              .conn_reset = WSAECONNRESET},
    .eof_after_shut_rd = false,
    .truncation_fails = true,
};

}  // namespace

void register_socket_calls(core::TypeLibrary& lib, core::Registry& reg) {
  core::register_socket_types(lib);
  auto add = [&](const char* name, std::uint8_t mask) -> core::MuT& {
    return core::add_socket_call(lib, reg, name, core::ApiKind::kWin32Sys,
                                 mask, kWinsock);
  };
  for (const char* name :
       {"socket", "bind", "listen", "connect", "accept", "send", "recv"})
    add(name, core::kMaskAllWindows);
  // CE thunks the destination/source address copies of the datagram pair
  // through kernel context: the group's deferred-corruption hazards.
  for (const char* name : {"sendto", "recvfrom"})
    add(name, core::kMaskAllWindows).hazards[sim::OsVariant::kWinCE] =
        core::CrashStyle::kDeferred;
  for (const char* name :
       {"setsockopt", "getsockopt", "shutdown", "closesocket"})
    add(name, core::kMaskAllWindows);
  // The CE Winsock subset of the era lacked these three.
  for (const char* name : {"ioctlsocket", "getsockname", "getpeername"})
    add(name, core::kMaskDesktopWindows);
}

}  // namespace ballista::win32
