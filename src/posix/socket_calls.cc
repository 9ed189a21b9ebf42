// Sockets group, BSD flavor (FuncGroup::kSockets, wire id 13): the twelve
// classic socket calls of the shared socket service (core/socket_service.h)
// under Linux's convention — -1/errno returns, EBADF for a dead descriptor
// vs ENOTSOCK for a live non-socket one (a distinction Winsock collapses
// into WSAENOTSOCK), EFAULT from copy_{from,to}_user on bad sockaddr
// pointers, EINVAL for short lengths, EPIPE on a send after shutdown
// (SHUT_WR), EOF on a read after shutdown(SHUT_RD), EAGAIN (not ETIMEDOUT)
// when SO_RCVTIMEO expires, and silent datagram truncation.
#include "core/socket_service.h"
#include "core/socket_types.h"
#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

/// Linux keeps EBADF (no such descriptor) distinct from ENOTSOCK (descriptor
/// exists but is not a socket) — one of the per-OS contrasts the group's
/// h_socket pool is built to surface.
std::optional<CallOutcome> lookup_sockfd(
    CallContext& ctx, std::uint64_t fd, std::shared_ptr<sim::SocketObject>* s) {
  const std::int64_t sfd = static_cast<std::int32_t>(fd);
  auto obj = sfd < 0 ? nullptr : ctx.proc().handles().get(sfd);
  if (obj == nullptr) return ctx.posix_fail(EBADF);
  if (obj->kind() != sim::ObjectKind::kSocket) return ctx.posix_fail(ENOTSOCK);
  *s = std::static_pointer_cast<sim::SocketObject>(obj);
  return std::nullopt;
}

CallOutcome errno_fail(CallContext& ctx, std::uint32_t code) {
  return ctx.posix_fail(static_cast<int>(code));
}

constexpr core::SocketConvention kBsd{
    .lookup = lookup_sockfd,
    .fail = errno_fail,
    .codes = {.fault = EFAULT,
              .short_length = EINVAL,
              .bad_type = EINVAL,
              .af_no_support = EAFNOSUPPORT,
              .proto_no_support = EPROTONOSUPPORT,
              .op_not_supp = EOPNOTSUPP,
              .invalid = EINVAL,
              .no_proto_opt = ENOPROTOOPT,
              .would_block = EAGAIN,
              .recv_timeout = EAGAIN,  // Linux's documented timeout errno
              .connect_timeout = ETIMEDOUT,
              .msg_size = EMSGSIZE,
              .shutdown = EPIPE,
              .addr_in_use = EADDRINUSE,
              .addr_not_avail = EADDRNOTAVAIL,
              .conn_refused = ECONNREFUSED,
              .not_conn = ENOTCONN,
              .is_conn = EISCONN,
              .conn_reset = ECONNRESET},
    .eof_after_shut_rd = true,
    .truncation_fails = false,
};

}  // namespace

void register_posix_socket(core::TypeLibrary& lib, core::Registry& reg) {
  core::register_socket_types(lib);
  for (const char* name :
       {"socket", "bind", "listen", "connect", "accept", "send", "recv",
        "sendto", "recvfrom", "setsockopt", "getsockopt", "shutdown"})
    core::add_socket_call(lib, reg, name, core::ApiKind::kPosixSys,
                          core::kMaskLinux, kBsd);
}

}  // namespace ballista::posix_api
