// Sockets group, BSD flavor (FuncGroup::kSockets, wire id 13): the twelve
// classic socket calls against the same simulated loopback stack the Winsock
// flavor drives, with Linux error semantics — -1/errno returns, EBADF for a
// dead descriptor vs ENOTSOCK for a live non-socket one (a distinction
// Winsock collapses into WSAENOTSOCK), EFAULT from copy_{from,to}_user on bad
// sockaddr pointers, EPIPE on a send after shutdown(SHUT_WR), and EAGAIN
// (not ETIMEDOUT) when SO_RCVTIMEO expires.
#include <algorithm>
#include <vector>

#include "core/socket_types.h"
#include "posix/posix.h"
#include "sim/net/netstack.h"

namespace ballista::posix_api {

namespace {

using core::decode_sockaddr;
using core::encode_sockaddr;
using core::ok;
using core::SockAddrIn;
using sim::NetErr;
using sim::NetStack;
using sim::SockProto;
using sim::SocketObject;

constexpr std::size_t kMaxIoChunk = NetStack::kRecvBufferCap;

struct SockFd {
  std::shared_ptr<SocketObject> sock;
  std::optional<CallOutcome> fail;
};

/// Linux keeps EBADF (no such descriptor) distinct from ENOTSOCK (descriptor
/// exists but is not a socket) — one of the per-OS contrasts the group's
/// h_socket pool is built to surface.
SockFd check_sockfd(CallContext& ctx, std::uint64_t fd) {
  SockFd out;
  const std::int64_t sfd = static_cast<std::int32_t>(fd);
  if (sfd < 0) {
    out.fail = ctx.posix_fail(EBADF);
    return out;
  }
  auto obj = ctx.proc().handles().get(static_cast<std::uint64_t>(sfd));
  if (obj == nullptr) {
    out.fail = ctx.posix_fail(EBADF);
    return out;
  }
  if (obj->kind() != sim::ObjectKind::kSocket) {
    out.fail = ctx.posix_fail(ENOTSOCK);
    return out;
  }
  out.sock = std::static_pointer_cast<SocketObject>(obj);
  return out;
}

CallOutcome posix_net_fail(CallContext& ctx, NetErr e) {
  switch (e) {
    case NetErr::kAddrInUse: return ctx.posix_fail(EADDRINUSE);
    case NetErr::kAddrNotAvail: return ctx.posix_fail(EADDRNOTAVAIL);
    case NetErr::kConnRefused: return ctx.posix_fail(ECONNREFUSED);
    case NetErr::kNotConn: return ctx.posix_fail(ENOTCONN);
    case NetErr::kIsConn: return ctx.posix_fail(EISCONN);
    case NetErr::kShutdown: return ctx.posix_fail(EPIPE);
    case NetErr::kConnReset: return ctx.posix_fail(ECONNRESET);
    case NetErr::kMsgSize: return ctx.posix_fail(EMSGSIZE);
    case NetErr::kOpNotSupp: return ctx.posix_fail(EOPNOTSUPP);
    case NetErr::kDown: return core::panicked();
    default: return ctx.posix_fail(EINVAL);
  }
}

/// Blocked operation policy, Linux shape: O_NONBLOCK → EAGAIN, an armed
/// SO_RCVTIMEO burns its ticks and reports EAGAIN (Linux's documented
/// timeout errno), a plain blocking call hangs the task (Restart).
CallOutcome block_or_hang(CallContext& ctx, SocketObject& s) {
  if (s.nonblocking) return ctx.posix_fail(EAGAIN);
  if (s.recv_timeout_ticks > 0) {
    ctx.machine().advance_ticks(s.recv_timeout_ticks);
    return ctx.posix_fail(EAGAIN);
  }
  ctx.proc().hang(ctx.mut().name);
}

struct AddrArg {
  SockAddrIn sa;
  std::optional<CallOutcome> fail;
};

AddrArg read_sockaddr_arg(CallContext& ctx, Addr a, std::int32_t len) {
  AddrArg out;
  if (len < static_cast<std::int32_t>(core::kSockAddrSize)) {
    out.fail = ctx.posix_fail(EINVAL);
    return out;
  }
  std::uint8_t bytes[core::kSockAddrSize];
  const MemStatus st = ctx.k_read(a, bytes);
  if (st != MemStatus::kOk) {
    out.fail = ctx.posix_mem_fail(st);
    return out;
  }
  out.sa = decode_sockaddr(bytes);
  if (out.sa.family != core::AF_INET_SIM)
    out.fail = ctx.posix_fail(EAFNOSUPPORT);
  return out;
}

std::optional<CallOutcome> write_sockaddr_out(CallContext& ctx, Addr addr,
                                              Addr len_ptr,
                                              const SockAddrIn& sa) {
  if (addr == 0) return std::nullopt;
  if (len_ptr == 0) return ctx.posix_fail(EFAULT);
  std::uint32_t len = 0;
  MemStatus st = ctx.k_read_u32(len_ptr, &len);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (len < core::kSockAddrSize) return ctx.posix_fail(EINVAL);
  std::uint8_t bytes[core::kSockAddrSize];
  encode_sockaddr(sa, bytes);
  st = ctx.k_write(addr, bytes);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  st = ctx.k_write_u32(len_ptr, core::kSockAddrSize);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return std::nullopt;
}

CallOutcome do_socket(CallContext& ctx) {
  const std::uint32_t af = ctx.arg32(0);
  const std::uint32_t type = ctx.arg32(1);
  const std::uint32_t proto = ctx.arg32(2);
  if (af != core::AF_INET_SIM) return ctx.posix_fail(EAFNOSUPPORT);
  SockProto p;
  if (type == 1)
    p = SockProto::kTcp;
  else if (type == 2)
    p = SockProto::kUdp;
  else
    return ctx.posix_fail(EINVAL);
  const bool proto_ok =
      proto == 0 || (p == SockProto::kTcp && proto == core::IPPROTO_TCP_SIM) ||
      (p == SockProto::kUdp && proto == core::IPPROTO_UDP_SIM);
  if (!proto_ok) return ctx.posix_fail(EPROTONOSUPPORT);
  return core::ok_or_panicked(
      ctx.proc().handles().insert(std::make_shared<SocketObject>(p)));
}

CallOutcome do_bind(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(1), ctx.argi(2));
  if (ar.fail) return *ar.fail;
  const NetErr e = ctx.machine().net().bind(sf.sock, ar.sa.ip, ar.sa.port);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_listen(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const NetErr e = ctx.machine().net().listen(sf.sock, ctx.argi(1));
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_connect(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(1), ctx.argi(2));
  if (ar.fail) return *ar.fail;
  const NetErr e = ctx.machine().net().connect(sf.sock, ar.sa.ip, ar.sa.port);
  if (e == NetErr::kUnreachable) {
    ctx.machine().advance_ticks(NetStack::kConnectTimeoutTicks);
    return ctx.posix_fail(ETIMEDOUT);
  }
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(0);
}

CallOutcome do_accept(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const Addr addr = ctx.arg_addr(1);
  const Addr len_ptr = ctx.arg_addr(2);
  if (addr != 0) {
    if (len_ptr == 0) return ctx.posix_fail(EFAULT);
    std::uint32_t len = 0;
    const MemStatus st = ctx.k_read_u32(len_ptr, &len);
    if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
    if (len < core::kSockAddrSize) return ctx.posix_fail(EINVAL);
  }
  std::shared_ptr<SocketObject> conn;
  const NetErr e = ctx.machine().net().accept(*sf.sock, &conn);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, *sf.sock);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  const SockAddrIn peer{core::AF_INET_SIM, conn->remote_port, conn->remote_ip};
  if (auto fail = write_sockaddr_out(ctx, addr, len_ptr, peer)) return *fail;
  return core::ok_or_panicked(ctx.proc().handles().insert(std::move(conn)));
}

CallOutcome do_send(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  if (ctx.arg32(3) != 0) return ctx.posix_fail(EOPNOTSUPP);
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  std::vector<std::uint8_t> data(len);
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  std::size_t sent = 0;
  const NetErr e = ctx.machine().net().send(*sf.sock, data, &sent);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, *sf.sock);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(sent);
}

CallOutcome do_recv(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~core::MSG_PEEK_SIM) != 0) return ctx.posix_fail(EOPNOTSUPP);
  const bool peek = (flags & core::MSG_PEEK_SIM) != 0;
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  std::vector<std::uint8_t> data(len);
  std::size_t got = 0;
  NetErr e = ctx.machine().net().recv(*sf.sock, data, /*peek=*/true, &got);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, *sf.sock);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  if (got == 0) return ok(0);
  const MemStatus st =
      ctx.k_write(ctx.arg_addr(1), std::span(data.data(), got));
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (!peek && ctx.machine().net().recv(*sf.sock, data, /*peek=*/false,
                                        &got) == NetErr::kDown)
    return core::panicked();
  return ok(got);
}

CallOutcome do_sendto(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  if (sf.sock->proto() == SockProto::kTcp) return do_send(ctx);
  if (ctx.arg32(3) != 0) return ctx.posix_fail(EOPNOTSUPP);
  auto ar = read_sockaddr_arg(ctx, ctx.arg_addr(4), ctx.argi(5));
  if (ar.fail) return *ar.fail;
  const std::uint64_t len = ctx.arg(2);
  if (len > NetStack::kMaxDatagramSize) return ctx.posix_fail(EMSGSIZE);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(len));
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  const NetErr e =
      ctx.machine().net().sendto(sf.sock, ar.sa.ip, ar.sa.port, data);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(data.size());
}

CallOutcome do_recvfrom(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  if (sf.sock->proto() == SockProto::kTcp) return do_recv(ctx);
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~core::MSG_PEEK_SIM) != 0) return ctx.posix_fail(EOPNOTSUPP);
  const bool peek = (flags & core::MSG_PEEK_SIM) != 0;
  if (sf.sock->shut_rd) return ok(0);  // Linux: EOF after SHUT_RD
  if (sf.sock->dgrams.empty()) return block_or_hang(ctx, *sf.sock);
  const sim::Datagram& d = sf.sock->dgrams.front();
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  const std::size_t n = std::min(len, d.payload.size());
  const MemStatus st =
      ctx.k_write(ctx.arg_addr(1), std::span(d.payload.data(), n));
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  const SockAddrIn from{core::AF_INET_SIM, d.src_port, d.src_ip};
  if (auto fail =
          write_sockaddr_out(ctx, ctx.arg_addr(4), ctx.arg_addr(5), from))
    return *fail;
  if (!peek) {
    sim::Datagram discard;
    if (ctx.machine().net().recvfrom(*sf.sock, &discard) == NetErr::kDown)
      return core::panicked();
  }
  // Linux datagram truncation is silent: excess bytes vanish, the call
  // reports the copied length — unlike Winsock's WSAEMSGSIZE error.
  return ok(n);
}

CallOutcome do_setsockopt(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const std::uint32_t level = ctx.arg32(1);
  const std::uint32_t name = ctx.arg32(2);
  const std::int32_t optlen = ctx.argi(4);
  if (level != core::SOL_SOCKET_SIM && level != core::IPPROTO_TCP_SIM)
    return ctx.posix_fail(EINVAL);
  if (optlen < 4) return ctx.posix_fail(EINVAL);
  std::uint32_t v = 0;
  const MemStatus st = ctx.k_read_u32(ctx.arg_addr(3), &v);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (level == core::IPPROTO_TCP_SIM) return ok(0);
  switch (name) {
    case core::SO_RCVTIMEO_SIM: sf.sock->recv_timeout_ticks = v; return ok(0);
    case core::SO_REUSEADDR_SIM: sf.sock->reuse_addr = v != 0; return ok(0);
    case core::SO_RCVBUF_SIM: return ok(0);
    default: return ctx.posix_fail(ENOPROTOOPT);
  }
}

CallOutcome do_getsockopt(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const std::uint32_t level = ctx.arg32(1);
  const std::uint32_t name = ctx.arg32(2);
  const Addr val_ptr = ctx.arg_addr(3);
  const Addr len_ptr = ctx.arg_addr(4);
  if (level != core::SOL_SOCKET_SIM && level != core::IPPROTO_TCP_SIM)
    return ctx.posix_fail(EINVAL);
  if (len_ptr == 0) return ctx.posix_fail(EFAULT);
  std::uint32_t len = 0;
  MemStatus st = ctx.k_read_u32(len_ptr, &len);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (len < 4) return ctx.posix_fail(EINVAL);
  std::uint32_t v = 0;
  if (level == core::IPPROTO_TCP_SIM) {
    v = 0;
  } else {
    switch (name) {
      case core::SO_RCVTIMEO_SIM: v = sf.sock->recv_timeout_ticks; break;
      case core::SO_REUSEADDR_SIM: v = sf.sock->reuse_addr ? 1 : 0; break;
      case core::SO_RCVBUF_SIM: v = NetStack::kRecvBufferCap; break;
      default: return ctx.posix_fail(ENOPROTOOPT);
    }
  }
  st = ctx.k_write_u32(val_ptr, v);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  st = ctx.k_write_u32(len_ptr, 4);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(0);
}

CallOutcome do_shutdown(CallContext& ctx) {
  auto sf = check_sockfd(ctx, ctx.arg(0));
  if (sf.fail) return *sf.fail;
  const NetErr e = ctx.machine().net().shutdown(*sf.sock, ctx.argi(1));
  if (e == NetErr::kInvalid) return ctx.posix_fail(EINVAL);
  if (e != NetErr::kOk) return posix_net_fail(ctx, e);
  return ok(0);
}

}  // namespace

void register_posix_socket(core::TypeLibrary& lib, core::Registry& reg) {
  core::register_socket_types(lib);
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kSockets;
  const auto A = core::ApiKind::kPosixSys;
  const auto L = core::kMaskLinux;

  d.add("socket", A, G, {"sock_family", "sock_type", "sock_protocol"},
        do_socket, L);
  d.add("bind", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen"}, do_bind,
        L);
  d.add("listen", A, G, {"h_socket", "int"}, do_listen, L);
  d.add("connect", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen"},
        do_connect, L);
  d.add("accept", A, G, {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
        do_accept, L);
  d.add("send", A, G, {"h_socket", "cbuf", "size", "sock_flags"}, do_send, L);
  d.add("recv", A, G, {"h_socket", "buf", "size", "sock_flags"}, do_recv, L);
  d.add("sendto", A, G,
        {"h_socket", "cbuf", "size", "sock_flags", "sockaddr_ptr",
         "sock_addrlen"},
        do_sendto, L);
  d.add("recvfrom", A, G,
        {"h_socket", "buf", "size", "sock_flags", "sockaddr_ptr",
         "sock_addrlen_ptr"},
        do_recvfrom, L);
  d.add("setsockopt", A, G,
        {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
         "sock_optlen"},
        do_setsockopt, L);
  d.add("getsockopt", A, G,
        {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
         "sock_addrlen_ptr"},
        do_getsockopt, L);
  d.add("shutdown", A, G, {"h_socket", "sock_how"}, do_shutdown, L);
}

}  // namespace ballista::posix_api
