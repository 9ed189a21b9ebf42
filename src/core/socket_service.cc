#include "core/socket_service.h"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/socket_types.h"

namespace ballista::core {

namespace {

using sim::Addr;
using sim::NetErr;
using sim::NetStack;
using sim::SockProto;
using sim::SocketObject;
using Conv = SocketConvention;
using Sock = std::shared_ptr<SocketObject>;

/// The largest chunk one send/recv moves; keeps huge `size` arguments from
/// materializing huge host allocations while still probing past the end of
/// short user buffers (the fault the huge length is meant to trigger).
constexpr std::size_t kMaxIoChunk = NetStack::kRecvBufferCap;

CallOutcome mem_fail(CallContext& ctx, const Conv& c, MemStatus st) {
  if (st == MemStatus::kStopped) return stopped();
  if (st == MemStatus::kSilent) return silent_success(0);
  return c.fail(ctx, c.codes.fault);
}

/// ok(0) for kOk, else the verdict's failure.  kWouldBlock and kUnreachable
/// need call-specific handling first.
CallOutcome net_result(CallContext& ctx, const Conv& c, NetErr e) {
  const SocketErrorTable& t = c.codes;
  switch (e) {
    case NetErr::kOk: return ok(0);
    case NetErr::kAddrInUse: return c.fail(ctx, t.addr_in_use);
    case NetErr::kAddrNotAvail: return c.fail(ctx, t.addr_not_avail);
    case NetErr::kConnRefused: return c.fail(ctx, t.conn_refused);
    case NetErr::kNotConn: return c.fail(ctx, t.not_conn);
    case NetErr::kIsConn: return c.fail(ctx, t.is_conn);
    case NetErr::kShutdown: return c.fail(ctx, t.shutdown);
    case NetErr::kConnReset: return c.fail(ctx, t.conn_reset);
    case NetErr::kMsgSize: return c.fail(ctx, t.msg_size);
    case NetErr::kOpNotSupp: return c.fail(ctx, t.op_not_supp);
    case NetErr::kDown: return stopped();
    default: return c.fail(ctx, t.invalid);
  }
}

/// What a blocked operation does: a nonblocking socket fails with
/// would_block, an armed SO_RCVTIMEO burns its ticks and fails with
/// recv_timeout, and a plain blocking call hangs the task — in this
/// single-process simulation nothing can ever arrive concurrently, so the
/// watchdog's Restart is the honest outcome (the paper's hung-task failures).
CallOutcome block_or_hang(CallContext& ctx, const Conv& c, SocketObject& s) {
  if (s.nonblocking) return c.fail(ctx, c.codes.would_block);
  if (s.recv_timeout_ticks > 0) {
    ctx.machine().advance_ticks(s.recv_timeout_ticks);
    return c.fail(ctx, c.codes.recv_timeout);
  }
  return ctx.hang(ctx.mut().name);
}

/// Copy-in of a (sockaddr*, namelen) pair into `sa`.  Length sanity is an
/// integer check every variant performs; the pointer itself dies
/// per-personality inside k_read.
std::optional<CallOutcome> read_sockaddr_arg(CallContext& ctx, const Conv& c,
                                             Addr a, std::int32_t len,
                                             SockAddrIn* sa) {
  if (len < static_cast<std::int32_t>(kSockAddrSize))
    return c.fail(ctx, c.codes.short_length);
  std::uint8_t bytes[kSockAddrSize];
  const MemStatus st = ctx.k_read(a, bytes);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  *sa = decode_sockaddr(bytes);
  if (sa->family != AF_INET_SIM) return c.fail(ctx, c.codes.af_no_support);
  return std::nullopt;
}

/// Reads the length a copy-out's `len_ptr` names, which must be at least
/// `min`.
std::optional<CallOutcome> check_out_len(CallContext& ctx, const Conv& c,
                                         Addr len_ptr, std::uint32_t min) {
  if (len_ptr == 0) return c.fail(ctx, c.codes.fault);
  std::uint32_t len = 0;
  const MemStatus st = ctx.k_read_u32(len_ptr, &len);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  if (len < min) return c.fail(ctx, c.codes.short_length);
  return std::nullopt;
}

/// Copy-out of a (sockaddr*, int* namelen) pair for accept/getsockname/
/// getpeername/recvfrom.  A NULL addr skips the copy-out entirely.
std::optional<CallOutcome> write_sockaddr_out(CallContext& ctx, const Conv& c,
                                              Addr addr, Addr len_ptr,
                                              const SockAddrIn& sa) {
  if (addr == 0) return std::nullopt;
  if (auto fail = check_out_len(ctx, c, len_ptr, kSockAddrSize)) return fail;
  std::uint8_t bytes[kSockAddrSize];
  encode_sockaddr(sa, bytes);
  MemStatus st = ctx.k_write(addr, bytes);
  if (st == MemStatus::kOk) st = ctx.k_write_u32(len_ptr, kSockAddrSize);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  return std::nullopt;
}

// --- the calls; `s` is argument 0, already looked up (none for socket) ------

CallOutcome do_socket(CallContext& ctx, const Conv& c, const Sock&) {
  const std::uint32_t type = ctx.arg32(1);
  const std::uint32_t proto = ctx.arg32(2);
  if (ctx.arg32(0) != AF_INET_SIM) return c.fail(ctx, c.codes.af_no_support);
  if (type != 1 && type != 2) return c.fail(ctx, c.codes.bad_type);
  const SockProto p = type == 1 ? SockProto::kTcp : SockProto::kUdp;
  const bool proto_ok =
      proto == 0 || (p == SockProto::kTcp && proto == IPPROTO_TCP_SIM) ||
      (p == SockProto::kUdp && proto == IPPROTO_UDP_SIM);
  if (!proto_ok) return c.fail(ctx, c.codes.proto_no_support);
  return ok_or_stopped(
      ctx.proc().handles().insert(std::make_shared<SocketObject>(p)));
}

CallOutcome do_bind(CallContext& ctx, const Conv& c, const Sock& s) {
  SockAddrIn sa;
  if (auto fail = read_sockaddr_arg(ctx, c, ctx.arg_addr(1), ctx.argi(2), &sa))
    return *fail;
  return net_result(ctx, c, ctx.machine().net().bind(s, sa.ip, sa.port));
}

CallOutcome do_listen(CallContext& ctx, const Conv& c, const Sock& s) {
  return net_result(ctx, c, ctx.machine().net().listen(s, ctx.argi(1)));
}

CallOutcome do_connect(CallContext& ctx, const Conv& c, const Sock& s) {
  SockAddrIn sa;
  if (auto fail = read_sockaddr_arg(ctx, c, ctx.arg_addr(1), ctx.argi(2), &sa))
    return *fail;
  const NetErr e = ctx.machine().net().connect(s, sa.ip, sa.port);
  if (e == NetErr::kUnreachable) {
    // Nothing off-box ever answers: the connect burns its full timeout.
    ctx.machine().advance_ticks(NetStack::kConnectTimeoutTicks);
    return c.fail(ctx, c.codes.connect_timeout);
  }
  return net_result(ctx, c, e);
}

CallOutcome do_accept(CallContext& ctx, const Conv& c, const Sock& s) {
  const Addr addr = ctx.arg_addr(1);
  const Addr len_ptr = ctx.arg_addr(2);
  // Pre-validate the copy-out so a faulting pointer pair does not consume a
  // queued connection.
  if (addr != 0) {
    if (auto fail = check_out_len(ctx, c, len_ptr, kSockAddrSize)) return *fail;
  }
  Sock conn;
  const NetErr e = ctx.machine().net().accept(*s, &conn);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, c, *s);
  if (e != NetErr::kOk) return net_result(ctx, c, e);
  const SockAddrIn peer{AF_INET_SIM, conn->remote_port, conn->remote_ip};
  if (auto fail = write_sockaddr_out(ctx, c, addr, len_ptr, peer)) return *fail;
  return ok_or_stopped(ctx.proc().handles().insert(std::move(conn)));
}

CallOutcome do_send(CallContext& ctx, const Conv& c, const Sock& s) {
  if (ctx.arg32(3) != 0) return c.fail(ctx, c.codes.op_not_supp);
  std::vector<std::uint8_t> data(
      std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk));
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  std::size_t sent = 0;
  const NetErr e = ctx.machine().net().send(*s, data, &sent);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, c, *s);
  if (e != NetErr::kOk) return net_result(ctx, c, e);
  return ok(sent);
}

CallOutcome do_recv(CallContext& ctx, const Conv& c, const Sock& s) {
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~MSG_PEEK_SIM) != 0) return c.fail(ctx, c.codes.op_not_supp);
  std::vector<std::uint8_t> data(
      std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk));
  // Peek first, consume only after a clean copy-out: a faulting user buffer
  // must not eat buffered bytes.
  std::size_t got = 0;
  const NetErr e = ctx.machine().net().recv(*s, data, /*peek=*/true, &got);
  if (e == NetErr::kWouldBlock) return block_or_hang(ctx, c, *s);
  if (e == NetErr::kShutdown && c.eof_after_shut_rd) return ok(0);
  if (e != NetErr::kOk) return net_result(ctx, c, e);
  if (got == 0) return ok(0);  // orderly EOF
  const MemStatus st =
      ctx.k_write(ctx.arg_addr(1), std::span(data.data(), got));
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  if ((flags & MSG_PEEK_SIM) == 0 &&
      ctx.machine().net().recv(*s, data, /*peek=*/false, &got) ==
          NetErr::kDown)
    return stopped();
  return ok(got);
}

CallOutcome do_sendto(CallContext& ctx, const Conv& c, const Sock& s) {
  // A connected stream socket ignores the destination.
  if (s->proto() == SockProto::kTcp) return do_send(ctx, c, s);
  if (ctx.arg32(3) != 0) return c.fail(ctx, c.codes.op_not_supp);
  SockAddrIn sa;
  if (auto fail = read_sockaddr_arg(ctx, c, ctx.arg_addr(4), ctx.argi(5), &sa))
    return *fail;
  const std::uint64_t len = ctx.arg(2);
  if (len > NetStack::kMaxDatagramSize) return c.fail(ctx, c.codes.msg_size);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(len));
  const MemStatus st = ctx.k_read(ctx.arg_addr(1), data);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  const NetErr e = ctx.machine().net().sendto(s, sa.ip, sa.port, data);
  if (e != NetErr::kOk) return net_result(ctx, c, e);
  return ok(data.size());
}

CallOutcome do_recvfrom(CallContext& ctx, const Conv& c, const Sock& s) {
  if (s->proto() == SockProto::kTcp) return do_recv(ctx, c, s);
  const std::uint32_t flags = ctx.arg32(3);
  if ((flags & ~MSG_PEEK_SIM) != 0) return c.fail(ctx, c.codes.op_not_supp);
  if (s->shut_rd)
    return c.eof_after_shut_rd ? ok(0) : c.fail(ctx, c.codes.shutdown);
  if (s->dgrams.empty()) return block_or_hang(ctx, c, *s);
  const sim::Datagram& d = s->dgrams.front();
  const std::size_t len = std::min<std::uint64_t>(ctx.arg(2), kMaxIoChunk);
  const std::size_t n = std::min(len, d.payload.size());
  const bool truncated = d.payload.size() > len;
  const MemStatus st =
      ctx.k_write(ctx.arg_addr(1), std::span(d.payload.data(), n));
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  const SockAddrIn from{AF_INET_SIM, d.src_port, d.src_ip};
  if (auto fail = write_sockaddr_out(ctx, c, ctx.arg_addr(4), ctx.arg_addr(5),
                                     from))
    return *fail;
  sim::Datagram discard;
  if ((flags & MSG_PEEK_SIM) == 0 &&
      ctx.machine().net().recvfrom(*s, &discard) == NetErr::kDown)
    return stopped();
  if (truncated && c.truncation_fails) return c.fail(ctx, c.codes.msg_size);
  return ok(n);
}

CallOutcome do_setsockopt(CallContext& ctx, const Conv& c, const Sock& s) {
  const std::uint32_t level = ctx.arg32(1);
  if (level != SOL_SOCKET_SIM && level != IPPROTO_TCP_SIM)
    return c.fail(ctx, c.codes.invalid);
  if (ctx.argi(4) < 4) return c.fail(ctx, c.codes.short_length);
  std::uint32_t v = 0;
  const MemStatus st = ctx.k_read_u32(ctx.arg_addr(3), &v);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  if (level == IPPROTO_TCP_SIM) return ok(0);  // TCP_NODELAY & co: no-op
  switch (ctx.arg32(2)) {
    case SO_RCVTIMEO_SIM: s->recv_timeout_ticks = v; return ok(0);
    case SO_REUSEADDR_SIM: s->reuse_addr = v != 0; return ok(0);
    case SO_RCVBUF_SIM: return ok(0);  // buffer size is fixed in sim
    default: return c.fail(ctx, c.codes.no_proto_opt);
  }
}

CallOutcome do_getsockopt(CallContext& ctx, const Conv& c, const Sock& s) {
  const std::uint32_t level = ctx.arg32(1);
  const Addr len_ptr = ctx.arg_addr(4);
  if (level != SOL_SOCKET_SIM && level != IPPROTO_TCP_SIM)
    return c.fail(ctx, c.codes.invalid);
  if (auto fail = check_out_len(ctx, c, len_ptr, 4)) return *fail;
  std::uint32_t v = 0;  // every IPPROTO_TCP option reads 0
  if (level == SOL_SOCKET_SIM) {
    switch (ctx.arg32(2)) {
      case SO_RCVTIMEO_SIM: v = s->recv_timeout_ticks; break;
      case SO_REUSEADDR_SIM: v = s->reuse_addr ? 1 : 0; break;
      case SO_RCVBUF_SIM: v = NetStack::kRecvBufferCap; break;
      default: return c.fail(ctx, c.codes.no_proto_opt);
    }
  }
  MemStatus st = ctx.k_write_u32(ctx.arg_addr(3), v);
  if (st == MemStatus::kOk) st = ctx.k_write_u32(len_ptr, 4);
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  return ok(0);
}

CallOutcome do_shutdown(CallContext& ctx, const Conv& c, const Sock& s) {
  return net_result(ctx, c, ctx.machine().net().shutdown(*s, ctx.argi(1)));
}

CallOutcome do_closesocket(CallContext& ctx, const Conv&, const Sock& s) {
  if (sim::down(ctx.machine().net().on_close(*s)) ||
      ctx.proc().handles().close(static_cast<std::uint32_t>(ctx.arg(0))).down())
    return stopped();
  return ok(0);
}

CallOutcome do_ioctlsocket(CallContext& ctx, const Conv& c, const Sock& s) {
  const std::uint32_t cmd = ctx.arg32(1);
  MemStatus st;
  if (cmd == FIONBIO_SIM) {
    std::uint32_t v = 0;
    st = ctx.k_read_u32(ctx.arg_addr(2), &v);
    if (st == MemStatus::kOk) s->nonblocking = v != 0;
  } else if (cmd == FIONREAD_SIM) {
    st = ctx.k_write_u32(ctx.arg_addr(2),
                         static_cast<std::uint32_t>(s->bytes_readable()));
  } else {
    return c.fail(ctx, c.codes.invalid);
  }
  if (st != MemStatus::kOk) return mem_fail(ctx, c, st);
  return ok(0);
}

/// getsockname/getpeername's copy-out of `sa`, which needs a non-NULL addr.
CallOutcome name_out(CallContext& ctx, const Conv& c, const SockAddrIn& sa) {
  const Addr addr = ctx.arg_addr(1);
  if (addr == 0) return c.fail(ctx, c.codes.fault);
  if (auto fail = write_sockaddr_out(ctx, c, addr, ctx.arg_addr(2), sa))
    return *fail;
  return ok(0);
}

CallOutcome do_getsockname(CallContext& ctx, const Conv& c, const Sock& s) {
  if (s->state() == sim::SockState::kFresh) return c.fail(ctx, c.codes.invalid);
  return name_out(ctx, c, {AF_INET_SIM, s->local_port, s->local_ip});
}

CallOutcome do_getpeername(CallContext& ctx, const Conv& c, const Sock& s) {
  if (s->state() != sim::SockState::kConnected)
    return c.fail(ctx, c.codes.not_conn);
  return name_out(ctx, c, {AF_INET_SIM, s->remote_port, s->remote_ip});
}

/// A call of the service: its name, the parameter types its body reads, and
/// the body.
struct CallSpec {
  std::string_view name;
  std::initializer_list<const char*> params;
  CallOutcome (*body)(CallContext&, const Conv&, const Sock&);
};

const CallSpec kCalls[] = {
    {"socket", {"sock_family", "sock_type", "sock_protocol"}, do_socket},
    {"bind", {"h_socket", "sockaddr_ptr", "sock_addrlen"}, do_bind},
    {"listen", {"h_socket", "int"}, do_listen},
    {"connect", {"h_socket", "sockaddr_ptr", "sock_addrlen"}, do_connect},
    {"accept", {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"}, do_accept},
    {"send", {"h_socket", "cbuf", "size", "sock_flags"}, do_send},
    {"recv", {"h_socket", "buf", "size", "sock_flags"}, do_recv},
    {"sendto",
     {"h_socket", "cbuf", "size", "sock_flags", "sockaddr_ptr",
      "sock_addrlen"},
     do_sendto},
    {"recvfrom",
     {"h_socket", "buf", "size", "sock_flags", "sockaddr_ptr",
      "sock_addrlen_ptr"},
     do_recvfrom},
    {"setsockopt",
     {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
      "sock_optlen"},
     do_setsockopt},
    {"getsockopt",
     {"h_socket", "sock_opt_level", "sock_opt_name", "sock_optval_ptr",
      "sock_addrlen_ptr"},
     do_getsockopt},
    {"shutdown", {"h_socket", "sock_how"}, do_shutdown},
    {"closesocket", {"h_socket"}, do_closesocket},
    {"ioctlsocket", {"h_socket", "sock_ioctl_cmd", "sock_optval_ptr"},
     do_ioctlsocket},
    {"getsockname", {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
     do_getsockname},
    {"getpeername", {"h_socket", "sockaddr_ptr", "sock_addrlen_ptr"},
     do_getpeername},
};

}  // namespace

MuT& add_socket_call(const TypeLibrary& lib, Registry& reg,
                     std::string_view name, ApiKind api, std::uint8_t mask,
                     const SocketConvention& conv) {
  const CallSpec* spec =
      std::find_if(std::begin(kCalls), std::end(kCalls),
                   [&](const CallSpec& s) { return s.name == name; });
  if (spec == std::end(kCalls))
    throw std::out_of_range("unknown socket call: " + std::string(name));
  MuT m;
  m.name = name;
  m.api = api;
  m.group = FuncGroup::kSockets;
  for (const char* p : spec->params) m.params.push_back(&lib.get(p));
  m.variant_mask = mask;
  const auto body = spec->body;
  if (spec->name == "socket")  // the one call without a socket argument
    m.impl = [body, &conv](CallContext& ctx) { return body(ctx, conv, {}); };
  else
    m.impl = [body, &conv](CallContext& ctx) {
      Sock s;
      if (auto fail = conv.lookup(ctx, ctx.arg(0), &s)) return *fail;
      return body(ctx, conv, s);
    };
  return reg.add(std::move(m));
}

}  // namespace ballista::core
