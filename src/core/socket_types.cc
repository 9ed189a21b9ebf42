#include "core/socket_types.h"

#include <cstring>

#include "core/poolkit.h"

namespace ballista::core {

namespace {

using sim::Addr;
using sim::NetErr;
using sim::NetStack;
using sim::SockProto;
using sim::SocketObject;

std::shared_ptr<SocketObject> make_socket(SockProto proto) {
  return std::make_shared<SocketObject>(proto);
}

std::uint64_t insert_socket(ValueCtx& c, std::shared_ptr<SocketObject> s) {
  return c.insert_handle(std::move(s));
}

/// Binds to `port`, falling back to an ephemeral port when the fixture port
/// is already taken by another value in the same tuple.
void bind_or_ephemeral(ValueCtx& c, const std::shared_ptr<SocketObject>& s,
                       std::uint16_t port) {
  if (c.machine.net().bind(s, NetStack::kLoopbackIp, port) != NetErr::kOk)
    c.machine.net().bind(s, NetStack::kAnyIp, 0);
}

/// A live listener the value keeps reachable through its own handle-table
/// slot; returns the bound port so sockaddr values can aim at it.
std::shared_ptr<SocketObject> insert_listener(ValueCtx& c,
                                              std::uint16_t port) {
  auto l = make_socket(SockProto::kTcp);
  insert_socket(c, l);
  bind_or_ephemeral(c, l, port);
  c.machine.net().listen(l, NetStack::kMaxBacklog);
  return l;
}

/// A connected client socket (its listener and queued server end stay alive
/// via the listener's handle-table slot).
std::shared_ptr<SocketObject> make_connected_client(ValueCtx& c) {
  auto l = insert_listener(c, 0);
  auto client = make_socket(SockProto::kTcp);
  c.machine.net().connect(client, NetStack::kLoopbackIp, l->local_port);
  return client;
}

Addr alloc_sockaddr(ValueCtx& c, std::uint16_t family, std::uint32_t ip,
                    std::uint16_t port) {
  std::uint8_t bytes[kSockAddrSize];
  encode_sockaddr({family, port, ip}, bytes);
  const Addr a = c.proc.mem().alloc(kSockAddrSize);
  for (std::size_t i = 0; i < kSockAddrSize; ++i)
    c.proc.mem().poke_u8(a + i, bytes[i]);
  return a;
}

Addr alloc_u32(ValueCtx& c, std::uint32_t v) {
  const Addr a = c.proc.mem().alloc(4);
  c.proc.mem().poke_u32(a, v);
  return a;
}

}  // namespace

SockAddrIn decode_sockaddr(std::span<const std::uint8_t> b) noexcept {
  SockAddrIn sa;
  if (b.size() < kSockAddrSize) return sa;
  sa.family = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  sa.port = static_cast<std::uint16_t>(b[2] | (b[3] << 8));
  sa.ip = static_cast<std::uint32_t>(b[4]) | (static_cast<std::uint32_t>(b[5]) << 8) |
          (static_cast<std::uint32_t>(b[6]) << 16) |
          (static_cast<std::uint32_t>(b[7]) << 24);
  return sa;
}

void encode_sockaddr(const SockAddrIn& sa,
                     std::span<std::uint8_t> out) noexcept {
  if (out.size() < kSockAddrSize) return;
  std::memset(out.data(), 0, kSockAddrSize);
  out[0] = static_cast<std::uint8_t>(sa.family);
  out[1] = static_cast<std::uint8_t>(sa.family >> 8);
  out[2] = static_cast<std::uint8_t>(sa.port);
  out[3] = static_cast<std::uint8_t>(sa.port >> 8);
  out[4] = static_cast<std::uint8_t>(sa.ip);
  out[5] = static_cast<std::uint8_t>(sa.ip >> 8);
  out[6] = static_cast<std::uint8_t>(sa.ip >> 16);
  out[7] = static_cast<std::uint8_t>(sa.ip >> 24);
}

void register_socket_types(TypeLibrary& lib) {
  if (lib.has("h_socket")) return;  // idempotent across re-registration

  // Socket handles/descriptors across the object's state space, plus the
  // closed / wrong-kind / sentinel values.  hs_null doubles as a contrast
  // probe: handle 0 is nothing on Win32 but fd 0 is the stdin pipe on POSIX
  // (a live wrong-kind object: ENOTSOCK, not EBADF).
  auto& t_hs = lib.make("h_socket");
  t_hs.add("hs_tcp_fresh", false,
           [](ValueCtx& c) {
             return insert_socket(c, make_socket(SockProto::kTcp));
           })
      .add("hs_udp_bound", false,
           [](ValueCtx& c) {
             auto s = make_socket(SockProto::kUdp);
             const auto h = insert_socket(c, s);
             bind_or_ephemeral(c, s, kPoolUdpEchoPort);
             return h;
           })
      .add("hs_tcp_listening", false,
           [](ValueCtx& c) {
             auto l = make_socket(SockProto::kTcp);
             const auto h = insert_socket(c, l);
             bind_or_ephemeral(c, l, kPoolTcpListenPort);
             c.machine.net().listen(l, 2);
             return h;
           })
      .add("hs_tcp_connected", false,
           [](ValueCtx& c) {
             return insert_socket(c, make_connected_client(c));
           })
      .add("hs_tcp_timeout", false,
           [](ValueCtx& c) {
             // Connected, but with SO_RCVTIMEO armed: a blocking recv on the
             // silent peer burns 500 ticks and reports the timeout instead
             // of hanging the task.
             auto s = make_connected_client(c);
             s->recv_timeout_ticks = 500;
             return insert_socket(c, s);
           })
      .add("hs_tcp_peer_closed", false,
           [](ValueCtx& c) {
             auto client = make_connected_client(c);
             const auto h = insert_socket(c, client);
             if (auto server = client->peer(); server != nullptr)
               // Materialization runs outside the module window, where
               // nothing announces: the close always reports kUp.
               (void)c.machine.net().on_close(*server);
             return h;
           })
      .add("hs_closed", true,
           [](ValueCtx& c) {
             return poolkit::insert_closed_handle(
                 c, std::make_shared<SocketObject>(SockProto::kTcp));
           })
      .add("hs_wrong_kind_file", true,
           [](ValueCtx& c) { return poolkit::insert_fixture_file_handle(c); })
      .add("hs_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("hs_odd7", true, [](ValueCtx&) { return RawArg{7}; })
      .add("hs_invalid_socket", true,
           [](ValueCtx&) { return RawArg{0xffffffffull}; })
      .add("hs_garbage", true, [](ValueCtx&) { return RawArg{0x50cce7f0}; });

  // sockaddr* — live destinations (a real listener, a bound-but-deaf port,
  // the UDP echo port), legal-but-hopeless ones (off-box), malformed family,
  // and the copy-in reject tail.
  auto& t_sa = lib.make("sockaddr_ptr");
  t_sa.add("sa_listener_live", false,
           [](ValueCtx& c) {
             auto l = insert_listener(c, kPoolTcpListenPort);
             return alloc_sockaddr(c, AF_INET_SIM, NetStack::kLoopbackIp,
                                   l->local_port);
           })
      .add("sa_udp_echo", false,
           [](ValueCtx& c) {
             return alloc_sockaddr(c, AF_INET_SIM, NetStack::kLoopbackIp,
                                   kPoolUdpEchoPort);
           })
      .add("sa_loopback_dead", false,
           [](ValueCtx& c) {
             return alloc_sockaddr(c, AF_INET_SIM, NetStack::kLoopbackIp,
                                   kPoolTcpDeadPort);
           })
      .add("sa_any_port0", false,
           [](ValueCtx& c) {
             return alloc_sockaddr(c, AF_INET_SIM, NetStack::kAnyIp, 0);
           })
      .add("sa_taken_port", false,
           [](ValueCtx& c) {
             auto s = make_socket(SockProto::kTcp);
             insert_socket(c, s);
             bind_or_ephemeral(c, s, kPoolTcpTakenPort);
             return alloc_sockaddr(c, AF_INET_SIM, NetStack::kAnyIp,
                                   s->local_port);
           })
      .add("sa_offbox", false,
           [](ValueCtx& c) {
             return alloc_sockaddr(c, AF_INET_SIM, 0x0a010203, 80);
           })
      .add("sa_bad_family", true,
           [](ValueCtx& c) {
             return alloc_sockaddr(c, 0x00ff, NetStack::kLoopbackIp, 7000);
           });
  poolkit::add_bad_pointer_values(
      t_sa, {{poolkit::BadPtr::kNull, "sa_null"},
             {poolkit::BadPtr::kDangling, "sa_dangling", kSockAddrSize},
             {poolkit::BadPtr::kKernel, "sa_kernel", 0xC0006000},
             {poolkit::BadPtr::kUnaligned, "sa_unaligned", 20}});

  // Address lengths passed by value.  Huge is legal (implementations read
  // only sizeof(sockaddr_in)); short/zero/negative are contract violations.
  auto& t_sal = lib.make("sock_addrlen");
  t_sal.add("sal_exact16", false, [](ValueCtx&) { return RawArg{16}; })
      .add("sal_64", false, [](ValueCtx&) { return RawArg{64}; })
      .add("sal_huge", false, [](ValueCtx&) { return RawArg{0x7fffffff}; })
      .add("sal_8", true, [](ValueCtx&) { return RawArg{8}; })
      .add("sal_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("sal_neg1", true, [](ValueCtx&) { return RawArg{0xffffffffull}; });

  // int* address lengths (accept / getsockname / recvfrom): the pointee
  // matters as much as the pointer.  NULL is legal alongside a NULL addr.
  auto& t_salp = lib.make("sock_addrlen_ptr");
  t_salp.add("salp_16", false, [](ValueCtx& c) { return alloc_u32(c, 16); })
      .add("salp_null", false, [](ValueCtx&) { return RawArg{0}; })
      .add("salp_4", true, [](ValueCtx& c) { return alloc_u32(c, 4); })
      .add("salp_0", true, [](ValueCtx& c) { return alloc_u32(c, 0); });
  poolkit::add_bad_pointer_values(
      t_salp, {{poolkit::BadPtr::kDangling, "salp_dangling", 4},
               {poolkit::BadPtr::kKernel, "salp_kernel", 0xC0006100}});

  auto& t_sf = lib.make("sock_flags");
  t_sf.add("sf_0", false, [](ValueCtx&) { return RawArg{0}; })
      .add("sf_peek", false, [](ValueCtx&) { return RawArg{MSG_PEEK_SIM}; })
      .add("sf_oob", false, [](ValueCtx&) { return RawArg{MSG_OOB_SIM}; })
      .add("sf_garbage", true, [](ValueCtx&) { return RawArg{0xff00}; });

  auto& t_how = lib.make("sock_how");
  t_how.add("how_recv", false, [](ValueCtx&) { return RawArg{0}; })
      .add("how_send", false, [](ValueCtx&) { return RawArg{1}; })
      .add("how_both", false, [](ValueCtx&) { return RawArg{2}; })
      .add("how_3", true, [](ValueCtx&) { return RawArg{3}; })
      .add("how_neg1", true, [](ValueCtx&) { return RawArg{0xffffffffull}; });

  auto& t_af = lib.make("sock_family");
  t_af.add("af_inet", false, [](ValueCtx&) { return RawArg{AF_INET_SIM}; })
      .add("af_unspec", true, [](ValueCtx&) { return RawArg{0}; })
      .add("af_ipx", true, [](ValueCtx&) { return RawArg{6}; })
      .add("af_255", true, [](ValueCtx&) { return RawArg{255}; });

  auto& t_st = lib.make("sock_type");
  t_st.add("st_stream", false, [](ValueCtx&) { return RawArg{1}; })
      .add("st_dgram", false, [](ValueCtx&) { return RawArg{2}; })
      .add("st_raw", true, [](ValueCtx&) { return RawArg{3}; })
      .add("st_zero", true, [](ValueCtx&) { return RawArg{0}; })
      .add("st_garbage", true, [](ValueCtx&) { return RawArg{77}; });

  auto& t_pr = lib.make("sock_protocol");
  t_pr.add("pr_default", false, [](ValueCtx&) { return RawArg{0}; })
      .add("pr_tcp", false, [](ValueCtx&) { return RawArg{IPPROTO_TCP_SIM}; })
      .add("pr_udp", false, [](ValueCtx&) { return RawArg{IPPROTO_UDP_SIM}; })
      .add("pr_bogus", true, [](ValueCtx&) { return RawArg{255}; });

  auto& t_lvl = lib.make("sock_opt_level");
  t_lvl.add("lvl_sol_socket", false,
            [](ValueCtx&) { return RawArg{SOL_SOCKET_SIM}; })
      .add("lvl_ipproto_tcp", false,
           [](ValueCtx&) { return RawArg{IPPROTO_TCP_SIM}; })
      .add("lvl_bogus", true, [](ValueCtx&) { return RawArg{0x7777}; });

  auto& t_on = lib.make("sock_opt_name");
  t_on.add("on_rcvtimeo", false,
           [](ValueCtx&) { return RawArg{SO_RCVTIMEO_SIM}; })
      .add("on_reuseaddr", false,
           [](ValueCtx&) { return RawArg{SO_REUSEADDR_SIM}; })
      .add("on_rcvbuf", false, [](ValueCtx&) { return RawArg{SO_RCVBUF_SIM}; })
      .add("on_bogus", true, [](ValueCtx&) { return RawArg{0x9999}; });

  // Option payload pointers (u32 pointees); doubles as the ioctl argp pool.
  auto& t_ov = lib.make("sock_optval_ptr");
  t_ov.add("ov_one", false, [](ValueCtx& c) { return alloc_u32(c, 1); })
      .add("ov_zero", false, [](ValueCtx& c) { return alloc_u32(c, 0); })
      .add("ov_ticks_5000", false,
           [](ValueCtx& c) { return alloc_u32(c, 5000); });
  poolkit::add_bad_pointer_values(
      t_ov, {{poolkit::BadPtr::kNull, "ov_null"},
             {poolkit::BadPtr::kDangling, "ov_dangling", 4},
             {poolkit::BadPtr::kKernel, "ov_kernel", 0xC0006200}});

  auto& t_ol = lib.make("sock_optlen");
  t_ol.add("ol_4", false, [](ValueCtx&) { return RawArg{4}; })
      .add("ol_huge", false, [](ValueCtx&) { return RawArg{0x7fffffff}; })
      .add("ol_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("ol_neg1", true, [](ValueCtx&) { return RawArg{0xffffffffull}; });

  auto& t_cmd = lib.make("sock_ioctl_cmd");
  t_cmd.add("cmd_fionbio", false, [](ValueCtx&) { return RawArg{FIONBIO_SIM}; })
      .add("cmd_fionread", false,
           [](ValueCtx&) { return RawArg{FIONREAD_SIM}; })
      .add("cmd_bogus", true, [](ValueCtx&) { return RawArg{0x12345678}; });
}

}  // namespace ballista::core
