// Sim-level tests for the deterministic network stack (sim/net/netstack.h):
// the TCP-like loopback state machine, UDP delivery with deterministic
// drops, buffer bounds, close semantics (orderly vs abortive), the machine
// lifecycle hooks, and the determinism contracts DESIGN.md §12 pins down.
#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sim/net/netstack.h"

namespace ballista::sim {
namespace {

std::shared_ptr<SocketObject> tcp() {
  return std::make_shared<SocketObject>(SockProto::kTcp);
}
std::shared_ptr<SocketObject> udp() {
  return std::make_shared<SocketObject>(SockProto::kUdp);
}

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i);
  return v;
}

TEST(NetStack, BindEphemeralAndConflicts) {
  NetStack net;
  auto a = tcp(), b = tcp(), c = tcp();
  EXPECT_EQ(net.bind(a, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  EXPECT_EQ(a->state(), SockState::kBound);
  EXPECT_EQ(a->local_port, 7070);

  // Port 0 allocates from the deterministic ephemeral range.
  EXPECT_EQ(net.bind(b, NetStack::kAnyIp, 0), NetErr::kOk);
  EXPECT_EQ(b->local_port, NetStack::kFirstEphemeralPort);

  // Conflict unless both ends opted into SO_REUSEADDR.
  EXPECT_EQ(net.bind(c, NetStack::kAnyIp, 7070), NetErr::kAddrInUse);
  // A non-local address is not bindable; a double bind is invalid.
  auto d = tcp();
  EXPECT_EQ(net.bind(d, 0x0a010203, 80), NetErr::kAddrNotAvail);
  EXPECT_EQ(net.bind(a, NetStack::kAnyIp, 7071), NetErr::kInvalid);

  // Same port, different protocol: no conflict (separate namespaces).
  auto u = udp();
  EXPECT_EQ(net.bind(u, NetStack::kAnyIp, 7070), NetErr::kOk);
  EXPECT_EQ(net.bound_count(), 3u);
}

TEST(NetStack, ReuseAddrRequiresBothEnds) {
  NetStack net;
  auto a = udp(), b = udp(), c = udp();
  a->reuse_addr = true;
  EXPECT_EQ(net.bind(a, NetStack::kAnyIp, 9000), NetErr::kOk);
  EXPECT_EQ(net.bind(b, NetStack::kAnyIp, 9000), NetErr::kAddrInUse);
  c->reuse_addr = true;
  EXPECT_EQ(net.bind(c, NetStack::kAnyIp, 9000), NetErr::kOk);
}

TEST(NetStack, ConnectAcceptLifecycle) {
  NetStack net;
  auto listener = tcp();
  ASSERT_EQ(net.bind(listener, NetStack::kAnyIp, 7070), NetErr::kOk);
  ASSERT_EQ(net.listen(listener, 2), NetErr::kOk);
  EXPECT_EQ(listener->state(), SockState::kListening);
  EXPECT_FALSE(listener->signaled());  // nothing to accept yet

  auto client = tcp();
  EXPECT_EQ(net.connect(client, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  EXPECT_EQ(client->state(), SockState::kConnected);
  EXPECT_TRUE(listener->signaled());  // accept pending = readable
  EXPECT_EQ(net.connections_made(), 1u);

  std::shared_ptr<SocketObject> server;
  ASSERT_EQ(net.accept(*listener, &server), NetErr::kOk);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->state(), SockState::kConnected);
  EXPECT_EQ(server->remote_port, client->local_port);
  EXPECT_EQ(client->remote_port, 7070);
  EXPECT_EQ(client->peer(), server);
  EXPECT_FALSE(listener->signaled());  // backlog drained

  // Empty backlog: accept would block.
  EXPECT_EQ(net.accept(*listener, &server), NetErr::kWouldBlock);
}

TEST(NetStack, ConnectFailureModes) {
  NetStack net;
  auto c1 = tcp();
  // No listener on the port.
  EXPECT_EQ(net.connect(c1, NetStack::kLoopbackIp, 6500), NetErr::kConnRefused);
  // Off-box: nothing ever answers.
  EXPECT_EQ(net.connect(c1, 0x0a010203, 80), NetErr::kUnreachable);

  // Backlog full: refused deterministically.
  auto listener = tcp();
  ASSERT_EQ(net.bind(listener, NetStack::kAnyIp, 7070), NetErr::kOk);
  ASSERT_EQ(net.listen(listener, 1), NetErr::kOk);
  auto c2 = tcp(), c3 = tcp();
  EXPECT_EQ(net.connect(c2, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  EXPECT_EQ(net.connect(c3, NetStack::kLoopbackIp, 7070), NetErr::kConnRefused);

  // Double connect and UDP listen are rejected.
  EXPECT_EQ(net.connect(c2, NetStack::kLoopbackIp, 7070), NetErr::kIsConn);
  auto u = udp();
  ASSERT_EQ(net.bind(u, NetStack::kAnyIp, 8000), NetErr::kOk);
  EXPECT_EQ(net.listen(u, 1), NetErr::kOpNotSupp);
}

TEST(NetStack, StreamSendRecvWithBoundedBuffer) {
  NetStack net;
  auto listener = tcp();
  ASSERT_EQ(net.bind(listener, NetStack::kAnyIp, 7070), NetErr::kOk);
  ASSERT_EQ(net.listen(listener, 2), NetErr::kOk);
  auto client = tcp();
  ASSERT_EQ(net.connect(client, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  std::shared_ptr<SocketObject> server;
  ASSERT_EQ(net.accept(*listener, &server), NetErr::kOk);

  const auto msg = bytes(64);
  std::size_t sent = 0;
  ASSERT_EQ(net.send(*client, msg, &sent), NetErr::kOk);
  EXPECT_EQ(sent, 64u);
  EXPECT_TRUE(server->signaled());
  EXPECT_EQ(server->bytes_readable(), 64u);

  // Peek does not consume; a following read sees the same bytes.
  std::vector<std::uint8_t> out(64);
  std::size_t got = 0;
  ASSERT_EQ(net.recv(*server, out, /*peek=*/true, &got), NetErr::kOk);
  EXPECT_EQ(got, 64u);
  EXPECT_EQ(server->bytes_readable(), 64u);
  ASSERT_EQ(net.recv(*server, out, /*peek=*/false, &got), NetErr::kOk);
  EXPECT_EQ(got, 64u);
  EXPECT_EQ(out, msg);
  EXPECT_FALSE(server->signaled());
  ASSERT_EQ(net.recv(*server, out, false, &got), NetErr::kWouldBlock);

  // The receive buffer is a hard bound: sends are partial at the cap, and a
  // send into a full buffer would block.
  const auto big = bytes(NetStack::kRecvBufferCap + 100);
  ASSERT_EQ(net.send(*client, big, &sent), NetErr::kOk);
  EXPECT_EQ(sent, NetStack::kRecvBufferCap);
  ASSERT_EQ(net.send(*client, big, &sent), NetErr::kWouldBlock);
  EXPECT_GE(net.bytes_delivered(), NetStack::kRecvBufferCap + 64);
}

TEST(NetStack, OrderlyCloseGivesEofAbortiveGivesReset) {
  NetStack net;
  auto listener = tcp();
  ASSERT_EQ(net.bind(listener, NetStack::kAnyIp, 7070), NetErr::kOk);
  ASSERT_EQ(net.listen(listener, 2), NetErr::kOk);

  // Orderly: peer drains buffered data, then sees EOF (kOk, 0 bytes).
  auto c1 = tcp();
  ASSERT_EQ(net.connect(c1, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  std::shared_ptr<SocketObject> s1;
  ASSERT_EQ(net.accept(*listener, &s1), NetErr::kOk);
  std::size_t n = 0;
  ASSERT_EQ(net.send(*s1, bytes(8), &n), NetErr::kOk);
  (void)net.on_close(*s1);
  std::vector<std::uint8_t> out(16);
  ASSERT_EQ(net.recv(*c1, out, false, &n), NetErr::kOk);
  EXPECT_EQ(n, 8u);  // drain survives the close
  ASSERT_EQ(net.recv(*c1, out, false, &n), NetErr::kOk);
  EXPECT_EQ(n, 0u);  // EOF
  EXPECT_TRUE(c1->signaled());  // peer-gone keeps the socket readable
  // Sending into a closed peer is a reset.
  EXPECT_EQ(net.send(*c1, bytes(4), &n), NetErr::kConnReset);

  // Abortive: the server handle is destroyed without on_close.
  auto c2 = tcp();
  ASSERT_EQ(net.connect(c2, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  std::shared_ptr<SocketObject> s2;
  ASSERT_EQ(net.accept(*listener, &s2), NetErr::kOk);
  s2.reset();  // vanishes: weak_ptr expires
  EXPECT_EQ(net.recv(*c2, out, false, &n), NetErr::kConnReset);
}

TEST(NetStack, ShutdownSemantics) {
  NetStack net;
  auto listener = tcp();
  ASSERT_EQ(net.bind(listener, NetStack::kAnyIp, 7070), NetErr::kOk);
  ASSERT_EQ(net.listen(listener, 2), NetErr::kOk);
  auto client = tcp();
  ASSERT_EQ(net.connect(client, NetStack::kLoopbackIp, 7070), NetErr::kOk);
  std::shared_ptr<SocketObject> server;
  ASSERT_EQ(net.accept(*listener, &server), NetErr::kOk);

  EXPECT_EQ(net.shutdown(*client, 3), NetErr::kInvalid);  // bad how
  auto fresh = tcp();
  EXPECT_EQ(net.shutdown(*fresh, 1), NetErr::kNotConn);

  ASSERT_EQ(net.shutdown(*client, 1), NetErr::kOk);  // SD_SEND
  std::size_t n = 0;
  EXPECT_EQ(net.send(*client, bytes(4), &n), NetErr::kShutdown);
  // The peer sees the half-close as EOF.
  std::vector<std::uint8_t> out(4);
  EXPECT_EQ(net.recv(*server, out, false, &n), NetErr::kOk);
  EXPECT_EQ(n, 0u);
}

TEST(NetStack, UdpDeliveryAndDeterministicDrops) {
  NetStack net;
  auto rx = udp(), tx = udp();
  ASSERT_EQ(net.bind(rx, NetStack::kAnyIp, 7777), NetErr::kOk);

  // sendto auto-binds the sender's ephemeral port; the receiver learns it.
  ASSERT_EQ(net.sendto(tx, NetStack::kLoopbackIp, 7777, bytes(5)),
            NetErr::kOk);
  EXPECT_EQ(tx->local_port, NetStack::kFirstEphemeralPort);
  EXPECT_TRUE(rx->signaled());
  Datagram d;
  ASSERT_EQ(net.recvfrom(*rx, &d), NetErr::kOk);
  EXPECT_EQ(d.payload, bytes(5));
  EXPECT_EQ(d.src_port, tx->local_port);
  EXPECT_EQ(net.recvfrom(*rx, &d), NetErr::kWouldBlock);

  // No receiver / off-box: dropped, counted, still "success" (UDP).
  ASSERT_EQ(net.sendto(tx, NetStack::kLoopbackIp, 4242, bytes(3)),
            NetErr::kOk);
  ASSERT_EQ(net.sendto(tx, 0x0a010203, 4242, bytes(3)), NetErr::kOk);
  EXPECT_EQ(net.datagrams_dropped(), 2u);

  // Queue bound: datagram kMaxDatagrams+1 is dropped as a pure function of
  // occupancy.
  for (std::size_t i = 0; i < NetStack::kMaxDatagrams + 1; ++i)
    ASSERT_EQ(net.sendto(tx, NetStack::kLoopbackIp, 7777, bytes(1)),
              NetErr::kOk);
  EXPECT_EQ(rx->dgrams.size(), NetStack::kMaxDatagrams);
  EXPECT_EQ(net.datagrams_dropped(), 3u);

  // Oversize datagrams are the sender's error, not a drop.
  EXPECT_EQ(net.sendto(tx, NetStack::kLoopbackIp, 7777,
                       bytes(NetStack::kMaxDatagramSize + 1)),
            NetErr::kMsgSize);
}

TEST(NetStack, ResetClearsBindingsAndCounters) {
  NetStack net;
  auto a = udp();
  ASSERT_EQ(net.bind(a, NetStack::kAnyIp, 0), NetErr::kOk);
  const std::uint16_t first = a->local_port;
  ASSERT_EQ(net.sendto(a, NetStack::kLoopbackIp, 4242, bytes(2)), NetErr::kOk);
  EXPECT_GT(net.bound_count(), 0u);
  EXPECT_GT(net.datagrams_dropped(), 0u);

  net.reset();
  EXPECT_EQ(net.bound_count(), 0u);
  EXPECT_EQ(net.datagrams_dropped(), 0u);
  EXPECT_EQ(net.connections_made(), 0u);

  // Determinism: after reset the ephemeral allocator restarts, so case N+1
  // sees exactly the ports case N saw.
  auto b = udp();
  ASSERT_EQ(net.bind(b, NetStack::kAnyIp, 0), NetErr::kOk);
  EXPECT_EQ(b->local_port, first);
}

TEST(NetStack, MachineRestoreResetsTheStack) {
  Machine m(OsVariant::kWinNT4);
  auto s = udp();
  ASSERT_EQ(m.net().bind(s, NetStack::kAnyIp, 7777), NetErr::kOk);
  EXPECT_EQ(m.net().bound_count(), 1u);
  // Case-level restore: port bindings are case-local like temp files.
  m.restore(RestoreLevel::kCaseReset);
  EXPECT_EQ(m.net().bound_count(), 0u);

  auto s2 = udp();
  ASSERT_EQ(m.net().bind(s2, NetStack::kAnyIp, 7777), NetErr::kOk);
  m.restore(RestoreLevel::kReboot);
  EXPECT_EQ(m.net().bound_count(), 0u);
}

}  // namespace
}  // namespace ballista::sim
