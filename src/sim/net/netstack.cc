#include "sim/net/netstack.h"

#include <algorithm>

namespace ballista::sim {

std::string_view sock_state_name(SockState s) noexcept {
  switch (s) {
    case SockState::kFresh: return "fresh";
    case SockState::kBound: return "bound";
    case SockState::kListening: return "listening";
    case SockState::kConnected: return "connected";
  }
  return "?";
}

std::size_t SocketObject::bytes_readable() const noexcept {
  if (proto_ == SockProto::kUdp)
    return dgrams.empty() ? 0 : dgrams.front().payload.size();
  return recv_buf.size();
}

Verdict SocketObject::update_readable() {
  // A dead peer counts as readable: recv() must wake to report EOF/reset
  // rather than block on a connection nothing will ever feed again.
  const bool peer_gone =
      state_ == SockState::kConnected && proto_ == SockProto::kTcp &&
      (peer_closed || peer_.expired());
  return set_signaled(!recv_buf.empty() || !dgrams.empty() ||
                      !accept_queue.empty() || peer_gone);
}

std::shared_ptr<SocketObject> NetStack::holder(
    SockProto proto, std::uint16_t port) const noexcept {
  const auto it = ports_.find({static_cast<std::uint8_t>(proto), port});
  return it == ports_.end() ? nullptr : it->second.lock();
}

std::uint16_t NetStack::alloc_ephemeral(SockProto proto) noexcept {
  // Deterministic linear scan from a per-reset counter: the same case always
  // binds the same ports no matter which worker runs it.
  while (holder(proto, next_ephemeral_) != nullptr) ++next_ephemeral_;
  return next_ephemeral_++;
}

NetErr NetStack::auto_bind(const std::shared_ptr<SocketObject>& s) {
  if (s->state() != SockState::kFresh) return NetErr::kOk;
  return bind(s, kAnyIp, 0);
}

NetErr NetStack::bind(const std::shared_ptr<SocketObject>& s, std::uint32_t ip,
                      std::uint16_t port) {
  if (s->state() != SockState::kFresh) return NetErr::kInvalid;
  if (!is_local_ip(ip)) return NetErr::kAddrNotAvail;
  if (port == 0) {
    port = alloc_ephemeral(s->proto());
  } else if (auto held = holder(s->proto(), port);
             held != nullptr && !(held->reuse_addr && s->reuse_addr)) {
    return NetErr::kAddrInUse;
  }
  ports_[{static_cast<std::uint8_t>(s->proto()), port}] = s;
  s->local_ip = ip == kAnyIp ? kLoopbackIp : ip;
  s->local_port = port;
  s->set_state(SockState::kBound);
  return NetErr::kOk;
}

NetErr NetStack::listen(const std::shared_ptr<SocketObject>& s, int backlog) {
  if (s->proto() != SockProto::kTcp) return NetErr::kOpNotSupp;
  if (s->state() == SockState::kListening) {
    s->backlog = std::clamp(backlog, 1, kMaxBacklog);  // re-listen adjusts
    return NetErr::kOk;
  }
  if (s->state() != SockState::kBound) return NetErr::kInvalid;
  s->backlog = std::clamp(backlog, 1, kMaxBacklog);
  s->set_state(SockState::kListening);
  return NetErr::kOk;
}

NetErr NetStack::connect(const std::shared_ptr<SocketObject>& s,
                         std::uint32_t ip, std::uint16_t port) {
  if (s->proto() == SockProto::kUdp) {
    // UDP connect just fixes the default destination.
    if (const NetErr e = auto_bind(s); e != NetErr::kOk) return e;
    s->remote_ip = ip;
    s->remote_port = port;
    s->set_state(SockState::kConnected);
    return NetErr::kOk;
  }
  if (s->state() == SockState::kConnected) return NetErr::kIsConn;
  if (s->state() == SockState::kListening) return NetErr::kInvalid;
  if (!is_local_ip(ip) && ip != s->local_ip) {
    // Off the loopback interface nothing will ever answer: the caller burns
    // kConnectTimeoutTicks and reports its personality's timeout error.
    return NetErr::kUnreachable;
  }
  auto listener = holder(SockProto::kTcp, port);
  if (listener == nullptr || listener->state() != SockState::kListening ||
      listener.get() == s.get())
    return NetErr::kConnRefused;
  if (listener->accept_queue.size() >=
      static_cast<std::size_t>(listener->backlog))
    return NetErr::kConnRefused;
  if (const NetErr e = auto_bind(s); e != NetErr::kOk) return e;

  // Loopback three-way handshake collapses to one step: materialize the
  // server-side endpoint, cross-link the pair, queue it for accept().
  auto server = std::make_shared<SocketObject>(SockProto::kTcp);
  server->bind_mutation_hub(listener->mutation_hub());
  server->local_ip = kLoopbackIp;
  server->local_port = listener->local_port;
  server->remote_ip = s->local_ip;
  server->remote_port = s->local_port;
  server->set_state(SockState::kConnected);
  server->peer_ = s;
  s->remote_ip = kLoopbackIp;
  s->remote_port = port;
  s->peer_ = server;
  s->set_state(SockState::kConnected);
  listener->accept_queue.push_back(std::move(server));
  if (listener->update_readable() == Verdict::kDown) return NetErr::kDown;
  ++connections_;
  return NetErr::kOk;
}

NetErr NetStack::accept(SocketObject& listener,
                        std::shared_ptr<SocketObject>* out) {
  if (listener.proto() != SockProto::kTcp) return NetErr::kOpNotSupp;
  if (listener.state() != SockState::kListening) return NetErr::kInvalid;
  if (listener.accept_queue.empty()) return NetErr::kWouldBlock;
  *out = std::move(listener.accept_queue.front());
  listener.accept_queue.pop_front();
  if (listener.update_readable() == Verdict::kDown) return NetErr::kDown;
  return NetErr::kOk;
}

NetErr NetStack::send(SocketObject& s, std::span<const std::uint8_t> data,
                      std::size_t* sent) {
  *sent = 0;
  if (s.proto() != SockProto::kTcp) return NetErr::kOpNotSupp;
  if (s.state() != SockState::kConnected) return NetErr::kNotConn;
  if (s.shut_wr) return NetErr::kShutdown;
  auto peer = s.peer();
  if (peer == nullptr) return NetErr::kConnReset;
  // A peer that closed (state back to kFresh) or half-closed its read side
  // can never drain what we send: that is a reset, not a delivery.
  if (peer->state() != SockState::kConnected) return NetErr::kConnReset;
  if (peer->shut_rd || peer->peer_closed) return NetErr::kConnReset;
  const std::size_t space = kRecvBufferCap - std::min(kRecvBufferCap,
                                                      peer->recv_buf.size());
  if (space == 0 && !data.empty()) return NetErr::kWouldBlock;
  const std::size_t n = std::min(space, data.size());
  peer->recv_buf.insert(peer->recv_buf.end(), data.begin(), data.begin() + n);
  if (peer->update_readable() == Verdict::kDown) return NetErr::kDown;
  bytes_delivered_ += n;
  *sent = n;
  return NetErr::kOk;
}

NetErr NetStack::recv(SocketObject& s, std::span<std::uint8_t> out, bool peek,
                      std::size_t* received) {
  *received = 0;
  if (s.proto() != SockProto::kTcp) return NetErr::kOpNotSupp;
  if (s.state() != SockState::kConnected) return NetErr::kNotConn;
  if (s.shut_rd) return NetErr::kShutdown;
  if (s.recv_buf.empty()) {
    if (s.peer_closed) return NetErr::kOk;  // orderly EOF: 0 bytes
    if (s.peer() == nullptr) return NetErr::kConnReset;
    return NetErr::kWouldBlock;
  }
  const std::size_t n = std::min(out.size(), s.recv_buf.size());
  std::copy_n(s.recv_buf.begin(), n, out.begin());
  if (!peek) {
    s.recv_buf.erase(s.recv_buf.begin(), s.recv_buf.begin() + n);
    if (s.update_readable() == Verdict::kDown) return NetErr::kDown;
  }
  *received = n;
  return NetErr::kOk;
}

NetErr NetStack::sendto(const std::shared_ptr<SocketObject>& s,
                        std::uint32_t ip, std::uint16_t port,
                        std::span<const std::uint8_t> data) {
  if (s->proto() != SockProto::kUdp) return NetErr::kOpNotSupp;
  if (data.size() > kMaxDatagramSize) return NetErr::kMsgSize;
  if (const NetErr e = auto_bind(s); e != NetErr::kOk) return e;
  auto dst = is_local_ip(ip) ? holder(SockProto::kUdp, port) : nullptr;
  if (dst == nullptr || dst->dgrams.size() >= kMaxDatagrams) {
    // No receiver / full queue: UDP drops on the floor and still reports the
    // send as complete.  The drop is a pure function of queue occupancy, so
    // it is identical under any --jobs schedule.
    ++dgrams_dropped_;
    return NetErr::kOk;
  }
  Datagram d;
  d.src_ip = s->local_ip;
  d.src_port = s->local_port;
  d.payload.assign(data.begin(), data.end());
  bytes_delivered_ += d.payload.size();
  dst->dgrams.push_back(std::move(d));
  if (dst->update_readable() == Verdict::kDown) return NetErr::kDown;
  return NetErr::kOk;
}

NetErr NetStack::recvfrom(SocketObject& s, Datagram* out) {
  if (s.proto() != SockProto::kUdp) return NetErr::kOpNotSupp;
  if (s.shut_rd) return NetErr::kShutdown;
  if (s.dgrams.empty()) return NetErr::kWouldBlock;
  *out = std::move(s.dgrams.front());
  s.dgrams.pop_front();
  if (s.update_readable() == Verdict::kDown) return NetErr::kDown;
  return NetErr::kOk;
}

NetErr NetStack::shutdown(SocketObject& s, int how) {
  if (how < 0 || how > 2) return NetErr::kInvalid;
  if (s.proto() == SockProto::kTcp && s.state() != SockState::kConnected)
    return NetErr::kNotConn;
  if (how == 0 || how == 2) s.shut_rd = true;
  if (how == 1 || how == 2) {
    s.shut_wr = true;
    if (auto peer = s.peer(); peer != nullptr) {
      peer->peer_closed = true;
      if (peer->update_readable() == Verdict::kDown) return NetErr::kDown;
    }
  }
  return NetErr::kOk;
}

Verdict NetStack::on_close(SocketObject& s) {
  // Accepted server endpoints share the listener's local port without owning
  // the binding: only the holder's close releases the port.
  const auto it = ports_.find({static_cast<std::uint8_t>(s.proto()),
                               s.local_port});
  if (it != ports_.end() && it->second.lock().get() == &s) ports_.erase(it);
  // Connections still parked in the backlog die with the listener; their
  // client ends see an orderly close.
  while (!s.accept_queue.empty()) {
    if (auto client = s.accept_queue.front()->peer(); client != nullptr) {
      client->peer_closed = true;
      if (client->update_readable() == Verdict::kDown) return Verdict::kDown;
    }
    s.accept_queue.pop_front();
  }
  if (auto peer = s.peer(); peer != nullptr) {
    peer->peer_closed = true;
    if (peer->update_readable() == Verdict::kDown) return Verdict::kDown;
  }
  s.peer_.reset();
  s.recv_buf.clear();
  s.dgrams.clear();
  s.set_state(SockState::kFresh);
  return Verdict::kUp;
}

void NetStack::reset() noexcept {
  ports_.clear();
  next_ephemeral_ = kFirstEphemeralPort;
  dgrams_dropped_ = 0;
  connections_ = 0;
  bytes_delivered_ = 0;
}

}  // namespace ballista::sim
