// Deterministic simulated network stack (DESIGN.md §12).
//
// One loopback interface (127.0.0.1), a small TCP-like connection state
// machine, UDP datagram delivery, and bounded per-socket buffers.  There is
// no wall-clock anywhere: every timeout is expressed in simulated ticks
// (Machine::advance_ticks), every queue bound is a fixed constant, and every
// "drop" decision is a pure function of queue occupancy — so a campaign's
// socket outcomes are identical across --jobs schedules and host machines.
//
// Sockets are ordinary kernel objects (ObjectKind::kSocket) living in the
// per-process HandleTable, so socket creation/close/readability announce
// through the existing MutationHub fault points (kHandleCreate /
// kHandleClose / kHandleSignal) and participate in crash-consistency
// campaigns without widening the wire-frozen MutationKind set.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sim/kobject.h"

namespace ballista::sim {

enum class SockProto : std::uint8_t { kTcp, kUdp };
enum class SockState : std::uint8_t {
  kFresh,      // socket() done, no local address
  kBound,      // bind() done
  kListening,  // listen() done (TCP only)
  kConnected,  // connect()/accept() done
};

std::string_view sock_state_name(SockState s) noexcept;

/// One queued UDP datagram, stamped with its sender's address.
struct Datagram {
  std::uint32_t src_ip = 0;
  std::uint16_t src_port = 0;
  std::vector<std::uint8_t> payload;
};

/// A socket kernel object.  The signaled bit doubles as "readable" (data
/// buffered, datagram queued, accept pending, or peer gone), so state
/// transitions flow through KernelObject::set_signaled and announce
/// kHandleSignal mutation points exactly like events and mutexes do.
class SocketObject final : public KernelObject {
 public:
  explicit SocketObject(SockProto proto)
      : KernelObject(ObjectKind::kSocket), proto_(proto) {
    reset_kernel_state(false);  // a fresh socket has nothing to read
  }

  SockProto proto() const noexcept { return proto_; }
  SockState state() const noexcept { return state_; }

  std::uint32_t local_ip = 0;
  std::uint16_t local_port = 0;
  std::uint32_t remote_ip = 0;
  std::uint16_t remote_port = 0;

  /// TCP receive stream, bounded by NetStack::kRecvBufferCap.
  std::deque<std::uint8_t> recv_buf;
  /// UDP receive queue, bounded by NetStack::kMaxDatagrams.
  std::deque<Datagram> dgrams;
  /// Listener backlog of already-connected server-side sockets.
  std::deque<std::shared_ptr<SocketObject>> accept_queue;

  bool peer_closed = false;  // remote end closed or shut down its send side
  bool shut_rd = false;      // shutdown(SD_RECEIVE)
  bool shut_wr = false;      // shutdown(SD_SEND)
  bool nonblocking = false;  // FIONBIO / O_NONBLOCK
  bool reuse_addr = false;   // SO_REUSEADDR
  /// SO_RCVTIMEO in simulated ticks; 0 = block forever.
  std::uint32_t recv_timeout_ticks = 0;
  int backlog = 0;

  std::size_t bytes_readable() const noexcept;
  const std::shared_ptr<SocketObject> peer() const noexcept {
    return peer_.lock();
  }

 private:
  friend class NetStack;
  void set_state(SockState s) noexcept { state_ = s; }
  /// Recomputes the readable/signaled bit after any queue or peer change.
  /// May announce kHandleSignal (and so return kDown under an armed
  /// crash-campaign cut), like every other signal flip.
  Verdict update_readable();

  SockProto proto_;
  SockState state_ = SockState::kFresh;
  std::weak_ptr<SocketObject> peer_;
};

/// Result of a stack operation.  The stack reports *what happened*; mapping
/// to tick-burning timeouts or task hangs is the socket service's job, and
/// to WSA codes or errno values its conventions' (core/socket_service.h).
enum class NetErr : std::uint8_t {
  kOk,
  kInvalid,       // operation illegal in this socket state
  kAddrInUse,     // (proto, port) already bound by a live socket
  kAddrNotAvail,  // address is not a local interface
  kConnRefused,   // no listener at the destination, or backlog full
  kUnreachable,   // destination is off-box: nothing answers, ever
  kWouldBlock,    // nothing to deliver now (and in this sim, ever)
  kNotConn,
  kIsConn,
  kShutdown,      // send after shutdown(SD_SEND)
  kConnReset,     // peer vanished abortively (handle closed without close())
  kMsgSize,       // datagram larger than kMaxDatagramSize
  kOpNotSupp,     // e.g. listen() on a UDP socket
  kDown,          // the machine panicked under the operation (an armed cut
                  // fired on a readable-bit flip): the caller passes the
                  // panic up, and nothing after the flip was applied
};

/// The machine-wide network state: the loopback interface's port-binding
/// table plus the delivery rules.  Owned by Machine next to the filesystem;
/// reset() between cases so no binding ever leaks across test cases.
class NetStack {
 public:
  static constexpr std::uint32_t kLoopbackIp = 0x7f000001;  // 127.0.0.1
  static constexpr std::uint32_t kAnyIp = 0;                // INADDR_ANY
  static constexpr std::size_t kRecvBufferCap = 16 * 1024;
  static constexpr std::size_t kMaxDatagrams = 8;
  static constexpr std::size_t kMaxDatagramSize = 4096;
  static constexpr int kMaxBacklog = 5;  // SOMAXCONN of the era
  /// Ticks a connect() to an off-box address burns before timing out.
  static constexpr std::uint64_t kConnectTimeoutTicks = 3000;
  static constexpr std::uint16_t kFirstEphemeralPort = 49152;

  static constexpr bool is_local_ip(std::uint32_t ip) noexcept {
    return ip == kLoopbackIp || ip == kAnyIp;
  }

  NetErr bind(const std::shared_ptr<SocketObject>& s, std::uint32_t ip,
              std::uint16_t port);
  NetErr listen(const std::shared_ptr<SocketObject>& s, int backlog);
  NetErr connect(const std::shared_ptr<SocketObject>& s, std::uint32_t ip,
                 std::uint16_t port);
  /// Pops one pending connection; kWouldBlock when the backlog is empty.
  NetErr accept(SocketObject& listener, std::shared_ptr<SocketObject>* out);

  /// TCP stream send into the peer's bounded buffer; partial sends allowed.
  NetErr send(SocketObject& s, std::span<const std::uint8_t> data,
              std::size_t* sent);
  /// TCP stream receive; *received == 0 with kOk is the orderly EOF.
  NetErr recv(SocketObject& s, std::span<std::uint8_t> out, bool peek,
              std::size_t* received);

  /// UDP datagram send; auto-binds an ephemeral source port.  Delivery to a
  /// full queue or an off-box address drops the datagram deterministically
  /// (counted in dgrams_dropped) and still reports success, as UDP does.
  NetErr sendto(const std::shared_ptr<SocketObject>& s, std::uint32_t ip,
                std::uint16_t port, std::span<const std::uint8_t> data);
  /// Pops one datagram whole; truncation policy is the caller's.
  NetErr recvfrom(SocketObject& s, Datagram* out);

  /// how: 0 = receive side, 1 = send side, 2 = both (SD_* / SHUT_*).
  NetErr shutdown(SocketObject& s, int how);

  /// Orderly close: releases the port binding, flushes the backlog, and
  /// marks the peer's stream as peer-closed (EOF after drain).  closesocket
  /// and POSIX close() route here before the handle-table close; a socket
  /// destroyed *without* passing through (case teardown, CloseHandle) is an
  /// abortive reset — the peer sees kConnReset via the expired weak_ptr.
  /// kDown when an armed cut fires on a peer's readable-bit flip.
  Verdict on_close(SocketObject& s);

  /// Forgets every binding and counter: part of Machine::restore at every
  /// level, so case N's ports can never collide with case N+1's.
  void reset() noexcept;

  std::size_t bound_count() const noexcept { return ports_.size(); }
  std::uint64_t datagrams_dropped() const noexcept { return dgrams_dropped_; }
  std::uint64_t connections_made() const noexcept { return connections_; }
  std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }

 private:
  using PortKey = std::pair<std::uint8_t, std::uint16_t>;  // (proto, port)
  std::shared_ptr<SocketObject> holder(SockProto proto,
                                       std::uint16_t port) const noexcept;
  std::uint16_t alloc_ephemeral(SockProto proto) noexcept;
  NetErr auto_bind(const std::shared_ptr<SocketObject>& s);

  std::map<PortKey, std::weak_ptr<SocketObject>> ports_;
  std::uint16_t next_ephemeral_ = kFirstEphemeralPort;
  std::uint64_t dgrams_dropped_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace ballista::sim
