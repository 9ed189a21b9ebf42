// The sockets group's one service (FuncGroup::kSockets, wire id 13): the
// sixteen socket calls, written once against the simulated loopback stack
// (sim/net/netstack.h) and the shared value pools (core/socket_types.h).
//
// Winsock (win32/socket_calls.cc) and BSD (posix/socket_calls.cc) differ only
// in a SocketConvention: how a handle argument is looked up, which code each
// failure reports, the failure return and where its code goes, and two
// read-side rules.  Each personality registers the calls it has under its
// own convention; DESIGN.md §12 tabulates both.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/execctx.h"
#include "core/registry.h"
#include "core/typelib.h"
#include "sim/net/netstack.h"

namespace ballista::core {

/// The code each socket failure reports, one row per thing that went wrong.
struct SocketErrorTable {
  std::uint32_t fault;          // MemStatus::kError; a null length pointer
  std::uint32_t short_length;   // sockaddr or *addrlen < 16, option length < 4
  std::uint32_t bad_type;       // socket type neither stream nor datagram
  std::uint32_t af_no_support;  // address family other than AF_INET
  std::uint32_t proto_no_support;
  std::uint32_t op_not_supp;   // flag reject; NetErr::kOpNotSupp
  std::uint32_t invalid;       // level/ioctl reject, unbound getsockname,
                               // NetErr::kInvalid, any unlisted verdict
  std::uint32_t no_proto_opt;  // unknown SOL_SOCKET option
  std::uint32_t would_block;   // nonblocking socket with nothing to do
  std::uint32_t recv_timeout;  // SO_RCVTIMEO expired
  std::uint32_t connect_timeout;  // connect to an off-box address
  std::uint32_t msg_size;         // datagram too long; NetErr::kMsgSize
  std::uint32_t shutdown;         // NetErr::kShutdown (send after SHUT_WR)
  std::uint32_t addr_in_use;      // the other stack verdicts' twins
  std::uint32_t addr_not_avail;
  std::uint32_t conn_refused;
  std::uint32_t not_conn;
  std::uint32_t is_conn;
  std::uint32_t conn_reset;
};

/// One personality's socket error convention: a constant the personality
/// owns, reached by reference.
struct SocketConvention {
  /// Resolves socket handle argument `h` into `*s`, or returns the reject.
  std::optional<CallOutcome> (*lookup)(
      CallContext& ctx, std::uint64_t h,
      std::shared_ptr<sim::SocketObject>* s);
  /// Reports `code` where the personality keeps it (last error or errno)
  /// and returns its failure value.
  CallOutcome (*fail)(CallContext& ctx, std::uint32_t code);
  SocketErrorTable codes;
  /// A read after SHUT_RD returns 0, end of file (BSD), instead of failing
  /// with the shutdown row (Winsock).
  bool eof_after_shut_rd;
  /// A datagram longer than the buffer is delivered, then fails with the
  /// msg_size row (Winsock), instead of being truncated silently to the
  /// bytes copied (BSD).
  bool truncation_fails;
};

/// Adds the service's call `name` (socket, bind, ... shutdown, and Winsock's
/// closesocket, ioctlsocket, getsockname, getpeername) to `reg` as a MuT of
/// `api` on the variants in `mask`, taking the parameter types its body
/// reads and answering under `conv`, which must outlive the registry.
/// Returns the MuT, for per-variant hazards.
MuT& add_socket_call(const TypeLibrary& lib, Registry& reg,
                     std::string_view name, ApiKind api, std::uint8_t mask,
                     const SocketConvention& conv);

}  // namespace ballista::core
