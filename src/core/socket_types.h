// Value pools and wire helpers for the sockets group (FuncGroup::kSockets).
//
// Both personalities' registrars (win32/socket_calls.cc Winsock flavor,
// posix/socket_calls.cc BSD flavor) draw from ONE set of pools registered
// here: the test values — live/closed/wrong-kind sockets, good and bad
// sockaddr pointers, edge-case lengths, ports and flags — are personality-
// neutral, while the error-reporting contrast (WSAENOTSOCK vs ENOTSOCK vs a
// Win9x silent stub) is entirely the socket conventions' job
// (core/socket_service.h).
//
// The simulated sockaddr_in is a fixed 16-byte little-endian layout
// (family u16, port u16, ipv4 u32, 8 zero bytes); DESIGN.md §12 records the
// deviation from the real structures' byte orders.
#pragma once

#include <cstdint>
#include <span>

#include "core/typelib.h"
#include "sim/net/netstack.h"

namespace ballista::core {

inline constexpr std::uint16_t AF_INET_SIM = 2;
inline constexpr std::size_t kSockAddrSize = 16;

// Option levels/names and ioctl commands shared by both personalities (the
// Winsock numeric values; the POSIX layer accepts the same simulated
// constants — a documented deviation, DESIGN.md §12).
inline constexpr std::uint32_t SOL_SOCKET_SIM = 0xffff;
inline constexpr std::uint32_t IPPROTO_TCP_SIM = 6;
inline constexpr std::uint32_t IPPROTO_UDP_SIM = 17;
inline constexpr std::uint32_t SO_REUSEADDR_SIM = 0x0004;
inline constexpr std::uint32_t SO_RCVBUF_SIM = 0x1002;
inline constexpr std::uint32_t SO_RCVTIMEO_SIM = 0x1006;
inline constexpr std::uint32_t FIONBIO_SIM = 0x8004667e;
inline constexpr std::uint32_t FIONREAD_SIM = 0x4004667f;
inline constexpr std::uint32_t MSG_OOB_SIM = 0x1;
inline constexpr std::uint32_t MSG_PEEK_SIM = 0x2;

struct SockAddrIn {
  std::uint16_t family = 0;
  std::uint16_t port = 0;
  std::uint32_t ip = 0;
};

SockAddrIn decode_sockaddr(std::span<const std::uint8_t> bytes) noexcept;
void encode_sockaddr(const SockAddrIn& sa, std::span<std::uint8_t> out) noexcept;

/// Ports the pool fixtures claim; factories fall back to an ephemeral port
/// when two values in one tuple collide, so materialization never fails.
inline constexpr std::uint16_t kPoolUdpEchoPort = 7777;
inline constexpr std::uint16_t kPoolTcpListenPort = 7070;
inline constexpr std::uint16_t kPoolTcpDeadPort = 6500;
inline constexpr std::uint16_t kPoolTcpTakenPort = 6600;

/// Registers the sockets-group pools (idempotent): h_socket, sockaddr_ptr,
/// sock_addrlen, sock_addrlen_ptr, sock_flags, sock_how, sock_family,
/// sock_type, sock_protocol, sock_opt_level, sock_opt_name, sock_optval_ptr,
/// sock_optlen, sock_ioctl_cmd.
void register_socket_types(TypeLibrary& lib);

}  // namespace ballista::core
