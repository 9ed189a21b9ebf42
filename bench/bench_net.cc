// Simulated network stack bench, reported to BENCH_net.json.
//
// The sockets group's per-case cost is dominated by the stack underneath the
// MuT wrappers, so this bench pins down three layers:
//
//   - micro: loopback connect/accept/close cycles per second (every
//     hs_tcp_connected pool value pays one), and steady-state TCP
//     send->recv throughput through the bounded receive buffer,
//   - UDP: sendto->recvfrom datagrams per second against the bounded
//     per-socket queue,
//   - engine: the filtered `--groups sockets` campaign on NT4 and Linux
//     through plan/schedule/execute, in cases per second.
//
// Everything is tick-driven and single-threaded: rates here vary with the
// host, but case counts and outcome codes must not (the golden gate
// baseline_gate_sockets holds that line).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "harness/world.h"
#include "sim/net/netstack.h"

namespace {

using namespace ballista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::shared_ptr<sim::SocketObject> tcp() {
  return std::make_shared<sim::SocketObject>(sim::SockProto::kTcp);
}

/// Full client lifecycle against a persistent listener: connect, accept,
/// close both ends.  One iteration is what building a single
/// hs_tcp_connected pool value costs the executor.
double connect_cycles_per_second() {
  sim::NetStack net;
  auto listener = tcp();
  net.bind(listener, sim::NetStack::kAnyIp, 9000);
  net.listen(listener, 5);
  constexpr int kIters = 200000;
  const auto cycle = [&] {
    auto client = tcp();
    net.connect(client, sim::NetStack::kLoopbackIp, 9000);
    std::shared_ptr<sim::SocketObject> server;
    net.accept(*listener, &server);
    (void)net.on_close(*server);
    (void)net.on_close(*client);
  };
  for (int i = 0; i < 1000; ++i) cycle();  // warm-up
  const auto start = Clock::now();
  for (int i = 0; i < kIters; ++i) cycle();
  return kIters / seconds_since(start);
}

/// Steady-state stream throughput: fill the peer's bounded receive buffer,
/// drain it, repeat.  Reported in delivered bytes per second.
double tcp_bytes_per_second() {
  sim::NetStack net;
  auto listener = tcp();
  net.bind(listener, sim::NetStack::kAnyIp, 9001);
  net.listen(listener, 1);
  auto client = tcp();
  net.connect(client, sim::NetStack::kLoopbackIp, 9001);
  std::shared_ptr<sim::SocketObject> server;
  net.accept(*listener, &server);

  const std::vector<std::uint8_t> chunk(sim::NetStack::kRecvBufferCap, 0x5a);
  std::vector<std::uint8_t> sink(sim::NetStack::kRecvBufferCap);
  constexpr int kIters = 20000;
  std::size_t n = 0;
  for (int i = 0; i < 100; ++i) {  // warm-up
    net.send(*client, chunk, &n);
    net.recv(*server, sink, /*peek=*/false, &n);
  }
  std::uint64_t moved = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    net.send(*client, chunk, &n);
    net.recv(*server, sink, /*peek=*/false, &n);
    moved += n;
  }
  return static_cast<double>(moved) / seconds_since(start);
}

/// Datagram round trips per second through the bounded UDP queue.
double udp_datagrams_per_second() {
  sim::NetStack net;
  auto echo = std::make_shared<sim::SocketObject>(sim::SockProto::kUdp);
  net.bind(echo, sim::NetStack::kAnyIp, 9002);
  auto sender = std::make_shared<sim::SocketObject>(sim::SockProto::kUdp);
  net.bind(sender, sim::NetStack::kAnyIp, 0);

  const std::vector<std::uint8_t> payload(256, 0x42);
  sim::Datagram d;
  constexpr int kIters = 200000;
  for (int i = 0; i < 1000; ++i) {  // warm-up
    net.sendto(sender, sim::NetStack::kLoopbackIp, 9002, payload);
    net.recvfrom(*echo, &d);
  }
  const auto start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    net.sendto(sender, sim::NetStack::kLoopbackIp, 9002, payload);
    net.recvfrom(*echo, &d);
  }
  return kIters / seconds_since(start);
}

/// The sockets-group campaign through the real engine.
double campaign_cases_per_second(const harness::World& world,
                                 sim::OsVariant v, std::uint64_t* cases) {
  core::CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = core::group_bit(core::FuncGroup::kSockets);
  // warm-up run primes pools and the checkpoint image
  core::Campaign::run(v, world.registry, opt);
  const auto start = Clock::now();
  const auto r = core::Campaign::run(v, world.registry, opt);
  *cases = r.total_cases;
  return static_cast<double>(r.total_cases) / seconds_since(start);
}

}  // namespace

int main() {
  const double cycles = connect_cycles_per_second();
  const double stream = tcp_bytes_per_second();
  const double dgrams = udp_datagrams_per_second();

  const auto world = harness::build_world();
  std::uint64_t nt4_cases = 0, linux_cases = 0;
  const double nt4_rate = campaign_cases_per_second(
      *world, sim::OsVariant::kWinNT4, &nt4_cases);
  const double linux_rate = campaign_cases_per_second(
      *world, sim::OsVariant::kLinux, &linux_cases);

  std::ostringstream json;
  json << "{\n  \"bench\": \"net\",\n"
       << "  \"micro\": {\"connect_cycles_per_s\": " << cycles
       << ", \"tcp_bytes_per_s\": " << stream
       << ", \"udp_datagrams_per_s\": " << dgrams << "},\n"
       << "  \"recv_buffer_cap\": " << sim::NetStack::kRecvBufferCap << ",\n"
       << "  \"campaign\": {\"nt4_cases_per_s\": " << nt4_rate
       << ", \"nt4_cases\": " << nt4_cases
       << ", \"linux_cases_per_s\": " << linux_rate
       << ", \"linux_cases\": " << linux_cases << "}\n}\n";
  std::cout << json.str();
  std::ofstream("BENCH_net.json") << json.str();
  return 0;
}
