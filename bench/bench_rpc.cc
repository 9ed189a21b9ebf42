// Campaign-service bench, reported to BENCH_rpc.json.
//
// The service's cost sits in two layers, pinned down separately:
//
//   - wire: encode->decode round trips per second over a corpus covering
//     every v2 frame type, weighted toward the streamed-shard shape the
//     outcome stream actually pays per shard,
//   - service: shards per second through a four-session CampaignServer
//     (nt4 / win95 / win2000 / linux multiplexed over one shared machine
//     pool), at jobs=1 and jobs=4 — the gap is the pool's parallel headroom,
//     the jobs=1 figure is the protocol + scheduling overhead floor.
//
// Rates vary with the host; shard counts and outcome bytes must not (the
// session logs are gated byte-identical against solo runs by the tests).
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "harness/world.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"
#include "rpc/server.h"

namespace {

using namespace ballista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One frame of every type, sized like real service traffic (the streamed
/// shard carries two MuT partials with per-case codes and a crash tail).
std::vector<rpc::Message> corpus() {
  using namespace rpc;
  std::vector<Message> frames;
  Hello hello;
  hello.spec.variant = 3;
  hello.spec.cap = 5000;
  hello.spec.seed = 0x8a11157a;
  frames.push_back(Message{hello});
  frames.push_back(Message{Attach{3, 237, 4223, {0, 2, 5, 11}}});
  frames.push_back(Message{Detach{3}});
  frames.push_back(Message{
      Error{ErrorCode::kSessionSealed, 3, "campaign already complete"}});

  StreamedShard streamed;
  streamed.session_id = 3;
  streamed.outcome.shard_index = 5;
  streamed.outcome.executed_cases = 48;
  streamed.outcome.partials.push_back({0, 0, {}});
  {
    auto& stats = streamed.outcome.partials.back().stats;
    stats.planned = 24;
    stats.executed = 24;
    stats.passes = 20;
    stats.aborts = 4;
    stats.case_codes.assign(24, core::CaseCode::kPassNoError);
    stats.event_counts[trace::EventKind::kSyscallEnter] = 96;
  }
  streamed.outcome.partials.push_back({1, 24, {}});
  {
    auto& stats = streamed.outcome.partials.back().stats;
    stats.planned = 24;
    stats.executed = 20;
    stats.catastrophic = true;
    stats.crash_case = 19;
    stats.crash_detail = "page fault in kernel context";
    stats.crash_tuple = "(NULL, -1)";
    stats.event_counts[trace::EventKind::kPanic] = 1;
  }
  frames.push_back(Message{streamed});

  Complete complete;
  complete.session_id = 3;
  complete.total_cases = 4223;
  complete.counters[trace::EventKind::kSyscallEnter] = 8192;
  frames.push_back(Message{complete});
  return frames;
}

/// Full wire round trips (encode + decode + canonical re-use) per second.
double frames_per_second(std::uint64_t* bytes_per_frame) {
  const std::vector<rpc::Message> msgs = corpus();
  std::uint64_t bytes = 0;
  for (const rpc::Message& m : msgs) bytes += rpc::encode(m).size();
  *bytes_per_frame = bytes / msgs.size();

  constexpr int kIters = 20000;
  std::uint64_t decoded = 0;
  for (int i = 0; i < 200; ++i)  // warm-up
    for (const rpc::Message& m : msgs)
      decoded += rpc::decode(rpc::encode(m)).has_value();
  const auto start = Clock::now();
  for (int i = 0; i < kIters; ++i)
    for (const rpc::Message& m : msgs)
      decoded += rpc::decode(rpc::encode(m)).has_value();
  const double secs = seconds_since(start);
  if (decoded == 0) return 0.0;  // keeps the loop from folding away
  return static_cast<double>(kIters * msgs.size()) / secs;
}

/// Shards per second through the full service: four sessions on different
/// OS variants, each streaming its outcomes over its own channel.
double service_shards_per_second(const harness::World& world, unsigned jobs,
                                 std::uint64_t* shards) {
  rpc::ServerConfig cfg;
  cfg.jobs = jobs;
  cfg.quota = jobs;
  rpc::CampaignServer server(world.registry, cfg);

  core::CampaignOptions opt;
  opt.cap = 24;
  opt.shard_cases = 64;  // small shards: the stream, not the MuTs, is timed
  const sim::OsVariant variants[] = {
      sim::OsVariant::kWinNT4, sim::OsVariant::kWin95,
      sim::OsVariant::kWin2000, sim::OsVariant::kLinux};
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  std::vector<std::unique_ptr<rpc::CampaignClient>> clients;
  for (sim::OsVariant v : variants) {
    channels.push_back(std::make_unique<rpc::Channel>());
    server.bind(channels.back()->a());
    clients.push_back(std::make_unique<rpc::CampaignClient>(
        channels.back()->b(), world.registry, v, opt));
    clients.back()->hello();
  }
  const auto start = Clock::now();
  for (;;) {
    server.step();
    bool pending = false;
    for (auto& c : clients) {
      c->poll();
      if (c->attached() && !c->complete()) pending = true;
    }
    if (!pending && !server.step()) break;
  }
  *shards = server.shards_executed();
  return static_cast<double>(*shards) / seconds_since(start);
}

}  // namespace

int main() {
  std::uint64_t bytes_per_frame = 0;
  const double wire = frames_per_second(&bytes_per_frame);

  const auto world = harness::build_world();
  std::uint64_t shards1 = 0, shards4 = 0;
  const double solo = service_shards_per_second(*world, 1, &shards1);
  const double quad = service_shards_per_second(*world, 4, &shards4);

  std::ostringstream json;
  json << "{\n  \"bench\": \"rpc\",\n"
       << "  \"wire\": {\"frames_per_s\": " << wire
       << ", \"mean_frame_bytes\": " << bytes_per_frame << "},\n"
       << "  \"service\": {\"sessions\": 4, \"shards\": " << shards1
       << ", \"shards_per_s_jobs1\": " << solo
       << ", \"shards_per_s_jobs4\": " << quad << "}\n}\n";
  std::cout << json.str();
  bench::write_report("BENCH_rpc.json", json.str());
  return shards1 == shards4 ? 0 : 1;  // same plan either way, by contract
}
