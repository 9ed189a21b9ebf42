// The campaign service: a CampaignServer multiplexing several client
// sessions over one machine pool, streaming each session's shard outcomes
// into its own .blog.  The contracts under test:
//
//   * kill matrix — N concurrent sessions on different OS variants, at any
//     --jobs, each produce a merged result bit-identical to a solo
//     in-process run, and (with durability on) a log byte-identical to the
//     log a solo store-backed run writes;
//   * resume — a client that detaches mid-campaign and reattaches (to the
//     same server, or to a freshly constructed one over the same log_dir)
//     receives exactly the missing shards;
//   * lifecycle edges — double attach, bogus versions, unknown sessions,
//     sealed campaigns, a full session table: each a typed kError, and the
//     server keeps serving everyone else;
//   * fairness and backpressure — round-robin keeps same-size sessions
//     within one shard of each other, and a tiny channel capacity slows a
//     campaign down but never wedges it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/wire.h"
#include "rpc/server.h"
#include "store/format.h"
#include "tests/store_test_util.h"
#include "tests/test_util.h"

namespace ballista::rpc {
namespace {

using core::CampaignOptions;
using core::CampaignResult;
using sim::OsVariant;
using testing::expect_same_result;
using testing::shared_world;
using testing::TinyWorld;
using testing::tiny_options;

std::string temp_dir(const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "ballista_" + stem + "." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), {}};
}

/// Drives server and clients until every client is complete or errored (or
/// the step budget runs out — a wedged server fails the calling test).
void pump(CampaignServer& server, std::vector<CampaignClient*> clients,
          int max_iterations = 20000) {
  for (int i = 0; i < max_iterations; ++i) {
    server.step();
    bool settled = true;
    for (CampaignClient* c : clients) {
      c->poll();
      if (c->attached() && !c->complete() && !c->error()) settled = false;
    }
    if (settled && !server.step()) {
      for (CampaignClient* c : clients) c->poll();
      return;
    }
  }
}

// --- session layer -----------------------------------------------------------

TEST(SessionLayer, SpecRoundTripsThroughOptions) {
  CampaignOptions opt = tiny_options();
  opt.seed = 0xfeed;
  opt.only_api = core::ApiKind::kWin32Sys;
  opt.group_mask = 0x3;
  opt.record_cases = false;
  const CampaignSpec spec = spec_for(OsVariant::kWinNT4, opt);
  const auto back = options_from_spec(spec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cap, opt.cap);
  EXPECT_EQ(back->seed, opt.seed);
  EXPECT_EQ(back->record_cases, opt.record_cases);
  EXPECT_EQ(back->repro_pass, opt.repro_pass);
  EXPECT_EQ(back->shard_cases, opt.shard_cases);
  EXPECT_EQ(back->only_api, opt.only_api);
  EXPECT_EQ(back->group_mask, opt.group_mask);
  // Canonical: converting back yields the identical spec.
  const CampaignSpec again = spec_for(OsVariant::kWinNT4, *back);
  EXPECT_EQ(encode(Message{Hello{kProtocolVersion, again}}),
            encode(Message{Hello{kProtocolVersion, spec}}));
}

TEST(SessionLayer, RejectsNonCanonicalSpecs) {
  const CampaignSpec good = spec_for(OsVariant::kWinNT4, tiny_options());
  ASSERT_TRUE(options_from_spec(good).has_value());

  CampaignSpec s = good;
  s.variant = 99;
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.record_cases = 2;
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.only_api = 1;  // value without has_only_api: two encodings, one meaning
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.has_only_api = 1;
  s.only_api = 99;
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.has_group_filter = 1;
  s.group_mask = 0;
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.group_mask = 7;
  EXPECT_FALSE(options_from_spec(s).has_value());
  s = good;
  s.shard_cases = 0;
  EXPECT_FALSE(options_from_spec(s).has_value());
}

// --- kill matrix -------------------------------------------------------------

TEST(CampaignService, ConcurrentSessionsMatchSoloRunsAtAnyJobs) {
  const TinyWorld world;
  const CampaignOptions opt = tiny_options();
  const OsVariant variants[] = {OsVariant::kWin95, OsVariant::kWinNT4,
                                OsVariant::kLinux};

  std::vector<CampaignResult> solo;
  for (const OsVariant v : variants)
    solo.push_back(core::Campaign::run(v, world.registry, opt));

  for (const unsigned jobs : {1u, 4u}) {
    ServerConfig cfg;
    cfg.jobs = jobs;
    CampaignServer server(world.registry, cfg);
    std::vector<std::unique_ptr<Channel>> channels;
    std::vector<std::unique_ptr<CampaignClient>> clients;
    for (const OsVariant v : variants) {
      channels.push_back(std::make_unique<Channel>());
      server.bind(channels.back()->a());
      clients.push_back(std::make_unique<CampaignClient>(
          channels.back()->b(), world.registry, v, opt));
      ASSERT_TRUE(clients.back()->hello());
    }
    std::vector<CampaignClient*> raw;
    for (auto& c : clients) raw.push_back(c.get());
    pump(server, raw);

    for (std::size_t i = 0; i < clients.size(); ++i) {
      ASSERT_TRUE(clients[i]->complete())
          << "jobs=" << jobs << " client " << i;
      const auto result = clients[i]->result();
      ASSERT_TRUE(result.has_value()) << "jobs=" << jobs << " client " << i;
      expect_same_result(solo[i], *result,
                         "jobs=" + std::to_string(jobs) + " client " +
                             std::to_string(i));
    }
  }
}

TEST(CampaignService, CrashingSessionMatchesSoloRun) {
  // TinyWorld never crashes, so this is the test that streams Catastrophic
  // outcomes (crash detail, tuple, trace tail, repro verdict) over the wire.
  const auto& world = shared_world();
  CampaignOptions opt;
  opt.cap = 30;
  const OsVariant v = OsVariant::kWin98;
  const CampaignResult solo = core::Campaign::run(v, world.registry, opt);

  for (const unsigned jobs : {1u, 4u}) {
    const std::string label = "jobs=" + std::to_string(jobs);
    ServerConfig cfg;
    cfg.jobs = jobs;
    cfg.quota = jobs;
    CampaignServer server(world.registry, cfg);
    Channel ch;
    server.bind(ch.a());
    CampaignClient client(ch.b(), world.registry, v, opt);
    ASSERT_TRUE(client.hello());
    pump(server, {&client});

    ASSERT_TRUE(client.complete()) << label;
    const auto result = client.result();
    ASSERT_TRUE(result.has_value()) << label;
    expect_same_result(solo, *result, label);
    const core::MutStats* gtc = result->find("GetThreadContext");
    ASSERT_NE(gtc, nullptr) << label;
    EXPECT_TRUE(gtc->catastrophic) << label;
    EXPECT_TRUE(gtc->crash_reproducible_single) << label;  // Listing 1
    EXPECT_GT(result->reboots, 0) << label;
  }
}

TEST(CampaignService, SessionLogsAreByteIdenticalToSoloStoreRuns) {
  const TinyWorld world;
  const CampaignOptions opt = tiny_options();
  const OsVariant v = OsVariant::kWinNT4;

  const std::string ref_dir = temp_dir("rpc_ref");
  const std::string ref_path = ref_dir + "/ref.blog";
  const auto ref = store::run_with_store(v, world.registry, opt, ref_path,
                                         /*resume=*/false);
  ASSERT_TRUE(ref.ok) << ref.error;

  for (const unsigned jobs : {1u, 4u}) {
    ServerConfig cfg;
    cfg.jobs = jobs;
    cfg.log_dir = temp_dir("rpc_logs_j" + std::to_string(jobs));
    CampaignServer server(world.registry, cfg);
    Channel ch;
    server.bind(ch.a());
    CampaignClient client(ch.b(), world.registry, v, opt);
    ASSERT_TRUE(client.hello());
    pump(server, {&client});
    ASSERT_TRUE(client.complete()) << "jobs=" << jobs;

    const core::Plan plan = core::plan_for(v, world.registry, opt);
    const store::RunHeader header = store::make_run_header(plan, opt);
    const std::string path = server.log_path(header);
    EXPECT_EQ(slurp(path), slurp(ref_path)) << "jobs=" << jobs;
  }
}

// --- detach / reattach -------------------------------------------------------

TEST(CampaignService, ReattachStreamsOnlyTheMissingShards) {
  const TinyWorld world;
  const CampaignOptions opt = tiny_options();
  const OsVariant v = OsVariant::kLinux;

  ServerConfig cfg;
  cfg.log_dir = temp_dir("rpc_reattach");
  CampaignServer server(world.registry, cfg);
  Channel ch;
  server.bind(ch.a());

  CampaignClient first(ch.b(), world.registry, v, opt);
  ASSERT_TRUE(first.hello());
  server.step();
  ASSERT_TRUE(first.poll());
  ASSERT_TRUE(first.attached());
  const std::size_t total = first.plan().shards.size();
  ASSERT_GE(total, 4u) << "the fixture must produce a multi-shard plan";

  // Let a couple of shards complete, then walk away mid-campaign.
  server.step();
  server.step();
  ASSERT_TRUE(first.poll());
  first.detach();
  server.step();  // server processes the kDetach
  const Session* s = server.session(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state(), SessionState::kDetached);
  const std::size_t done_at_detach = s->done_count();
  EXPECT_GT(done_at_detach, 0u);
  EXPECT_LT(done_at_detach, total);

  // A detached session is parked, not scheduled.
  const std::size_t executed = server.shards_executed();
  server.step();
  EXPECT_EQ(server.shards_executed(), executed);

  CampaignClient second(ch.b(), world.registry, v, opt);
  ASSERT_TRUE(second.hello());
  pump(server, {&second});
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(second.session_id(), 1u);  // the same session, not a new one
  EXPECT_EQ(second.outcomes_received(), total - done_at_detach);

  // The reattached client did not see every shard itself; the log is the
  // source of truth and must match an uninterrupted solo store run.
  EXPECT_FALSE(second.result().has_value());
  const std::string ref_dir = temp_dir("rpc_reattach_ref");
  const auto ref = store::run_with_store(v, world.registry, opt,
                                         ref_dir + "/ref.blog", false);
  ASSERT_TRUE(ref.ok) << ref.error;
  const core::Plan plan = core::plan_for(v, world.registry, opt);
  const store::RunHeader header = store::make_run_header(plan, opt);
  EXPECT_EQ(slurp(server.log_path(header)), slurp(ref_dir + "/ref.blog"));
  const auto loaded =
      store::load_result(world.registry, server.log_path(header));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  expect_same_result(ref.result, loaded.result, "loaded session log");
}

TEST(CampaignService, AFreshServerResumesAPartialSessionLog) {
  const TinyWorld world;
  const CampaignOptions opt = tiny_options();
  const OsVariant v = OsVariant::kWinNT4;
  const std::string log_dir = temp_dir("rpc_cold_resume");

  std::size_t done_first = 0;
  {
    ServerConfig cfg;
    cfg.log_dir = log_dir;
    CampaignServer server(world.registry, cfg);
    Channel ch;
    server.bind(ch.a());
    CampaignClient client(ch.b(), world.registry, v, opt);
    ASSERT_TRUE(client.hello());
    server.step();  // handshake
    server.step();  // one shard
    server.step();  // another
    ASSERT_TRUE(client.poll());
    done_first = server.session(1)->done_count();
    ASSERT_GT(done_first, 0u);
    ASSERT_LT(done_first, client.plan().shards.size());
    // Server dies here; the flushed .blog prefix is all that survives.
  }

  ServerConfig cfg;
  cfg.log_dir = log_dir;
  CampaignServer server(world.registry, cfg);
  Channel ch;
  server.bind(ch.a());
  CampaignClient client(ch.b(), world.registry, v, opt);
  ASSERT_TRUE(client.hello());
  server.step();
  ASSERT_TRUE(client.poll());
  ASSERT_TRUE(client.attached());
  EXPECT_EQ(client.reused(), done_first);
  pump(server, {&client});
  ASSERT_TRUE(client.complete());

  const core::Plan plan = core::plan_for(v, world.registry, opt);
  const store::RunHeader header = store::make_run_header(plan, opt);
  const std::string ref_dir = temp_dir("rpc_cold_resume_ref");
  const auto ref = store::run_with_store(v, world.registry, opt,
                                         ref_dir + "/ref.blog", false);
  ASSERT_TRUE(ref.ok) << ref.error;
  EXPECT_EQ(slurp(server.log_path(header)), slurp(ref_dir + "/ref.blog"));
}

// --- lifecycle edges ---------------------------------------------------------

/// Sends one raw frame and returns the server's (decoded) reply, if any.
std::optional<Message> ask(CampaignServer& server, Channel& ch, Frame frame) {
  ch.b().send(std::move(frame));
  server.step();
  const auto reply = ch.b().try_recv();
  if (!reply) return std::nullopt;
  return decode(*reply);
}

TEST(CampaignService, HelloWithWrongVersionGetsBadVersion) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  Hello h;
  h.protocol_version = 999;
  h.spec = spec_for(OsVariant::kWinNT4, tiny_options());
  const auto reply = ask(server, ch, encode(Message{h}));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(message_type(*reply), MessageType::kError);
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kBadVersion);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(CampaignService, HelloWithBogusSpecGetsMalformed) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  Hello h;
  h.spec = spec_for(OsVariant::kWinNT4, tiny_options());
  h.spec.variant = 77;
  const auto reply = ask(server, ch, encode(Message{h}));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kMalformed);
}

TEST(CampaignService, UndecodableFrameGetsMalformed) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  const auto reply = ask(server, ch, Frame{0xff, 0x00, 0x42});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kMalformed);
}

TEST(CampaignService, UnexpectedV1FrameGetsMalformed) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  // The bytes of a v1 test-request frame for case 0 of tiny_probe: tag 1 is
  // retired, so the frame no longer decodes at all.
  Frame v1{1};
  wire::put_str(v1, "tiny_probe");
  wire::put_u64(v1, 0);
  const auto reply = ask(server, ch, std::move(v1));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kMalformed);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(CampaignService, ServerOnlyFrameFromAClientGetsMalformed) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  const auto reply = ask(server, ch, encode(Message{Complete{}}));
  ASSERT_TRUE(reply.has_value());
  const Error& e = std::get<Error>(*reply);
  EXPECT_EQ(e.code, ErrorCode::kMalformed);
  EXPECT_NE(e.message.find("complete"), std::string::npos) << e.message;
}

TEST(CampaignService, DoubleAttachOfTheSameCampaignIsRefused) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel one;
  Channel two;
  server.bind(one.a());
  server.bind(two.a());
  CampaignClient a(one.b(), world.registry, OsVariant::kWinNT4, tiny_options());
  CampaignClient b(two.b(), world.registry, OsVariant::kWinNT4, tiny_options());
  ASSERT_TRUE(a.hello());
  server.step();
  ASSERT_TRUE(a.poll());
  ASSERT_TRUE(a.attached());
  ASSERT_TRUE(b.hello());
  server.step();
  EXPECT_FALSE(b.poll());  // poll() latches the error
  ASSERT_TRUE(b.error().has_value());
  EXPECT_EQ(b.error()->code, ErrorCode::kAlreadyAttached);
  // The refusal did not disturb the attached client.
  pump(server, {&a});
  EXPECT_TRUE(a.complete());
}

TEST(CampaignService, DetachEdgesAreTypedErrors) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());

  // Unknown session id.
  auto reply = ask(server, ch, encode(Message{Detach{42}}));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kUnknownSession);

  // Detach twice: the second one finds no attached client.
  CampaignClient client(ch.b(), world.registry, OsVariant::kWinNT4,
                        tiny_options());
  ASSERT_TRUE(client.hello());
  server.step();
  ASSERT_TRUE(client.poll());
  const std::uint64_t id = client.session_id();
  client.detach();
  server.step();
  reply = ask(server, ch, encode(Message{Detach{id}}));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<Error>(*reply).code, ErrorCode::kNotAttached);
}

TEST(CampaignService, HelloToASealedCampaignReportsTheLog) {
  const TinyWorld world;
  ServerConfig cfg;
  cfg.log_dir = temp_dir("rpc_sealed");
  CampaignServer server(world.registry, cfg);
  Channel ch;
  server.bind(ch.a());
  CampaignClient first(ch.b(), world.registry, OsVariant::kWinNT4,
                       tiny_options());
  ASSERT_TRUE(first.hello());
  pump(server, {&first});
  ASSERT_TRUE(first.complete());

  // Same server: the sealed session answers.
  CampaignClient again(ch.b(), world.registry, OsVariant::kWinNT4,
                       tiny_options());
  ASSERT_TRUE(again.hello());
  server.step();
  EXPECT_FALSE(again.poll());
  ASSERT_TRUE(again.error().has_value());
  EXPECT_EQ(again.error()->code, ErrorCode::kSessionSealed);
  EXPECT_NE(again.error()->message.find(".blog"), std::string::npos);

  // Fresh server over the same log_dir: the sealed log is recognized
  // without re-running anything.
  CampaignServer reborn(world.registry, cfg);
  Channel ch2;
  reborn.bind(ch2.a());
  CampaignClient cold(ch2.b(), world.registry, OsVariant::kWinNT4,
                      tiny_options());
  ASSERT_TRUE(cold.hello());
  reborn.step();
  EXPECT_FALSE(cold.poll());
  ASSERT_TRUE(cold.error().has_value());
  EXPECT_EQ(cold.error()->code, ErrorCode::kSessionSealed);
  EXPECT_EQ(reborn.shards_executed(), 0u);
}

TEST(CampaignService, SessionTableQuotaIsEnforced) {
  const TinyWorld world;
  ServerConfig cfg;
  cfg.max_sessions = 1;
  CampaignServer server(world.registry, cfg);
  Channel one;
  Channel two;
  server.bind(one.a());
  server.bind(two.a());
  CampaignClient a(one.b(), world.registry, OsVariant::kWinNT4, tiny_options());
  CampaignOptions other = tiny_options();
  other.seed = 99;  // a different campaign, not a reattach
  CampaignClient b(two.b(), world.registry, OsVariant::kWinNT4, other);
  ASSERT_TRUE(a.hello());
  server.step();
  ASSERT_TRUE(b.hello());
  server.step();
  EXPECT_FALSE(b.poll());
  ASSERT_TRUE(b.error().has_value());
  EXPECT_EQ(b.error()->code, ErrorCode::kQuotaExceeded);
  pump(server, {&a});
  EXPECT_TRUE(a.complete());  // the admitted session is unharmed
}

TEST(CampaignService, UnwritableLogDirIsAStoreFailureNotAWedge) {
  const TinyWorld world;
  ServerConfig cfg;
  cfg.log_dir = "/nonexistent_ballista_dir/nested";
  CampaignServer server(world.registry, cfg);
  Channel ch;
  server.bind(ch.a());
  CampaignClient client(ch.b(), world.registry, OsVariant::kWinNT4,
                        tiny_options());
  ASSERT_TRUE(client.hello());
  server.step();
  EXPECT_FALSE(client.poll());
  ASSERT_TRUE(client.error().has_value());
  EXPECT_EQ(client.error()->code, ErrorCode::kStoreFailure);
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_FALSE(server.step());  // quiescent, not spinning
}

// --- fairness and backpressure -----------------------------------------------

TEST(CampaignService, RoundRobinKeepsEqualSessionsWithinOneShard) {
  const TinyWorld world;
  ServerConfig cfg;
  cfg.jobs = 1;  // one shard per step: the strictest interleaving view
  cfg.quota = 1;
  CampaignServer server(world.registry, cfg);
  Channel one;
  Channel two;
  server.bind(one.a());
  server.bind(two.a());
  CampaignOptions opt_b = tiny_options();
  opt_b.seed = 7;  // distinct campaign, identical shape
  CampaignClient a(one.b(), world.registry, OsVariant::kWinNT4, tiny_options());
  CampaignClient b(two.b(), world.registry, OsVariant::kWinNT4, opt_b);
  ASSERT_TRUE(a.hello());
  ASSERT_TRUE(b.hello());
  server.step();  // both handshakes
  ASSERT_TRUE(a.poll());
  ASSERT_TRUE(b.poll());

  const Session* sa = server.session_by_fingerprint(
      store::run_fingerprint(store::make_run_header(
          core::plan_for(OsVariant::kWinNT4, world.registry, tiny_options()),
          tiny_options())));
  const Session* sb = server.session_by_fingerprint(store::run_fingerprint(
      store::make_run_header(
          core::plan_for(OsVariant::kWinNT4, world.registry, opt_b), opt_b)));
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  while (!(sa->all_done() && sb->all_done())) {
    server.step();
    a.poll();
    b.poll();
    const auto gap = static_cast<std::int64_t>(sa->done_count()) -
                     static_cast<std::int64_t>(sb->done_count());
    EXPECT_LE(gap < 0 ? -gap : gap, 1)
        << sa->done_count() << " vs " << sb->done_count();
  }
  a.poll();
  b.poll();
  EXPECT_TRUE(a.complete());
  EXPECT_TRUE(b.complete());
}

TEST(CampaignService, TinyChannelCapacityThrottlesButCompletes) {
  const TinyWorld world;
  ServerConfig cfg;
  cfg.jobs = 4;  // four shards finish per step...
  cfg.quota = 4;
  CampaignServer server(world.registry, cfg);
  Channel ch(2);  // ...into a two-frame inbox: the stream must hit refusal
  server.bind(ch.a());
  CampaignClient client(ch.b(), world.registry, OsVariant::kLinux,
                        tiny_options());
  ASSERT_TRUE(client.hello());
  pump(server, {&client});
  ASSERT_TRUE(client.complete());
  EXPECT_GT(ch.a().refused(), 0u)
      << "capacity 2 must actually exercise the refusal path";
  const auto result = client.result();
  ASSERT_TRUE(result.has_value());
  expect_same_result(
      core::Campaign::run(OsVariant::kLinux, world.registry, tiny_options()),
      *result, "tiny channel");
}

TEST(CampaignService, WireTraceSeesBothDirections) {
  const TinyWorld world;
  CampaignServer server(world.registry);
  Channel ch;
  server.bind(ch.a());
  std::size_t inbound = 0;
  std::size_t outbound = 0;
  server.wire_trace = [&](char dir, const Message& m) {
    (dir == '<' ? inbound : outbound) += 1;
    EXPECT_FALSE(describe(m).empty());
  };
  CampaignClient client(ch.b(), world.registry, OsVariant::kWinNT4,
                        tiny_options());
  ASSERT_TRUE(client.hello());
  pump(server, {&client});
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(inbound, 1u);  // the hello
  // attach + one streamed frame per shard + complete
  EXPECT_EQ(outbound, 2u + client.plan().shards.size());
}

}  // namespace
}  // namespace ballista::rpc
