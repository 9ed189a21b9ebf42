// Tests for the harness's wire layer and its Windows CE arrangement: v2
// protocol round trips and tag pins, channel delivery, and the CE file-drop
// client and host loop (§3.2).
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.h"
#include "core/report.h"
#include "rpc/ce_file_drop.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"
#include "tests/test_util.h"

namespace ballista::rpc {
namespace {

using core::CaseCode;
using sim::OsVariant;
using testing::shared_world;

TEST(Protocol, MalformedFramesAreRejected) {
  EXPECT_FALSE(decode({}).has_value());
  EXPECT_FALSE(decode({99}).has_value());          // unknown type
  EXPECT_FALSE(decode({9, 5, 0, 0}).has_value());  // truncated detach
  // Trailing garbage after a valid detach.
  Frame padded = encode(Message{Detach{7}});
  padded.push_back(0);
  EXPECT_FALSE(decode(padded).has_value());
  // Huge declared string length: the error message's u64 length follows
  // type(1) + code(1) + session(8).
  Frame huge = encode(Message{Error{ErrorCode::kMalformed, 0, ""}});
  for (std::size_t i = 10; i < 18; ++i) huge[i] = 0xff;
  EXPECT_FALSE(decode(huge).has_value());
  // An attach declaring more completed shards than the frame holds.
  Frame attach = encode(Message{Attach{1, 2, 3, {0}}});
  attach[1 + 8 + 8 + 8] = 2;  // count follows session, shards, planned
  EXPECT_FALSE(decode(attach).has_value());
  // Out-of-range error code (valid codes start at 1).
  Frame zero = encode(Message{Error{ErrorCode::kMalformed, 0, ""}});
  zero[1] = 0;
  EXPECT_FALSE(decode(zero).has_value());
}

TEST(Protocol, V2TagsAndBytesArePinned) {
  // Message's alternatives no longer start at tag 1, so pin every tag, one
  // full frame and the retired range explicitly.
  EXPECT_EQ(kProtocolVersion, 2u);
  const std::pair<Message, std::uint8_t> tagged[] = {
      {Message{Hello{}}, 7},          {Message{Attach{}}, 8},
      {Message{Detach{}}, 9},         {Message{Error{}}, 10},
      {Message{StreamedShard{}}, 11}, {Message{Complete{}}, 12},
  };
  for (const auto& [m, tag] : tagged) {
    const Frame f = encode(m);
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f[0], tag) << describe(m);
    EXPECT_EQ(static_cast<std::uint8_t>(message_type(m)), tag);
  }
  EXPECT_EQ(encode(Message{Detach{7}}), (Frame{9, 7, 0, 0, 0, 0, 0, 0, 0}));

  // Tags 1-6 (the v1 frames) are rejected whatever follows them: nothing,
  // any v2 payload, or random bytes.
  SplitMix64 rng(0x7a95);
  for (std::uint8_t tag = 1; tag <= 6; ++tag) {
    EXPECT_FALSE(decode({tag}).has_value()) << int{tag};
    for (const auto& [m, v2_tag] : tagged) {
      Frame f = encode(m);
      f[0] = tag;
      EXPECT_FALSE(decode(f).has_value())
          << int{tag} << " over " << describe(m);
    }
    for (int i = 0; i < 64; ++i) {
      Frame f(1 + rng.next_below(48));
      for (auto& b : f) b = static_cast<std::uint8_t>(rng.next());
      f[0] = tag;
      EXPECT_FALSE(decode(f).has_value()) << int{tag};
    }
  }
}

TEST(Protocol, HelloRoundTrip) {
  Hello h;
  h.spec.variant = 2;
  h.spec.cap = 40;
  h.spec.seed = 0x1234;
  h.spec.has_group_filter = 1;
  h.spec.group_mask = 0x5;
  const auto decoded = decode(encode(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(message_type(*decoded), MessageType::kHello);
  const auto& hello = std::get<Hello>(*decoded);
  EXPECT_EQ(hello.protocol_version, kProtocolVersion);
  EXPECT_EQ(hello.spec.variant, 2);
  EXPECT_EQ(hello.spec.cap, 40u);
  EXPECT_EQ(hello.spec.seed, 0x1234u);
  EXPECT_EQ(hello.spec.group_mask, 0x5u);
}

TEST(Protocol, HelloWithForeignVersionStillDecodes) {
  // Version checking is the server's job (it answers kBadVersion); the
  // decoder must hand the frame over instead of dropping it silently.
  Hello h;
  h.protocol_version = 999;
  const auto decoded = decode(encode(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Hello>(*decoded).protocol_version, 999u);
}

TEST(Protocol, AttachRoundTrip) {
  const Message m{Attach{42, 9, 1234, {0, 3, 8}}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& attach = std::get<Attach>(*decoded);
  EXPECT_EQ(attach.session_id, 42u);
  EXPECT_EQ(attach.plan_shards, 9u);
  EXPECT_EQ(attach.total_planned, 1234u);
  EXPECT_EQ(attach.complete, (std::vector<std::uint64_t>{0, 3, 8}));
}

TEST(Protocol, DetachAndErrorRoundTrip) {
  const auto detach = decode(encode(Message{Detach{7}}));
  ASSERT_TRUE(detach.has_value());
  EXPECT_EQ(std::get<Detach>(*detach).session_id, 7u);

  const Message m{Error{ErrorCode::kSessionSealed, 7, "campaign already complete"}};
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  const auto& error = std::get<Error>(*decoded);
  EXPECT_EQ(error.code, ErrorCode::kSessionSealed);
  EXPECT_EQ(error.session_id, 7u);
  EXPECT_EQ(error.message, "campaign already complete");
}

TEST(Protocol, ErrorRejectsUnknownCode) {
  Frame enc = encode(Message{Error{ErrorCode::kMalformed, 0, ""}});
  enc[1] = 200;  // code byte directly follows the type tag
  EXPECT_FALSE(decode(enc).has_value());
}

TEST(Protocol, StreamedShardCarriesTheStoreRecordEncoding) {
  StreamedShard s;
  s.session_id = 3;
  s.outcome.shard_index = 5;
  s.outcome.executed_cases = 17;
  s.outcome.reboots = 1;
  s.outcome.partials.push_back({2, 10, {}});
  auto& stats = s.outcome.partials.back().stats;
  stats.executed = 17;
  stats.aborts = 4;
  stats.catastrophic = true;
  stats.crash_detail = "page fault";
  stats.case_codes = {CaseCode::kAbort, CaseCode::kCatastrophic};
  const auto decoded = decode(encode(Message{s}));
  ASSERT_TRUE(decoded.has_value());
  const auto& streamed = std::get<StreamedShard>(*decoded);
  EXPECT_EQ(streamed.session_id, 3u);
  EXPECT_EQ(streamed.outcome.shard_index, 5u);
  EXPECT_EQ(streamed.outcome.executed_cases, 17u);
  ASSERT_EQ(streamed.outcome.partials.size(), 1u);
  EXPECT_EQ(streamed.outcome.partials[0].stats.aborts, 4u);
  EXPECT_EQ(streamed.outcome.partials[0].stats.crash_detail, "page fault");
}

TEST(Protocol, CompleteRoundTrip) {
  Complete c;
  c.session_id = 11;
  c.total_cases = 4096;
  c.reboots = 3;
  c.counters[trace::EventKind::kSyscallEnter] = 99;
  const auto decoded = decode(encode(Message{c}));
  ASSERT_TRUE(decoded.has_value());
  const auto& complete = std::get<Complete>(*decoded);
  EXPECT_EQ(complete.session_id, 11u);
  EXPECT_EQ(complete.total_cases, 4096u);
  EXPECT_EQ(complete.reboots, 3);
  EXPECT_EQ(complete.counters[trace::EventKind::kSyscallEnter], 99u);
}

TEST(Protocol, DescribeNamesEveryMessageType) {
  const Message samples[] = {
      Message{Hello{}},
      Message{Attach{1, 2, 3, {}}},
      Message{Detach{1}},
      Message{Error{ErrorCode::kMalformed, 0, "x"}},
      Message{StreamedShard{}},
      Message{Complete{}},
  };
  for (const Message& m : samples) {
    const std::string line = describe(m);
    EXPECT_NE(line.find(message_type_name(message_type(m))),
              std::string::npos)
        << line;
  }
}

TEST(Channel, DeliversInOrderBothWays) {
  Channel ch;
  ch.a().send({1, 2, 3});
  ch.a().send({4});
  EXPECT_TRUE(ch.b().has_pending());
  EXPECT_EQ(*ch.b().try_recv(), (Frame{1, 2, 3}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{4}));
  EXPECT_FALSE(ch.b().try_recv().has_value());
  ch.b().send({9});
  EXPECT_EQ(*ch.a().try_recv(), (Frame{9}));
}

TEST(Channel, BoundedInboxRefusesAndCountsWhenFull) {
  Channel ch(2);
  EXPECT_EQ(ch.a().capacity(), 2u);
  EXPECT_TRUE(ch.a().send({1}));
  EXPECT_TRUE(ch.a().send({2}));
  EXPECT_FALSE(ch.a().send({3}));  // peer inbox full: refused, not queued
  EXPECT_FALSE(ch.a().send({4}));
  EXPECT_EQ(ch.a().frames_sent(), 2u);
  EXPECT_EQ(ch.a().refused(), 2u);
  EXPECT_EQ(ch.b().pending(), 2u);
  // Draining one slot re-admits exactly one frame.
  EXPECT_EQ(*ch.b().try_recv(), (Frame{1}));
  EXPECT_TRUE(ch.a().send({5}));
  EXPECT_FALSE(ch.a().send({6}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{2}));
  EXPECT_EQ(*ch.b().try_recv(), (Frame{5}));
  EXPECT_FALSE(ch.b().try_recv().has_value());
}

TEST(Channel, DirectionsAreBoundedIndependently) {
  Channel ch(1);
  EXPECT_TRUE(ch.a().send({1}));
  EXPECT_FALSE(ch.a().send({2}));
  // b -> a is its own queue: a full a -> b direction does not block it.
  EXPECT_TRUE(ch.b().send({9}));
  EXPECT_EQ(*ch.a().try_recv(), (Frame{9}));
}

TEST(CeFileDrop, ResultsTravelThroughTheTargetFilesystem) {
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  ASSERT_TRUE(client.execute("GetTickCount", 0));
  // The result file is on the target.
  auto& fs = target.fs();
  auto node = fs.resolve(fs.parse("/tmp/ballista_result.txt",
                                  sim::FileSystem::root_path()));
  ASSERT_NE(node, nullptr);
  const std::string text(node->data().begin(), node->data().end());
  EXPECT_NE(text.find("GetTickCount 0"), std::string::npos);
}

TEST(CeFileDrop, CrashLeavesNoResultFile) {
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  // Find the Listing 1 case index: run through a few cases of
  // GetThreadContext until the machine dies.
  const core::MuT* mut = world.registry.find("GetThreadContext");
  core::TupleGenerator gen(*mut, 30, 0x8a11157a);
  bool crashed = false;
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    if (!client.execute("GetThreadContext", i)) {
      crashed = true;
      break;
    }
  }
  EXPECT_TRUE(crashed);
  EXPECT_TRUE(target.crashed());
}

TEST(CeFileDrop, FullCampaignReproducesCeCatastrophics) {
  const auto result =
      run_ce_file_drop_campaign(shared_world().registry, /*cap=*/40);
  EXPECT_EQ(result.variant, OsVariant::kWinCE);
  const auto list = core::catastrophic_list(result);
  std::set<std::string> names;
  for (const auto& e : list) names.insert(e.name);
  EXPECT_TRUE(names.count("GetThreadContext"));
  EXPECT_TRUE(names.count("VirtualAlloc"));
  EXPECT_TRUE(names.count("fclose"));
  EXPECT_GT(result.reboots, 10);
}

TEST(CeFileDrop, IsSlowerByOrdersOfMagnitude) {
  // §3.2: each CE case costs seconds of target time.
  const auto& world = shared_world();
  sim::Machine target(OsVariant::kWinCE);
  CeFileDropClient client(target, world.registry, 30, 0x8a11157a);
  const auto t0 = target.ticks();
  ASSERT_TRUE(client.execute("GetTickCount", 0));
  EXPECT_GT(target.ticks() - t0, 5'000u);
}

}  // namespace
}  // namespace ballista::rpc
