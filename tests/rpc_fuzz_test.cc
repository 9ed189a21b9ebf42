// Adversarial robustness of the v2 wire codec, mirroring store_fuzz_test:
// take one valid frame of every message type, then feed the decoder every
// truncation and every single-bit corruption of each.  The decoder must
// return nullopt or a message whose re-encoding is byte-identical to the
// mutated input — never crash, never over-read (asan is the witness), never
// accept a frame it cannot reproduce.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rpc/channel.h"
#include "rpc/protocol.h"

namespace ballista::rpc {
namespace {

std::vector<Message> corpus() {
  std::vector<Message> frames;
  Hello hello;
  hello.spec.variant = 3;
  hello.spec.cap = 40;
  hello.spec.seed = 0x8a11157a;
  hello.spec.has_only_api = 1;
  hello.spec.only_api = 2;
  hello.spec.has_group_filter = 1;
  hello.spec.group_mask = 0x15;
  frames.push_back(Message{hello});

  frames.push_back(Message{Attach{3, 12, 4096, {0, 2, 5, 11}}});
  frames.push_back(Message{Detach{3}});
  frames.push_back(Message{
      Error{ErrorCode::kSessionSealed, 3, "campaign already complete"}});

  // A streamed shard with the full outcome shape: multiple MuT partials,
  // per-case codes, a crash with detail/tuple text and a trace tail — the
  // richest (and most bounds-check-hungry) payload the wire carries.
  StreamedShard streamed;
  streamed.session_id = 3;
  streamed.outcome.shard_index = 5;
  streamed.outcome.executed_cases = 21;
  streamed.outcome.reboots = 2;
  streamed.outcome.partials.push_back({0, 0, {}});
  {
    auto& stats = streamed.outcome.partials.back().stats;
    stats.planned = 12;
    stats.executed = 12;
    stats.passes = 9;
    stats.aborts = 3;
    stats.case_codes.assign(12, core::CaseCode::kPassWithError);
    stats.event_counts[trace::EventKind::kSyscallEnter] = 24;
  }
  streamed.outcome.partials.push_back({1, 12, {}});
  {
    auto& stats = streamed.outcome.partials.back().stats;
    stats.planned = 12;
    stats.executed = 9;
    stats.catastrophic = true;
    stats.crash_case = 8;
    stats.crash_detail = "page fault in kernel context";
    stats.crash_tuple = "(NULL, -1)";
    stats.crash_reproducible_single = true;
    stats.event_counts[trace::EventKind::kPanic] = 1;
  }
  frames.push_back(Message{streamed});

  Complete complete;
  complete.session_id = 3;
  complete.total_cases = 4096;
  complete.reboots = 7;
  complete.counters[trace::EventKind::kSyscallEnter] = 8192;
  frames.push_back(Message{complete});

  EXPECT_EQ(frames.size(), std::variant_size_v<Message>);
  return frames;
}

std::string label(const Message& m) {
  return std::string(message_type_name(message_type(m)));
}

TEST(RpcFuzz, CorpusCoversEveryMessageTypeAndRoundTrips) {
  for (const Message& m : corpus()) {
    const Frame frame = encode(m);
    const auto decoded = decode(frame);
    ASSERT_TRUE(decoded.has_value()) << label(m);
    EXPECT_EQ(message_type(*decoded), message_type(m)) << label(m);
    EXPECT_EQ(encode(*decoded), frame) << label(m);
  }
}

TEST(RpcFuzz, EveryTruncationIsRejectedOrCanonical) {
  for (const Message& m : corpus()) {
    const Frame full = encode(m);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Frame truncated(full.begin(),
                            full.begin() + static_cast<std::ptrdiff_t>(cut));
      const auto msg = decode(truncated);
      if (msg.has_value()) {
        EXPECT_EQ(encode(*msg), truncated)
            << label(m) << " truncated to " << cut << " bytes";
      }
    }
  }
}

TEST(RpcFuzz, EverySingleBitFlipIsRejectedOrCanonical) {
  for (const Message& m : corpus()) {
    const Frame full = encode(m);
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Frame flipped = full;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        const auto msg = decode(flipped);
        if (msg.has_value()) {
          EXPECT_EQ(encode(*msg), flipped)
              << label(m) << " bit " << bit << " of byte " << byte;
        }
      }
    }
  }
}

TEST(RpcFuzz, FrameTailGarbageIsRejected) {
  for (const Message& m : corpus()) {
    Frame padded = encode(m);
    padded.push_back(0x00);
    EXPECT_FALSE(decode(padded).has_value()) << label(m);
  }
}

}  // namespace
}  // namespace ballista::rpc
