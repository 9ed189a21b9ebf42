// Property test: a robustness-testing harness should itself be robust.  The
// wire decoder must never crash or accept garbage silently — for any byte
// string, decode() either returns nullopt or a message that re-encodes to
// the exact same frame.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"

namespace ballista::rpc {
namespace {

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, DecodeNeverCrashesAndRoundTripsWhenItAccepts) {
  SplitMix64 rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.next_below(64);
    Frame frame(len);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    // Bias some frames toward valid-looking types so the accept path is
    // exercised too (the six v2 tags and the six retired v1 tags).
    if (!frame.empty() && iter % 3 == 0)
      frame[0] = static_cast<std::uint8_t>(1 + rng.next_below(12));
    const auto msg = decode(frame);
    if (msg.has_value()) {
      EXPECT_EQ(encode(*msg), frame)
          << "accepted frame must round-trip byte-for-byte";
    }
  }
}

TEST_P(ProtocolFuzz, TruncationsOfValidFramesAreRejectedOrConsistent) {
  SplitMix64 rng(GetParam() ^ 0xabcdef);
  const Message frames[] = {
      Message{Error{ErrorCode::kStoreFailure, rng.next_below(10000),
                    "could not append to session log"}},
      Message{Attach{rng.next_below(100), 9, rng.next_below(10000),
                     {0, rng.next_below(9)}}},
  };
  for (const Message& m : frames) {
    const Frame full = encode(m);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Frame truncated(full.begin(),
                            full.begin() + static_cast<std::ptrdiff_t>(cut));
      const auto msg = decode(truncated);
      if (msg.has_value()) {
        EXPECT_EQ(encode(*msg), truncated);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 42, 0xdeadbeef, 7777));

}  // namespace
}  // namespace ballista::rpc
