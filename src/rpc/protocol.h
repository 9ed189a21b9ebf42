// Wire protocol for the split testing harness.
//
// The paper's harness separates test *generation and reporting* (the Ballista
// server) from test *execution and control* (the client on the system under
// test), originally over ONC RPC — and, for Windows CE, over a serial link
// with results reported through files (§3.2).  This module reproduces that
// architecture with deterministic in-memory transports: length-framed
// messages with explicit little-endian serialization, exactly as they would
// travel over a socket.
//
// Protocol v2 is the campaign-service message set: a session handshake
// (kHello -> kAttach), teardown (kDetach), a structured error model (kError)
// and the streamed shard-outcome frames a CampaignServer emits while a
// session's campaign executes (kStreamedShard ... kComplete).  Tags 1-6
// belonged to the retired v1 request/result and shard frames; they are never
// reused, and decode() rejects them like any unknown tag.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/campaign.h"
#include "core/sched.h"

namespace ballista::rpc {

/// Bumped whenever a frame layout changes or a message type is added; a
/// kHello carrying any other version is refused with kBadVersion rather than
/// mis-parsed.  v1 = the retired request/result + shard frames, v2 = the
/// session/campaign-service set.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Frame tags (the first byte of every frame).  1-6 are retired (v1).
enum class MessageType : std::uint8_t {
  kHello = 7,          // client -> server: open/reattach a campaign session
  kAttach = 8,         // server -> client: session accepted, resume state
  kDetach = 9,         // client -> server: leave; campaign parks, log persists
  kError = 10,         // server -> client: typed refusal, never a wedge
  kStreamedShard = 11, // server -> client: one completed shard outcome
  kComplete = 12,      // server -> client: campaign sealed, merged totals
};

std::string_view message_type_name(MessageType t) noexcept;

/// Everything a CampaignServer needs to re-derive a campaign's plan — and
/// therefore its store fingerprint — on its own side of the wire.  Scheduling
/// knobs (jobs, quotas) are deliberately absent: they belong to the server
/// and never affect results.
struct CampaignSpec {
  std::uint8_t variant = 0;  // sim::OsVariant
  std::uint64_t cap = core::kDefaultCap;
  std::uint64_t seed = 0x8a11157a;
  std::uint8_t has_only_api = 0;
  std::uint8_t only_api = 0;  // core::ApiKind, valid when has_only_api
  /// Always 1: case codes and the repro pass are unconditional.  The bytes
  /// stay so protocol-v2 frames keep their layout.
  std::uint8_t record_cases = 1;
  std::uint8_t repro_pass = 1;
  std::uint64_t shard_cases = 2048;
  std::uint8_t has_group_filter = 0;
  std::uint32_t group_mask = 0;  // valid when has_group_filter
};

/// Opens (or reattaches to) a campaign session.  The server identifies the
/// session by the spec's plan fingerprint, not by any client-chosen id.
struct Hello {
  std::uint32_t protocol_version = kProtocolVersion;
  CampaignSpec spec;
};

/// Handshake accept.  `complete` lists the shard indices the session already
/// holds (from an earlier attachment or a recovered log); only the missing
/// ones will be streamed to this client.
struct Attach {
  std::uint64_t session_id = 0;
  std::uint64_t plan_shards = 0;
  std::uint64_t total_planned = 0;
  std::vector<std::uint64_t> complete;
};

struct Detach {
  std::uint64_t session_id = 0;
};

enum class ErrorCode : std::uint8_t {
  kBadVersion = 1,       // kHello with a protocol version this build lacks
  kMalformed = 2,        // undecodable frame or semantically invalid spec
  kQuotaExceeded = 3,    // session table full: no capacity for a new campaign
  kUnknownSession = 4,   // kDetach names an id the server never allocated
  kAlreadyAttached = 5,  // this fingerprint has a live client attached
  kNotAttached = 6,      // kDetach for a session with no client attached
  kSessionSealed = 7,    // campaign already complete; read its log instead
  kStoreFailure = 8,     // the session's .blog could not be opened/written
};

std::string_view error_code_name(ErrorCode c) noexcept;

/// Typed refusal.  Every invalid client action yields one of these; the
/// server never silently drops a session or wedges.
struct Error {
  ErrorCode code = ErrorCode::kMalformed;
  std::uint64_t session_id = 0;  // 0 when no session is implicated
  std::string message;
};

/// One completed shard outcome streamed to the attached client.  The payload
/// is the store's kShardOutcome record encoding — the wire and the .blog stay
/// one dialect, so what the client receives is exactly what was persisted.
struct StreamedShard {
  std::uint64_t session_id = 0;
  core::ShardOutcome outcome;
};

/// Campaign sealed: merged totals, mirroring the store's completion marker.
struct Complete {
  std::uint64_t session_id = 0;
  std::uint64_t total_cases = 0;
  std::int64_t reboots = 0;
  trace::Counters counters;
};

/// One wire message.  Alternative order mirrors the MessageType tags
/// (index + kHello == tag), which message_type() and the codec rely on.
using Message =
    std::variant<Hello, Attach, Detach, Error, StreamedShard, Complete>;

MessageType message_type(const Message& m) noexcept;

/// Length-framed little-endian encoding.
std::vector<std::uint8_t> encode(const Message& m);
/// Decodes one frame; nullopt on malformed input (robustness matters in a
/// robustness-testing harness).  Accepted frames re-encode byte-identically.
std::optional<Message> decode(const std::vector<std::uint8_t>& frame);

/// One-line human rendering of a decoded frame (the CLI's --wire-trace).
std::string describe(const Message& m);

}  // namespace ballista::rpc
