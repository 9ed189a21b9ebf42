#include "rpc/protocol.h"

#include <cstdio>
#include <type_traits>

#include "common/wire.h"
#include "sim/personality.h"
#include "store/store.h"

namespace ballista::rpc {

// Serialization is built from the shared wire primitives (common/wire.h) so
// the RPC frames and the persistent store's records stay one dialect: LE
// integers, u64-length-prefixed strings, CaseCode bytes.  The kStreamedShard
// payload goes one step further and *is* the store's kShardOutcome record
// encoding (store/store.h codecs).

using wire::put_str;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

// Message alternative index + kFirstTag == frame tag.
constexpr std::size_t kFirstTag = static_cast<std::size_t>(MessageType::kHello);
static_assert(std::is_same_v<std::variant_alternative_t<0, Message>, Hello>);
static_assert(std::is_same_v<std::variant_alternative_t<5, Message>, Complete>);
static_assert(std::variant_size_v<Message> == 6 &&
              static_cast<std::size_t>(MessageType::kComplete) == kFirstTag + 5);

void put_counters(std::vector<std::uint8_t>& out, const trace::Counters& c) {
  for (std::uint64_t v : c.n) put_u64(out, v);
  for (std::uint64_t v : c.probe) put_u64(out, v);
}

void put_spec(std::vector<std::uint8_t>& out, const CampaignSpec& s) {
  put_u8(out, s.variant);
  put_u64(out, s.cap);
  put_u64(out, s.seed);
  put_u8(out, s.has_only_api);
  put_u8(out, s.only_api);
  put_u8(out, s.record_cases);
  put_u8(out, s.repro_pass);
  put_u64(out, s.shard_cases);
  put_u8(out, s.has_group_filter);
  put_u32(out, s.group_mask);
}

bool read_counters(wire::Reader& r, trace::Counters& c) {
  for (std::size_t i = 0; i < trace::kEventKindCount; ++i) {
    const auto v = r.u64();
    if (!v) return false;
    c.n[i] = *v;
  }
  for (std::size_t i = 0; i < trace::kProbeResultCount; ++i) {
    const auto v = r.u64();
    if (!v) return false;
    c.probe[i] = *v;
  }
  return true;
}

/// Structural decode only: every field present, nothing more.  Semantic
/// validation (variant/api/group ranges) is the session layer's job, so the
/// server can answer a well-framed-but-nonsensical spec with a typed kError
/// instead of silently dropping the frame.
bool read_spec(wire::Reader& r, CampaignSpec& s) {
  const auto variant = r.u8();
  const auto cap = r.u64();
  const auto seed = r.u64();
  const auto has_api = r.u8();
  const auto api = r.u8();
  const auto record_cases = r.u8();
  const auto repro = r.u8();
  const auto shard_cases = r.u64();
  const auto has_filter = r.u8();
  const auto mask = r.u32();
  if (!variant || !cap || !seed || !has_api || !api || !record_cases ||
      !repro || !shard_cases || !has_filter || !mask)
    return false;
  s = {*variant, *cap,  *seed,        *has_api,    *api,
       *record_cases,  *repro, *shard_cases, *has_filter, *mask};
  return true;
}

}  // namespace

std::string_view message_type_name(MessageType t) noexcept {
  switch (t) {
    case MessageType::kHello: return "hello";
    case MessageType::kAttach: return "attach";
    case MessageType::kDetach: return "detach";
    case MessageType::kError: return "error";
    case MessageType::kStreamedShard: return "streamed-shard";
    case MessageType::kComplete: return "complete";
  }
  return "?";
}

std::string_view error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kQuotaExceeded: return "quota_exceeded";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kAlreadyAttached: return "already_attached";
    case ErrorCode::kNotAttached: return "not_attached";
    case ErrorCode::kSessionSealed: return "session_sealed";
    case ErrorCode::kStoreFailure: return "store_failure";
  }
  return "?";
}

MessageType message_type(const Message& m) noexcept {
  return static_cast<MessageType>(m.index() + kFirstTag);
}

std::vector<std::uint8_t> encode(const Message& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(message_type(m)));
  std::visit(
      overloaded{
          [&](const Hello& h) {
            put_u32(out, h.protocol_version);
            put_spec(out, h.spec);
          },
          [&](const Attach& a) {
            put_u64(out, a.session_id);
            put_u64(out, a.plan_shards);
            put_u64(out, a.total_planned);
            put_u64(out, a.complete.size());
            for (std::uint64_t s : a.complete) put_u64(out, s);
          },
          [&](const Detach& d) { put_u64(out, d.session_id); },
          [&](const Error& e) {
            put_u8(out, static_cast<std::uint8_t>(e.code));
            put_u64(out, e.session_id);
            put_str(out, e.message);
          },
          [&](const StreamedShard& s) {
            put_u64(out, s.session_id);
            const auto payload = store::encode_shard_outcome(s.outcome);
            out.insert(out.end(), payload.begin(), payload.end());
          },
          [&](const Complete& c) {
            put_u64(out, c.session_id);
            put_u64(out, c.total_cases);
            wire::put_i64(out, c.reboots);
            put_counters(out, c.counters);
          },
      },
      m);
  return out;
}

std::optional<Message> decode(const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) return std::nullopt;
  wire::Reader r(frame, 1);

  std::optional<Message> m;
  switch (frame[0]) {
    case 7: {
      const auto version = r.u32();
      if (!version) return std::nullopt;
      Hello h;
      h.protocol_version = *version;
      if (!read_spec(r, h.spec)) return std::nullopt;
      m = std::move(h);
      break;
    }
    case 8: {
      const auto session = r.u64();
      const auto shards = r.u64();
      const auto planned = r.u64();
      const auto n = r.u64();
      if (!session || !shards || !planned || !n || *n > r.remaining() / 8)
        return std::nullopt;
      Attach a;
      a.session_id = *session;
      a.plan_shards = *shards;
      a.total_planned = *planned;
      a.complete.reserve(static_cast<std::size_t>(*n));
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto s = r.u64();
        if (!s) return std::nullopt;
        a.complete.push_back(*s);
      }
      m = std::move(a);
      break;
    }
    case 9: {
      const auto session = r.u64();
      if (!session) return std::nullopt;
      m = Detach{*session};
      break;
    }
    case 10: {
      const auto code = r.u8();
      const auto session = r.u64();
      if (!code || *code < 1 ||
          *code > static_cast<std::uint8_t>(ErrorCode::kStoreFailure))
        return std::nullopt;
      auto text = r.str();
      if (!session || !text) return std::nullopt;
      m = Error{static_cast<ErrorCode>(*code), *session, std::move(*text)};
      break;
    }
    case 11: {
      const auto session = r.u64();
      if (!session) return std::nullopt;
      StreamedShard s;
      s.session_id = *session;
      // The rest of the frame is one store kShardOutcome record; the store
      // codec enforces full consumption and strict canonical layout itself.
      if (!store::decode_shard_outcome(frame.data() + r.pos,
                                       frame.size() - r.pos, s.outcome))
        return std::nullopt;
      r.pos = frame.size();
      m = std::move(s);
      break;
    }
    case 12: {
      const auto session = r.u64();
      const auto cases = r.u64();
      const auto reboots = r.i64();
      if (!session || !cases || !reboots) return std::nullopt;
      Complete c;
      c.session_id = *session;
      c.total_cases = *cases;
      c.reboots = *reboots;
      if (!read_counters(r, c.counters)) return std::nullopt;
      m = std::move(c);
      break;
    }
    default:
      return std::nullopt;
  }
  if (r.pos != frame.size()) return std::nullopt;  // trailing garbage
  return m;
}

namespace {

std::string os_name(std::uint8_t variant) {
  if (variant > static_cast<std::uint8_t>(sim::OsVariant::kLinux))
    return "os#" + std::to_string(variant);
  return std::string(
      sim::variant_name(static_cast<sim::OsVariant>(variant)));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string describe(const Message& m) {
  std::string out(message_type_name(message_type(m)));
  std::visit(
      overloaded{
          [&](const Hello& h) {
            out += " v" + std::to_string(h.protocol_version) + " os=" +
                   os_name(h.spec.variant) + " cap=" +
                   std::to_string(h.spec.cap) + " seed=" + hex(h.spec.seed);
            if (h.spec.has_only_api != 0)
              out += " api=" + std::to_string(h.spec.only_api);
            if (h.spec.has_group_filter != 0)
              out += " groups=" + hex(h.spec.group_mask);
          },
          [&](const Attach& a) {
            out += " session=" + std::to_string(a.session_id) + " shards=" +
                   std::to_string(a.plan_shards) + " planned=" +
                   std::to_string(a.total_planned) + " reused=" +
                   std::to_string(a.complete.size());
          },
          [&](const Detach& d) {
            out += " session=" + std::to_string(d.session_id);
          },
          [&](const Error& e) {
            out += " code=" + std::string(error_code_name(e.code));
            if (e.session_id != 0)
              out += " session=" + std::to_string(e.session_id);
            if (!e.message.empty()) out += " \"" + e.message + "\"";
          },
          [&](const StreamedShard& s) {
            out += " session=" + std::to_string(s.session_id) + " shard=" +
                   std::to_string(s.outcome.shard_index) + " cases=" +
                   std::to_string(s.outcome.executed_cases) + " reboots=" +
                   std::to_string(s.outcome.reboots);
          },
          [&](const Complete& c) {
            out += " session=" + std::to_string(c.session_id) + " cases=" +
                   std::to_string(c.total_cases) + " reboots=" +
                   std::to_string(c.reboots);
          },
      },
      m);
  return out;
}

}  // namespace ballista::rpc
