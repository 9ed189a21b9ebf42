// The campaign service: a long-lived CampaignServer multiplexing many
// concurrent client sessions over one shared MachinePool, and the
// CampaignClient that speaks the v2 session protocol to it.
//
// Reproduces the paper's client/server split (§3.2) at service scale, with
// the paper's roles inverted: here the *clients* ask for campaigns (kHello
// with a CampaignSpec) and the *server* owns the machines, executes shards
// and streams each completed outcome back (kStreamedShard), sealing with
// kComplete.  Outcomes are simultaneously appended to a per-session .blog,
// so a detached client reattaches by fingerprint and receives only the
// shards it missed — server-side resume on the store's machinery.
//
// Determinism contract: scheduling proceeds in rounds.  Each round drains
// inbound frames, then collects up to `jobs` runnable (session, shard) pairs
// round-robin across attached sessions (at most `quota` per session), then
// executes them on the campaign engine's fan-out (core::fan_out) —
// concurrently when the batch holds more than one, each on its own pooled
// machine — and finally records/streams them in collection order.  Shard
// outcomes only depend on (variant, spec, shard), never on what ran on other
// machines, so every session's merged result and log bytes are identical for
// any jobs value, and identical to a solo in-process run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/sched.h"
#include "rpc/session.h"

namespace ballista::rpc {

struct ServerConfig {
  /// Directory for per-session logs, named by fingerprint
  /// ("session_<fp>.blog").  Empty disables durability (in-memory only).
  std::string log_dir;
  /// Parallel execution slots per scheduling round (machines in the pool).
  unsigned jobs = 1;
  /// Session-table bound: a kHello beyond it gets kQuotaExceeded.
  std::size_t max_sessions = 16;
  /// Fairness bound: shards one session may occupy per round.
  std::uint64_t quota = 2;
};

class CampaignServer {
 public:
  CampaignServer(const core::Registry& registry, ServerConfig cfg = {});

  /// Registers a transport to poll.  The server never owns endpoints; one
  /// endpoint serves one client, and a client may rebind its session to a
  /// different endpoint by re-Helloing over it.
  void bind(Endpoint& transport);

  /// One service round: drain inbound frames, flush stalled outcome streams,
  /// schedule + execute + stream one batch of shards.  Returns true while
  /// anything progressed (a frame handled, a send un-stalled, a shard run).
  bool step();
  /// Steps until quiescent (bounded; a stalled client stops progress, not
  /// the server).  Returns the number of steps that made progress.
  std::size_t run_until_idle(std::size_t max_steps = 1 << 20);

  // --- observability ---------------------------------------------------------
  std::size_t session_count() const noexcept { return sessions_.size(); }
  const Session* session(std::uint64_t id) const;
  const Session* session_by_fingerprint(std::uint64_t fp) const;
  std::size_t shards_executed() const noexcept { return shards_executed_; }
  /// The .blog path a header's session would use ("" without a log_dir).
  std::string log_path(const store::RunHeader& header) const;
  /// Decoded-frame hook for the CLI's --wire-trace ('<' inbound from a
  /// client, '>' outbound to one).
  std::function<void(char dir, const Message& m)> wire_trace;

 private:
  void handle(Endpoint& ep, Message m);
  void handle_hello(Endpoint& ep, const Hello& h);
  void handle_detach(Endpoint& ep, const Detach& d);
  void send(Endpoint& ep, const Message& m);
  void send_error(Endpoint& ep, ErrorCode code, std::uint64_t session_id,
                  std::string message);
  /// Sends queued frames for `s` until drained or backpressured.
  bool flush(Session& s);
  bool schedule_round();

  const core::Registry& registry_;
  ServerConfig cfg_;
  core::MachinePool pool_;
  std::vector<Endpoint*> transports_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;  // by id
  std::map<std::uint64_t, std::uint64_t> id_by_fingerprint_;
  std::uint64_t next_id_ = 1;
  std::uint64_t round_ = 0;  // rotates the round-robin starting session
  std::size_t shards_executed_ = 0;
};

/// Client side of the session protocol.  Computes the plan locally (the
/// fingerprint handshake guarantees both sides derived the same one),
/// collects streamed outcomes and can merge them once complete.
class CampaignClient {
 public:
  CampaignClient(Endpoint& endpoint, const core::Registry& registry,
                 sim::OsVariant variant, const core::CampaignOptions& opt);

  /// Sends kHello (initial attach or reattach).  False only when even the
  /// hello frame is refused by backpressure (retry later).
  bool hello();
  /// Drains the inbox.  Returns false once a kError has been received.
  bool poll();
  void detach();

  bool attached() const noexcept { return attach_.has_value(); }
  bool complete() const noexcept { return complete_.has_value(); }
  const std::optional<Error>& error() const noexcept { return error_; }
  std::uint64_t session_id() const;
  const core::Plan& plan() const noexcept { return plan_; }
  /// Shards the server reported already done at attach time (resume state).
  std::size_t reused() const;
  /// Outcomes streamed to this client over its current+past attachments.
  std::size_t outcomes_received() const noexcept { return outcomes_.size(); }

  /// Merged result — available when this client holds every shard (streamed
  /// now or merged from a loaded log is the caller's business; a reattached
  /// client that missed shards gets nullopt and reads the log instead).
  /// Cross-checked against the kComplete totals; mismatch yields nullopt.
  std::optional<core::CampaignResult> result() const;

 private:
  Endpoint& endpoint_;
  sim::OsVariant variant_;
  core::CampaignOptions opt_;
  CampaignSpec spec_;
  core::Plan plan_;
  std::map<std::size_t, core::ShardOutcome> outcomes_;
  std::optional<Attach> attach_;
  std::optional<Complete> complete_;
  std::optional<Error> error_;
};

}  // namespace ballista::rpc
