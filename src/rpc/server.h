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
// Determinism contract: scheduling proceeds in rounds, one per step().  Each
// round drains inbound frames, then collects up to `jobs` runnable (session,
// shard) units round-robin across attached sessions (at most `quota` per
// session), waits until every unit of that batch has run, each on its own
// pooled machine, and finally records/streams them in collection order.
// The server's `jobs` worker threads live as long as the server and do not
// wait for the next step: the same selection that yields a step's batch also
// names the units of the next kLookaheadRounds rounds, and idle workers run
// those ahead.  A unit becomes visible only when a step's batch names it, so
// what a step delivers, and in which order, never depends on timing.  Shard
// outcomes only depend on (variant, spec, shard), never on what ran on other
// machines or when, so every session's merged result and log bytes are
// identical for any jobs value, and identical to a solo in-process run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/sched.h"
#include "rpc/session.h"

namespace ballista::rpc {

struct ServerConfig {
  /// Directory for per-session logs, named by fingerprint
  /// ("session_<fp>.blog").  Empty disables durability (in-memory only).
  std::string log_dir;
  /// Worker threads and pooled machines, kept for the server's lifetime;
  /// also the most units one step's batch holds.  At 1 every unit runs on
  /// the thread that calls step(), and nothing runs ahead.
  unsigned jobs = 1;
  /// Session-table bound: a kHello beyond it gets kQuotaExceeded.
  std::size_t max_sessions = 16;
  /// Fairness bound: shards one session may take per round, in the batch
  /// and in every round the workers run ahead.
  std::uint64_t quota = 2;
};

class CampaignServer {
 public:
  CampaignServer(const core::Registry& registry, ServerConfig cfg = {});
  /// Units still running finish; queued ones are dropped.
  ~CampaignServer();
  // Workers hold `this`.
  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Registers a transport to poll.  The server never owns endpoints; one
  /// endpoint serves one client, and a client may rebind its session to a
  /// different endpoint by re-Helloing over it.
  void bind(Endpoint& transport);

  /// One service round: drain inbound frames, flush stalled outcome streams,
  /// schedule one batch of shards, wait until every unit of it has run,
  /// then record + stream it.  Returns true while anything progressed (a
  /// frame handled, a send un-stalled, a shard run).  A unit's exception is
  /// rethrown from the step whose batch names it.
  bool step();
  /// Steps until quiescent (bounded; a stalled client stops progress, not
  /// the server).  Returns the number of steps that made progress.
  std::size_t run_until_idle(std::size_t max_steps = 1 << 20);

  // --- observability ---------------------------------------------------------
  std::size_t session_count() const noexcept { return sessions_.size(); }
  const Session* session(std::uint64_t id) const;
  const Session* session_by_fingerprint(std::uint64_t fp) const;
  /// Units the steps' batches delivered; units run ahead count only once a
  /// batch names them.
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
  /// Rounds past the current batch whose units idle workers run ahead, so a
  /// worker that finished its part of the batch starts on the next rounds
  /// instead of idling until the batch's slowest unit is done.  A few rounds
  /// keep the workers busy; the bound holds the work run ahead to
  /// kLookaheadRounds * jobs units whatever the quota.
  static constexpr std::size_t kLookaheadRounds = 3;

  /// Sends queued frames for `s` until drained or backpressured.
  bool flush(Session& s);
  bool schedule_round();

  /// One (session, shard) pick of the selection below.
  struct Pick {
    Session* session;
    std::size_t shard;
  };
  /// The round rule, run `rounds` rounds forward from the current round:
  /// each round rings the attached sessions that still have a pending shard,
  /// in id order rotated by the round number, and takes each one's next
  /// pending shard per pass, at most `quota` per session and `jobs` per
  /// round.  Later rounds take every earlier pick as recorded.  The picks
  /// are in collection order; the first `batch` of them are this round's.
  struct Selection {
    std::vector<Pick> picks;
    std::size_t batch = 0;
  };
  Selection select(std::size_t rounds) const;

  /// Bookkeeping of one unit handed to the workers, under mu_.
  struct Unit {
    enum class State : std::uint8_t { kQueued, kRunning, kDone };
    Session* session = nullptr;
    std::size_t shard = 0;
    State state = State::kQueued;
    core::ShardOutcome outcome;
    std::exception_ptr error;
  };
  /// Runs the selection's batch and returns its outcomes in pick order:
  /// inline at jobs 1, else by queueing every pick for the workers, the
  /// batch first, and waiting for the batch's units.
  std::vector<core::ShardOutcome> run_batch(const Selection& sel);
  /// A worker's loop: claims queued units in selection order until stop.
  void run_units(unsigned worker, const std::atomic<bool>& stop);

  const core::Registry& registry_;
  ServerConfig cfg_;
  core::MachinePool pool_;
  std::vector<Endpoint*> transports_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;  // by id
  std::map<std::uint64_t, std::uint64_t> id_by_fingerprint_;
  std::uint64_t next_id_ = 1;
  std::uint64_t round_ = 0;  // rotates the round-robin starting session
  std::size_t shards_executed_ = 0;

  // Unit bookkeeping, shared with the workers: everything below is guarded
  // by mu_.  Workers read only a unit's session's immutable plan and options.
  std::mutex mu_;
  std::condition_variable queued_cv_;  // workers: queue_ grew, or stop
  std::condition_variable done_cv_;    // step(): a unit finished
  std::map<std::pair<std::uint64_t, std::size_t>, Unit> units_;  // (id, shard)
  std::vector<Unit*> queue_;  // the queued units, in selection order
  // Declared last, so it is destroyed first: its destructor joins the
  // workers before the bookkeeping and the sessions they read go away.
  core::WorkerPool workers_;
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
