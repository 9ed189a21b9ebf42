// One client campaign inside the CampaignServer: identity, plan, durable
// log, shard bookkeeping and the outbound frame queue.
//
// A session is created by the first kHello carrying a given campaign spec
// and lives until the server is destroyed; clients come and go (attach,
// detach, reattach) while the session's completed-shard set only grows.  The
// session's identity is the store fingerprint of its run header, so the same
// spec always lands in the same session — and, when the server persists logs,
// in the same .blog file.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/plan.h"
#include "core/sched.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"
#include "store/store.h"

namespace ballista::rpc {

/// The spec a client ships for (variant, opt).  Only fingerprintable knobs
/// travel; scheduling (jobs/quotas) stays server-side.
CampaignSpec spec_for(sim::OsVariant variant, const core::CampaignOptions& opt);

/// Semantic validation + conversion; nullopt when the spec is non-canonical
/// or names an unknown variant/api or a group mask with bits past the
/// registered groups.
std::optional<core::CampaignOptions> options_from_spec(const CampaignSpec& s);

enum class SessionState : std::uint8_t {
  kAttached,  // a client endpoint is bound; shards are being scheduled
  kDetached,  // parked: no endpoint, no scheduling, log persists
  kComplete,  // sealed: every shard done, totals merged and logged
};

std::string_view session_state_name(SessionState s) noexcept;

class Session {
 public:
  Session(std::uint64_t id, CampaignSpec spec, core::CampaignOptions opt,
          core::Plan plan, store::RunHeader header);

  // --- identity --------------------------------------------------------------
  std::uint64_t id() const noexcept { return id_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  const CampaignSpec& spec() const noexcept { return spec_; }
  const core::CampaignOptions& options() const noexcept { return opt_; }
  const core::Plan& plan() const noexcept { return plan_; }
  const store::RunHeader& header() const noexcept { return header_; }
  sim::OsVariant variant() const noexcept { return plan_.variant; }

  // --- durability ------------------------------------------------------------
  /// Binds the session's .blog (already opened at the fingerprint path) and
  /// adopts its recovered shards as complete.  Adopted shards are resume
  /// state: they are reported through kAttach, never re-streamed.
  void adopt_log(std::unique_ptr<store::ResumableLog> log);
  const store::ResumableLog* log() const noexcept { return log_.get(); }

  // --- lifecycle -------------------------------------------------------------
  SessionState state() const noexcept { return state_; }
  Endpoint* transport() const noexcept { return transport_; }
  /// Binds `out` as the attached client (kAttached unless already sealed).
  void attach(Endpoint* out);
  /// Unbinds the client and parks the session.  Outcomes queued but not yet
  /// streamed are dropped from the outbox — the next kAttach reports them in
  /// its completed list instead, so a reattaching client receives exactly
  /// the shards it is missing.
  void detach();

  // --- shard bookkeeping -----------------------------------------------------
  std::size_t shard_count() const noexcept { return done_.size(); }
  bool shard_done(std::size_t index) const { return done_.at(index); }
  std::size_t done_count() const noexcept { return done_count_; }
  bool all_done() const noexcept { return done_count_ == done_.size(); }
  std::vector<std::uint64_t> completed_indices() const;

  /// The first not-yet-done shard index at or after `from`; shard_count()
  /// when there is none.
  std::size_t next_pending(std::size_t from) const noexcept;

  /// Records one executed shard: appends it to the log (when one is bound),
  /// marks it done and queues its kStreamedShard frame.  False on a log
  /// append failure (the outcome is still held in memory).
  bool record(core::ShardOutcome outcome);

  /// Called once all_done(): merges, seals the log and queues the kComplete
  /// frame.  False when the log cannot be sealed.
  bool finish();

  /// Merged result over every completed shard (valid once all_done()).
  core::CampaignResult merged() const;

  /// Outbound frames awaiting a send slot (backpressure may stall them).
  std::deque<Message>& outbox() noexcept { return outbox_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t fingerprint_ = 0;
  CampaignSpec spec_;
  core::CampaignOptions opt_;
  core::Plan plan_;
  store::RunHeader header_;
  std::unique_ptr<store::ResumableLog> log_;

  SessionState state_ = SessionState::kDetached;
  Endpoint* transport_ = nullptr;

  std::vector<bool> done_;
  std::size_t done_count_ = 0;
  std::vector<core::ShardOutcome> outcomes_;
  std::deque<Message> outbox_;
};

}  // namespace ballista::rpc
