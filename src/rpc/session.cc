#include "rpc/session.h"

#include <utility>

namespace ballista::rpc {

CampaignSpec spec_for(sim::OsVariant variant,
                      const core::CampaignOptions& opt) {
  CampaignSpec s;
  s.variant = static_cast<std::uint8_t>(variant);
  s.cap = opt.cap;
  s.seed = opt.seed;
  s.has_only_api = opt.only_api.has_value() ? 1 : 0;
  s.only_api =
      opt.only_api ? static_cast<std::uint8_t>(*opt.only_api) : 0;
  s.shard_cases = opt.shard_cases;
  s.has_group_filter = opt.group_mask.has_value() ? 1 : 0;
  s.group_mask = opt.group_mask.value_or(0);
  return s;
}

std::optional<core::CampaignOptions> options_from_spec(const CampaignSpec& s) {
  // A spec must be canonical (flag bytes boolean, absent fields zeroed) and
  // name only variants/apis/groups this build knows, or the session layer
  // could not re-derive the same plan the client fingerprinted.  Case codes
  // and the repro pass are always on, so their bytes have one valid value.
  if (s.variant > static_cast<std::uint8_t>(sim::OsVariant::kLinux))
    return std::nullopt;
  if (s.has_only_api > 1 || s.record_cases != 1 || s.repro_pass != 1 ||
      s.has_group_filter > 1)
    return std::nullopt;
  if (s.has_only_api != 0 &&
      s.only_api > static_cast<std::uint8_t>(core::ApiKind::kCLib))
    return std::nullopt;
  if (s.has_only_api == 0 && s.only_api != 0) return std::nullopt;
  if (s.has_group_filter != 0 &&
      (s.group_mask == 0 || (s.group_mask & ~core::kEveryGroupMask) != 0))
    return std::nullopt;
  if (s.has_group_filter == 0 && s.group_mask != 0) return std::nullopt;
  if (s.shard_cases == 0) return std::nullopt;

  core::CampaignOptions opt;
  opt.cap = s.cap;
  opt.seed = s.seed;
  opt.shard_cases = s.shard_cases;
  if (s.has_only_api != 0)
    opt.only_api = static_cast<core::ApiKind>(s.only_api);
  if (s.has_group_filter != 0) opt.group_mask = s.group_mask;
  return opt;
}

std::string_view session_state_name(SessionState s) noexcept {
  switch (s) {
    case SessionState::kAttached: return "attached";
    case SessionState::kDetached: return "detached";
    case SessionState::kComplete: return "complete";
  }
  return "?";
}

Session::Session(std::uint64_t id, CampaignSpec spec,
                 core::CampaignOptions opt, core::Plan plan,
                 store::RunHeader header)
    : id_(id),
      fingerprint_(store::run_fingerprint(header)),
      spec_(spec),
      opt_(std::move(opt)),
      plan_(std::move(plan)),
      header_(header),
      done_(plan_.shards.size(), false),
      outcomes_(plan_.shards.size()) {}

void Session::adopt_log(std::unique_ptr<store::ResumableLog> log) {
  log_ = std::move(log);
  for (const auto& [index, outcome] : log_->cached()) {
    if (done_.at(index)) continue;
    done_[index] = true;
    ++done_count_;
    outcomes_[index] = outcome;
  }
  if (log_->recovered_complete() && all_done()) state_ = SessionState::kComplete;
}

void Session::attach(Endpoint* out) {
  transport_ = out;
  if (state_ != SessionState::kComplete) state_ = SessionState::kAttached;
}

void Session::detach() {
  transport_ = nullptr;
  // Anything queued but unsent will be reported as already-complete in the
  // next kAttach; dropping it here is what makes reattach stream exactly the
  // missing shards.
  outbox_.clear();
  if (state_ != SessionState::kComplete) state_ = SessionState::kDetached;
}

std::vector<std::uint64_t> Session::completed_indices() const {
  std::vector<std::uint64_t> out;
  out.reserve(done_count_);
  for (std::size_t i = 0; i < done_.size(); ++i)
    if (done_[i]) out.push_back(i);
  return out;
}

std::size_t Session::next_pending(std::size_t from) const noexcept {
  while (from < done_.size() && done_[from]) ++from;
  return from;
}

bool Session::record(core::ShardOutcome outcome) {
  const std::size_t index = outcome.shard_index;
  const bool appended = log_ == nullptr || log_->append_shard(outcome);
  if (!done_.at(index)) {
    done_[index] = true;
    ++done_count_;
  }
  outcomes_[index] = outcome;
  outbox_.push_back(StreamedShard{id_, std::move(outcome)});
  return appended;
}

bool Session::finish() {
  const core::CampaignResult result = merged();
  if (log_ != nullptr && !log_->seal(result)) return false;
  outbox_.push_back(Complete{id_, result.total_cases, result.reboots,
                             result.event_counters});
  state_ = SessionState::kComplete;
  return true;
}

core::CampaignResult Session::merged() const {
  return core::merge_outcomes(plan_, outcomes_);
}

}  // namespace ballista::rpc
