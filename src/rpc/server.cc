#include "rpc/server.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "store/format.h"

namespace ballista::rpc {

namespace {

// A campaign's variant travels per-session; the pool's construction variant
// is only the first checkout's default and is immediately overridden.
constexpr sim::OsVariant kPoolSeedVariant = static_cast<sim::OsVariant>(0);

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

/// Runs one (session, shard) unit on `worker`'s pooled machine.
core::ShardOutcome run_unit(core::MachinePool& pool, unsigned worker,
                            const Session& s, std::size_t shard) {
  return core::run_shard(pool.checkout(worker, s.variant()),
                         s.plan().shards.at(shard), s.options());
}

}  // namespace

CampaignServer::CampaignServer(const core::Registry& registry, ServerConfig cfg)
    : registry_(registry),
      cfg_(cfg),
      pool_(kPoolSeedVariant, std::max(cfg.jobs, 1u)),
      workers_(std::max(cfg.jobs, 1u)) {
  if (cfg_.jobs == 0) cfg_.jobs = 1;
  if (cfg_.quota == 0) cfg_.quota = 1;
  if (workers_.size() > 1)
    workers_.start([this](unsigned w, const std::atomic<bool>& stop) {
      run_units(w, stop);
    });
}

CampaignServer::~CampaignServer() {
  // The workers block on queued_cv_, whose predicate reads the pool's stop
  // flag: raise it under mu_, then wake them.  workers_' destructor waits
  // for the units still running.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    workers_.request_stop();
  }
  queued_cv_.notify_all();
}

void CampaignServer::bind(Endpoint& transport) {
  if (std::find(transports_.begin(), transports_.end(), &transport) ==
      transports_.end())
    transports_.push_back(&transport);
}

const Session* CampaignServer::session(std::uint64_t id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const Session* CampaignServer::session_by_fingerprint(std::uint64_t fp) const {
  const auto it = id_by_fingerprint_.find(fp);
  return it == id_by_fingerprint_.end() ? nullptr : session(it->second);
}

std::string CampaignServer::log_path(const store::RunHeader& header) const {
  if (cfg_.log_dir.empty()) return "";
  return cfg_.log_dir + "/session_" +
         fingerprint_hex(store::run_fingerprint(header)) + ".blog";
}

void CampaignServer::send(Endpoint& ep, const Message& m) {
  // Best-effort: direct sends carry refusals to clients that may not even
  // have a session; a frame refused by backpressure here is simply dropped
  // (the Endpoint counts it).  Session traffic goes through flush(), which
  // never drops.
  if (ep.send(encode(m)) && wire_trace) wire_trace('>', m);
}

void CampaignServer::send_error(Endpoint& ep, ErrorCode code,
                                std::uint64_t session_id, std::string message) {
  send(ep, Message{Error{code, session_id, std::move(message)}});
}

bool CampaignServer::flush(Session& s) {
  Endpoint* ep = s.transport();
  if (ep == nullptr) return false;
  bool sent_any = false;
  while (!s.outbox().empty()) {
    if (!ep->send(encode(s.outbox().front()))) break;  // retry next step
    if (wire_trace) wire_trace('>', s.outbox().front());
    s.outbox().pop_front();
    sent_any = true;
  }
  return sent_any;
}

void CampaignServer::handle(Endpoint& ep, Message m) {
  if (wire_trace) wire_trace('<', m);
  switch (message_type(m)) {
    case MessageType::kHello:
      handle_hello(ep, std::get<Hello>(m));
      return;
    case MessageType::kDetach:
      handle_detach(ep, std::get<Detach>(m));
      return;
    default:
      send_error(ep, ErrorCode::kMalformed, 0,
                 std::string("unexpected frame: ") +
                     std::string(message_type_name(message_type(m))));
      return;
  }
}

void CampaignServer::handle_hello(Endpoint& ep, const Hello& h) {
  if (h.protocol_version != kProtocolVersion) {
    send_error(ep, ErrorCode::kBadVersion, 0,
               "protocol version " + std::to_string(h.protocol_version) +
                   " unsupported (this server speaks " +
                   std::to_string(kProtocolVersion) + ")");
    return;
  }
  const std::optional<core::CampaignOptions> opt = options_from_spec(h.spec);
  if (!opt) {
    send_error(ep, ErrorCode::kMalformed, 0,
               "hello carries a non-canonical or unknown campaign spec");
    return;
  }
  const auto variant = static_cast<sim::OsVariant>(h.spec.variant);
  core::Plan plan = core::plan_for(variant, registry_, *opt);
  const store::RunHeader header = store::make_run_header(plan, *opt);
  const std::uint64_t fp = store::run_fingerprint(header);

  if (const auto it = id_by_fingerprint_.find(fp);
      it != id_by_fingerprint_.end()) {
    Session& s = *sessions_.at(it->second);
    switch (s.state()) {
      case SessionState::kComplete:
        send_error(ep, ErrorCode::kSessionSealed, s.id(),
                   "campaign already complete" +
                       (s.log() ? "; load " + s.log()->path() : std::string()));
        return;
      case SessionState::kAttached:
        send_error(ep, ErrorCode::kAlreadyAttached, s.id(),
                   "a client is already attached to this campaign");
        return;
      case SessionState::kDetached: {
        s.attach(&ep);
        s.outbox().push_back(Attach{s.id(), header.plan_shards,
                                    header.total_planned,
                                    s.completed_indices()});
        flush(s);
        return;
      }
    }
    return;
  }

  if (sessions_.size() >= cfg_.max_sessions) {
    send_error(ep, ErrorCode::kQuotaExceeded, 0,
               "session table full (" + std::to_string(cfg_.max_sessions) +
                   " campaigns)");
    return;
  }

  const std::uint64_t id = next_id_++;
  auto s = std::make_unique<Session>(id, h.spec, *opt, std::move(plan), header);

  if (!cfg_.log_dir.empty()) {
    store::ResumableLog::Opened opened = store::ResumableLog::open(
        log_path(header), s->plan(), header,
        store::ResumableLog::Mode::kCreateOrResume);
    if (!opened.log) {
      send_error(ep, ErrorCode::kStoreFailure, 0, std::move(opened.error));
      return;
    }
    s->adopt_log(std::move(opened.log));
  }

  if (s->state() == SessionState::kComplete) {
    // The log on disk already covered the whole campaign.  Register the
    // sealed session (it answers future hellos consistently) and point the
    // client at the log instead of replaying shards.
    send_error(ep, ErrorCode::kSessionSealed, id,
               "campaign already complete; load " + s->log()->path());
  } else {
    s->attach(&ep);
    s->outbox().push_back(Attach{id, header.plan_shards, header.total_planned,
                                 s->completed_indices()});
  }
  id_by_fingerprint_.emplace(s->fingerprint(), id);
  Session& reg = *(sessions_.emplace(id, std::move(s)).first->second);
  flush(reg);
}

void CampaignServer::handle_detach(Endpoint& ep, const Detach& d) {
  const auto it = sessions_.find(d.session_id);
  if (it == sessions_.end()) {
    send_error(ep, ErrorCode::kUnknownSession, d.session_id,
               "no such session");
    return;
  }
  Session& s = *it->second;
  if (s.transport() == nullptr) {
    send_error(ep, ErrorCode::kNotAttached, s.id(),
               "session has no attached client");
    return;
  }
  s.detach();
}

CampaignServer::Selection CampaignServer::select(std::size_t rounds) const {
  // Each lane's cursor only moves forward: every shard before it is done or
  // picked in an earlier round, which is what "pending" means in a round
  // that takes the earlier picks as recorded.
  struct Lane {
    Session* session;
    std::size_t cursor;
  };
  std::vector<Lane> lanes;
  for (const auto& [id, s] : sessions_)
    if (s->state() == SessionState::kAttached && !s->all_done())
      lanes.push_back({s.get(), 0});

  Selection sel;
  std::vector<Lane*> ring;
  std::vector<std::uint64_t> taken;
  for (std::size_t r = 0; r < rounds; ++r) {
    // Candidates: lanes with a pending shard, visited in id order rotated by
    // the round counter, so long-lived sessions cannot starve newcomers (nor
    // vice versa) and the interleaving is deterministic.
    ring.clear();
    for (Lane& l : lanes) {
      l.cursor = l.session->next_pending(l.cursor);
      if (l.cursor < l.session->shard_count()) ring.push_back(&l);
    }
    if (ring.empty()) break;
    std::rotate(ring.begin(),
                ring.begin() + static_cast<std::ptrdiff_t>(
                                   (round_ + r) % ring.size()),
                ring.end());

    // Collect up to `jobs` picks, one per session per pass, at most `quota`
    // per session.
    const std::size_t first = sel.picks.size();
    taken.assign(ring.size(), 0);
    bool any_taken = true;
    while (sel.picks.size() - first < cfg_.jobs && any_taken) {
      any_taken = false;
      for (std::size_t i = 0;
           i < ring.size() && sel.picks.size() - first < cfg_.jobs; ++i) {
        Lane& l = *ring[i];
        if (taken[i] >= cfg_.quota) continue;
        l.cursor = l.session->next_pending(l.cursor);
        if (l.cursor == l.session->shard_count()) continue;
        sel.picks.push_back({l.session, l.cursor++});
        ++taken[i];
        any_taken = true;
      }
    }
    if (r == 0) sel.batch = sel.picks.size();
  }
  return sel;
}

std::vector<core::ShardOutcome> CampaignServer::run_batch(
    const Selection& sel) {
  std::vector<core::ShardOutcome> out(sel.batch);
  if (workers_.size() == 1) {
    for (std::size_t i = 0; i < sel.batch; ++i)
      out[i] = run_unit(pool_, 0, *sel.picks[i].session, sel.picks[i].shard);
    return out;
  }

  // Re-queue in selection order: the batch first, then the rounds ahead.  A
  // unit already running or done is kept and reused; every queued one is
  // dropped first, so one the selection no longer names (its session
  // detached, say) is gone.
  std::unique_lock<std::mutex> lock(mu_);
  queue_.clear();
  std::erase_if(units_, [](const auto& kv) {
    return kv.second.state == Unit::State::kQueued;
  });
  std::vector<Unit*> batch;
  batch.reserve(sel.batch);
  for (const Pick& p : sel.picks) {
    const auto [it, fresh] = units_.try_emplace({p.session->id(), p.shard});
    Unit& u = it->second;
    if (fresh) {
      u.session = p.session;
      u.shard = p.shard;
      queue_.push_back(&u);
    }
    if (batch.size() < sel.batch) batch.push_back(&u);
  }
  if (!queue_.empty()) queued_cv_.notify_all();

  done_cv_.wait(lock, [&] {
    return std::all_of(batch.begin(), batch.end(), [](const Unit* u) {
      return u->state == Unit::State::kDone;
    });
  });
  // WorkerPool::run's rethrow contract: every unit of the batch has
  // finished, the first failure in collection order is rethrown, and the
  // whole batch is run again by a later step that names it.
  std::exception_ptr error;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->error && !error) error = batch[i]->error;
    out[i] = std::move(batch[i]->outcome);
    units_.erase({batch[i]->session->id(), batch[i]->shard});
  }
  lock.unlock();
  if (error) std::rethrow_exception(error);
  return out;
}

void CampaignServer::run_units(unsigned worker,
                               const std::atomic<bool>& stop) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queued_cv_.wait(lock, [&] {
      return stop.load(std::memory_order_relaxed) || !queue_.empty();
    });
    if (stop.load(std::memory_order_relaxed)) return;
    Unit& u = *queue_.front();
    queue_.erase(queue_.begin());
    u.state = Unit::State::kRunning;
    const Session& s = *u.session;
    const std::size_t shard = u.shard;
    lock.unlock();
    // A running unit is never erased and its outcome is read only once it
    // is done, so the shard runs outside the lock.
    try {
      u.outcome = run_unit(pool_, worker, s, shard);
    } catch (...) {
      u.error = std::current_exception();
    }
    lock.lock();
    u.state = Unit::State::kDone;
    done_cv_.notify_one();
  }
}

bool CampaignServer::schedule_round() {
  const Selection sel =
      select(workers_.size() > 1 ? 1 + kLookaheadRounds : 1);
  if (sel.batch != 0) ++round_;
  // Shard outcomes depend only on (variant, options, shard) — checkout()
  // hands over a fully reset (or freshly built, on variant change) machine —
  // so which worker ran a unit, and when, cannot influence any result.
  std::vector<core::ShardOutcome> outcomes = run_batch(sel);
  if (sel.batch == 0) return false;
  shards_executed_ += sel.batch;

  // Record, stream and (maybe) seal in collection order — the same order a
  // jobs=1 server would have produced, which is what keeps every session's
  // log bytes independent of the jobs setting.
  for (std::size_t i = 0; i < sel.batch; ++i) {
    Session& s = *sel.picks[i].session;
    if (s.state() != SessionState::kAttached) continue;  // detached mid-batch
    if (!s.record(std::move(outcomes[i]))) {
      Endpoint* ep = s.transport();
      s.detach();
      if (ep != nullptr)
        send_error(*ep, ErrorCode::kStoreFailure, s.id(),
                   "could not append to " + s.log()->path());
      continue;
    }
    if (s.all_done() && !s.finish()) {
      Endpoint* ep = s.transport();
      s.detach();
      if (ep != nullptr)
        send_error(*ep, ErrorCode::kStoreFailure, s.id(),
                   "could not seal " + s.log()->path());
    }
  }
  return true;
}

bool CampaignServer::step() {
  bool progressed = false;
  for (Endpoint* ep : transports_) {
    while (const std::optional<Frame> f = ep->try_recv()) {
      progressed = true;
      if (std::optional<Message> m = decode(*f))
        handle(*ep, std::move(*m));
      else
        send_error(*ep, ErrorCode::kMalformed, 0, "undecodable frame");
    }
  }
  for (auto& [id, s] : sessions_)
    if (flush(*s)) progressed = true;
  if (schedule_round()) progressed = true;
  for (auto& [id, s] : sessions_)
    if (flush(*s)) progressed = true;
  return progressed;
}

std::size_t CampaignServer::run_until_idle(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && step()) ++steps;
  return steps;
}

// --- client ------------------------------------------------------------------

CampaignClient::CampaignClient(Endpoint& endpoint,
                               const core::Registry& registry,
                               sim::OsVariant variant,
                               const core::CampaignOptions& opt)
    : endpoint_(endpoint),
      variant_(variant),
      opt_(opt),
      spec_(spec_for(variant, opt)),
      plan_(core::plan_for(variant, registry, opt)) {}

bool CampaignClient::hello() {
  return endpoint_.send(encode(Message{Hello{kProtocolVersion, spec_}}));
}

bool CampaignClient::poll() {
  while (const std::optional<Frame> f = endpoint_.try_recv()) {
    std::optional<Message> msg = decode(*f);
    if (!msg) continue;  // a robustness harness tolerates line noise
    if (const auto* a = std::get_if<Attach>(&*msg)) {
      attach_ = *a;
    } else if (auto* s = std::get_if<StreamedShard>(&*msg)) {
      outcomes_[s->outcome.shard_index] = std::move(s->outcome);
    } else if (const auto* c = std::get_if<Complete>(&*msg)) {
      complete_ = *c;
    } else if (const auto* e = std::get_if<Error>(&*msg)) {
      error_ = *e;
      attach_.reset();
    }
  }
  return !error_.has_value();
}

void CampaignClient::detach() {
  if (!attach_) return;
  endpoint_.send(encode(Message{Detach{attach_->session_id}}));
  attach_.reset();
}

std::uint64_t CampaignClient::session_id() const {
  if (attach_) return attach_->session_id;
  if (complete_) return complete_->session_id;
  return 0;
}

std::size_t CampaignClient::reused() const {
  return attach_ ? attach_->complete.size() : 0;
}

std::optional<core::CampaignResult> CampaignClient::result() const {
  if (!complete_) return std::nullopt;
  if (outcomes_.size() != plan_.shards.size()) return std::nullopt;
  std::vector<core::ShardOutcome> all;
  all.reserve(outcomes_.size());
  for (const auto& [index, outcome] : outcomes_) all.push_back(outcome);
  core::CampaignResult merged = core::merge_outcomes(plan_, std::move(all));
  // Cross-check against the server's sealed totals: a divergence means the
  // stream and the merge disagree, and neither should be trusted.
  if (merged.total_cases != complete_->total_cases ||
      merged.reboots != complete_->reboots ||
      merged.event_counters != complete_->counters)
    return std::nullopt;
  return merged;
}

}  // namespace ballista::rpc
