#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/execctx.h"
#include "core/executor.h"
#include "core/generator.h"
#include "core/sched.h"
#include "core/workqueue.h"
#include "rpc/channel.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "rpc/session.h"
#include "sim/fault.h"
#include "store/format.h"
#include "store/store.h"

namespace benchrec {

namespace rpc = ballista::rpc;
namespace store = ballista::store;
namespace fs = std::filesystem;

namespace {

using sim::OsVariant;

/// One case in this many is replayed on a side machine to attribute its
/// time to the calls Executor::run_case is made of.
constexpr std::uint64_t kProbeEvery = 97;

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

bool is_exception(core::CaseCode c) {
  return c == core::CaseCode::kAbort || c == core::CaseCode::kRestart ||
         c == core::CaseCode::kCatastrophic;
}

/// At jobs > 1 the engine drains finished outcomes every ~200 us and hands
/// them to the hook back to back; calls closer together than this are one
/// delivery.  At jobs 1 every hook call is its own delivery.
constexpr std::uint64_t kDeliveryNs = 10'000;

/// Gaps between consecutive deliveries, the first measured from `start`.
void append_gaps(std::uint64_t start, const std::vector<std::uint64_t>& at,
                 std::uint64_t merge_ns, std::vector<double>& out) {
  std::uint64_t prev = start;
  std::uint64_t last = start;
  for (std::uint64_t t : at) {
    if (t - last >= merge_ns) {
      out.push_back(ns_to_ms(t - prev));
      prev = t;
    }
    last = t;
  }
}

/// The parts of a repetition that ran one after another.  At jobs 1 the
/// hook fires as each shard finishes, so the gaps between its calls (and
/// the tail after the last) tile the repetition shard by shard; otherwise
/// the parts are the variant campaigns.
void set_parts(Rep& rep, unsigned jobs, const std::vector<std::uint64_t>& at) {
  if (jobs > 1 || at.empty()) {
    rep.segments_s = rep.session_s;
    return;
  }
  double tiled = 0.0;
  for (double g : rep.gaps_ms) {
    rep.segments_s.push_back(g / 1e3);
    tiled += g / 1e3;
  }
  rep.segments_s.push_back(std::max(0.0, rep.wall_s - tiled));
}

/// Times one reboot on the probe machine (every crash-campaign case ends in
/// one; here it also returns the side machine to a clean state).
void timed_reboot(sim::Machine& m, Layers& L, SpanBuf& sb, std::uint32_t parent,
                  std::uint64_t group) {
  const std::uint32_t id = sb.open("Machine::restore(kReboot)", group, parent);
  m.restore(sim::RestoreLevel::kReboot);
  L.reboot_ns.push_back(static_cast<double>(sb.close(id)));
}

/// Replays one case on the side machine `m` three times: once through
/// Executor::run_case, once through the calls run_case is made of (each
/// timed), and once with the MutationHub counting persistence points.
void probe_case(sim::Machine& m, const core::MuT& mut,
                const std::vector<const core::TestValue*>& tuple,
                std::uint64_t index, Layers& L, SpanBuf& sb,
                std::uint32_t parent, std::uint64_t group) {
  core::Executor executor(m);
  const auto case_index = static_cast<std::int64_t>(index);

  std::uint32_t id = sb.open("Executor::run_case", group, parent);
  const core::CaseResult r = executor.run_case(mut, tuple, case_index);
  const auto run_ns = static_cast<double>(sb.close(id));
  L.run_case_ns.push_back(run_ns);
  L.group_ns[core::group_index(mut.group)].push_back(run_ns);
  ++L.probe_cases;
  if (is_exception(core::case_code(r))) ++L.probe_exceptions;
  L.probe_events += r.events;
  timed_reboot(m, L, sb, parent, group);

  id = sb.open("Machine::restore(kCaseReset)", group, parent);
  m.restore(sim::RestoreLevel::kCaseReset);
  L.restore_ns.push_back(static_cast<double>(sb.close(id)));

  id = sb.open("Machine::acquire_process", group, parent);
  std::unique_ptr<sim::SimProcess> proc = m.acquire_process();
  L.acquire_ns.push_back(static_cast<double>(sb.close(id)));

  id = sb.open("TestValue::make", group, parent);
  core::ValueCtx vctx{m, *proc};
  std::vector<core::RawArg> args;
  args.reserve(tuple.size());
  for (const core::TestValue* v : tuple) args.push_back(v->make(vctx));
  L.make_ns.push_back(static_cast<double>(sb.close(id)));

  proc->set_last_error(0);
  proc->set_errno(0);
  id = sb.open("MuT::impl", group, parent);
  {
    core::CallContext ctx(m, *proc, mut, args);
    m.mutations().open_window();
    try {
      m.kernel_enter();
      (void)mut.impl(ctx);
    } catch (const sim::KernelPanic&) {
    } catch (const sim::TaskHang&) {
    } catch (const sim::SimFault&) {
    }
    m.mutations().close_window();
  }
  L.impl_ns.push_back(static_cast<double>(sb.close(id)));

  id = sb.open("Machine::release_process", group, parent);
  m.release_process(std::move(proc));
  L.release_ns.push_back(static_cast<double>(sb.close(id)));
  timed_reboot(m, L, sb, parent, group);

  sim::MutationHub& hub = m.mutations();
  hub.reset_counts();
  hub.set_counting(true);
  executor.run_case(mut, tuple, case_index);
  hub.set_counting(false);
  for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
    L.hub[k] += hub.counts()[k];
  m.restore(sim::RestoreLevel::kReboot);
}

/// Replays the sampled cases of one shard through probe_case.
void probe_shard(sim::Machine& probe, const core::Shard& shard,
                 std::uint64_t cap, std::uint64_t seed, Layers& L, SpanBuf& sb,
                 std::uint32_t parent, std::uint64_t group) {
  for (const core::ShardItem& item : shard.items) {
    if (item.range.count == 0) continue;
    const core::TupleGenerator gen(*item.mut, cap, seed);
    const std::uint64_t end = item.range.first + item.range.count;
    for (std::uint64_t i = item.range.first; i < end; ++i)
      if ((i + item.mut_index) % kProbeEvery == 0)
        probe_case(probe, *item.mut, gen.tuple(i), i, L, sb, parent, group);
  }
}

/// The traced engine: plan order at jobs 1, the engine's own work-stealing
/// queue otherwise, with every MachinePool::checkout and shard call timed
/// and a sample of each shard's cases replayed by probe_case.
template <class Outcome, class RunShard>
std::vector<Outcome> traced_fan_out(const core::Plan& plan, OsVariant variant,
                                    unsigned jobs, std::uint64_t cap,
                                    std::uint64_t seed, std::uint64_t group_base,
                                    const char* shard_call, RunShard run_shard,
                                    bool crash, SpanLog& log, Layers& L) {
  std::vector<Outcome> outcomes(plan.shards.size());
  jobs = std::max(1u, std::min<unsigned>(
                          jobs, static_cast<unsigned>(
                                    std::max<std::size_t>(1, plan.shards.size()))));
  core::MachinePool pool(variant, jobs);
  std::unique_ptr<core::ShardQueue> queue;
  if (jobs > 1) queue = std::make_unique<core::ShardQueue>(plan, jobs);
  std::vector<Layers> per(jobs);
  std::vector<std::vector<std::uint64_t>> done(jobs);
  std::vector<std::exception_ptr> errors(jobs);
  std::size_t in_order = 0;

  const auto work = [&](unsigned w) {
    try {
      SpanBuf sb(&log);
      sim::Machine probe(variant);
      Layers& my = per[w];
      for (;;) {
        const core::Shard* s = nullptr;
        if (queue) {
          s = queue->next(w);
        } else if (in_order < plan.shards.size()) {
          s = &plan.shards[in_order++];
        }
        if (s == nullptr) break;
        const std::uint64_t group = group_base + s->index;
        const std::uint32_t root = sb.open("shard", group);

        std::uint32_t id = sb.open("MachinePool::checkout", group, root);
        sim::Machine& m = pool.checkout(w);
        sb.close(id);

        const std::uint64_t rebuilds0 = m.fs().fixture_rebuilds();
        const std::uint64_t fast0 = m.fs().fixture_fast_restores();
        const std::uint64_t recycled0 = m.processes_recycled();
        const std::uint64_t built0 = m.processes_built();
        id = sb.open(shard_call, group, root);
        outcomes[s->index] = run_shard(m, *s);
        const std::uint64_t shard_ns = sb.close(id);
        if (crash) my.crash_shard_ms.push_back(ns_to_ms(shard_ns));
        my.fixture_rebuilds += m.fs().fixture_rebuilds() - rebuilds0;
        my.fixture_restores += (m.fs().fixture_rebuilds() - rebuilds0) +
                               (m.fs().fixture_fast_restores() - fast0);
        my.procs_recycled += m.processes_recycled() - recycled0;
        my.procs_built += m.processes_built() - built0;
        done[w].push_back(now_ns());

        probe_shard(probe, *s, cap, seed, my, sb, root, group);
        sb.close(root);
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };

  if (jobs == 1)
    work(0);
  else
    run_threads(jobs, work);
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);

  if (queue) L.contended_steals += queue->contended_steals();
  L.machine_rebuilds += pool.machine_rebuilds();
  std::vector<std::uint64_t> all;
  for (auto& d : done) all.insert(all.end(), d.begin(), d.end());
  std::sort(all.begin(), all.end());
  if (all.size() > jobs) L.straggler_s += ns_to_s(all.back() - all[all.size() - jobs]);
  for (Layers& p : per) L.absorb(std::move(p));
  return outcomes;
}

/// Walks every planned case of `plan` with the batched tuple cursor.
void generator_sweep(const core::Plan& plan, std::uint64_t cap,
                     std::uint64_t seed, std::uint64_t group, SpanBuf& sb,
                     Layers& L) {
  const std::uint32_t id = sb.open("TupleGenerator::begin/advance", group);
  core::TupleScratch scratch;
  std::uintptr_t sink = 0;
  std::uint64_t cases = 0;
  for (const core::Shard& s : plan.shards) {
    for (const core::ShardItem& item : s.items) {
      if (item.range.count == 0) continue;
      const core::TupleGenerator gen(*item.mut, cap, seed);
      core::TupleCursor cur = gen.begin(item.range.first, scratch);
      const std::uint64_t end = item.range.first + item.range.count;
      for (std::uint64_t i = item.range.first; i < end;) {
        for (const core::TestValue* tv : cur.values())
          sink ^= reinterpret_cast<std::uintptr_t>(tv);
        ++cases;
        if (++i < end) cur.advance();
      }
    }
  }
  L.gen_ns += static_cast<double>(sb.close(id));
  L.gen_cases += cases + (sink == 1 ? 1 : 0);
}

}  // namespace

// --- workloads ---------------------------------------------------------------

const Workload* find_workload(const std::string& name) {
  // paper7 runs below the paper's cap so that a run times every shard eight
  // or more times; at jobs 4 and in the crash campaign a smaller cap makes
  // the figures depend more on which cases the seed samples.
  static const std::vector<Workload> kWorkloads = {
      {"paper7", Kind::kPaper, 1, 2000,
       {sim::kAllVariants.begin(), sim::kAllVariants.end()}},
      {"paper7_j4", Kind::kPaper, 4, core::kDefaultCap,
       {sim::kAllVariants.begin(), sim::kAllVariants.end()}},
      {"crash7", Kind::kCrash, 1, core::kDefaultCap,
       {sim::kAllVariants.begin(), sim::kAllVariants.end()}},
      {"service4", Kind::kService, 4, core::kDefaultCap,
       {OsVariant::kWinNT4, OsVariant::kWin95, OsVariant::kWin2000,
        OsVariant::kLinux}},
  };
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

void Layers::absorb(Layers&& o) {
  const auto cat = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  gen_ns += o.gen_ns;
  gen_cases += o.gen_cases;
  cat(run_case_ns, o.run_case_ns);
  cat(restore_ns, o.restore_ns);
  cat(acquire_ns, o.acquire_ns);
  cat(make_ns, o.make_ns);
  cat(impl_ns, o.impl_ns);
  cat(release_ns, o.release_ns);
  cat(reboot_ns, o.reboot_ns);
  for (std::size_t g = 0; g < group_ns.size(); ++g) cat(group_ns[g], o.group_ns[g]);
  probe_cases += o.probe_cases;
  probe_exceptions += o.probe_exceptions;
  probe_events += o.probe_events;
  for (std::size_t k = 0; k < hub.size(); ++k) hub[k] += o.hub[k];
  cases += o.cases;
  exceptions += o.exceptions;
  events += o.events;
  fixture_rebuilds += o.fixture_rebuilds;
  fixture_restores += o.fixture_restores;
  procs_recycled += o.procs_recycled;
  procs_built += o.procs_built;
  crash_cases += o.crash_cases;
  crash_points += o.crash_points;
  crash_cuts += o.crash_cuts;
  cat(crash_shard_ms, o.crash_shard_ms);
  plan_s += o.plan_s;
  merge_s += o.merge_s;
  straggler_s += o.straggler_s;
  contended_steals += o.contended_steals;
  machine_rebuilds += o.machine_rebuilds;
  cpu_s += o.cpu_s;
  wall_s += o.wall_s;
  jobs = std::max(jobs, o.jobs);
  reps += o.reps;
  cat(round_ms, o.round_ms);
  rounds += o.rounds;
  round_shards += o.round_shards;
  cat(encode_us, o.encode_us);
  cat(decode_us, o.decode_us);
  cat(poll_us, o.poll_us);
  frames += o.frames;
  frame_bytes += o.frame_bytes;
  cat(append_us, o.append_us);
  cat(reopen_ms, o.reopen_ms);
  appended += o.appended;
  appended_bytes += o.appended_bytes;
  shards_reused += o.shards_reused;
}

Runner::Runner(const harness::World& world, const Workload& wl, Settings s)
    : world_(world), wl_(wl), s_(std::move(s)) {
  for (OsVariant v : wl_.variants) {
    switch (wl_.kind) {
      case Kind::kPaper:
        planned_shards_ +=
            core::plan_for(v, world_.registry, paper_options()).shards.size();
        break;
      case Kind::kCrash:
        planned_shards_ +=
            core::crash_plan_for(v, world_.registry, crash_options())
                .shards.size();
        break;
      case Kind::kService: {
        core::CampaignOptions opt = service_options();
        planned_shards_ += core::plan_for(v, world_.registry, opt).shards.size();
        opt.jobs = wl_.jobs;
        Digest d;
        d.add(core::Campaign::run(v, world_.registry, opt));
        solo_.push_back(d.hex());
        break;
      }
    }
  }
}

core::CampaignOptions Runner::paper_options() const {
  core::CampaignOptions opt;
  opt.cap = s_.cap;
  opt.seed = s_.seed;
  opt.jobs = wl_.jobs;
  return opt;
}

core::CrashOptions Runner::crash_options() const {
  core::CrashOptions opt;
  opt.cap = s_.cap;
  opt.seed = s_.seed;
  opt.jobs = wl_.jobs;
  opt.max_cuts = 16;
  return opt;
}

core::CampaignOptions Runner::service_options() const {
  core::CampaignOptions opt;
  opt.cap = s_.cap;
  opt.seed = s_.seed;
  opt.group_mask = core::kEveryGroupMask;
  return opt;
}

Rep Runner::run() {
  switch (wl_.kind) {
    case Kind::kPaper: return paper(nullptr, nullptr);
    case Kind::kCrash: return crash(nullptr, nullptr);
    case Kind::kService: return service(nullptr, nullptr);
  }
  return {};
}

Rep Runner::run_traced(SpanLog& log, Layers& layers) {
  const double cpu0 = cpu_seconds();
  Rep rep;
  switch (wl_.kind) {
    case Kind::kPaper: rep = paper(&log, &layers); break;
    case Kind::kCrash: rep = crash(&log, &layers); break;
    case Kind::kService: rep = service(&log, &layers); break;
  }
  layers.cpu_s += cpu_seconds() - cpu0;
  layers.wall_s += rep.wall_s;
  layers.jobs = wl_.jobs;
  ++layers.reps;
  return rep;
}

// --- paper campaigns ---------------------------------------------------------

Rep Runner::paper(SpanLog* log, Layers* L) {
  Rep rep;
  Digest digest;
  core::CampaignOptions opt = paper_options();
  std::uint64_t shards_seen = 0;
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(planned_shards_);
  const std::uint64_t t0 = now_ns();

  if (log == nullptr) {
    opt.on_shard_complete = [&arrivals](const core::ShardOutcome&) {
      arrivals.push_back(now_ns());
    };
    for (OsVariant v : wl_.variants) {
      const std::uint64_t start = now_ns();
      const core::CampaignResult r = core::Campaign::run(v, world_.registry, opt);
      rep.session_s.push_back(ns_to_s(now_ns() - start));
      rep.cases += r.total_cases;
      digest.add(r);
    }
    shards_seen = arrivals.size();
  } else {
    static std::uint64_t rep_no = 0;
    ++rep_no;
    SpanBuf sb(log);
    for (std::size_t vi = 0; vi < wl_.variants.size(); ++vi) {
      const OsVariant v = wl_.variants[vi];
      const std::uint64_t group = (rep_no << 40) | (vi << 32);
      const std::uint64_t start = now_ns();
      std::uint32_t id = sb.open("core::plan_for", group);
      const core::Plan plan = core::plan_for(v, world_.registry, opt);
      L->plan_s += ns_to_s(sb.close(id));
      generator_sweep(plan, opt.cap, opt.seed, group, sb, *L);
      std::vector<core::ShardOutcome> outcomes = traced_fan_out<core::ShardOutcome>(
          plan, v, wl_.jobs, opt.cap, opt.seed, group, "core::run_shard",
          [&opt](sim::Machine& m, const core::Shard& s) {
            return core::run_shard(m, s, opt);
          },
          false, *log, *L);
      shards_seen += outcomes.size();
      id = sb.open("core::merge_outcomes", group);
      const core::CampaignResult r = core::merge_outcomes(plan, std::move(outcomes));
      L->merge_s += ns_to_s(sb.close(id));
      rep.session_s.push_back(ns_to_s(now_ns() - start));
      rep.cases += r.total_cases;
      digest.add(r);
      L->cases += r.total_cases;
      L->events += r.event_counters;
      for (const core::MutStats& s : r.stats)
        for (core::CaseCode c : s.case_codes)
          if (is_exception(c)) ++L->exceptions;
    }
  }
  rep.wall_s = ns_to_s(now_ns() - t0);
  if (log == nullptr)
    append_gaps(t0, arrivals, wl_.jobs > 1 ? kDeliveryNs : 0, rep.gaps_ms);
  set_parts(rep, wl_.jobs, arrivals);
  rep.attempted = planned_shards_;
  rep.failed = planned_shards_ - std::min<std::uint64_t>(planned_shards_,
                                                         shards_seen);
  rep.digest = digest.hex();
  return rep;
}

// --- crash campaigns ---------------------------------------------------------

Rep Runner::crash(SpanLog* log, Layers* L) {
  Rep rep;
  Digest digest;
  core::CrashOptions opt = crash_options();
  std::uint64_t shards_seen = 0;
  std::uint64_t no_cut = 0;
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(planned_shards_);
  const std::uint64_t t0 = now_ns();

  const auto tally = [&](const core::CrashCampaignResult& r) {
    for (const core::CrashMutStats& s : r.stats) rep.cases += s.cases_counted;
    rep.cuts += r.total_cuts;
    no_cut += r.no_cut;
    digest.add(r);
  };

  if (log == nullptr) {
    opt.on_shard_complete = [&arrivals](const core::CrashShardOutcome&) {
      arrivals.push_back(now_ns());
    };
    for (OsVariant v : wl_.variants) {
      const std::uint64_t start = now_ns();
      const core::CrashCampaignResult r =
          core::run_crash_engine(v, world_.registry, opt);
      rep.session_s.push_back(ns_to_s(now_ns() - start));
      tally(r);
    }
    shards_seen = arrivals.size();
  } else {
    static std::uint64_t rep_no = 0;
    ++rep_no;
    SpanBuf sb(log);
    for (std::size_t vi = 0; vi < wl_.variants.size(); ++vi) {
      const OsVariant v = wl_.variants[vi];
      const std::uint64_t group = (rep_no << 40) | (vi << 32);
      const std::uint64_t start = now_ns();
      std::uint32_t id = sb.open("core::crash_plan_for", group);
      const core::Plan plan = core::crash_plan_for(v, world_.registry, opt);
      L->plan_s += ns_to_s(sb.close(id));
      generator_sweep(plan, opt.cap, opt.seed, group, sb, *L);
      std::vector<core::CrashShardOutcome> outcomes =
          traced_fan_out<core::CrashShardOutcome>(
              plan, v, wl_.jobs, opt.cap, opt.seed, group,
              "core::run_crash_shard",
              [&opt](sim::Machine& m, const core::Shard& s) {
                return core::run_crash_shard(m, s, opt);
              },
              true, *log, *L);
      shards_seen += outcomes.size();
      id = sb.open("core::merge_crash_outcomes", group);
      const core::CrashCampaignResult r =
          core::merge_crash_outcomes(plan, std::move(outcomes));
      L->merge_s += ns_to_s(sb.close(id));
      rep.session_s.push_back(ns_to_s(now_ns() - start));
      tally(r);
      for (const core::CrashMutStats& s : r.stats) L->crash_cases += s.cases_counted;
      L->crash_points += r.total_points;
      L->crash_cuts += r.total_cuts;
    }
  }
  rep.wall_s = ns_to_s(now_ns() - t0);
  if (log == nullptr)
    append_gaps(t0, arrivals, wl_.jobs > 1 ? kDeliveryNs : 0, rep.gaps_ms);
  set_parts(rep, wl_.jobs, arrivals);
  // A cut the counting pass promised but that never fired is a failed
  // operation, as is a planned shard that never reported.
  rep.attempted = planned_shards_ + rep.cuts;
  rep.failed = no_cut + (planned_shards_ -
                         std::min<std::uint64_t>(planned_shards_, shards_seen));
  rep.digest = digest.hex();
  return rep;
}

// --- the campaign service ----------------------------------------------------

Rep Runner::service(SpanLog* log, Layers* L) {
  Rep rep;
  const bool traced = log != nullptr;
  const std::size_t n = wl_.variants.size();
  const core::CampaignOptions opt = service_options();
  static std::uint64_t rep_no = 0;
  ++rep_no;

  const fs::path dir = fs::path(s_.out_dir) / "service_logs";
  fs::remove_all(dir);
  fs::create_directories(dir);

  rpc::ServerConfig cfg;
  cfg.log_dir = dir.string();
  cfg.jobs = wl_.jobs;
  cfg.quota = wl_.jobs;

  // Server-side wire; in a traced run a relay sits between it and the
  // client so every frame can be decoded, re-encoded and mirrored.
  std::vector<std::unique_ptr<rpc::Channel>> wire, relay;
  std::vector<std::unique_ptr<rpc::CampaignClient>> clients;
  std::vector<core::CampaignOptions> session_opt;
  std::vector<store::RunHeader> headers;
  for (std::size_t i = 0; i < n; ++i) {
    wire.push_back(std::make_unique<rpc::Channel>());
    rpc::Endpoint* ep = &wire.back()->b();
    if (traced) {
      relay.push_back(std::make_unique<rpc::Channel>());
      ep = &relay.back()->b();
    }
    clients.push_back(std::make_unique<rpc::CampaignClient>(
        *ep, world_.registry, wl_.variants[i], opt));
    session_opt.push_back(
        *rpc::options_from_spec(rpc::spec_for(wl_.variants[i], opt)));
    headers.push_back(
        store::make_run_header(clients.back()->plan(), session_opt.back()));
  }

  std::unique_ptr<SpanBuf> sb;
  std::vector<std::unique_ptr<store::CampaignStore>> mirrors(n);
  if (traced) {
    sb = std::make_unique<SpanBuf>(log);
    for (std::size_t i = 0; i < n; ++i) {
      std::string err;
      mirrors[i] = store::CampaignStore::create(
          (dir / ("mirror_" + std::to_string(i) + ".blog")).string(),
          headers[i], &err);
      if (!mirrors[i]) throw std::runtime_error("mirror log: " + err);
    }
  }

  std::uint64_t errors = 0;
  const auto fail = [&errors](const char* what, std::size_t session) {
    if (errors++ < 5)
      std::fprintf(stderr, "bench_record: service session %zu: %s\n", session,
                   what);
  };
  std::vector<bool> errored(n, false);
  std::vector<std::uint64_t> last_arrival(n, 0), done_at(n, 0);
  std::vector<std::size_t> seen(n, 0), before_detach(n, 0);
  std::vector<bool> detached(n, false);
  std::vector<std::string> log_paths(n);
  const std::uint64_t t0 = now_ns();
  std::fill(last_arrival.begin(), last_arrival.end(), t0);

  const auto pump = [&](std::size_t i) {
    while (std::optional<rpc::Frame> f = wire[i]->b().try_recv()) {
      std::uint32_t id = sb->open("rpc::decode", rep_no << 40 | i);
      const std::optional<rpc::Message> m = rpc::decode(*f);
      L->decode_us.push_back(static_cast<double>(sb->close(id)) / 1e3);
      if (m) {
        id = sb->open("rpc::encode", rep_no << 40 | i);
        const std::vector<std::uint8_t> again = rpc::encode(*m);
        L->encode_us.push_back(static_cast<double>(sb->close(id)) / 1e3);
        if (again != *f) fail("frame does not re-encode byte-identically", i);
        ++L->frames;
        L->frame_bytes += f->size();
        if (const auto* s = std::get_if<rpc::StreamedShard>(&*m)) {
          id = sb->open("CampaignStore::append_shard", rep_no << 40 | i);
          if (!mirrors[i]->append_shard(s->outcome)) fail("mirror append failed", i);
          L->append_us.push_back(static_cast<double>(sb->close(id)) / 1e3);
          ++L->appended;
        }
      } else {
        fail("undecodable frame", i);
      }
      relay[i]->a().send(std::move(*f));
    }
    while (std::optional<rpc::Frame> f = relay[i]->a().try_recv())
      wire[i]->b().send(std::move(*f));
  };

  const auto step = [&](rpc::CampaignServer& server) {
    if (!traced) return server.step();
    for (std::size_t i = 0; i < n; ++i) pump(i);  // client frames first
    const std::size_t before = server.shards_executed();
    const std::uint32_t id = sb->open("CampaignServer::step", rep_no << 40);
    const bool progressed = server.step();
    const std::uint64_t ns = sb->close(id);
    if (const std::size_t ran = server.shards_executed() - before; ran > 0) {
      L->round_ms.push_back(ns_to_ms(ns));
      ++L->rounds;
      L->round_shards += ran;
    }
    for (std::size_t i = 0; i < n; ++i) pump(i);
    return progressed;
  };

  const auto poll = [&](std::size_t i) {
    rpc::CampaignClient& c = *clients[i];
    std::uint64_t ns = 0;
    if (traced) {
      const std::uint32_t id = sb->open("CampaignClient::poll", rep_no << 40 | i);
      const bool ok = c.poll();
      ns = sb->close(id);
      if (!ok && !errored[i]) {
        errored[i] = true;
        fail("kError frame received", i);
      }
    } else if (!c.poll() && !errored[i]) {
      errored[i] = true;
      fail("kError frame received", i);
    }
    const std::size_t got = c.outcomes_received();
    if (got > seen[i]) {
      const std::uint64_t now = now_ns();
      rep.gaps_ms.push_back(ns_to_ms(now - last_arrival[i]));
      last_arrival[i] = now;
      seen[i] = got;
      if (traced) L->poll_us.push_back(static_cast<double>(ns) / 1e3);
    }
    if (c.complete() && done_at[i] == 0) done_at[i] = now_ns();
  };

  // Serve until `done(i)` holds for every session; a long run of steps
  // without progress means the service wedged.
  // The server's rounds are deterministic, so the serve loop's iterations
  // (one round, then every client polls) tile each repetition the same way.
  std::vector<std::uint64_t> ticks;
  const auto serve = [&](rpc::CampaignServer& server, auto done) {
    int idle = 0;
    for (;;) {
      const bool progressed = step(server);
      bool all = true;
      for (std::size_t i = 0; i < n; ++i) {
        poll(i);
        if (!done(i)) all = false;
      }
      ticks.push_back(now_ns());
      if (all || std::find(errored.begin(), errored.end(), true) != errored.end())
        return;
      idle = progressed ? 0 : idle + 1;
      if (idle > 10000) {
        fail("service stalled", n);
        return;
      }
    }
  };

  {  // Phase 1: every client detaches after half of its shards.
    rpc::CampaignServer server(world_.registry, cfg);
    for (auto& w : wire) server.bind(w->a());
    for (std::size_t i = 0; i < n; ++i) log_paths[i] = server.log_path(headers[i]);
    for (auto& c : clients) c->hello();
    if (traced)
      for (std::size_t i = 0; i < n; ++i) pump(i);
    serve(server, [&](std::size_t i) {
      rpc::CampaignClient& c = *clients[i];
      if (!detached[i] && !c.complete() &&
          2 * c.outcomes_received() >= c.plan().shards.size()) {
        before_detach[i] = c.outcomes_received();
        c.detach();
        detached[i] = true;
      }
      return detached[i] || c.complete();
    });
    step(server);  // hand the last detach frames to their sessions
  }

  if (traced) {  // What a cold restart's log recovery reads, per session.
    for (std::size_t i = 0; i < n; ++i) {
      if (!detached[i]) continue;
      const fs::path copy = dir / ("reopen_" + std::to_string(i) + ".blog");
      fs::copy_file(log_paths[i], copy, fs::copy_options::overwrite_existing);
      const std::uint32_t id = sb->open("ResumableLog::open", rep_no << 40 | i);
      store::ResumableLog::Opened opened = store::ResumableLog::open(
          copy.string(), clients[i]->plan(), headers[i],
          store::ResumableLog::Mode::kResume);
      L->reopen_ms.push_back(ns_to_ms(sb->close(id)));
      if (!opened.log || opened.log->cached().size() != before_detach[i])
        fail("recovered log disagrees with the shards streamed", i);
      else
        L->shards_reused += opened.log->cached().size();
    }
  }

  {  // Phase 2: a restarted server recovers the logs; clients re-hello.
    rpc::CampaignServer server(world_.registry, cfg);
    for (auto& w : wire) server.bind(w->a());
    for (std::size_t i = 0; i < n; ++i)
      if (detached[i]) clients[i]->hello();
    if (traced)
      for (std::size_t i = 0; i < n; ++i) pump(i);
    serve(server, [&](std::size_t i) { return clients[i]->complete(); });
  }
  rep.wall_s = ns_to_s(now_ns() - t0);
  std::uint64_t prev = t0;
  for (std::uint64_t t : ticks) {
    rep.segments_s.push_back(ns_to_s(t - prev));
    prev = t;
  }
  rep.segments_s.push_back(ns_to_s(t0) + rep.wall_s - ns_to_s(prev));

  Digest digest;
  std::uint64_t received = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rpc::CampaignClient& c = *clients[i];
    received += c.outcomes_received();
    // The restarted server must report exactly the shards streamed before
    // the detach as already done.
    if (detached[i] && c.reused() != before_detach[i])
      fail("reattach reused a different shard count", i);
    std::optional<core::CampaignResult> r;
    if (traced) {
      const std::uint32_t id = sb->open("CampaignClient::result", rep_no << 40 | i);
      r = c.result();
      L->merge_s += ns_to_s(sb->close(id));
    } else {
      r = c.result();
    }
    rep.session_s.push_back(done_at[i] == 0 ? rep.wall_s : ns_to_s(done_at[i] - t0));
    if (!r) {
      fail("no merged result", i);
      continue;
    }
    rep.cases += r->total_cases;
    digest.add(*r);
    Digest solo;
    solo.add(*r);
    if (i < solo_.size() && solo.hex() != solo_[i])
      fail("digest differs from the solo in-process run", i);
    if (traced) {
      L->cases += r->total_cases;
      L->events += r->event_counters;
      for (const core::MutStats& s : r->stats)
        for (core::CaseCode c : s.case_codes)
          if (is_exception(c)) ++L->exceptions;
    }
  }

  if (traced) {
    for (std::size_t i = 0; i < n; ++i) {
      mirrors[i].reset();
      const fs::path p = dir / ("mirror_" + std::to_string(i) + ".blog");
      L->appended_bytes += fs::file_size(p);
    }
    // Plan time of the sessions' specs (the server and every client plan),
    // then the generator and executor layers over the sessions' cases,
    // outside the served repetition's clock.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t group = rep_no << 40 | i << 32;
      const std::uint32_t id = sb->open("core::plan_for", group);
      const core::Plan plan =
          core::plan_for(wl_.variants[i], world_.registry, session_opt[i]);
      L->plan_s += ns_to_s(sb->close(id));
      generator_sweep(plan, opt.cap, opt.seed, group, *sb, *L);
      sim::Machine probe(wl_.variants[i]);
      for (const core::Shard& shard : plan.shards)
        probe_shard(probe, shard, opt.cap, opt.seed, *L, *sb, 0, group | shard.index);
    }
    std::vector<std::uint64_t> ends(done_at.begin(), done_at.end());
    std::sort(ends.begin(), ends.end());
    if (!ends.empty() && ends.front() > 0)
      L->straggler_s += ns_to_s(ends.back() - ends.front());
  }
  fs::remove_all(dir);

  rep.attempted = planned_shards_ + n;  // every shard, plus one check per session
  rep.failed = errors + (planned_shards_ - std::min<std::uint64_t>(
                                               planned_shards_, received));
  rep.digest = digest.hex();
  return rep;
}

}  // namespace benchrec
