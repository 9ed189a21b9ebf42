#include <algorithm>
#include <array>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/ballista.h"
#include "core/diff.h"
#include "harness/world.h"
#include "rpc/server.h"
#include "store/format.h"
#include "store/store.h"
#include "tools/cli_args.h"

namespace {

using namespace ballista;
using namespace ballista::cli;

core::ApiKind sys_kind_for(sim::OsVariant v) {
  return v == sim::OsVariant::kLinux ? core::ApiKind::kPosixSys
                                     : core::ApiKind::kWin32Sys;
}

int cmd_list_groups(const harness::World& world, const Args& a) {
  const char* api_names[] = {"win32", "posix", "clib"};
  std::cout << "id  token        group                     api    default  "
               "crash  MuTs\n";
  for (const core::GroupDescriptor& d : core::kGroupTable) {
    std::size_t muts = 0;
    for (const auto& m : world.registry.muts()) {
      if (m.group != d.id) continue;
      if (a.os && !m.supported_on(*a.os)) continue;
      ++muts;
    }
    std::cout << std::left << std::setw(4)
              << static_cast<unsigned>(core::group_index(d.id))
              << std::setw(13) << d.token << std::setw(26) << d.name
              << std::setw(7) << api_names[static_cast<unsigned>(d.api)]
              << std::setw(9) << (d.in_default_campaign ? "yes" : "no")
              << std::setw(7) << (d.crash_default ? "yes" : "no") << muts
              << "\n";
    std::cout << "      pools: " << d.pools << "\n";
    std::cout << "      dispatch: " << d.dispatch << "\n";
    // Per-variant MuT counts: where the group's surface shrinks (Win95's
    // missing calls, the CE subset, win32-vs-posix flavors) shows up here.
    std::cout << "      muts:";
    for (sim::OsVariant v : sim::kAllVariants) {
      std::size_t n = 0;
      for (const auto& m : world.registry.muts())
        if (m.group == d.id && m.supported_on(v)) ++n;
      std::cout << " " << os_token(v) << "=" << n;
    }
    std::cout << "\n";
    std::cout << "      crash-campaign: "
              << (d.crash_default ? "default member" : "opt-in via --groups")
              << "\n";
  }
  std::cout << std::right << "-- " << core::kGroupCount << " groups";
  if (a.os) std::cout << " (MuT counts for " << sim::variant_name(*a.os) << ")";
  std::cout << "\n";
  return 0;
}

std::vector<sim::OsVariant> os_list(const Args& a) {
  if (a.os) return {*a.os};
  return {sim::kAllVariants.begin(), sim::kAllVariants.end()};
}

int cmd_list_muts(const harness::World& world, const Args& a) {
  const sim::OsVariant v = a.os.value_or(sim::OsVariant::kWinNT4);
  int n = 0;
  for (const core::MuT* m : world.registry.for_variant(v)) {
    if (a.api) {
      const core::ApiKind want =
          *a.api == core::ApiKind::kWin32Sys ? sys_kind_for(v) : *a.api;
      if (m->api != want) continue;
    }
    std::cout << m->name << "  [" << core::group_name(m->group) << "]  "
              << m->params.size() << " params";
    if (m->hazard_on(v) != core::CrashStyle::kNone)
      std::cout << "  HAZARD"
                << (m->hazard_on(v) == core::CrashStyle::kDeferred ? "*" : "");
    std::cout << "\n";
    ++n;
  }
  std::cout << "-- " << n << " modules under test on " << sim::variant_name(v)
            << "\n";
  return 0;
}

int cmd_list_types(const harness::World& world) {
  for (const auto& t : world.types.types()) {
    std::cout << t->name();
    if (t->parent() != nullptr) std::cout << " : " << t->parent()->name();
    std::cout << "  (" << t->value_count() << " values)\n";
    for (const core::TestValue* v : t->values())
      std::cout << "    " << (v->exceptional ? "! " : "  ") << v->name
                << "\n";
  }
  std::cout << "-- " << world.types.type_count() << " types, "
            << world.types.total_values() << " test values\n";
  return 0;
}

void print_observability(const core::CampaignResult& r, const Args& a) {
  if (a.event_counters)
    std::cout << sim::variant_name(r.variant) << " events: "
              << trace::counters_json(r.event_counters) << "\n";
  if (!a.trace_events) return;
  for (const core::MutStats& s : r.stats) {
    if (!s.catastrophic || s.crash_trace.empty()) continue;
    std::cout << sim::variant_name(r.variant) << " / " << s.mut->name
              << " crash chain (" << s.crash_detail << "):\n";
    std::vector<trace::TraceEvent> tail = s.crash_trace;
    if (tail.size() > *a.trace_events)
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(*a.trace_events));
    std::cout << trace::render_tail(tail);
  }
}

void print_crash_summary(std::ostream& os,
                         const core::CrashCampaignResult& r) {
  os << sim::variant_name(r.variant) << " crash enumeration: "
     << r.stats.size() << " MuTs, " << r.total_points << " persistence "
     << "points, " << r.total_cuts << " cuts (" << r.consistent
     << " consistent, " << r.inconsistent << " inconsistent, " << r.no_cut
     << " no-cut), " << r.reboots << " reboot(s)\n";
  os << "  points by kind:";
  std::array<std::uint64_t, sim::kMutationKindCount> kinds{};
  for (const core::CrashMutStats& s : r.stats)
    for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
      kinds[k] += s.point_counts[k];
  for (std::size_t k = 0; k < sim::kMutationKindCount; ++k)
    if (kinds[k] != 0)
      os << " " << sim::mutation_kind_name(static_cast<sim::MutationKind>(k))
         << "=" << kinds[k];
  os << "\n";
  for (const core::CrashMutStats& s : r.stats)
    for (const core::CutRecord& f : s.findings)
      os << "  " << core::crash_verdict_name(f.verdict) << ": " << s.mut->name
         << " case " << f.case_index << " cut " << f.cut_at
         << (f.detail.empty() ? "" : "  (" + f.detail + ")") << "\n";
}

/// The campaign options every campaign command takes from its flags.
template <class Options>
Options campaign_options(const Args& a) {
  Options opt;
  opt.cap = a.cap;
  opt.seed = a.seed;
  opt.jobs = a.jobs;
  opt.shard_cases = a.shard_cases;
  return opt;
}

/// Runs one campaign per selected OS, through the store when --store or
/// --resume names a log.  Every campaign command shares it, so all take the
/// common flags alike; `tune(opt, v)` adds a command's own.  nullopt once a
/// store error is reported.
template <class Options, class Result, class Tune>
std::optional<std::vector<Result>> run_variants(
    const harness::World& world, const Args& a,
    Result (*engine)(sim::OsVariant, const core::Registry&, const Options&),
    const Tune& tune) {
  std::vector<Result> results;
  for (sim::OsVariant v : os_list(a)) {
    Options opt = campaign_options<Options>(a);
    tune(opt, v);
    if (a.store.empty() && a.resume.empty()) {
      results.push_back(engine(v, world.registry, opt));
      continue;
    }
    const bool resume = !a.resume.empty();
    const std::string& path = resume ? a.resume : a.store;
    auto run = store::run_with_store(v, world.registry, opt, path, resume);
    if (!run.ok) {
      std::cerr << run.error << "\n";
      return std::nullopt;
    }
    std::cout << path << ": " << run.shards_reused
              << " shard(s) replayed from the log, " << run.shards_executed
              << " executed\n";
    results.push_back(std::move(run.result));
  }
  return results;
}

int cmd_run_crash(const harness::World& world, const Args& a) {
  const auto results = run_variants(
      world, a, core::run_crash_engine,
      [&](core::CrashOptions& opt, sim::OsVariant) {
        opt.max_cuts = *a.crash_points;
        if (a.groups) opt.group_mask = *a.groups;
      });
  if (!results) return 1;
  for (const auto& r : *results) print_crash_summary(std::cout, r);
  if (!a.baseline.empty()) {
    const store::CrashStoreRun base =
        store::load_crash_result(world.registry, a.baseline);
    if (!base.ok) {
      std::cerr << base.error << "\n";
      return 1;
    }
    const std::string d =
        core::diff_crash_results(base.result, results->front());
    if (!d.empty()) {
      std::cerr << "regression gate: crash run drifted from baseline "
                << a.baseline << ": " << d << "\n";
      return 3;
    }
    std::cout << "crash run identical to baseline " << a.baseline << "\n";
  }
  return 0;
}

int cmd_run(const harness::World& world, const Args& a) {
  if (!a.store.empty() && !a.resume.empty()) {
    std::cerr << "--store and --resume are mutually exclusive\n";
    return 2;
  }
  const bool uses_store =
      !a.store.empty() || !a.resume.empty() || !a.baseline.empty();
  if (uses_store && !a.os) {
    std::cerr << "--store/--resume/--baseline need a single --os "
                 "(a campaign log holds one OS variant)\n";
    return 2;
  }
  if (a.command == kRunCrash) return cmd_run_crash(world, a);
  const auto results = run_variants(
      world, a, core::Campaign::run,
      [&](core::CampaignOptions& opt, sim::OsVariant v) {
        // A list equal to the default-campaign groups is no filter, so `run`
        // and `run --groups <defaults>` write byte-identical logs (same
        // RunHeader, no group-filter tail).
        if (a.groups != core::kDefaultCampaignGroupMask)
          opt.group_mask = a.groups;
        if (a.api)
          opt.only_api =
              *a.api == core::ApiKind::kWin32Sys ? sys_kind_for(v) : *a.api;
      });
  if (!results) return 1;
  core::print_table1(std::cout, *results);
  for (const auto& r : *results) print_observability(r, a);
  // Each CSV is written once per run: one header, then every variant's rows.
  std::ofstream mut_csv, value_csv;
  if (!a.mut_csv.empty()) mut_csv.open(a.mut_csv);
  if (!a.value_csv.empty()) value_csv.open(a.value_csv);
  for (const auto& r : *results) {
    const bool first = &r == &results->front();
    if (!a.mut_csv.empty()) core::write_mut_csv(mut_csv, r, first);
    if (a.analyze || !a.value_csv.empty()) {
      const auto analysis = core::analyze_values(r, a.cap, a.seed);
      if (a.analyze) {
        std::cout << "\n" << sim::variant_name(r.variant) << "\n";
        core::print_value_analysis(std::cout, analysis);
      }
      if (!a.value_csv.empty())
        core::write_value_csv(value_csv, r.variant, analysis, first);
    }
  }
  if (!a.baseline.empty()) {
    const store::StoreRun base =
        store::load_result(world.registry, a.baseline);
    if (!base.ok) {
      std::cerr << base.error << "\n";
      return 1;
    }
    const core::CampaignDiff d =
        core::diff_campaigns(base.result, results->front());
    core::print_diff(std::cout, d);
    if (!d.identical()) {
      std::cerr << "regression gate: run drifted from baseline " << a.baseline
                << "\n";
      return 3;
    }
  }
  return 0;
}

/// Whether the log at `path` is a crash-enumeration log (nullopt when the
/// header is unreadable — the load drivers will produce the real error).
std::optional<bool> log_is_crash(const std::string& path) {
  const store::StoreContents c = store::read_store_file(path);
  if (c.status == store::ReadStatus::kBadHeader) return std::nullopt;
  return c.header.crash_mode != 0;
}

int cmd_diff(const harness::World& world, const Args& a) {
  const std::optional<bool> base_crash = log_is_crash(a.positional[0]);
  const std::optional<bool> next_crash = log_is_crash(a.positional[1]);
  if (base_crash && next_crash && *base_crash != *next_crash) {
    std::cerr << "cannot diff a crash-enumeration log against a robustness "
                 "log\n";
    return 2;
  }
  if (base_crash.value_or(false)) {
    const store::CrashStoreRun base =
        store::load_crash_result(world.registry, a.positional[0]);
    if (!base.ok) {
      std::cerr << base.error << "\n";
      return 2;
    }
    const store::CrashStoreRun next =
        store::load_crash_result(world.registry, a.positional[1]);
    if (!next.ok) {
      std::cerr << next.error << "\n";
      return 2;
    }
    const std::string d = core::diff_crash_results(base.result, next.result);
    if (d.empty()) {
      std::cout << "identical crash campaigns\n";
      return 0;
    }
    std::cout << d << "\n";
    return 1;
  }
  const store::StoreRun base =
      store::load_result(world.registry, a.positional[0]);
  if (!base.ok) {
    std::cerr << base.error << "\n";
    return 2;
  }
  const store::StoreRun next =
      store::load_result(world.registry, a.positional[1]);
  if (!next.ok) {
    std::cerr << next.error << "\n";
    return 2;
  }
  const core::CampaignDiff d = core::diff_campaigns(base.result, next.result);
  core::print_diff(std::cout, d);
  return d.identical() ? 0 : 1;
}

// Summarizes a sealed campaign log: variant, case volume, a CRASH-severity
// histogram over case codes, and the worst-failing MuTs.  Pure reader — the
// log is decoded by the same store::load_result path `diff` and `--baseline`
// use, so a log any of them accepts is one `stats` accepts.
int cmd_stats(const harness::World& world, const Args& a) {
  if (log_is_crash(a.positional[0]).value_or(false)) {
    const store::CrashStoreRun run =
        store::load_crash_result(world.registry, a.positional[0]);
    if (!run.ok) {
      std::cerr << run.error << "\n";
      return 2;
    }
    std::cout << a.positional[0] << ": ";
    print_crash_summary(std::cout, run.result);
    return 0;
  }
  const store::StoreRun run = store::load_result(world.registry, a.positional[0]);
  if (!run.ok) {
    std::cerr << run.error << "\n";
    return 2;
  }
  const core::CampaignResult& r = run.result;

  std::uint64_t cases = 0, pass = 0, abort = 0, restart = 0, silent = 0,
                hindering = 0, catastrophic = 0;
  for (const core::MutStats& s : r.stats) {
    cases += s.executed;
    pass += s.passes;
    abort += s.aborts;
    restart += s.restarts;
    silent += s.silent_candidates;
    hindering += s.hindering;
    if (s.catastrophic) ++catastrophic;
  }
  std::cout << a.positional[0] << ": " << sim::variant_name(r.variant) << ", "
            << r.stats.size() << " MuTs, " << cases << " cases, "
            << r.reboots << " reboot(s)\n";

  const auto pct = [&](std::uint64_t n) {
    return cases == 0 ? 0.0 : 100.0 * static_cast<double>(n) / cases;
  };
  std::cout << "CRASH severity histogram (cases; Catastrophic counts MuTs):\n"
            << std::fixed << std::setprecision(1);
  std::cout << "  Catastrophic  " << std::setw(6) << catastrophic << " MuT(s)\n";
  std::cout << "  Restart       " << std::setw(6) << restart << "  ("
            << pct(restart) << "%)\n";
  std::cout << "  Abort         " << std::setw(6) << abort << "  ("
            << pct(abort) << "%)\n";
  std::cout << "  Silent cand.  " << std::setw(6) << silent << "  ("
            << pct(silent) << "%)\n";
  std::cout << "  Hindering     " << std::setw(6) << hindering << "  ("
            << pct(hindering) << "%)\n";
  std::cout << "  Pass          " << std::setw(6) << pass << "  ("
            << pct(pass) << "%)\n";

  std::vector<const core::MutStats*> worst;
  for (const core::MutStats& s : r.stats)
    if (s.catastrophic || s.aborts + s.restarts > 0) worst.push_back(&s);
  std::sort(worst.begin(), worst.end(),
            [](const core::MutStats* x, const core::MutStats* y) {
              if (x->catastrophic != y->catastrophic) return x->catastrophic;
              const std::uint64_t xf = x->aborts + x->restarts;
              const std::uint64_t yf = y->aborts + y->restarts;
              if (xf != yf) return xf > yf;
              return x->mut->name < y->mut->name;
            });
  constexpr std::size_t kTopN = 10;
  if (worst.size() > kTopN) worst.resize(kTopN);
  if (!worst.empty()) std::cout << "worst MuTs:\n";
  for (const core::MutStats* s : worst) {
    std::cout << "  " << s->mut->name << "  " << s->aborts + s->restarts << "/"
              << s->executed << " failing";
    if (s->catastrophic)
      std::cout << "  CATASTROPHIC (" << s->crash_detail << ")";
    std::cout << "\n";
  }
  return 0;
}

int cmd_repro(const harness::World& world, const Args& a) {
  // "group:Name" disambiguates API names that exist in more than one group
  // (sync re-registers e.g. CreateEvent; bare names resolve to the paper
  // MuT).  Lookups resolve through --os: the sockets group registers a
  // Winsock and a BSD MuT under the same bare name (socket, bind, ...), told
  // apart only by which variants support them.
  const core::MuT* mut = nullptr;
  if (const auto colon = a.mut.find(':'); colon != std::string::npos) {
    const core::GroupDescriptor* d =
        core::group_from_token(a.mut.substr(0, colon));
    if (d == nullptr) {
      std::cerr << "unknown group '" << a.mut.substr(0, colon) << "' (valid: "
                << core::group_token_list() << ")\n";
      return 1;
    }
    mut = world.registry.find(a.mut.substr(colon + 1), d->id, *a.os);
    if (mut == nullptr)  // fall back for the not-on-this-OS diagnostic below
      mut = world.registry.find(a.mut.substr(colon + 1), d->id);
  } else {
    mut = world.registry.find(a.mut, std::nullopt, *a.os);
    if (mut == nullptr) mut = world.registry.find(a.mut);
  }
  if (mut == nullptr) {
    std::cerr << "no such MuT: " << a.mut << "\n";
    return 1;
  }
  if (!mut->supported_on(*a.os)) {
    std::cerr << a.mut << " is not part of the "
              << sim::variant_name(*a.os) << " API\n";
    return 1;
  }
  core::TupleGenerator gen(*mut, a.cap, a.seed);
  if (a.case_index >= gen.count()) {
    std::cerr << "case index out of range (0.." << gen.count() - 1 << ")\n";
    return 1;
  }
  const auto tuple = gen.tuple(a.case_index);
  std::cout << a.mut << " case " << a.case_index << " = "
            << core::describe_tuple(tuple) << "\n";

  if (a.cut != 0) {
    // Standalone crash-consistency probe: counting pass, armed cut at point
    // K, reboot, verify — the repro path for one campaign finding.
    std::string detail;
    const core::CrashVerdict v = core::crash_probe_case(
        *a.os, *mut, a.case_index, a.cut, a.cap, a.seed, &detail);
    std::cout << "cut " << a.cut << ": " << core::crash_verdict_name(v);
    if (!detail.empty()) std::cout << "  (" << detail << ")";
    std::cout << "\n";
    return v == core::CrashVerdict::kConsistent ? 0 : 1;
  }

  sim::Machine machine(*a.os);
  core::Executor executor(machine);
  const core::CaseResult r = executor.run_case(
      *mut, tuple, static_cast<std::int64_t>(a.case_index));
  std::cout << "outcome: " << core::outcome_name(r.outcome);
  if (const std::string stop = core::describe_stop(r); !stop.empty())
    std::cout << "  (" << stop << ")";
  std::cout << "\n";
  if (machine.crashed())
    std::cout << "machine state: CRASHED — reboot required\n";
  if (a.trace_events) {
    std::cout << "trace:\n"
              << trace::render_tail(machine.trace().tail(*a.trace_events));
  }
  if (a.event_counters)
    std::cout << "events: " << trace::counters_json(r.events) << "\n";
  return r.outcome == core::Outcome::kPass ? 0 : 1;
}

/// The `tune` of a campaign command with no options of its own.
constexpr auto kNoTuning = [](core::CampaignOptions&, sim::OsVariant) {};

int cmd_crashes(const harness::World& world, const Args& a) {
  const auto results = run_variants(world, a, core::Campaign::run, kNoTuning);
  core::print_table3(std::cout, *results);
  for (const auto& r : *results) print_observability(r, a);
  return 0;
}

int cmd_tables(const harness::World& world, const Args& a) {
  auto results = *run_variants(world, a, core::Campaign::run, kNoTuning);
  core::print_table1(std::cout, results);
  std::cout << "\n";
  core::print_table2(std::cout, results);
  std::cout << "\n";
  core::print_figure1(std::cout, results);
  std::cout << "\n";
  core::print_table3(std::cout, results);
  std::cout << "\n";
  auto desktops = harness::desktop_subset(std::move(results));
  const auto voted = core::vote_silent(desktops);
  core::print_figure2(std::cout, desktops, voted);
  return 0;
}

// --- campaign service (serve / attach) --------------------------------------

void enable_wire_trace(rpc::CampaignServer& server) {
  server.wire_trace = [](char dir, const rpc::Message& m) {
    std::cout << (dir == '<' ? "<- " : "-> ") << rpc::describe(m) << "\n";
  };
}

int report_client_error(sim::OsVariant v, const rpc::Error& e) {
  std::cerr << os_token(v) << ": " << rpc::error_code_name(e.code) << ": "
            << e.message << "\n";
  return 1;
}

/// Steps the server and polls every client until each one is complete,
/// errored, or detached.  Returns false only if the step budget runs out —
/// a wedged service, which the session-layer tests promise cannot happen.
bool pump_service(rpc::CampaignServer& server,
                  const std::vector<rpc::CampaignClient*>& clients) {
  for (int i = 0; i < (1 << 20); ++i) {
    server.step();
    bool pending = false;
    for (rpc::CampaignClient* c : clients) {
      c->poll();
      if (c->attached() && !c->complete() && !c->error()) pending = true;
    }
    if (!pending && !server.step()) return true;
  }
  return false;
}

int cmd_serve(const harness::World& world, const Args& a) {
  const std::vector<sim::OsVariant>& variants = a.sessions;
  if (a.detach_at && a.halt_at) {
    std::cerr << "--detach-at and --halt-at are mutually exclusive\n";
    return 2;
  }
  if ((a.detach_at || a.halt_at) && a.log_dir.empty()) {
    std::cerr << "--detach-at/--halt-at need --log-dir (the parked campaign "
                 "must survive in its .blog)\n";
    return 2;
  }

  rpc::ServerConfig cfg;
  cfg.log_dir = a.log_dir;
  cfg.jobs = a.jobs;
  cfg.quota = a.quota;
  if (variants.size() > cfg.max_sessions) cfg.max_sessions = variants.size();
  rpc::CampaignServer server(world.registry, cfg);
  if (a.wire_trace) enable_wire_trace(server);

  const core::CampaignOptions opt = campaign_options<core::CampaignOptions>(a);
  std::vector<std::unique_ptr<rpc::Channel>> channels;
  std::vector<std::unique_ptr<rpc::CampaignClient>> clients;
  for (sim::OsVariant v : variants) {
    channels.push_back(std::make_unique<rpc::Channel>());
    server.bind(channels.back()->a());
    clients.push_back(std::make_unique<rpc::CampaignClient>(
        channels.back()->b(), world.registry, v, opt));
    if (!clients.back()->hello()) {
      std::cerr << "could not enqueue hello for " << os_token(v) << "\n";
      return 1;
    }
  }

  const std::uint64_t drop_at = a.detach_at.value_or(a.halt_at.value_or(0));
  bool dropped = false;
  for (int i = 0; i < (1 << 20); ++i) {
    server.step();
    bool pending = false;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      rpc::CampaignClient& cl = *clients[c];
      if (!cl.poll()) return report_client_error(variants[c], *cl.error());
      if (c == 0 && drop_at != 0 && !dropped &&
          cl.outcomes_received() >= drop_at) {
        cl.detach();
        dropped = true;
        std::cout << os_token(variants[0]) << ": detached after "
                  << cl.outcomes_received() << " of "
                  << cl.plan().shards.size() << " shard(s)\n";
      }
      if (cl.attached() && !cl.complete()) pending = true;
    }
    if (!pending && !server.step()) break;
  }

  if (a.detach_at && dropped) {
    // The parked session comes back after everyone else finished; the server
    // replays what the log already holds and streams only the missing tail.
    clients[0] = std::make_unique<rpc::CampaignClient>(
        channels[0]->b(), world.registry, variants[0], opt);
    if (!clients[0]->hello()) return 1;
    if (!pump_service(server, {clients[0].get()})) {
      std::cerr << "campaign service wedged during reattach\n";
      return 1;
    }
    if (clients[0]->error())
      return report_client_error(variants[0], *clients[0]->error());
    std::cout << os_token(variants[0]) << ": reattached, "
              << clients[0]->reused() << " shard(s) already in the log, "
              << clients[0]->outcomes_received() << " streamed\n";
  }

  for (std::size_t c = 0; c < clients.size(); ++c) {
    const rpc::CampaignClient& cl = *clients[c];
    if (a.halt_at && c == 0 && dropped) {
      // The hint names every flag of the log's fingerprint, so following it
      // finds the parked log instead of starting a new campaign beside it.
      std::cout << os_token(variants[c])
                << ": parked mid-campaign (resume with `ballista_cli attach "
                   "--os "
                << os_token(variants[c]) << " --cap " << a.cap << " --seed "
                << a.seed << " --shard-cases " << a.shard_cases
                << " --log-dir " << a.log_dir << "`)\n";
      continue;
    }
    if (const auto result = cl.result()) {
      std::cout << os_token(variants[c]) << ": complete, "
                << result->total_cases << " case(s), " << result->reboots
                << " reboot(s)\n";
    } else if (cl.complete()) {
      std::cout << os_token(variants[c]) << ": complete (merged totals in "
                << a.log_dir << ")\n";
    } else {
      std::cerr << os_token(variants[c]) << ": campaign did not complete\n";
      return 1;
    }
  }
  return 0;
}

int cmd_attach(const harness::World& world, const Args& a) {
  rpc::ServerConfig cfg;
  cfg.log_dir = a.log_dir;
  cfg.jobs = a.jobs;
  cfg.quota = a.quota;
  rpc::CampaignServer server(world.registry, cfg);
  if (a.wire_trace) enable_wire_trace(server);

  const core::CampaignOptions opt = campaign_options<core::CampaignOptions>(a);
  rpc::Channel ch;
  server.bind(ch.a());
  rpc::CampaignClient client(ch.b(), world.registry, *a.os, opt);
  if (!client.hello()) return 1;
  if (!pump_service(server, {&client})) {
    std::cerr << "campaign service wedged\n";
    return 1;
  }

  const core::Plan plan = core::plan_for(*a.os, world.registry, opt);
  const std::string path = server.log_path(store::make_run_header(plan, opt));
  if (client.error()) {
    if (client.error()->code != rpc::ErrorCode::kSessionSealed)
      return report_client_error(*a.os, *client.error());
    std::cout << path << ": campaign already complete\n";
  } else if (client.complete()) {
    std::cout << path << ": " << client.reused()
              << " shard(s) replayed from the log, "
              << client.outcomes_received() << " streamed\n";
  } else {
    std::cerr << "campaign did not complete\n";
    return 1;
  }
  const store::StoreRun run = store::load_result(world.registry, path);
  if (!run.ok) {
    std::cerr << run.error << "\n";
    return 1;
  }
  std::cout << os_token(*a.os) << ": " << run.result.total_cases
            << " case(s), " << run.result.reboots << " reboot(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> a = parse_args(argc, argv, std::cerr);
  if (!a) return usage();
  auto world = harness::build_world();
  switch (a->command) {
    case kListMuts: return cmd_list_muts(*world, *a);
    case kListTypes: return cmd_list_types(*world);
    case kListGroups: return cmd_list_groups(*world, *a);
    case kRun:
    case kRunCrash: return cmd_run(*world, *a);
    case kServe: return cmd_serve(*world, *a);
    case kAttach: return cmd_attach(*world, *a);
    case kRepro: return cmd_repro(*world, *a);
    case kCrashes: return cmd_crashes(*world, *a);
    case kTables: return cmd_tables(*world, *a);
    case kDiff: return cmd_diff(*world, *a);
    case kStats: return cmd_stats(*world, *a);
  }
  return usage();
}
