// The benchmark of record: one process runs one campaign workload for a
// fixed host-time budget, checks its outputs and prints every metric by
// name with its unit.  The last line of stdout is the JSON result.
//
//   bench_record --workload paper7 --seed 1 --seconds 38 --trace 0
//                [--cap N] [--expect-digest HEX] [--out DIR]
//                [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the consumer's clock.  --trace 1 spends half the budget on untraced
// repetitions and half on traced ones, reports the per-layer metrics and
// the tracing overhead between the two, and writes the spans to --out.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "record.h"
#include "workloads.h"

namespace {

using namespace benchrec;

constexpr std::uint64_t kDefaultSeed = 0x8a11157a;
/// Set-ups measured before the first repetition and after every one;
/// setup_s is the median of all of them, so a host burst that lands on one
/// batch does not move it.
constexpr int kSetupsPerBatch = 31;
/// A repetition of a multi-threaded workload whose usable-core probe moved
/// by more than this share between its start and its end is left out of the
/// statistics.  A single-threaded one keeps every repetition: it does not
/// use the other cores, and each one left out weakens its per-part minima.
constexpr double kCoreDrift = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  std::uint64_t cap = 0;  // 0: the workload's own
  std::string expect_digest;
  std::string out = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_record: %s\n"
               "usage: bench_record --workload paper7|paper7_j4|crash7|service4"
               " --seed N --seconds S --trace 0|1 [--cap N]"
               " [--expect-digest HEX] [--out DIR] [--git-sha SHA]"
               " [--src-digest HEX]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = parse_u64(v, "bad --seed");
    else if (flag == "--seconds") a.seconds = static_cast<double>(parse_u64(v, "bad --seconds"));
    else if (flag == "--trace") a.trace = parse_u64(v, "bad --trace") != 0;
    else if (flag == "--cap") {
      a.cap = parse_u64(v, "bad --cap");
      if (a.cap == 0) usage("--cap must be positive");
    }
    else if (flag == "--expect-digest") a.expect_digest = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--git-sha") a.git_sha = v;
    else if (flag == "--src-digest") a.src_digest = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Repetitions until `budget` seconds are spent: a repetition starts only
/// when the median one so far would still end inside the budget.
std::vector<Rep> measure(Runner& runner, double budget, SpanLog* log,
                         Layers* layers, unsigned cpus, unsigned jobs,
                         const std::function<void()>& between) {
  std::vector<Rep> reps;
  std::vector<double> walls;
  const std::uint64_t start = now_ns();
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (!reps.empty() && elapsed + median(walls) > budget) break;
    const CoreProbe before = probe_cores(cpus);
    Rep rep = log != nullptr ? runner.run_traced(*log, *layers) : runner.run();
    rep.before = before;
    rep.after = probe_cores(cpus);
    rep.flagged = jobs > 1 &&
                  std::abs(rep.after.usable - rep.before.usable) >
                  kCoreDrift * std::max(rep.after.usable, rep.before.usable);
    walls.push_back(rep.wall_s);
    reps.push_back(std::move(rep));
    if (log != nullptr) log->end_rep();
    between();
  }
  return reps;
}

/// The repetitions the statistics use: unflagged ones, or all of them when
/// the cores moved during every one.
std::vector<const Rep*> kept(const std::vector<Rep>& reps) {
  std::vector<const Rep*> out;
  for (const Rep& r : reps)
    if (!r.flagged) out.push_back(&r);
  if (out.empty())
    for (const Rep& r : reps) out.push_back(&r);
  return out;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Element-wise minimum over repetitions of a per-repetition series (the
/// same shard, variant or delivery position): host interference only ever
/// slows a part down, so each part's fastest run is its least disturbed
/// one.  Empty when the series differ in length.
std::vector<double> fastest(const std::vector<const Rep*>& reps,
                            std::vector<double> Rep::*series) {
  std::vector<double> out;
  if (reps.empty()) return out;
  out = reps.front()->*series;
  for (const Rep* r : reps) {
    if ((r->*series).size() != out.size()) return {};
    for (std::size_t k = 0; k < out.size(); ++k)
      out[k] = std::min(out[k], (r->*series)[k]);
  }
  return out;
}

/// Cases per host second of one repetition, timed as the sum of its parts'
/// fastest durations (the fastest whole repetition if the parts differ).
double cases_per_s(const std::vector<const Rep*>& reps) {
  if (reps.empty()) return 0.0;
  double pass_s = 0.0;
  for (double s : fastest(reps, &Rep::segments_s)) pass_s += s;
  if (pass_s == 0.0) {
    pass_s = reps.front()->wall_s;
    for (const Rep* r : reps) pass_s = std::min(pass_s, r->wall_s);
  }
  return ratio(static_cast<double>(reps.front()->cases), pass_s);
}

std::vector<Metric> end_to_end(const std::vector<const Rep*>& reps,
                               double setup_s) {
  // Deliveries come in a fixed order except from the threaded engine; its
  // gaps are summarized per repetition and the fastest one is kept.
  std::vector<double> gaps = fastest(reps, &Rep::gaps_ms);
  double gap_iqm = interquartile_mean(gaps);
  double gap_p99 = percentile(gaps, 99);
  if (gaps.empty() && !reps.empty()) {
    gap_iqm = gap_p99 = std::numeric_limits<double>::infinity();
    for (const Rep* r : reps) {
      std::vector<double> g = r->gaps_ms;
      gap_iqm = std::min(gap_iqm, interquartile_mean(g));
      gap_p99 = std::min(gap_p99, percentile(g, 99));
    }
  }
  const std::vector<double> sessions = fastest(reps, &Rep::session_s);
  const auto [lo, hi] = std::minmax_element(sessions.begin(), sessions.end());
  std::printf("# %zu repetitions, %zu stream gaps per repetition\n", reps.size(),
              reps.empty() ? 0 : reps.front()->gaps_ms.size());
  return {
      {"setup_s", setup_s, "s"},
      {"cases_per_s", cases_per_s(reps), "1/s"},
      {"stream_gap_ms_iqm", gap_iqm, "ms"},
      {"stream_gap_ms_p99", gap_p99, "ms"},
      {"session_skew", sessions.empty() ? 0.0 : ratio(*hi, *lo), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Workload& wl, Layers& L,
                              const std::vector<const Rep*>& untraced,
                              const std::vector<const Rep*>& traced,
                              double failed_frac) {
  const bool crash = wl.kind == Kind::kCrash;
  const double reps = static_cast<double>(std::max<std::uint64_t>(1, L.reps));
  // Event counters are exact over every case for the base campaigns; the
  // crash campaign's results carry none, so its probes stand in.
  const trace::Counters& ev = crash ? L.probe_events : L.events;
  const double ev_cases = static_cast<double>(crash ? L.probe_cases : L.cases);
  const double probes = static_cast<double>(L.probe_cases);
  const auto hub = [&](sim::MutationKind k) {
    return ratio(static_cast<double>(L.hub[static_cast<std::size_t>(k)]), probes);
  };
  const auto per_case = [&](trace::EventKind k) {
    return ratio(static_cast<double>(ev[k]), ev_cases);
  };
  // Traced and untraced repetitions are split into different parts, so the
  // rates compared here use each side's fastest whole repetition.
  const auto per_fastest_s = [](const std::vector<const Rep*>& reps,
                                std::uint64_t Rep::*count) {
    double best = 0.0;
    for (const Rep* r : reps)
      best = std::max(best, ratio(static_cast<double>(r->*count), r->wall_s));
    return best;
  };

  std::vector<Metric> m = {
      {"gen.ns_per_case", ratio(L.gen_ns, static_cast<double>(L.gen_cases)), "ns"},
      {"exec.run_case_ns_p50", percentile(L.run_case_ns, 50), "ns"},
      {"exec.run_case_ns_p99", percentile(L.run_case_ns, 99), "ns"},
      {"exec.restore_ns", median(L.restore_ns), "ns"},
      {"exec.acquire_ns", median(L.acquire_ns), "ns"},
      {"exec.materialize_ns", median(L.make_ns), "ns"},
      {"exec.impl_ns", median(L.impl_ns), "ns"},
      {"exec.release_ns", median(L.release_ns), "ns"},
  };
  for (const core::GroupDescriptor& g : core::kGroupTable)
    m.push_back({"exec.case_ns." + std::string(g.token),
                 median(L.group_ns[core::group_index(g.id)]), "ns"});
  const double exceptions = crash ? ratio(static_cast<double>(L.probe_exceptions), probes)
                                  : ratio(static_cast<double>(L.exceptions),
                                          static_cast<double>(L.cases));
  const std::vector<Metric> rest = {
      {"exec.exception_frac", exceptions, "frac"},
      {"sim.syscalls_per_case", per_case(trace::EventKind::kSyscallEnter), "count"},
      {"sim.probes_per_case", per_case(trace::EventKind::kProbeDecision), "count"},
      {"sim.faults_per_case", per_case(trace::EventKind::kFault), "count"},
      {"sim.hazard_writes_per_case", per_case(trace::EventKind::kHazardWrite), "count"},
      {"sim.page_writes_per_case", hub(sim::MutationKind::kPageWrite), "count"},
      {"sim.page_maps_per_case", hub(sim::MutationKind::kPageMap), "count"},
      {"sim.handle_creates_per_case", hub(sim::MutationKind::kHandleCreate), "count"},
      {"sim.fs_creates_per_case", hub(sim::MutationKind::kFsCreate), "count"},
      {"sim.fixture_rebuild_frac",
       ratio(static_cast<double>(L.fixture_rebuilds), static_cast<double>(L.fixture_restores)),
       "frac"},
      {"sim.process_recycle_frac",
       ratio(static_cast<double>(L.procs_recycled),
             static_cast<double>(L.procs_recycled + L.procs_built)),
       "frac"},
      {"sim.reboot_ns", median(L.reboot_ns), "ns"},
      {"crash.points_per_case",
       ratio(static_cast<double>(L.crash_points), static_cast<double>(L.crash_cases)), "count"},
      {"crash.cuts_per_case",
       ratio(static_cast<double>(L.crash_cuts), static_cast<double>(L.crash_cases)), "count"},
      {"crash.cuts_per_s", per_fastest_s(untraced, &Rep::cuts), "1/s"},
      {"crash.shard_ms_p50", percentile(L.crash_shard_ms, 50), "ms"},
      {"crash.shard_ms_p99", percentile(L.crash_shard_ms, 99), "ms"},
      {"sched.plan_s", L.plan_s / reps, "s"},
      {"sched.merge_s", L.merge_s / reps, "s"},
      {"sched.contended_steals", static_cast<double>(L.contended_steals) / reps, "count"},
      {"sched.machine_rebuilds", static_cast<double>(L.machine_rebuilds) / reps, "count"},
      {"sched.straggler_s", L.straggler_s / reps, "s"},
      {"sched.cpu_per_wall", ratio(L.cpu_s, L.wall_s * L.jobs), "frac"},
      {"rpc.round_ms_p50", percentile(L.round_ms, 50), "ms"},
      {"rpc.round_ms_p99", percentile(L.round_ms, 99), "ms"},
      {"rpc.rounds", static_cast<double>(L.rounds) / reps, "count"},
      {"rpc.idle_slot_frac",
       L.rounds == 0 ? 0.0
                     : 1.0 - static_cast<double>(L.round_shards) /
                                 static_cast<double>(L.rounds * L.jobs),
       "frac"},
      {"rpc.encode_us", mean(L.encode_us), "us"},
      {"rpc.decode_us", mean(L.decode_us), "us"},
      {"rpc.frame_bytes_mean",
       ratio(static_cast<double>(L.frame_bytes), static_cast<double>(L.frames)), "bytes"},
      {"rpc.client_poll_us", mean(L.poll_us), "us"},
      {"store.append_us_p50", percentile(L.append_us, 50), "us"},
      {"store.append_us_p99", percentile(L.append_us, 99), "us"},
      {"store.bytes_per_shard",
       ratio(static_cast<double>(L.appended_bytes), static_cast<double>(L.appended)), "bytes"},
      {"store.reopen_ms", median(L.reopen_ms), "ms"},
      {"store.shards_reused", static_cast<double>(L.shards_reused) / reps, "count"},
      {"trace.overhead_frac",
       1.0 - ratio(per_fastest_s(traced, &Rep::cases), per_fastest_s(untraced, &Rep::cases)),
       "frac"},
      {"failed_frac", failed_frac, "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + number(x);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* wl = find_workload(args.workload);
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());
  std::filesystem::create_directories(args.out);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const CoreProbe cores_before = probe_cores(cpus);

  // Set-up: the catalog plus one booted machine per variant.
  std::vector<double> setups;
  std::unique_ptr<harness::World> world;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupsPerBatch; ++k) {
      const std::uint64_t t = now_ns();
      auto w = harness::build_world();
      for (sim::OsVariant v : wl->variants) sim::Machine boot(v);
      setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
      if (!world) world = std::move(w);
    }
  };
  set_up();

  Settings settings;
  settings.seed = args.seed;
  settings.cap = args.cap != 0 ? args.cap : wl->cap;
  settings.out_dir = args.out;
  Runner runner(*world, *wl, settings);

  SpanLog log;
  Layers layers;
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> untraced =
      measure(runner, untraced_budget, nullptr, nullptr, cpus, wl->jobs, set_up);
  std::vector<Rep> traced_reps;
  if (args.trace)
    traced_reps = measure(runner, args.seconds / 2, &log, &layers, cpus, wl->jobs, set_up);
  const double setup_s = median(setups);
  const CoreProbe cores_after = probe_cores(cpus);

  // Output checks: every repetition, traced or not, must reproduce one
  // digest, and the pinned one when the caller supplied it.
  std::uint64_t attempted = 0, failed = 0;
  const std::string& digest = untraced.front().digest;
  bool correct = true;
  for (const std::vector<Rep>* set : {&untraced, &traced_reps}) {
    for (const Rep& r : *set) {
      attempted += r.attempted + 1;
      failed += r.failed;
      if (r.digest != digest) {
        ++failed;
        correct = false;
      }
    }
  }
  if (!args.expect_digest.empty() && digest != args.expect_digest) {
    ++failed;
    correct = false;
  }
  if (failed > 0) correct = false;
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);

  const std::vector<const Rep*> kept_untraced = kept(untraced);
  const std::vector<Metric> metrics =
      args.trace ? per_layer(*wl, layers, kept_untraced, kept(traced_reps), failed_frac)
                 : end_to_end(kept_untraced, setup_s);

  for (const Metric& m : metrics)
    std::printf("%-30s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  if (args.trace) {
    const double reps = static_cast<double>(std::max<std::size_t>(1, traced_reps.size()));
    for (const auto& [name, ns] : log.self_ns())
      std::printf("# self time per traced repetition %-30s %.3f ms\n", name.c_str(),
                  ns / 1e6 / reps);
  }
  std::printf("# failed_frac %s (%" PRIu64 " of %" PRIu64 ")\n",
              number(failed_frac).c_str(), failed, attempted);

  // The conditions envelope.
  std::string reps_json;
  std::size_t flagged = 0;
  for (const std::vector<Rep>* set : {&untraced, &traced_reps}) {
    for (const Rep& r : *set) {
      flagged += r.flagged;
      reps_json += std::string(reps_json.empty() ? "" : ",") +
                   "{\"traced\":" + (set == &traced_reps ? "true" : "false") +
                   ",\"wall_s\":" + number(r.wall_s) +
                   ",\"cases\":" + std::to_string(r.cases) +
                   ",\"session_s\":[" + join(r.session_s) + "]" +
                   ",\"cores_before\":" + number(r.before.usable) +
                   ",\"cores_after\":" + number(r.after.usable) +
                   ",\"spin_rate_before\":" + number(r.before.single_rate) +
                   ",\"spin_rate_after\":" + number(r.after.single_rate) +
                   ",\"flagged\":" + (r.flagged ? "true" : "false") + "}";
    }
  }
  // One file per workload and mode, overwritten by the next run; the seed
  // is recorded inside.
  const std::string stem = args.out + "/" + wl->name + "-trace" + (args.trace ? "1" : "0");
  std::string spans = "\"\"";
  if (args.trace) {
    if (!log.write(stem + ".spans.jsonl")) {
      std::fprintf(stderr, "bench_record: cannot write %s.spans.jsonl\n", stem.c_str());
      correct = false;
    }
    spans = quoted(stem + ".spans.jsonl");
  }
  const std::string conditions =
      "{\"conditions\":{\"workload\":" + quoted(wl->name) +
      ",\"seed\":" + std::to_string(args.seed) + ",\"cap\":" + std::to_string(settings.cap) +
      ",\"digest\":" + quoted(digest) + ",\"git_sha\":" + quoted(args.git_sha) +
      ",\"src_digest\":" + quoted(args.src_digest) +
      ",\"build_type\":" + quoted(BENCH_BUILD_TYPE) +
      ",\"advertised_cpus\":" + std::to_string(cpus) +
      ",\"usable_cores_before\":" + number(cores_before.usable) +
      ",\"usable_cores_after\":" + number(cores_after.usable) + ",\"jobs\":" +
      std::to_string(wl->jobs) + ",\"flagged_reps\":" + std::to_string(flagged) +
      ",\"spans\":" + spans + ",\"span_count\":" + std::to_string(log.size()) +
      ",\"reps\":[" + reps_json + "]}}";
  std::printf("%s\n", conditions.c_str());
  if (std::FILE* f = std::fopen((stem + ".conditions.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", conditions.c_str());
    std::fclose(f);
  }

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
