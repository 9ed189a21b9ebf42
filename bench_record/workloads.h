// The four campaign workloads of the benchmark of record and the two ways
// each is run: untraced (the engine exactly as users call it; end-to-end
// metrics) and traced (the benchmark drives the layers' public functions
// itself and times every call; per-layer metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/world.h"
#include "record.h"

namespace benchrec {

namespace harness = ballista::harness;

enum class Kind : std::uint8_t { kPaper, kCrash, kService };

struct Workload {
  const char* name;
  Kind kind;
  unsigned jobs;
  /// Cases per MuT unless --cap overrides it (see README.md).
  std::uint64_t cap;
  std::vector<sim::OsVariant> variants;
};

const Workload* find_workload(const std::string& name);

struct Settings {
  std::uint64_t seed = 0;
  std::uint64_t cap = 0;
  /// Scratch directory inside the checkout (session logs, span files).
  std::string out_dir;
};

/// What one repetition of a workload produced.
struct Rep {
  double wall_s = 0.0;
  std::uint64_t cases = 0;
  std::uint64_t cuts = 0;
  /// Gaps between consecutive shard outcomes reaching the consumer.
  std::vector<double> gaps_ms;
  /// Per-session (per-variant campaign) completion times.
  std::vector<double> session_s;
  /// Durations of the parts the repetition ran one after another: each
  /// shard at jobs 1, else each variant campaign, or the whole repetition
  /// for the service.
  std::vector<double> segments_s;
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Host speed probed right before and right after the repetition.
  CoreProbe before, after;
  bool flagged = false;
};

/// Per-layer samples of traced repetitions, summed or pooled over them.
struct Layers {
  // core.generator
  double gen_ns = 0.0;
  std::uint64_t gen_cases = 0;
  // core.executor (sampled) and the calls run_case is made of
  std::vector<double> run_case_ns, restore_ns, acquire_ns, make_ns, impl_ns,
      release_ns, reboot_ns;
  std::vector<std::vector<double>> group_ns =
      std::vector<std::vector<double>>(core::kGroupCount);
  std::uint64_t probe_cases = 0;
  std::uint64_t probe_exceptions = 0;
  trace::Counters probe_events;
  std::array<std::uint64_t, sim::kMutationKindCount> hub{};
  // exact per-campaign statistics (merged results)
  std::uint64_t cases = 0;
  std::uint64_t exceptions = 0;
  trace::Counters events;
  std::uint64_t fixture_rebuilds = 0, fixture_restores = 0;
  std::uint64_t procs_recycled = 0, procs_built = 0;
  // crash
  std::uint64_t crash_cases = 0, crash_points = 0, crash_cuts = 0;
  std::vector<double> crash_shard_ms;
  // core.sched
  double plan_s = 0.0, merge_s = 0.0, straggler_s = 0.0;
  std::uint64_t contended_steals = 0, machine_rebuilds = 0;
  double cpu_s = 0.0, wall_s = 0.0;
  unsigned jobs = 1;
  std::uint64_t reps = 0;
  // rpc
  std::vector<double> round_ms;
  std::uint64_t rounds = 0, round_shards = 0;
  std::vector<double> encode_us, decode_us, poll_us;
  std::uint64_t frames = 0, frame_bytes = 0;
  // store
  std::vector<double> append_us, reopen_ms;
  std::uint64_t appended = 0, appended_bytes = 0, shards_reused = 0;

  void absorb(Layers&& o);
};

/// Everything measured once per process rather than per repetition.
class Runner {
 public:
  Runner(const harness::World& world, const Workload& wl, Settings s);

  /// One untraced repetition: the engine, server and clients as users run
  /// them, timed only at the consumer.
  Rep run();
  /// One traced repetition: spans around every layer call, samples into
  /// `layers`.  Must produce the same digest as run().
  Rep run_traced(SpanLog& log, Layers& layers);

 private:
  Rep paper(SpanLog* log, Layers* layers);
  Rep crash(SpanLog* log, Layers* layers);
  Rep service(SpanLog* log, Layers* layers);

  core::CampaignOptions paper_options() const;
  core::CrashOptions crash_options() const;
  core::CampaignOptions service_options() const;

  const harness::World& world_;
  const Workload& wl_;
  Settings s_;
  std::uint64_t planned_shards_ = 0;
  /// Service workload: per-session digests of solo in-process campaigns
  /// that the served sessions must reproduce.
  std::vector<std::string> solo_;
};

}  // namespace benchrec
