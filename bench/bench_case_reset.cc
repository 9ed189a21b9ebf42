// Machine-state lifecycle bench, reported to BENCH_reset.json.
//
// The per-case hot loop is restore-dominated for cheap MuTs: a strlen case
// spends almost nothing in dispatch, so its cost is the between-case cleanup
// (fixture reset, task creation).  This bench measures exactly that gap:
//
//   - cases/s over the reset-dominated C char/math groups under
//     ResetPolicy::kIncremental (checkpoint verify + process recycling)
//     vs. ResetPolicy::kAlwaysRebuild (the pre-lifecycle cost model:
//     unconditional fixture rebuild, a fresh task per case),
//   - the same comparison over a whole single-OS C-library campaign through
//     the real engine (plan/schedule/execute, repro pass, per-case codes),
//   - the micro building blocks: one fixture verify vs. one rebuild, one
//     process recycle vs. one construction.
//
// The headline number is speedup_reset_dominated: ISSUE 4 targets >= 2x.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "harness/world.h"

namespace {

using namespace ballista;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const harness::World& world() {
  static const auto w = harness::build_world();
  return *w;
}

// The C character and math groups: scalar arguments, no argument buffers to
// materialize into simulated memory, near-zero dispatch cost — per-case time
// is almost entirely the between-case lifecycle.  (The string groups spend
// most of each case walking simulated memory byte-wise, which no reset
// strategy can touch.)
bool reset_dominated(core::FuncGroup g) {
  return g == core::FuncGroup::kCChar || g == core::FuncGroup::kCMath;
}

/// Cases/s over the cheap C groups on one long-lived machine, mirroring the
/// executor loop a campaign shard runs.  `policy` selects the lifecycle
/// under test; everything else is identical.
double cases_per_second(sim::OsVariant v, sim::ResetPolicy policy,
                        int repeats) {
  sim::Machine machine(v);
  machine.set_reset_policy(policy);
  core::Executor executor(machine);
  std::uint64_t cases = 0;
  const auto run_all = [&] {
    for (const core::MuT* mut : world().registry.for_variant(v)) {
      if (!reset_dominated(mut->group)) continue;
      core::TupleGenerator gen(*mut, /*cap=*/64);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        if (machine.crashed()) machine.restore(sim::RestoreLevel::kReboot);
        auto r = executor.run_case(*mut, gen.tuple(i));
        if (machine.arena().corruption() > 0)
          machine.restore(sim::RestoreLevel::kReboot);
        ++cases;
      }
    }
  };
  run_all();  // warm-up: allocators, checkpoint image, process pool
  cases = 0;
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) run_all();
  return static_cast<double>(cases) / seconds_since(start);
}

/// Whole C-library campaign through the real engine under one policy.  The
/// machine_setup hook pins the policy on the freshly booted machine; it also
/// forces the single-shard sequential plan, so both policies execute the
/// identical case stream.
double campaign_seconds(sim::OsVariant v, sim::ResetPolicy policy) {
  core::CampaignOptions opt;
  opt.only_api = core::ApiKind::kCLib;
  opt.machine_setup = [policy](sim::Machine& m) {
    m.set_reset_policy(policy);
  };
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    const auto result = core::Campaign::run(v, world().registry, opt);
    best = std::min(best, seconds_since(start));
    if (result.total_cases == 0) return -1;
  }
  return best;
}

/// ns for one fixture restore on a clean tree (verify) vs. after churn
/// (rebuild from the checkpoint image).
void fixture_micro(double& verify_ns, double& rebuild_ns) {
  sim::FileSystem fs;
  constexpr int kIters = 20'000;
  auto start = Clock::now();
  for (int i = 0; i < kIters; ++i) fs.restore_fixture();
  verify_ns = seconds_since(start) / kIters * 1e9;

  const auto cwd = sim::FileSystem::root_path();
  start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    (void)fs.create_file(fs.parse("/tmp/junk.dat", cwd), false, true);
    fs.restore_fixture();
  }
  rebuild_ns = seconds_since(start) / kIters * 1e9;
}

/// ns for one acquire/release pair: recycled from the pool vs. always
/// constructed (the pre-lifecycle model).
void process_micro(double& recycle_ns, double& build_ns) {
  constexpr int kIters = 20'000;
  {
    sim::Machine m(sim::OsVariant::kWinNT4);
    m.release_process(m.acquire_process());  // prime the pool
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) m.release_process(m.acquire_process());
    recycle_ns = seconds_since(start) / kIters * 1e9;
  }
  {
    sim::Machine m(sim::OsVariant::kWinNT4);
    m.set_reset_policy(sim::ResetPolicy::kAlwaysRebuild);
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) m.release_process(m.acquire_process());
    build_ns = seconds_since(start) / kIters * 1e9;
  }
}

}  // namespace

int main() {
  const sim::OsVariant v = sim::OsVariant::kWinNT4;

  double verify_ns = 0, rebuild_ns = 0, recycle_ns = 0, build_ns = 0;
  fixture_micro(verify_ns, rebuild_ns);
  process_micro(recycle_ns, build_ns);

  // Interleave the two policies so ambient noise hits both equally; keep the
  // best (least-disturbed) rate per policy.
  double fast = 0, slow = 0;
  for (int rep = 0; rep < 3; ++rep) {
    fast = std::max(fast,
                    cases_per_second(v, sim::ResetPolicy::kIncremental, 2));
    slow = std::max(slow,
                    cases_per_second(v, sim::ResetPolicy::kAlwaysRebuild, 2));
  }

  const double camp_fast = campaign_seconds(v, sim::ResetPolicy::kIncremental);
  const double camp_slow =
      campaign_seconds(v, sim::ResetPolicy::kAlwaysRebuild);

  std::ostringstream json;
  json << "{\n  \"bench\": \"case_reset\",\n"
       << "  \"variant\": \"" << sim::variant_name(v) << "\",\n"
       << "  \"micro_ns\": {\"fixture_verify\": " << verify_ns
       << ", \"fixture_rebuild\": " << rebuild_ns
       << ", \"process_recycle\": " << recycle_ns
       << ", \"process_build\": " << build_ns << "},\n"
       << "  \"reset_dominated_groups\": [\"C char\", \"C math\"],\n"
       << "  \"reset_dominated_cases_per_s\": {\"incremental\": " << fast
       << ", \"always_rebuild\": " << slow << "},\n"
       << "  \"speedup_reset_dominated\": " << fast / slow << ",\n"
       << "  \"clib_campaign_s\": {\"incremental\": " << camp_fast
       << ", \"always_rebuild\": " << camp_slow << "},\n"
       << "  \"speedup_clib_campaign\": " << camp_slow / camp_fast << "\n}\n";
  std::cout << json.str();
  bench::write_report("BENCH_reset.json", json.str());
  return 0;
}
