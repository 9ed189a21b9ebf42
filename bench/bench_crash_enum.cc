// Crash-enumeration bench, reported to BENCH_crash.json.
//
// Three questions about the fault-point interposition layer:
//
//   - crash throughput: cuts/s and counting-pass points/s through the real
//     crash engine (counting pass + armed re-execution + reboot + verify per
//     selected k) over the File/Directory and Memory groups,
//   - counting overhead: cases/s over the same groups with the MutationHub
//     in counting mode vs. off — the price of the counting pass itself,
//   - off overhead: the cost the interposition layer adds to a normal
//     campaign when crash enumeration is disabled.  The off path is one
//     predicted branch per mutation site (notify checks a single cached
//     `live` flag), with no distinct no-hub build to diff against, so the
//     bench measures the off configuration twice (A/A) and reports the
//     spread — an upper bound on the off-path cost plus ambient noise.
//     ISSUE 6 targets < 2%.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench/bench_common.h"
#include "core/crashplan.h"
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

bool crash_group(core::FuncGroup g) {
  return g == core::FuncGroup::kFileDirAccess ||
         g == core::FuncGroup::kMemoryManagement;
}

/// Cases/s over the crash groups on one long-lived machine — the same
/// executor loop a campaign shard runs, with the hub counting or off.
double cases_per_second(sim::OsVariant v, bool counting, int repeats) {
  sim::Machine machine(v);
  core::Executor executor(machine);
  sim::MutationHub& hub = machine.mutations();
  std::uint64_t cases = 0;
  const auto run_all = [&] {
    for (const core::MuT* mut : world().registry.for_variant(v)) {
      if (!crash_group(mut->group)) continue;
      core::TupleGenerator gen(*mut, /*cap=*/64);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        if (counting) {
          hub.reset_counts();
          hub.set_counting(true);
        }
        executor.run_case(*mut, gen.tuple(i));
        if (counting) hub.set_counting(false);
        if (machine.crashed() || machine.arena().corruption() > 0)
          machine.restore(sim::RestoreLevel::kReboot);
        ++cases;
      }
    }
  };
  run_all();  // warm-up
  hub.full_reset();
  cases = 0;
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) run_all();
  const double secs = seconds_since(start);
  hub.full_reset();
  return static_cast<double>(cases) / secs;
}

}  // namespace

int main() {
  const sim::OsVariant v = sim::OsVariant::kWinNT4;

  // Crash-engine throughput: the full counting + armed-cut + verify cycle.
  core::CrashOptions copt;
  copt.cap = 16;
  copt.max_cuts = 8;
  const auto start = Clock::now();
  const core::CrashCampaignResult crash =
      core::run_crash_engine(v, world().registry, copt);
  const double crash_secs = seconds_since(start);

  // Interleave the three configurations so ambient noise hits all equally;
  // keep the best (least-disturbed) rate per configuration.
  double off_a = 0, off_b = 0, counting = 0;
  for (int rep = 0; rep < 5; ++rep) {
    off_a = std::max(off_a, cases_per_second(v, /*counting=*/false, 4));
    counting = std::max(counting, cases_per_second(v, /*counting=*/true, 4));
    off_b = std::max(off_b, cases_per_second(v, /*counting=*/false, 4));
  }
  const double off = std::max(off_a, off_b);
  const double off_spread_pct =
      (off - std::min(off_a, off_b)) / off * 100.0;
  const double counting_overhead_pct = (off - counting) / off * 100.0;

  std::ostringstream json;
  json << "{\n  \"bench\": \"crash_enum\",\n"
       << "  \"variant\": \"" << sim::variant_name(v) << "\",\n"
       << "  \"crash_engine\": {\"cap\": " << copt.cap
       << ", \"max_cuts\": " << copt.max_cuts
       << ", \"points\": " << crash.total_points
       << ", \"cuts\": " << crash.total_cuts
       << ", \"reboots\": " << crash.reboots
       << ", \"seconds\": " << crash_secs
       << ", \"cuts_per_s\": " << crash.total_cuts / crash_secs
       << ", \"points_per_s\": " << crash.total_points / crash_secs << "},\n"
       << "  \"cases_per_s\": {\"hub_off\": " << off
       << ", \"hub_off_rerun\": " << std::min(off_a, off_b)
       << ", \"hub_counting\": " << counting << "},\n"
       << "  \"overhead_counting_pct\": " << counting_overhead_pct << ",\n"
       << "  \"overhead_off_pct\": " << off_spread_pct << "\n}\n";
  std::cout << json.str();
  bench::write_report("BENCH_crash.json", json.str());
  return 0;
}
