// Parallel-engine scaling: runs the full all-variant campaign at 1/2/4/8
// worker threads, reports cases/sec, speedup and per-phase engine timings
// (plan / execute / merge, plus a standalone tuple-generation sweep) as JSON
// (stdout and BENCH_parallel.json), and asserts that every worker count
// produced the same merged CampaignResult — the engine's determinism
// contract.  The machine-rebuild count rides along so a scaling regression
// can be localized without a profiler.
//
// Speedup is bounded by the host's core count (recorded as
// "hardware_concurrency"); on a single-core host all worker counts
// serialize and speedup stays ~1.0 while determinism is still exercised.
#include <chrono>
#include <sstream>
#include <thread>

#include "bench/bench_common.h"
#include "core/sched.h"

namespace {

using namespace ballista;

bool same_result(const core::CampaignResult& a, const core::CampaignResult& b) {
  if (a.variant != b.variant || a.reboots != b.reboots ||
      a.total_cases != b.total_cases || a.stats.size() != b.stats.size())
    return false;
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const auto& x = a.stats[i];
    const auto& y = b.stats[i];
    if (x.mut != y.mut || x.planned != y.planned || x.executed != y.executed ||
        x.passes != y.passes || x.aborts != y.aborts ||
        x.restarts != y.restarts ||
        x.silent_candidates != y.silent_candidates ||
        x.hindering != y.hindering || x.catastrophic != y.catastrophic ||
        x.crash_case != y.crash_case || x.crash_detail != y.crash_detail ||
        x.crash_tuple != y.crash_tuple ||
        x.crash_reproducible_single != y.crash_reproducible_single ||
        x.case_codes != y.case_codes || x.event_counts != y.event_counts)
      return false;
  }
  return a.event_counters == b.event_counters;
}

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const auto world = harness::build_world();

  struct Run {
    unsigned jobs;
    double seconds;
    std::uint64_t cases;
    core::EngineMetrics metrics;  // summed over the 7 variants
  };
  std::vector<Run> runs;
  std::vector<std::vector<core::CampaignResult>> all_results;

  for (unsigned jobs : {1u, 2u, 4u, 8u}) {
    core::CampaignOptions copt;
    copt.cap = opt.cap;
    copt.seed = opt.seed;
    copt.jobs = jobs;
    Run run{jobs, 0.0, 0, {}};
    std::vector<core::CampaignResult> results;
    results.reserve(sim::kAllVariants.size());
    const auto start = std::chrono::steady_clock::now();
    for (sim::OsVariant v : sim::kAllVariants) {
      core::EngineMetrics m;
      copt.metrics = &m;
      results.push_back(core::Campaign::run(v, world->registry, copt));
      run.metrics.plan_seconds += m.plan_seconds;
      run.metrics.execute_seconds += m.execute_seconds;
      run.metrics.merge_seconds += m.merge_seconds;
      run.metrics.shards += m.shards;
      run.metrics.machine_rebuilds += m.machine_rebuilds;
    }
    run.seconds = secs_since(start);
    for (const auto& r : results) run.cases += r.total_cases;
    runs.push_back(run);
    all_results.push_back(std::move(results));
  }

  // Standalone tuple-generation sweep: walk every planned case of every
  // variant's plan with the batched cursor, no execution.  Measures the
  // generator's share of the pipeline in isolation.
  std::uint64_t gen_cases = 0;
  double gen_seconds = 0.0;
  {
    core::CampaignOptions copt;
    copt.cap = opt.cap;
    copt.seed = opt.seed;
    std::uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    core::TupleScratch scratch;
    for (sim::OsVariant v : sim::kAllVariants) {
      const core::Plan plan = core::plan_for(v, world->registry, copt);
      for (const core::Shard& s : plan.shards) {
        for (const core::ShardItem& item : s.items) {
          if (item.range.count == 0) continue;
          core::TupleGenerator gen(*item.mut, copt.cap, copt.seed);
          auto cur = gen.begin(item.range.first, scratch);
          const std::uint64_t end = item.range.first + item.range.count;
          for (std::uint64_t i = item.range.first; i < end;) {
            for (const core::TestValue* tv : cur.values())
              sink ^= reinterpret_cast<std::uintptr_t>(tv);
            ++gen_cases;
            ++i;
            if (i < end) cur.advance();
          }
        }
      }
    }
    gen_seconds = secs_since(start);
    if (sink == 0x5eed) gen_seconds += 0;  // keep the sweep observable
  }

  bool deterministic = true;
  for (std::size_t j = 1; j < all_results.size(); ++j) {
    if (all_results[j].size() != all_results[0].size()) deterministic = false;
    for (std::size_t v = 0; deterministic && v < all_results[0].size(); ++v)
      if (!same_result(all_results[0][v], all_results[j][v]))
        deterministic = false;
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_scaling\",\n"
       << "  \"cap\": " << opt.cap << ",\n"
       << "  \"seed\": " << opt.seed << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"generate_seconds\": " << gen_seconds
       << ",\n  \"generate_cases\": " << gen_cases
       << ",\n  \"generate_cases_per_sec\": "
       << (gen_seconds > 0 ? gen_cases / gen_seconds : 0)
       << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const double rate = r.seconds > 0 ? r.cases / r.seconds : 0;
    const double speedup =
        r.seconds > 0 ? runs[0].seconds / r.seconds : 0;
    json << "    {\"jobs\": " << r.jobs << ", \"seconds\": " << r.seconds
         << ", \"cases\": " << r.cases << ", \"cases_per_sec\": " << rate
         << ", \"speedup\": " << speedup
         << ",\n     \"plan_seconds\": " << r.metrics.plan_seconds
         << ", \"execute_seconds\": " << r.metrics.execute_seconds
         << ", \"merge_seconds\": " << r.metrics.merge_seconds
         << ", \"shards\": " << r.metrics.shards
         << ", \"machine_rebuilds\": " << r.metrics.machine_rebuilds << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << json.str();
  bench::write_report("BENCH_parallel.json", json.str());
  return deterministic ? 0 : 1;
}
