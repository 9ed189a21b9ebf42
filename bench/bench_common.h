// Shared plumbing for the experiment binaries: option parsing, the
// one-campaign-per-variant run with identical seeds (paper §3.1), and where
// the JSON reports go.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/world.h"

namespace ballista::bench {

/// `name` in the bench build directory (BALLISTA_BENCH_DIR, fixed by
/// bench/CMakeLists.txt): where every bench writes its files, whatever
/// directory it is started from.
inline std::string bench_path(const char* name) {
  return std::string(BALLISTA_BENCH_DIR) + "/" + name;
}

/// Writes a JSON report to bench_path(name) and says where on stderr.
inline void write_report(const char* name, const std::string& json) {
  const std::string path = bench_path(name);
  std::ofstream(path) << json;
  std::fprintf(stderr, "[report written to %s]\n", path.c_str());
}

struct Options {
  std::uint64_t cap = core::kDefaultCap;  // the paper's 5000-test cap
  std::uint64_t seed = 0x8a11157a;
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cap") == 0 && i + 1 < argc)
      opt.cap = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
  }
  if (const char* env = std::getenv("BALLISTA_CAP"); env != nullptr)
    opt.cap = std::strtoull(env, nullptr, 10);
  return opt;
}

/// Results keep `const MuT*` pointers into the World's registry, so the two
/// travel together.
struct Experiment {
  std::unique_ptr<harness::World> world;
  std::vector<core::CampaignResult> results;
};

inline Experiment run_everything(const Options& opt) {
  Experiment e;
  e.world = harness::build_world();
  core::CampaignOptions copt;
  copt.cap = opt.cap;
  copt.seed = opt.seed;
  const auto start = std::chrono::steady_clock::now();
  e.results = harness::run_all_variants(*e.world, copt);
  const auto secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::uint64_t cases = 0;
  for (const auto& r : e.results) cases += r.total_cases;
  std::fprintf(stderr, "[campaign: %llu test cases across %zu variants in %.1fs]\n",
               static_cast<unsigned long long>(cases), e.results.size(), secs);
  return e;
}

}  // namespace ballista::bench
