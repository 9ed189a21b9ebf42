// Heap-allocation and C++ throw count gate.
//
// Counts calls to the global operator new (every form, new[] included) and
// C++ throws over fixed workloads and compares them with the baseline
// committed in tests/golden/alloc_baseline.json:
//
//   - 10,000 acquire/release cycles of a pooled task on a warmed NT4 machine,
//     which must allocate nothing;
//   - the NT4 default campaign at cap 2000 and jobs 1.  Its first run makes a
//     few more allocations than later runs (function-local statics), so the
//     gate counts the second run.  On that run it also pins the reset work
//     the machines did (core::EngineMetrics): fixture restores that walked
//     the tree because a node was edited, and recycles that rebuilt an
//     edited environment or cwd.  Either count moving either way means the
//     reset path changed what it does per case;
//   - one run of the seven-variant default campaign at cap 2000 and jobs 1,
//     whose throws are counted;
//   - the NT4 and Win95 default crash campaigns at cap 500 and jobs 1, whose
//     allocations and throws are counted on a second run.
//
// Simulated faults, hangs and kernel panics (crash cuts included) are
// values, so every campaign the gate runs must throw nothing.
//
// Throws are counted by linking with -Wl,--wrap=__cxa_throw, which routes
// every throw the project's code makes through __wrap___cxa_throw below
// (throws made inside the C++ runtime library itself are not seen).
//
// The counts do not depend on the host, so unlike a timing floor this gate
// trips on the first per-case allocation, throw or tree walk anyone adds.
// Exits 3 when a campaign throws, a count grows past its baseline, a work
// count differs from it (or a campaign's case count moved, which means the
// baseline no longer describes that workload).  A change that means to move
// a count re-pins the baseline with:
//
//   bench_alloc_gate --write-baseline tests/golden/alloc_baseline.json
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <typeinfo>

#include "core/crashplan.h"
#include "core/sched.h"
#include "harness/world.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_throws{0};

}  // namespace

extern "C" {
[[noreturn]] void __real___cxa_throw(void* obj, std::type_info* type,
                                     void (*dtor)(void*));

[[noreturn]] void __wrap___cxa_throw(void* obj, std::type_info* type,
                                     void (*dtor)(void*)) {
  g_throws.fetch_add(1, std::memory_order_relaxed);
  __real___cxa_throw(obj, type, dtor);
}
}

// The standard's default new[], nothrow and array-delete forms forward to
// these, so replacing them counts (and frees) every global allocation.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a non-zero multiple of the alignment.
  const std::size_t size =
      std::max<std::size_t>(1, (n + align - 1) / align) * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace ballista;

constexpr std::uint64_t kRecycleCycles = 10'000;
constexpr std::uint64_t kCampaignCap = 2000;
constexpr std::uint64_t kCrashCap = 500;
constexpr sim::OsVariant kCrashVariants[] = {sim::OsVariant::kWinNT4,
                                             sim::OsVariant::kWin95};

struct Counts {
  std::uint64_t recycle_allocs = 0;
  std::uint64_t campaign_cases = 0;
  std::uint64_t campaign_allocs = 0;
  std::uint64_t campaign_throws = 0;
  std::uint64_t fixture_walks = 0;
  std::uint64_t env_rebuilds = 0;
  std::uint64_t campaign7_cases = 0;
  std::uint64_t campaign7_throws = 0;
  std::uint64_t crash_cuts = 0;
  std::uint64_t crash_allocs = 0;
  std::uint64_t crash_throws = 0;
};

/// The NT4 + Win95 crash campaigns; returns the cuts they tested.
std::uint64_t run_crash_campaigns(const harness::World& world) {
  core::CrashOptions opt;
  opt.cap = kCrashCap;
  std::uint64_t cuts = 0;
  for (const sim::OsVariant v : kCrashVariants)
    cuts += core::run_crash_engine(v, world.registry, opt).total_cuts;
  return cuts;
}

Counts measure(const harness::World& world) {
  Counts c;
  sim::Machine machine(sim::OsVariant::kWinNT4);
  for (int i = 0; i < 4; ++i)
    machine.release_process(machine.acquire_process());
  const std::uint64_t r0 = g_allocs.load();
  for (std::uint64_t i = 0; i < kRecycleCycles; ++i)
    machine.release_process(machine.acquire_process());
  c.recycle_allocs = g_allocs.load() - r0;

  core::CampaignOptions opt;
  opt.cap = kCampaignCap;
  opt.jobs = 1;
  core::Campaign::run(sim::OsVariant::kWinNT4, world.registry, opt);
  core::EngineMetrics work;
  opt.metrics = &work;
  const std::uint64_t c0 = g_allocs.load(), t0 = g_throws.load();
  const auto result =
      core::Campaign::run(sim::OsVariant::kWinNT4, world.registry, opt);
  c.campaign_allocs = g_allocs.load() - c0;
  c.campaign_throws = g_throws.load() - t0;
  c.campaign_cases = result.total_cases;
  c.fixture_walks = work.fixture_walks;
  c.env_rebuilds = work.env_rebuilds;
  opt.metrics = nullptr;

  const std::uint64_t t7 = g_throws.load();
  for (const sim::OsVariant v : sim::kAllVariants)
    c.campaign7_cases +=
        core::Campaign::run(v, world.registry, opt).total_cases;
  c.campaign7_throws = g_throws.load() - t7;

  run_crash_campaigns(world);
  const std::uint64_t a8 = g_allocs.load(), t8 = g_throws.load();
  c.crash_cuts = run_crash_campaigns(world);
  c.crash_allocs = g_allocs.load() - a8;
  c.crash_throws = g_throws.load() - t8;
  return c;
}

/// Extracts one unsigned field; the baseline file is written by this binary,
/// so the shape is under our control.
bool read_field(const std::string& body, const char* key, std::uint64_t& out) {
  const auto at = body.find(std::string("\"") + key + "\"");
  if (at == std::string::npos) return false;
  const auto colon = body.find(':', at);
  if (colon == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(body.c_str() + colon + 1, &end, 10);
  return end != body.c_str() + colon + 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  bool write_baseline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-baseline") == 0)
      write_baseline = true;
    else
      baseline_path = argv[i];
  }
  if (baseline_path.empty()) {
    std::fprintf(stderr, "usage: bench_alloc_gate [--write-baseline] "
                         "<baseline.json>\n");
    return 2;
  }

  const auto world = harness::build_world();
  const Counts c = measure(*world);
  std::printf("%llu warmed NT4 acquire/release cycles: %llu allocations\n",
              static_cast<unsigned long long>(kRecycleCycles),
              static_cast<unsigned long long>(c.recycle_allocs));
  std::printf("NT4 default campaign, cap %llu, jobs 1, second run: %llu cases, "
              "%llu allocations (%.3f per case), %llu throws\n",
              static_cast<unsigned long long>(kCampaignCap),
              static_cast<unsigned long long>(c.campaign_cases),
              static_cast<unsigned long long>(c.campaign_allocs),
              static_cast<double>(c.campaign_allocs) /
                  static_cast<double>(c.campaign_cases),
              static_cast<unsigned long long>(c.campaign_throws));
  std::printf("  reset work: %llu fixture walks, %llu environment rebuilds\n",
              static_cast<unsigned long long>(c.fixture_walks),
              static_cast<unsigned long long>(c.env_rebuilds));
  std::printf("seven-variant default campaign, cap %llu, jobs 1: %llu cases, "
              "%llu throws\n",
              static_cast<unsigned long long>(kCampaignCap),
              static_cast<unsigned long long>(c.campaign7_cases),
              static_cast<unsigned long long>(c.campaign7_throws));
  std::printf("NT4 + Win95 crash campaigns, cap %llu, jobs 1, second run: "
              "%llu cuts, %llu allocations, %llu throws\n",
              static_cast<unsigned long long>(kCrashCap),
              static_cast<unsigned long long>(c.crash_cuts),
              static_cast<unsigned long long>(c.crash_allocs),
              static_cast<unsigned long long>(c.crash_throws));
  if (c.campaign_throws + c.campaign7_throws + c.crash_throws != 0) {
    std::fprintf(stderr, "THROW REGRESSION: a simulated stop threw instead "
                         "of returning (%llu, %llu and %llu throws)\n",
                 static_cast<unsigned long long>(c.campaign_throws),
                 static_cast<unsigned long long>(c.campaign7_throws),
                 static_cast<unsigned long long>(c.crash_throws));
    return 3;
  }

  if (write_baseline) {
    std::ofstream(baseline_path)
        << "{\n  \"bench\": \"alloc_count_gate\",\n"
        << "  \"recycle_cycles\": " << kRecycleCycles << ",\n"
        << "  \"recycle_allocs\": " << c.recycle_allocs << ",\n"
        << "  \"campaign\": \"nt4 default groups cap=" << kCampaignCap
        << " jobs=1, second run\",\n"
        << "  \"campaign_cases\": " << c.campaign_cases << ",\n"
        << "  \"campaign_allocs\": " << c.campaign_allocs << ",\n"
        << "  \"fixture_walks\": " << c.fixture_walks << ",\n"
        << "  \"env_rebuilds\": " << c.env_rebuilds << ",\n"
        << "  \"campaign7\": \"seven variants default groups cap="
        << kCampaignCap << " jobs=1\",\n"
        << "  \"campaign7_cases\": " << c.campaign7_cases << ",\n"
        << "  \"campaign7_throws\": " << c.campaign7_throws << ",\n"
        << "  \"crash\": \"nt4 + win95 default crash groups cap=" << kCrashCap
        << " jobs=1, second run\",\n"
        << "  \"crash_cuts\": " << c.crash_cuts << ",\n"
        << "  \"crash_allocs\": " << c.crash_allocs << ",\n"
        << "  \"crash_throws\": " << c.crash_throws << "\n}\n";
    std::printf("wrote %s\n", baseline_path.c_str());
    return 0;
  }

  std::ifstream in(baseline_path);
  std::stringstream ss;
  ss << in.rdbuf();
  Counts base;
  if (!in || !read_field(ss.str(), "recycle_allocs", base.recycle_allocs) ||
      !read_field(ss.str(), "campaign_cases", base.campaign_cases) ||
      !read_field(ss.str(), "campaign_allocs", base.campaign_allocs) ||
      !read_field(ss.str(), "fixture_walks", base.fixture_walks) ||
      !read_field(ss.str(), "env_rebuilds", base.env_rebuilds) ||
      !read_field(ss.str(), "campaign7_cases", base.campaign7_cases) ||
      !read_field(ss.str(), "crash_cuts", base.crash_cuts) ||
      !read_field(ss.str(), "crash_allocs", base.crash_allocs)) {
    std::fprintf(stderr, "cannot read the allocation baseline from %s\n",
                 baseline_path.c_str());
    return 2;
  }
  bool ok = true;
  if (c.recycle_allocs > base.recycle_allocs) {
    std::fprintf(stderr, "ALLOCATION REGRESSION: recycling made %llu "
                         "allocations, baseline %llu\n",
                 static_cast<unsigned long long>(c.recycle_allocs),
                 static_cast<unsigned long long>(base.recycle_allocs));
    ok = false;
  }
  if (c.campaign_cases != base.campaign_cases) {
    std::fprintf(stderr, "campaign ran %llu cases, baseline %llu: the "
                         "baseline no longer describes this workload\n",
                 static_cast<unsigned long long>(c.campaign_cases),
                 static_cast<unsigned long long>(base.campaign_cases));
    ok = false;
  } else {
    if (c.campaign_allocs > base.campaign_allocs) {
      std::fprintf(stderr, "ALLOCATION REGRESSION: the campaign made %llu "
                           "allocations, baseline %llu\n",
                   static_cast<unsigned long long>(c.campaign_allocs),
                   static_cast<unsigned long long>(base.campaign_allocs));
      ok = false;
    }
    if (c.fixture_walks != base.fixture_walks ||
        c.env_rebuilds != base.env_rebuilds) {
      std::fprintf(stderr, "RESET WORK CHANGED: the campaign walked the "
                           "fixture %llu times and rebuilt %llu environments, "
                           "baseline %llu and %llu\n",
                   static_cast<unsigned long long>(c.fixture_walks),
                   static_cast<unsigned long long>(c.env_rebuilds),
                   static_cast<unsigned long long>(base.fixture_walks),
                   static_cast<unsigned long long>(base.env_rebuilds));
      ok = false;
    }
  }
  if (c.campaign7_cases != base.campaign7_cases) {
    std::fprintf(stderr, "seven-variant campaign ran %llu cases, baseline "
                         "%llu: the baseline no longer describes this "
                         "workload\n",
                 static_cast<unsigned long long>(c.campaign7_cases),
                 static_cast<unsigned long long>(base.campaign7_cases));
    ok = false;
  }
  if (c.crash_cuts != base.crash_cuts) {
    std::fprintf(stderr, "crash campaigns tested %llu cuts, baseline %llu: "
                         "the baseline no longer describes this workload\n",
                 static_cast<unsigned long long>(c.crash_cuts),
                 static_cast<unsigned long long>(base.crash_cuts));
    ok = false;
  } else {
    if (c.crash_allocs > base.crash_allocs) {
      std::fprintf(stderr, "ALLOCATION REGRESSION: the crash campaigns made "
                           "%llu allocations, baseline %llu\n",
                   static_cast<unsigned long long>(c.crash_allocs),
                   static_cast<unsigned long long>(base.crash_allocs));
      ok = false;
    }
  }
  if (!ok) return 3;
  if (c.campaign_allocs < base.campaign_allocs)
    std::printf("below the baseline of %llu; re-pin it to lock the gain in\n",
                static_cast<unsigned long long>(base.campaign_allocs));
  if (c.crash_allocs < base.crash_allocs)
    std::printf("below the crash baseline of %llu; re-pin it to lock the "
                "gain in\n",
                static_cast<unsigned long long>(base.crash_allocs));
  std::printf("allocation and throw gate: ok\n");
  return 0;
}
