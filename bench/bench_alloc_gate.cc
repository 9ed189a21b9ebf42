// Heap-allocation count gate.
//
// Counts calls to the global operator new (every form, new[] included) over
// two fixed workloads and compares them with the baseline committed in
// tests/golden/alloc_baseline.json:
//
//   - 10,000 acquire/release cycles of a pooled task on a warmed NT4 machine,
//     which must allocate nothing;
//   - the NT4 default campaign at cap 2000 and jobs 1.  Its first run makes a
//     few more allocations than later runs (function-local statics), so the
//     gate counts the second run.
//
// Allocation counts do not depend on the host, so unlike a timing floor this
// gate trips on the first per-case allocation anyone adds.  Exits 3 when a
// count grows past its baseline (or the campaign's case count moved, which
// means the baseline no longer describes this workload).  A change that
// means to grow a count re-pins the baseline with:
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

#include "harness/world.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

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

struct Counts {
  std::uint64_t recycle_allocs = 0;
  std::uint64_t campaign_cases = 0;
  std::uint64_t campaign_allocs = 0;
};

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
  const std::uint64_t c0 = g_allocs.load();
  const auto result =
      core::Campaign::run(sim::OsVariant::kWinNT4, world.registry, opt);
  c.campaign_allocs = g_allocs.load() - c0;
  c.campaign_cases = result.total_cases;
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
              "%llu allocations (%.3f per case)\n",
              static_cast<unsigned long long>(kCampaignCap),
              static_cast<unsigned long long>(c.campaign_cases),
              static_cast<unsigned long long>(c.campaign_allocs),
              static_cast<double>(c.campaign_allocs) /
                  static_cast<double>(c.campaign_cases));

  if (write_baseline) {
    std::ofstream(baseline_path)
        << "{\n  \"bench\": \"alloc_count_gate\",\n"
        << "  \"recycle_cycles\": " << kRecycleCycles << ",\n"
        << "  \"recycle_allocs\": " << c.recycle_allocs << ",\n"
        << "  \"campaign\": \"nt4 default groups cap=" << kCampaignCap
        << " jobs=1, second run\",\n"
        << "  \"campaign_cases\": " << c.campaign_cases << ",\n"
        << "  \"campaign_allocs\": " << c.campaign_allocs << "\n}\n";
    std::printf("wrote %s\n", baseline_path.c_str());
    return 0;
  }

  std::ifstream in(baseline_path);
  std::stringstream ss;
  ss << in.rdbuf();
  Counts base;
  if (!in || !read_field(ss.str(), "recycle_allocs", base.recycle_allocs) ||
      !read_field(ss.str(), "campaign_cases", base.campaign_cases) ||
      !read_field(ss.str(), "campaign_allocs", base.campaign_allocs)) {
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
  } else if (c.campaign_allocs > base.campaign_allocs) {
    std::fprintf(stderr, "ALLOCATION REGRESSION: the campaign made %llu "
                         "allocations, baseline %llu\n",
                 static_cast<unsigned long long>(c.campaign_allocs),
                 static_cast<unsigned long long>(base.campaign_allocs));
    ok = false;
  }
  if (!ok) return 3;
  if (c.campaign_allocs < base.campaign_allocs)
    std::printf("below the baseline of %llu; re-pin it to lock the gain in\n",
                static_cast<unsigned long long>(base.campaign_allocs));
  std::printf("allocation gate: ok\n");
  return 0;
}
