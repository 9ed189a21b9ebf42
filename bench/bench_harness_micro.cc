// google-benchmark micro-suite for the harness itself: cost of one test case
// end to end (task creation, value construction, dispatch, classification)
// per OS personality, plus the building blocks (tuple generation, simulated
// memory access, page lookup, map-write-restore, range protect/unmap, a
// large map, CRT set-up, machine boot)
// and the trace-spine overhead per sink mode (disabled / counters-only /
// full ring), reported to BENCH_trace.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "clib/crt.h"
#include "harness/world.h"

namespace {

using namespace ballista;

const harness::World& world() {
  static const auto w = harness::build_world();
  return *w;
}

void BM_RunCase(benchmark::State& state) {
  const auto variant = static_cast<sim::OsVariant>(state.range(0));
  const core::MuT* mut = world().registry.find("strlen");
  sim::Machine machine(variant);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, gen.tuple(i++ % gen.count()));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunCase)
    ->Arg(static_cast<int>(sim::OsVariant::kLinux))
    ->Arg(static_cast<int>(sim::OsVariant::kWinNT4))
    ->Arg(static_cast<int>(sim::OsVariant::kWin98))
    ->Arg(static_cast<int>(sim::OsVariant::kWinCE));

void BM_RunCaseSyscall(benchmark::State& state) {
  const core::MuT* mut = world().registry.find("CreateFile");
  sim::Machine machine(sim::OsVariant::kWinNT4);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, gen.tuple(i++ % gen.count()));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunCaseSyscall);

void BM_RunCaseFault(benchmark::State& state) {
  // NT4 memset over its aborting tuples (arg 0) or its passing ones (arg 1):
  // what a simulated fault adds to a case.
  const bool aborting = state.range(0) == 0;
  const core::MuT* mut = world().registry.find("memset");
  sim::Machine machine(sim::OsVariant::kWinNT4);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::vector<std::uint64_t> picked;
  for (std::uint64_t k = 0; k < gen.count(); ++k) {
    const auto r = executor.run_case(*mut, gen.tuple(k));
    if ((r.outcome == core::Outcome::kAbort) == aborting) picked.push_back(k);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r =
        executor.run_case(*mut, gen.tuple(picked[i++ % picked.size()]));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["tuples"] = static_cast<double>(picked.size());
}
BENCHMARK(BM_RunCaseFault)->Arg(0)->Arg(1);

void BM_TupleGeneration(benchmark::State& state) {
  const core::MuT* mut = world().registry.find("CreateFile");  // 7 params
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.tuple(i++ % gen.count()));
  }
}
BENCHMARK(BM_TupleGeneration);

void BM_ProcessCreation(benchmark::State& state) {
  sim::Machine machine(sim::OsVariant::kWinNT4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.create_process());
  }
}
BENCHMARK(BM_ProcessCreation);

void BM_ProcessRecycle(benchmark::State& state) {
  // Pool-backed acquire/release: SimProcess::recycle instead of a full
  // construction (compare with BM_ProcessCreation, which drops each process
  // and so always constructs).
  sim::Machine machine(sim::OsVariant::kWinNT4);
  machine.release_process(machine.acquire_process());
  for (auto _ : state) {
    auto p = machine.acquire_process();
    benchmark::DoNotOptimize(p);
    machine.release_process(std::move(p));
  }
}
BENCHMARK(BM_ProcessRecycle);

void BM_FixtureRestore(benchmark::State& state) {
  // arg 0: verify path (clean tree); arg 1: rebuild path (churned tree).
  const bool churn = state.range(0) != 0;
  sim::FileSystem fs;
  const auto cwd = sim::FileSystem::root_path();
  for (auto _ : state) {
    if (churn) (void)fs.create_file(fs.parse("/tmp/junk.dat", cwd), false, true);
    benchmark::DoNotOptimize(fs.restore_fixture());
  }
}
BENCHMARK(BM_FixtureRestore)->Arg(0)->Arg(1);

void BM_RunCaseResetPolicy(benchmark::State& state) {
  // End-to-end hot-loop cost of the two lifecycle policies on a cheap MuT
  // (the reset-dominated regime bench_case_reset quantifies in bulk).
  const auto policy = static_cast<sim::ResetPolicy>(state.range(0));
  const core::MuT* mut = world().registry.find("strlen");
  sim::Machine machine(sim::OsVariant::kWinNT4);
  machine.set_reset_policy(policy);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, gen.tuple(i++ % gen.count()));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunCaseResetPolicy)
    ->Arg(static_cast<int>(sim::ResetPolicy::kIncremental))
    ->Arg(static_cast<int>(sim::ResetPolicy::kAlwaysRebuild));

void BM_MachineBoot(benchmark::State& state) {
  for (auto _ : state) {
    sim::Machine machine(sim::OsVariant::kWin98);
    benchmark::DoNotOptimize(machine.ticks());
  }
}
BENCHMARK(BM_MachineBoot);

void BM_SimMemoryWrite(benchmark::State& state) {
  sim::AddressSpace mem;
  const sim::Addr a = mem.alloc(4096);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t slot = i % 1024;
    ++i;
    benchmark::DoNotOptimize(
        mem.write_u32(a + slot * 4, static_cast<std::uint32_t>(i)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_SimMemoryWrite);

// Range operations over a stack-sized mapping: a 4 GiB VirtualProtect /
// VirtualFree (size_neg1-class arguments) over 16 mapped pages.
constexpr sim::Addr kMicroStack = 0x7ff0'0000 - 0x1'0000;
constexpr std::uint64_t kMicroStackSize = 0x1'0000;
constexpr std::uint64_t kWholeRange = 1ull << 32;

void BM_ProtectWholeRange(benchmark::State& state) {
  sim::AddressSpace mem;
  (void)mem.map(kMicroStack, kMicroStackSize, sim::kPermRW);
  for (auto _ : state) {
    (void)mem.protect(kMicroStack, kWholeRange, sim::kPermRead);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProtectWholeRange);

void BM_UnmapWholeRange(benchmark::State& state) {
  // Each iteration maps the stack again (from the free list) and unmaps it.
  sim::AddressSpace mem;
  mem.checkpoint();
  for (auto _ : state) {
    (void)mem.map(kMicroStack, kMicroStackSize, sim::kPermRW);
    (void)mem.unmap(kMicroStack, kWholeRange);
    benchmark::ClobberMemory();
    // As in BM_MapLarge: restoring, untimed, keeps the touched list bounded.
    state.PauseTiming();
    mem.restore();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_UnmapWholeRange);

void BM_PageLookup(benchmark::State& state) {
  // read_u8 on mapped pages of a task-shaped space, alternating between a
  // harness allocation and the stack, which sit in different leaves of the
  // page table: the lookup every simulated access pays.
  sim::AddressSpace mem;
  (void)mem.map(kMicroStack, kMicroStackSize, sim::kPermRW);
  mem.checkpoint();
  const sim::Addr pages[2] = {mem.alloc(sim::kPageSize), kMicroStack};
  std::uint64_t i = 0;
  std::uint8_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read_u8(pages[i & 1] + (i % 4096), &v));
    ++i;
  }
  benchmark::DoNotOptimize(v);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageLookup);

void BM_MapWriteRestore(benchmark::State& state) {
  // What a case's argument buffer costs the MMU end to end: map it, store
  // 16 bytes into it, and restore the checkpoint, which retires the page
  // and zeroes the storage it wrote.
  sim::AddressSpace mem;
  (void)mem.map(kMicroStack, kMicroStackSize, sim::kPermRW);
  mem.checkpoint();
  const std::uint8_t bytes[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                  9, 10, 11, 12, 13, 14, 15, 16};
  for (auto _ : state) {
    const sim::Survived<sim::Addr> a = mem.task_alloc(64);
    benchmark::DoNotOptimize(mem.write_bytes(a.value, bytes));
    mem.restore();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MapWriteRestore);

void BM_MapLarge(benchmark::State& state) {
  // A 16 MiB mapping (a large malloc/calloc value) on a task-shaped space,
  // mapped and unmapped again: costs what the page table does, since no
  // page of it is written.
  constexpr sim::Addr kLargeBase = 0x1000'0000;
  constexpr std::uint64_t kLargeSize = 16ull << 20;
  sim::AddressSpace mem;
  (void)mem.map(kMicroStack, kMicroStackSize, sim::kPermRW);
  mem.checkpoint();
  for (auto _ : state) {
    (void)mem.map(kLargeBase, kLargeSize, sim::kPermRW);
    (void)mem.unmap(kLargeBase, kLargeSize);
    benchmark::ClobberMemory();
    // A page mapped again after its unmap goes back on the touched list;
    // restoring, untimed, keeps that list (and the process) bounded.
    state.PauseTiming();
    mem.restore();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_MapLarge);

void BM_CrtStateFirstUse(benchmark::State& state) {
  // What a C-library case pays to set up its CRT: acquire a recycled task,
  // build its CRT state (ctype table, _iob, standard streams), release it.
  sim::Machine machine(sim::OsVariant::kWinNT4);
  machine.release_process(machine.acquire_process());
  for (auto _ : state) {
    auto p = machine.acquire_process();
    benchmark::DoNotOptimize(clib::crt_state(*p));
    machine.release_process(std::move(p));
  }
}
BENCHMARK(BM_CrtStateFirstUse);

void BM_RunCaseTraceMode(benchmark::State& state) {
  const auto mode = static_cast<trace::TraceSink::Mode>(state.range(0));
  const core::MuT* mut = world().registry.find("strlen");
  sim::Machine machine(sim::OsVariant::kWin98);
  machine.trace().set_mode(mode);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, gen.tuple(i % gen.count()),
                                     static_cast<std::int64_t>(i));
    ++i;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunCaseTraceMode)
    ->Arg(static_cast<int>(trace::TraceSink::Mode::kDisabled))
    ->Arg(static_cast<int>(trace::TraceSink::Mode::kCountersOnly))
    ->Arg(static_cast<int>(trace::TraceSink::Mode::kFull));

void BM_RunCaseSync(benchmark::State& state) {
  // The synchronization growth group's hot path: handle resolution against
  // the kernel-object table plus signaled-state bookkeeping per wait.
  const auto variant = static_cast<sim::OsVariant>(state.range(0));
  const core::MuT* mut = world().registry.find("WaitForSingleObject",
                                               core::FuncGroup::kWin32Sync);
  sim::Machine machine(variant);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, gen.tuple(i++ % gen.count()));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RunCaseSync)
    ->Arg(static_cast<int>(sim::OsVariant::kWinNT4))
    ->Arg(static_cast<int>(sim::OsVariant::kWin95))
    ->Arg(static_cast<int>(sim::OsVariant::kWinCE));

void BM_CrashAndReboot(benchmark::State& state) {
  const core::MuT* mut = world().registry.find("GetThreadContext");
  sim::Machine machine(sim::OsVariant::kWin98);
  core::Executor executor(machine);
  // The Listing 1 tuple.
  std::vector<const core::TestValue*> tuple;
  for (const core::DataType* t : mut->params) {
    for (const core::TestValue* v : t->values()) {
      if (v->name == "h_thread_pseudo" || v->name == "buf_null") {
        tuple.push_back(v);
        break;
      }
    }
  }
  for (auto _ : state) {
    const auto r = executor.run_case(*mut, tuple);
    benchmark::DoNotOptimize(r);
    machine.reboot();
  }
}
BENCHMARK(BM_CrashAndReboot);

/// Direct wall-clock comparison of the three sink modes over the same case
/// stream, written to BENCH_trace.json.  The counters-only mode is the
/// always-on default in campaigns, so its overhead vs. a disabled sink is
/// the number that matters (< 5% target).
double seconds_per_case(trace::TraceSink::Mode mode, std::uint64_t cases) {
  const core::MuT* mut = world().registry.find("strlen");
  sim::Machine machine(sim::OsVariant::kWin98);
  machine.trace().set_mode(mode);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  // Warm up allocators and the fixture path.
  for (std::uint64_t i = 0; i < cases / 10 + 1; ++i)
    benchmark::DoNotOptimize(executor.run_case(*mut, gen.tuple(i % gen.count())));
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < cases; ++i)
    benchmark::DoNotOptimize(executor.run_case(*mut, gen.tuple(i % gen.count())));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return secs / static_cast<double>(cases);
}

void write_trace_overhead_json() {
  constexpr std::uint64_t kCases = 40'000;
  // Interleave repetitions so ambient machine noise hits all modes equally;
  // keep the best (least-disturbed) time per mode.
  double best[3] = {1e9, 1e9, 1e9};
  for (int rep = 0; rep < 3; ++rep)
    for (int m = 0; m < 3; ++m)
      best[m] = std::min(
          best[m],
          seconds_per_case(static_cast<trace::TraceSink::Mode>(m), kCases));
  const double disabled = best[0], counters = best[1], full = best[2];
  std::ostringstream json;
  json << "{\n  \"bench\": \"trace_overhead\",\n"
       << "  \"cases_per_mode\": " << kCases << ",\n"
       << "  \"ns_per_case\": {\"disabled\": " << disabled * 1e9
       << ", \"counters_only\": " << counters * 1e9
       << ", \"full\": " << full * 1e9 << "},\n"
       << "  \"overhead_vs_disabled\": {\"counters_only\": "
       << (counters / disabled - 1.0) << ", \"full\": "
       << (full / disabled - 1.0) << "}\n}\n";
  std::cout << json.str();
  bench::write_report("BENCH_trace.json", json.str());
}

/// ns/case for the sync group's wait path per personality, plus whole-group
/// campaign throughput, written to BENCH_sync.json.  The interesting spread
/// is NT (every handle validated) vs Win95 (loose stubs skip the work).
double sync_seconds_per_case(sim::OsVariant v, std::uint64_t cases) {
  const core::MuT* mut = world().registry.find("WaitForSingleObject",
                                               core::FuncGroup::kWin32Sync);
  sim::Machine machine(v);
  core::Executor executor(machine);
  core::TupleGenerator gen(*mut);
  for (std::uint64_t i = 0; i < cases / 10 + 1; ++i)
    benchmark::DoNotOptimize(executor.run_case(*mut, gen.tuple(i % gen.count())));
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < cases; ++i)
    benchmark::DoNotOptimize(executor.run_case(*mut, gen.tuple(i % gen.count())));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return secs / static_cast<double>(cases);
}

void write_sync_json() {
  constexpr std::uint64_t kCases = 20'000;
  double nt = 1e9, w95 = 1e9, ce = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    nt = std::min(nt, sync_seconds_per_case(sim::OsVariant::kWinNT4, kCases));
    w95 = std::min(w95, sync_seconds_per_case(sim::OsVariant::kWin95, kCases));
    ce = std::min(ce, sync_seconds_per_case(sim::OsVariant::kWinCE, kCases));
  }
  // Whole-group campaign throughput on NT4 (plan + execute + classify).
  core::CampaignOptions opt;
  opt.cap = 24;
  opt.group_mask = core::group_bit(core::FuncGroup::kWin32Sync);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result =
      core::Campaign::run(sim::OsVariant::kWinNT4, world().registry, opt);
  const double campaign_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::ostringstream json;
  json << "{\n  \"bench\": \"sync_group\",\n"
       << "  \"cases_per_variant\": " << kCases << ",\n"
       << "  \"ns_per_wait_case\": {\"nt4\": " << nt * 1e9
       << ", \"win95\": " << w95 * 1e9 << ", \"wince\": " << ce * 1e9
       << "},\n"
       << "  \"campaign_nt4\": {\"muts\": " << result.stats.size()
       << ", \"cases\": " << result.total_cases << ", \"cases_per_sec\": "
       << static_cast<double>(result.total_cases) / campaign_secs << "}\n}\n";
  std::cout << json.str();
  bench::write_report("BENCH_sync.json", json.str());
}

}  // namespace

int main(int argc, char** argv) {
  write_trace_overhead_json();
  write_sync_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
