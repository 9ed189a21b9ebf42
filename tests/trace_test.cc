// Golden-trace regression tests for the structured kernel-event spine:
// the exact causal chain behind a Win9x hazard crash, the deferred `*`
// interference chain crossing MuT boundaries, sink semantics, rendering,
// and counter determinism across worker counts.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using trace::EventKind;
using trace::ProbeResult;
using trace::TraceEvent;

// --- TraceSink semantics -----------------------------------------------------

TEST(TraceSink, CountsAndStampsEvents) {
  std::uint64_t clock = 41;
  trace::TraceSink sink(8);
  sink.bind_clock(&clock);
  sink.set_case_index(7);
  sink.emit(trace::fuse_burn_event(3));
  clock = 42;
  sink.emit(trace::panic_event(sim::PanicKind::kDeferredFuse));
  ASSERT_EQ(sink.size(), 2u);
  const auto tail = sink.tail();
  EXPECT_EQ(tail[0].kind, EventKind::kFuseBurn);
  EXPECT_EQ(tail[0].ticks, 41u);
  EXPECT_EQ(tail[0].case_index, 7);
  EXPECT_EQ(tail[1].kind, EventKind::kPanic);
  EXPECT_EQ(tail[1].ticks, 42u);
  EXPECT_EQ(sink.counters()[EventKind::kFuseBurn], 1u);
  EXPECT_EQ(sink.counters()[EventKind::kPanic], 1u);
  EXPECT_EQ(sink.counters().total(), 2u);
}

TEST(TraceSink, RingKeepsOnlyTheLastCapacityEventsInOrder) {
  trace::TraceSink sink(4);
  for (int i = 0; i < 10; ++i) sink.emit(trace::fuse_burn_event(i));
  EXPECT_EQ(sink.size(), 4u);
  const auto tail = sink.tail();
  ASSERT_EQ(tail.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(tail[static_cast<std::size_t>(i)].fuse.remaining, 6 + i);
  // Counters keep counting past the ring horizon.
  EXPECT_EQ(sink.counters()[EventKind::kFuseBurn], 10u);
  // tail(max) returns the newest suffix.
  const auto last2 = sink.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].fuse.remaining, 8);
  EXPECT_EQ(last2[1].fuse.remaining, 9);
}

TEST(TraceSink, CountersOnlyModeSkipsTheRing) {
  trace::TraceSink sink;
  sink.set_mode(trace::TraceSink::Mode::kCountersOnly);
  sink.emit(trace::reboot_event(1));
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.counters()[EventKind::kReboot], 1u);
}

TEST(TraceSink, DisabledModeIsANoOp) {
  trace::TraceSink sink;
  sink.set_mode(trace::TraceSink::Mode::kDisabled);
  sink.emit(trace::reboot_event(1));
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.counters().total(), 0u);
}

TEST(TraceSink, ClearDropsEventsButKeepsModeAndClock) {
  std::uint64_t clock = 5;
  trace::TraceSink sink;
  sink.bind_clock(&clock);
  sink.set_case_index(3);
  sink.emit(trace::reboot_event(1));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.counters().total(), 0u);
  EXPECT_EQ(sink.case_index(), -1);
  sink.emit(trace::reboot_event(2));  // still enabled, still stamped
  EXPECT_EQ(sink.tail()[0].ticks, 5u);
}

// --- rendering ---------------------------------------------------------------

TEST(TraceRender, GoldenStringsPerKind) {
  EXPECT_EQ(trace::render(trace::syscall_enter_event(-1)), "syscall enter");
  EXPECT_EQ(trace::render(trace::syscall_enter_event(3)),
            "syscall enter (fuse=3)");
  EXPECT_EQ(trace::render(trace::syscall_exit_event(CallStatus::kSuccess, 1)),
            "syscall exit: success ret=1");
  EXPECT_EQ(trace::render(trace::probe_event(ProbeResult::kUnprobed,
                                             0xDEAD0000, 4, true)),
            "probe write 0xdead0000 size=4 -> unprobed");
  EXPECT_EQ(trace::render(trace::probe_event(ProbeResult::kRejected, 0x10, 8,
                                             false)),
            "probe read 0x10 size=8 -> rejected");
  EXPECT_EQ(trace::render(trace::hazard_write_event(0x80005000, 16, true)),
            "unprobed kernel write 0x80005000 size=16 (staging overrun)");
  EXPECT_EQ(trace::render(trace::corruption_event(0x80005000, false)),
            "shared arena corrupted at 0x80005000");
  EXPECT_EQ(trace::render(trace::corruption_event(0x80005000, true)),
            "shared arena corrupted at 0x80005000 (critical)");
  EXPECT_EQ(trace::render(trace::fuse_burn_event(2)),
            "corruption fuse burns: 2 entries remaining");
  // Panic and fault render through the shared sim describe_* formatters, so
  // the trace view and KernelPanic::what() can never drift apart.
  EXPECT_EQ(trace::render(trace::panic_event(sim::PanicKind::kDeferredFuse)),
            sim::describe_panic(sim::PanicKind::kDeferredFuse));
  EXPECT_EQ(trace::render(trace::fault_event(sim::FaultType::kAccessViolation,
                                             0xffff0000, true)),
            sim::describe_fault(sim::Fault{sim::FaultType::kAccessViolation,
                                           0xffff0000, true}));
  EXPECT_EQ(trace::render(trace::reboot_event(2)), "reboot #2");
  EXPECT_EQ(trace::render(trace::shard_event(EventKind::kShardStart, 3, 9)),
            "shard 3 start (9 items)");
  EXPECT_EQ(trace::render(trace::shard_event(EventKind::kShardEnd, 3, 9)),
            "shard 3 end");
  EXPECT_EQ(trace::render(trace::classified_event(
                Outcome::kAbort, sim::FaultType::kAccessViolation, false,
                false)),
            "classified Abort (ACCESS_VIOLATION)");
}

TEST(TraceRender, CountersJsonNamesEveryKind) {
  trace::Counters c;
  c[EventKind::kSyscallEnter] = 12;
  c[EventKind::kPanic] = 1;
  const std::string json = trace::counters_json(c);
  EXPECT_NE(json.find("\"syscall_enter\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"panic\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"probe_decision\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"case_classified\": 0"), std::string::npos);
}

TEST(TraceRender, TailLinesCarryTickAndCaseStamps) {
  std::uint64_t clock = 1'000'003;
  trace::TraceSink sink;
  sink.bind_clock(&clock);
  sink.set_case_index(2);
  sink.emit(trace::fuse_burn_event(1));
  const std::string text = trace::render_tail(sink.tail());
  EXPECT_NE(text.find("tick 1000003 case 2"), std::string::npos);
  EXPECT_NE(text.find("corruption fuse burns: 1 entries remaining"),
            std::string::npos);
}

// --- golden causal chains through the full stack -----------------------------

/// Registry fixture mirroring campaign_test's controllable world: one tiny
/// 4-value type (v2/v3 exceptional), synthetic MuTs with chosen hazards.
class TraceChainTest : public ::testing::Test {
 protected:
  TraceChainTest() {
    auto& t = lib.make("tiny");
    for (int i = 0; i < 4; ++i) {
      t.add("v" + std::to_string(i), i >= 2,
            [i](ValueCtx&) { return static_cast<RawArg>(i); });
    }
    tiny = &lib.get("tiny");
  }

  MuT make(std::string name, ApiImpl impl,
           std::map<OsVariant, CrashStyle> hazards = {}) {
    MuT m;
    m.name = std::move(name);
    m.api = ApiKind::kWin32Sys;
    m.group = FuncGroup::kProcessPrimitives;
    m.params = {tiny};
    m.impl = std::move(impl);
    m.variant_mask = kMaskEverything;
    m.hazards = std::move(hazards);
    return m;
  }

  static std::vector<EventKind> kinds(const std::vector<TraceEvent>& evs) {
    std::vector<EventKind> out;
    for (const TraceEvent& e : evs) out.push_back(e.kind);
    return out;
  }

  TypeLibrary lib;
  const DataType* tiny = nullptr;
  Registry reg;
};

TEST_F(TraceChainTest, ImmediateHazardEmitsTheExactGoldenChain) {
  reg.add(make(
      "imm",
      [](CallContext& c) -> CallOutcome {
        std::uint8_t junk[4] = {};
        if (c.arg32(0) >= 2) {
          const MemStatus st = c.k_write(0xDEAD0000, junk);
          if (st == MemStatus::kStopped) return stopped();
        }
        return ok(0);
      },
      {{OsVariant::kWin95, CrashStyle::kImmediate}}));
  const auto r = Campaign::run_sequential(OsVariant::kWin95, reg);
  const MutStats* s = r.find("imm");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->catastrophic);
  EXPECT_EQ(s->crash_detail,
            "kernel panic: page fault in kernel context (unprobed user pointer)");
  // The full causal chain, nothing more: enter, the unprobed probe verdict,
  // the kernel-context fault, the panic.
  ASSERT_EQ(kinds(s->crash_trace),
            (std::vector<EventKind>{EventKind::kSyscallEnter,
                                    EventKind::kProbeDecision,
                                    EventKind::kFault, EventKind::kPanic}));
  EXPECT_EQ(s->crash_trace[1].probe.result, ProbeResult::kUnprobed);
  EXPECT_EQ(s->crash_trace[1].probe.addr, 0xDEAD0000u);
  EXPECT_TRUE(s->crash_trace[1].probe.is_write);
  EXPECT_EQ(s->crash_trace[2].fault.type, sim::FaultType::kAccessViolation);
  EXPECT_EQ(s->crash_trace[3].panic.why, sim::PanicKind::kKernelPageFault);
  // Every event in the chain belongs to the crashing case.
  for (const TraceEvent& e : s->crash_trace)
    EXPECT_EQ(e.case_index, s->crash_case);
  EXPECT_TRUE(s->crash_reproducible_single);
}

TEST_F(TraceChainTest, DeferredHazardChainCrossesMutBoundaries) {
  // Corrupts the shared arena via a staging overrun on exceptional args;
  // the machine dies several kernel entries later, in another MuT.
  reg.add(make(
      "hazard",
      [](CallContext& c) -> CallOutcome {
        std::uint8_t junk[4] = {};
        if (c.arg32(0) >= 2) {
          const MemStatus st = c.k_write(0xDEAD0000, junk);
          if (st == MemStatus::kStopped) return stopped();
        }
        return ok(0);
      },
      {{OsVariant::kWin95, CrashStyle::kDeferred}}));
  reg.add(make("fillerA", [](CallContext&) { return ok(0); }));
  reg.add(make("fillerB", [](CallContext&) { return ok(0); }));
  const auto r = Campaign::run_sequential(OsVariant::kWin95, reg);

  // Blame lands on the corruptor, and the crash is the Table 3 `*`.
  const MutStats* s = r.find("hazard");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->catastrophic);
  EXPECT_FALSE(s->crash_reproducible_single);
  EXPECT_EQ(s->crash_detail,
            "kernel panic: delayed failure from corrupted shared arena");
  ASSERT_FALSE(s->crash_trace.empty());

  const auto& chain = s->crash_trace;
  // The window opens at the corrupting case's own kernel entry...
  EXPECT_EQ(chain.front().kind, EventKind::kSyscallEnter);
  // ...walks the paper's signature: unprobed probe verdict, staging-buffer
  // hazard write, arena corruption...
  auto find_kind = [&](EventKind k) {
    for (std::size_t i = 0; i < chain.size(); ++i)
      if (chain[i].kind == k) return static_cast<std::ptrdiff_t>(i);
    return std::ptrdiff_t{-1};
  };
  const auto probe_at = find_kind(EventKind::kProbeDecision);
  const auto hazard_at = find_kind(EventKind::kHazardWrite);
  const auto corrupt_at = find_kind(EventKind::kArenaCorruption);
  ASSERT_GE(probe_at, 0);
  ASSERT_GE(hazard_at, 0);
  ASSERT_GE(corrupt_at, 0);
  EXPECT_LT(probe_at, hazard_at);
  EXPECT_LT(hazard_at, corrupt_at);
  EXPECT_EQ(chain[static_cast<std::size_t>(probe_at)].probe.result,
            ProbeResult::kUnprobed);
  EXPECT_TRUE(chain[static_cast<std::size_t>(hazard_at)].hazard.staging);
  // ...then the fuse burns down across *later* syscall entries until the
  // machine dies: all six burns are in the window, ending at remaining=0.
  std::vector<const TraceEvent*> burns;
  for (const TraceEvent& e : chain)
    if (e.kind == EventKind::kFuseBurn) burns.push_back(&e);
  const int fuse = sim::personality_for(OsVariant::kWin95).corruption_fuse;
  ASSERT_EQ(burns.size(), static_cast<std::size_t>(fuse));
  EXPECT_EQ(burns.front()->fuse.remaining, fuse - 1);
  EXPECT_EQ(burns.back()->fuse.remaining, 0);
  // The burning entries belong to other MuTs' cases: more than one distinct
  // case index appears in the chain (the visible inter-test interference).
  std::set<std::int64_t> case_stamps;
  for (const TraceEvent& e : chain) case_stamps.insert(e.case_index);
  EXPECT_GT(case_stamps.size(), 1u);
  // The chain ends in the deferred-fuse panic.
  EXPECT_EQ(chain.back().kind, EventKind::kPanic);
  EXPECT_EQ(chain.back().panic.why, sim::PanicKind::kDeferredFuse);
}

TEST_F(TraceChainTest, ExactlyOneProbeDecisionPerMemoryAccessCall) {
  reg.add(make("reader", [](CallContext& c) -> CallOutcome {
    std::uint8_t buf[8] = {};
    const MemStatus s = c.k_read(c.arg_addr(0), buf);
    if (s != MemStatus::kOk) return c.posix_mem_fail(s);
    return ok(0);
  }));
  sim::Machine machine(OsVariant::kLinux);
  Executor ex(machine);
  const MuT* mut = reg.find("reader");
  TupleGenerator gen(*mut, kDefaultCap, 0x8a11157a);
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const CaseResult r = ex.run_case(*mut, gen.tuple(i),
                                     static_cast<std::int64_t>(i));
    EXPECT_EQ(r.events[EventKind::kProbeDecision], 1u) << "case " << i;
    EXPECT_EQ(r.events[EventKind::kSyscallEnter], 1u);
    EXPECT_EQ(r.events[EventKind::kCaseClassified], 1u);
    // Linux probes and rejects: no hazard writes, no corruption, ever.
    EXPECT_EQ(r.events[EventKind::kHazardWrite], 0u);
    EXPECT_EQ(r.events[EventKind::kArenaCorruption], 0u);
  }
}

TEST_F(TraceChainTest, SyscallExitOnlyOnNormalReturn) {
  reg.add(make("aborter", [](CallContext& c) -> CallOutcome {
    std::uint8_t b = 0;
    if (auto f = c.proc().mem().read_u8(0, &b, sim::Access::kUser))
      return c.raise(*f);  // always faults
    return ok(0);
  }));
  sim::Machine machine(OsVariant::kWinNT4);
  Executor ex(machine);
  const MuT* mut = reg.find("aborter");
  TupleGenerator gen(*mut, kDefaultCap, 0x8a11157a);
  const CaseResult r = ex.run_case(*mut, gen.tuple(0), 0);
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_EQ(r.events[EventKind::kSyscallEnter], 1u);
  EXPECT_EQ(r.events[EventKind::kSyscallExit], 0u);  // abnormal exit
  EXPECT_EQ(r.events[EventKind::kFault], 1u);
}

// --- determinism across schedules -------------------------------------------

TEST_F(TraceChainTest, CountersAreIdenticalAcrossWorkerCounts) {
  reg.add(make(
      "hazard",
      [](CallContext& c) -> CallOutcome {
        std::uint8_t junk[4] = {};
        if (c.arg32(0) >= 2) {
          const MemStatus st = c.k_write(0xDEAD0000, junk);
          if (st == MemStatus::kStopped) return stopped();
        }
        return ok(0);
      },
      {{OsVariant::kWin95, CrashStyle::kDeferred}}));
  reg.add(make("fillerA", [](CallContext&) { return ok(0); }));
  reg.add(make("fillerB", [](CallContext& c) -> CallOutcome {
    std::uint8_t buf[4] = {};
    return c.k_read(c.arg_addr(0), buf) == MemStatus::kOk ? ok(0)
                                                          : c.win_fail(998);
  }));

  const auto reference = Campaign::run_sequential(OsVariant::kWin95, reg);
  EXPECT_GT(reference.event_counters.total(), 0u);
  for (unsigned jobs : {1u, 2u, 4u}) {
    CampaignOptions opt;
    opt.jobs = jobs;
    const auto r = Campaign::run(OsVariant::kWin95, reg, opt);
    EXPECT_EQ(r.event_counters, reference.event_counters)
        << "jobs=" << jobs;
    ASSERT_EQ(r.stats.size(), reference.stats.size());
    for (std::size_t i = 0; i < r.stats.size(); ++i) {
      EXPECT_EQ(r.stats[i].event_counts, reference.stats[i].event_counts)
          << "jobs=" << jobs << " / " << r.stats[i].mut->name;
      ASSERT_EQ(r.stats[i].crash_trace.size(),
                reference.stats[i].crash_trace.size());
      for (std::size_t k = 0; k < r.stats[i].crash_trace.size(); ++k) {
        EXPECT_EQ(r.stats[i].crash_trace[k].kind,
                  reference.stats[i].crash_trace[k].kind);
        EXPECT_EQ(r.stats[i].crash_trace[k].case_index,
                  reference.stats[i].crash_trace[k].case_index);
      }
    }
  }
}

}  // namespace
}  // namespace ballista::core
