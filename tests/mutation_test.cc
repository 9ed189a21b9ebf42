// The fault-point interposition layer (sim::MutationHub): window gating,
// counting, page-write coalescing, announce-before-apply cut semantics, the
// new trace events, and the kobject edge cases under mid-operation cuts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/ballista.h"
#include "sim/kobject.h"
#include "sim/mutation.h"
#include "tests/test_util.h"

namespace ballista {
namespace {

using sim::FaultPlan;
using sim::Machine;
using sim::MutationKind;
using sim::OsVariant;

TEST(MutationHub, WindowGatesEveryAnnouncement) {
  Machine m(OsVariant::kWinNT4);
  auto& hub = m.mutations();
  hub.set_counting(true);

  // Window closed: harness work never counts as a persistence point.
  auto p = m.fs().parse("tmp/gated.txt", sim::FileSystem::root_path());
  ASSERT_NE(m.fs().create_file(p, false, false).value, nullptr);
  EXPECT_EQ(hub.seq(), 0u);

  hub.open_window();
  auto p2 = m.fs().parse("tmp/counted.txt", sim::FileSystem::root_path());
  ASSERT_NE(m.fs().create_file(p2, false, false).value, nullptr);
  EXPECT_EQ(hub.seq(), 1u);
  EXPECT_EQ(hub.count(MutationKind::kFsCreate), 1u);
  hub.close_window();

  // Idle hub (window open, neither counting nor armed) also stays silent.
  hub.set_counting(false);
  hub.open_window();
  auto p3 = m.fs().parse("tmp/idle.txt", sim::FileSystem::root_path());
  ASSERT_NE(m.fs().create_file(p3, false, false).value, nullptr);
  EXPECT_EQ(hub.seq(), 1u);
}

TEST(MutationHub, ConsecutiveSamePageWritesCoalesce) {
  Machine m(OsVariant::kWinNT4);
  auto proc = m.acquire_process();
  auto& hub = m.mutations();
  const sim::Addr a = proc->mem().alloc(3 * sim::kPageSize);
  hub.set_counting(true);
  hub.open_window();

  // A memcpy is one torn write, not kPageSize of them.
  for (int i = 0; i < 64; ++i)
    EXPECT_FALSE(proc->mem().write_u8(a + static_cast<sim::Addr>(i), 0xAA));
  EXPECT_EQ(hub.count(MutationKind::kPageWrite), 1u);

  // Crossing into another page is a second point; coming back is a third
  // (only *consecutive* same-page stores coalesce).
  EXPECT_FALSE(proc->mem().write_u8(a + sim::kPageSize, 0xBB));
  EXPECT_FALSE(proc->mem().write_u8(a, 0xCC));
  EXPECT_EQ(hub.count(MutationKind::kPageWrite), 3u);

  // An interleaved point of another kind breaks the run too.
  auto p = m.fs().parse("tmp/interleave.txt", sim::FileSystem::root_path());
  ASSERT_NE(m.fs().create_file(p, false, false).value, nullptr);
  EXPECT_FALSE(proc->mem().write_u8(a, 0xDD));
  EXPECT_EQ(hub.count(MutationKind::kPageWrite), 4u);

  hub.close_window();
  hub.set_counting(false);
  m.release_process(std::move(proc));
}

TEST(MutationHub, CutFiresBeforeTheMutationApplies) {
  Machine m(OsVariant::kWinNT4);
  auto& hub = m.mutations();
  hub.arm(FaultPlan{1});
  hub.open_window();

  auto p = m.fs().parse("tmp/torn.txt", sim::FileSystem::root_path());
  const auto created = m.fs().create_file(p, false, false);
  EXPECT_TRUE(created.down());
  EXPECT_EQ(created.value, nullptr);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.panic_kind(), sim::PanicKind::kFaultInjection);
  EXPECT_EQ(hub.cut_fired_at(), 1u);
  // Announce-before-apply: the world died with the node un-created.
  EXPECT_EQ(m.fs().resolve(p), nullptr);

  // A fired cut disarms itself: after reboot the same mutation goes through.
  hub.close_window();
  m.restore(sim::RestoreLevel::kReboot);
  EXPECT_FALSE(hub.armed());
  ASSERT_NE(m.fs().create_file(p, false, false).value, nullptr);
}

TEST(MutationHub, ResetCountsKeepsModesFullResetClearsThem) {
  Machine m(OsVariant::kWinNT4);
  auto& hub = m.mutations();
  hub.set_counting(true);
  hub.open_window();
  auto p = m.fs().parse("tmp/n.txt", sim::FileSystem::root_path());
  ASSERT_NE(m.fs().create_file(p, false, false).value, nullptr);
  EXPECT_EQ(hub.seq(), 1u);

  hub.reset_counts();
  EXPECT_EQ(hub.seq(), 0u);
  EXPECT_TRUE(hub.counting());
  EXPECT_TRUE(hub.window_open());

  hub.full_reset();
  EXPECT_FALSE(hub.counting());
  EXPECT_FALSE(hub.window_open());
  EXPECT_FALSE(hub.armed());
}

TEST(MutationTrace, RendersTheNewEventKinds) {
  EXPECT_EQ(trace::render(trace::mutation_point_event(MutationKind::kFsCreate,
                                                      3, 0x2a)),
            "mutation point #3 fs_create detail=0x2a");
  EXPECT_EQ(
      trace::render(trace::fault_cut_event(MutationKind::kHandleClose, 7)),
      "fault injection: cut at mutation point #7 (handle_close)");
  EXPECT_EQ(trace::event_kind_name(trace::EventKind::kMutationPoint),
            "mutation_point");
  EXPECT_EQ(trace::event_kind_name(trace::EventKind::kFaultCut), "fault_cut");
  EXPECT_EQ(sim::panic_reason(sim::PanicKind::kFaultInjection),
            "fault injection cut at an armed mutation point");
}

// Satellite: catastrophic crash_trace windows of a *non-crash* campaign must
// render exactly as they did before the interposition layer existed — the
// dormant hub contributes no events and no text.
TEST(MutationTrace, BaseCampaignCrashChainsRenderUnchanged) {
  core::TypeLibrary lib;
  auto& t = lib.make("tiny");
  for (int i = 0; i < 4; ++i)
    t.add("v" + std::to_string(i), i >= 2,
          [i](core::ValueCtx&) { return static_cast<core::RawArg>(i); });

  core::Registry reg;
  core::MuT imm;
  imm.name = "imm";
  imm.api = core::ApiKind::kWin32Sys;
  imm.group = core::FuncGroup::kProcessPrimitives;
  imm.params = {&lib.get("tiny")};
  imm.variant_mask = core::kMaskEverything;
  imm.hazards = {{OsVariant::kWin95, core::CrashStyle::kImmediate}};
  imm.impl = [](core::CallContext& c) -> core::CallOutcome {
    std::uint8_t junk[4] = {};
    if (c.arg32(0) >= 2) {
      const core::MemStatus st = c.k_write(0xDEAD0000, junk);
      if (st == core::MemStatus::kStopped) return core::stopped();
    }
    return core::ok(0);
  };
  reg.add(std::move(imm));

  const auto r = core::Campaign::run_sequential(OsVariant::kWin95, reg);
  const core::MutStats* s = r.find("imm");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->catastrophic);
  const std::vector<trace::EventKind> want{
      trace::EventKind::kSyscallEnter, trace::EventKind::kProbeDecision,
      trace::EventKind::kFault, trace::EventKind::kPanic};
  std::vector<trace::EventKind> got;
  for (const trace::TraceEvent& e : s->crash_trace) got.push_back(e.kind);
  EXPECT_EQ(got, want);

  const std::string text = trace::render_tail(s->crash_trace);
  EXPECT_EQ(text.find("mutation point"), std::string::npos);
  EXPECT_EQ(text.find("fault injection"), std::string::npos);
  EXPECT_NE(text.find("probe write 0xdead0000 size=4 -> unprobed"),
            std::string::npos);
  EXPECT_NE(
      text.find(sim::describe_panic(sim::PanicKind::kKernelPageFault)),
      std::string::npos);
}

// --- kobject edge cases under mid-operation cuts -----------------------------

TEST(MutationKobject, DoubleCloseAfterACutLeavesTheHandleLive) {
  Machine m(OsVariant::kWinNT4);
  auto proc = m.acquire_process();
  auto& hub = m.mutations();
  const auto h =
      proc->handles().insert(std::make_shared<sim::EventObject>(true, true, "")).value;
  ASSERT_TRUE(proc->handles().valid(h));

  hub.arm(FaultPlan{1});
  hub.open_window();
  EXPECT_TRUE(proc->handles().close(h).down());
  EXPECT_TRUE(m.crashed());
  hub.close_window();

  // The cut fired *before* the close applied: the handle is still live, so
  // the world never sees a half-closed slot.
  EXPECT_TRUE(proc->handles().valid(h));
  m.restore(sim::RestoreLevel::kReboot);

  // After reboot the first close is the real one; the second is the ordinary
  // double-close failure, not a crash.
  EXPECT_TRUE(proc->handles().close(h).value);
  EXPECT_FALSE(proc->handles().close(h).value);
  m.release_process(std::move(proc));
}

TEST(MutationKobject, HandleValuesRecurExactlyAcrossRecycle) {
  Machine m(OsVariant::kWinNT4);
  auto proc = m.acquire_process();
  const std::size_t boot_handles = proc->handles().size();
  const auto h1 =
      proc->handles().insert(std::make_shared<sim::EventObject>(true, true, "")).value;
  const auto h2 =
      proc->handles().insert(std::make_shared<sim::PipeObject>()).value;
  m.release_process(std::move(proc));

  // A recycled task is observationally identical to a new one: same handle
  // count, and re-inserting yields the very same handle values.
  auto again = m.acquire_process();
  EXPECT_EQ(again->handles().size(), boot_handles);
  EXPECT_EQ(again->handles().insert(
                std::make_shared<sim::EventObject>(true, true, "")).value,
            h1);
  EXPECT_EQ(again->handles().insert(std::make_shared<sim::PipeObject>()).value, h2);
  m.release_process(std::move(again));
}

// Property sweep: checkpoint -> cut-at-k -> restore(kReboot) must yield a
// machine field-identical to a fresh boot for EVERY k, on one MuT per
// crash-campaign group.  "Field-identical" is every observable the crash
// verdict model checks: crash state, arena, fixture tree, and the pristine
// contract of a newly acquired task.
void expect_field_identical_to_fresh_boot(Machine& m) {
  Machine fresh(m.variant());
  EXPECT_EQ(m.crashed(), fresh.crashed());
  EXPECT_EQ(m.panic_kind(), fresh.panic_kind());
  EXPECT_EQ(m.arena().corruption(), fresh.arena().corruption());
  EXPECT_TRUE(m.fs().fixture_clean());
  EXPECT_TRUE(fresh.fs().fixture_clean());

  auto p = m.acquire_process();
  auto q = fresh.acquire_process();
  EXPECT_EQ(p->handles().size(), q->handles().size());
  EXPECT_EQ(p->last_error(), q->last_error());
  EXPECT_EQ(p->err_no(), q->err_no());
  EXPECT_EQ(p->cwd().components, q->cwd().components);
  fresh.release_process(std::move(q));
  m.release_process(std::move(p));
}

TEST(MutationKobject, CutAtEveryPointRestoresToFreshBoot) {
  const auto& world = testing::shared_world();
  const OsVariant v = OsVariant::kWinNT4;
  for (const core::FuncGroup group : {core::FuncGroup::kFileDirAccess,
                                      core::FuncGroup::kMemoryManagement}) {
    // One MuT per group: the first whose early cases announce any points.
    const core::MuT* mut = nullptr;
    std::uint64_t case_index = 0, points = 0;
    Machine m(v);
    core::Executor executor(m);
    auto& hub = m.mutations();
    for (const core::MuT* cand : world.registry.for_variant(v)) {
      if (cand->group != group) continue;
      core::TupleGenerator gen(*cand, 32);
      const std::uint64_t n = std::min<std::uint64_t>(gen.count(), 16);
      for (std::uint64_t i = 0; i < n && points == 0; ++i) {
        hub.reset_counts();
        hub.set_counting(true);
        executor.run_case(*cand, gen.tuple(i), static_cast<std::int64_t>(i));
        hub.set_counting(false);
        if (m.crashed()) m.restore(sim::RestoreLevel::kReboot);
        if (hub.seq() > 0) {
          mut = cand;
          case_index = i;
          points = hub.seq();
        }
      }
      if (mut != nullptr) break;
    }
    ASSERT_NE(mut, nullptr) << "no mutating case found for group "
                            << core::group_name(group);

    core::TupleGenerator gen(*mut, 32);
    const auto tuple = gen.tuple(case_index);
    for (std::uint64_t k = 1; k <= points; ++k) {
      hub.reset_counts();
      hub.arm(FaultPlan{k});
      executor.run_case(*mut, tuple, static_cast<std::int64_t>(case_index));
      EXPECT_EQ(hub.cut_fired_at(), k) << mut->name << " k=" << k;
      hub.disarm();
      ASSERT_TRUE(m.crashed()) << mut->name << " k=" << k;
      m.restore(sim::RestoreLevel::kReboot);
      expect_field_identical_to_fresh_boot(m);
    }
  }
}

}  // namespace
}  // namespace ballista
