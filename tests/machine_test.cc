// Unit tests for the Machine: personalities, panic/reboot protocol and the
// deferred corruption fuse (the paper's inter-test interference model).
#include <gtest/gtest.h>

#include "sim/machine.h"
#include "tests/fault_util.h"

namespace ballista::sim {
namespace {

TEST(Personality, TableMatchesPaperArchitecture) {
  EXPECT_TRUE(personality_for(OsVariant::kWin95).has_shared_arena);
  EXPECT_TRUE(personality_for(OsVariant::kWin98).has_shared_arena);
  EXPECT_FALSE(personality_for(OsVariant::kWinNT4).has_shared_arena);
  EXPECT_FALSE(personality_for(OsVariant::kWin2000).has_shared_arena);
  EXPECT_FALSE(personality_for(OsVariant::kLinux).has_shared_arena);

  EXPECT_EQ(personality_for(OsVariant::kLinux).pointer_policy,
            PointerPolicy::kProbeReturnError);
  EXPECT_EQ(personality_for(OsVariant::kWinNT4).pointer_policy,
            PointerPolicy::kProbeRaiseException);
  EXPECT_EQ(personality_for(OsVariant::kWin95).pointer_policy,
            PointerPolicy::kStubCheckLoose);

  EXPECT_TRUE(personality_for(OsVariant::kWinCE).crt_in_kernel);
  EXPECT_TRUE(personality_for(OsVariant::kWinCE).strict_alignment);
  EXPECT_TRUE(personality_for(OsVariant::kWinCE).prefers_unicode);
  EXPECT_TRUE(personality_for(OsVariant::kWinCE).slot_addressing);
  EXPECT_FALSE(personality_for(OsVariant::kWin98).slot_addressing);

  EXPECT_EQ(personality_for(OsVariant::kLinux).api, ApiFlavor::kPosix);
  EXPECT_EQ(personality_for(OsVariant::kWin95).api, ApiFlavor::kWin32);
}

TEST(Personality, FamilyPredicates) {
  EXPECT_TRUE(is_win9x(OsVariant::kWin95));
  EXPECT_TRUE(is_win9x(OsVariant::kWin98SE));
  EXPECT_FALSE(is_win9x(OsVariant::kWinNT4));
  EXPECT_TRUE(is_nt_family(OsVariant::kWin2000));
  EXPECT_FALSE(is_nt_family(OsVariant::kWinCE));
  EXPECT_TRUE(is_windows(OsVariant::kWinCE));
  EXPECT_FALSE(is_windows(OsVariant::kLinux));
}

TEST(Machine, PanicSetsCrashStateAndReturnsDown) {
  Machine m(OsVariant::kWin98);
  EXPECT_FALSE(m.crashed());
  EXPECT_EQ(m.panic(PanicKind::kInduced), Verdict::kDown);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.panic_kind(), PanicKind::kInduced);
  EXPECT_EQ(m.crash_reason(), "induced panic (test hook)");
  EXPECT_EQ(m.panic_count(), 1);
}

TEST(Machine, KernelEnterOnCrashedMachineReportsDown) {
  Machine m(OsVariant::kWin98);
  ASSERT_EQ(m.panic(PanicKind::kInduced), Verdict::kDown);
  const std::uint64_t panics = m.trace().counters().n[static_cast<std::size_t>(
      trace::EventKind::kPanic)];
  EXPECT_EQ(m.kernel_enter(), Verdict::kDown);
  // Reporting the dead machine is not a second panic.
  EXPECT_EQ(m.panic_count(), 1);
  EXPECT_EQ(m.trace().counters().n[static_cast<std::size_t>(
                trace::EventKind::kPanic)],
            panics);
}

TEST(Machine, RebootClearsEverything) {
  Machine m(OsVariant::kWin98);
  // A kernel-context store through a task's view backs the arena page.
  AddressSpace view(&m.arena());
  EXPECT_FALSE(view.write_u8(0x100, 0xFF, Access::kKernel));
  ASSERT_NE(m.arena().page(0x100)->data, nullptr);
  ASSERT_EQ(m.panic(PanicKind::kInduced), Verdict::kDown);
  m.reboot();
  EXPECT_FALSE(m.crashed());
  EXPECT_EQ(m.kernel_enter(), Verdict::kUp);
  EXPECT_EQ(m.arena().corruption(), 0);
  // Arena wiped: the page is unwritten again and reads as zero.
  EXPECT_EQ(m.arena().page(0x100)->data, nullptr);
  EXPECT_EQ(testing::rd8(view, 0x100, Access::kKernel), 0);
}

TEST(Machine, CriticalCorruptionPanicsImmediately) {
  Machine m(OsVariant::kWin98);
  EXPECT_EQ(m.note_arena_corruption(0x10, /*critical=*/true), Verdict::kDown);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.panic_kind(), PanicKind::kCriticalArenaWrite);
}

TEST(Machine, DeferredCorruptionBurnsTheFuse) {
  Machine m(OsVariant::kWin98);
  const int fuse = personality_for(OsVariant::kWin98).corruption_fuse;
  EXPECT_EQ(m.note_arena_corruption(0x80005000, /*critical=*/false),
            Verdict::kUp);
  EXPECT_FALSE(m.crashed());
  for (int i = 0; i < fuse - 1; ++i) EXPECT_EQ(m.kernel_enter(), Verdict::kUp);
  EXPECT_EQ(m.kernel_enter(), Verdict::kDown);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.panic_kind(), PanicKind::kDeferredFuse);
}

TEST(Machine, FuseDoesNotRearmOnRepeatCorruption) {
  Machine m(OsVariant::kWin98);
  ASSERT_EQ(m.note_arena_corruption(0x80005000, false), Verdict::kUp);
  ASSERT_EQ(m.kernel_enter(), Verdict::kUp);
  // Additional corruption must not push the deadline out.
  ASSERT_EQ(m.note_arena_corruption(0x80005000, false), Verdict::kUp);
  const int fuse = personality_for(OsVariant::kWin98).corruption_fuse;
  for (int i = 0; i < fuse - 2; ++i) EXPECT_EQ(m.kernel_enter(), Verdict::kUp);
  EXPECT_EQ(m.kernel_enter(), Verdict::kDown);
  EXPECT_TRUE(m.crashed());
}

TEST(Machine, RebootDisarmsTheFuse) {
  Machine m(OsVariant::kWin98);
  ASSERT_EQ(m.note_arena_corruption(0x80005000, false), Verdict::kUp);
  m.reboot();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.kernel_enter(), Verdict::kUp);
}

TEST(Machine, ProcessesGetPosixFdNumberingOnLinuxOnly) {
  Machine linux_box(OsVariant::kLinux);
  auto p = linux_box.create_process();
  EXPECT_EQ(p->std_in, 0u);
  EXPECT_EQ(p->std_err, 2u);

  Machine nt(OsVariant::kWinNT4);
  auto q = nt.create_process();
  EXPECT_EQ(q->std_in, 4u);  // NT-style handle values
}

TEST(Machine, ProcessesShareArenaOn9xOnly) {
  Machine w98(OsVariant::kWin98);
  auto p = w98.create_process();
  EXPECT_EQ(p->mem().arena(), &w98.arena());

  Machine nt(OsVariant::kWinNT4);
  auto q = nt.create_process();
  EXPECT_EQ(q->mem().arena(), nullptr);
}

TEST(Machine, TicksAdvanceOnKernelEntry) {
  Machine m(OsVariant::kLinux);
  const auto t0 = m.ticks();
  (void)m.kernel_enter();
  EXPECT_GT(m.ticks(), t0);
}

TEST(SimProcess, FreshTaskHasExpectedResources) {
  Machine m(OsVariant::kWinNT4);
  auto p = m.create_process();
  EXPECT_NE(p->main_thread(), nullptr);
  EXPECT_NE(p->self_object(), nullptr);
  EXPECT_NE(p->default_heap(), nullptr);
  EXPECT_FALSE(p->env().empty());
  // The stack region is mapped.
  EXPECT_TRUE(p->mem().is_mapped(0x7ff0'0000 - 1));
}

}  // namespace
}  // namespace ballista::sim
