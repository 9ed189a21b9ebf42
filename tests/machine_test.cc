// Unit tests for the Machine: personalities, panic/reboot protocol and the
// deferred corruption fuse (the paper's inter-test interference model).
#include <gtest/gtest.h>

#include "sim/machine.h"

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

TEST(Machine, PanicSetsCrashStateAndThrows) {
  Machine m(OsVariant::kWin98);
  EXPECT_FALSE(m.crashed());
  EXPECT_THROW(m.panic(PanicKind::kInduced), KernelPanic);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(m.panic_kind(), PanicKind::kInduced);
  EXPECT_EQ(m.crash_reason(), "induced panic (test hook)");
  EXPECT_EQ(m.panic_count(), 1);
}

TEST(Machine, KernelEnterOnCrashedMachineRethrows) {
  Machine m(OsVariant::kWin98);
  try {
    m.panic(PanicKind::kInduced);
  } catch (const KernelPanic&) {
  }
  EXPECT_THROW(m.kernel_enter(), KernelPanic);
}

TEST(Machine, RebootClearsEverything) {
  Machine m(OsVariant::kWin98);
  // A kernel-context store through a task's view backs the arena page.
  AddressSpace view(&m.arena());
  view.write_u8(0x100, 0xFF, Access::kKernel);
  ASSERT_NE(m.arena().page(0x100)->data, nullptr);
  try {
    m.panic(PanicKind::kInduced);
  } catch (const KernelPanic&) {
  }
  m.reboot();
  EXPECT_FALSE(m.crashed());
  EXPECT_NO_THROW(m.kernel_enter());
  EXPECT_EQ(m.arena().corruption(), 0);
  // Arena wiped: the page is unwritten again and reads as zero.
  EXPECT_EQ(m.arena().page(0x100)->data, nullptr);
  EXPECT_EQ(view.read_u8(0x100, Access::kKernel), 0);
}

TEST(Machine, CriticalCorruptionPanicsImmediately) {
  Machine m(OsVariant::kWin98);
  EXPECT_THROW(m.note_arena_corruption(0x10, /*critical=*/true), KernelPanic);
  EXPECT_TRUE(m.crashed());
}

TEST(Machine, DeferredCorruptionBurnsTheFuse) {
  Machine m(OsVariant::kWin98);
  const int fuse = personality_for(OsVariant::kWin98).corruption_fuse;
  m.note_arena_corruption(0x80005000, /*critical=*/false);
  EXPECT_FALSE(m.crashed());
  for (int i = 0; i < fuse - 1; ++i) EXPECT_NO_THROW(m.kernel_enter());
  EXPECT_THROW(m.kernel_enter(), KernelPanic);
  EXPECT_TRUE(m.crashed());
}

TEST(Machine, FuseDoesNotRearmOnRepeatCorruption) {
  Machine m(OsVariant::kWin98);
  m.note_arena_corruption(0x80005000, false);
  m.kernel_enter();
  // Additional corruption must not push the deadline out.
  m.note_arena_corruption(0x80005000, false);
  const int fuse = personality_for(OsVariant::kWin98).corruption_fuse;
  for (int i = 0; i < fuse - 2; ++i) EXPECT_NO_THROW(m.kernel_enter());
  EXPECT_THROW(m.kernel_enter(), KernelPanic);
}

TEST(Machine, RebootDisarmsTheFuse) {
  Machine m(OsVariant::kWin98);
  m.note_arena_corruption(0x80005000, false);
  m.reboot();
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(m.kernel_enter());
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
  m.kernel_enter();
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
  EXPECT_THROW(p->hang("test"), TaskHang);
}

}  // namespace
}  // namespace ballista::sim
