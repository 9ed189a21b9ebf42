// Tests for the CallContext policy matrix — the heart of the per-OS
// validation architectures.  Each personality must turn the same bad pointer
// into its own characteristic outcome:
//   Linux   -> MemStatus::kError   (EFAULT-style error return)
//   NT/2000 -> kFault, fault recorded (exception raised into the task: Abort)
//   Win9x   -> kSilent for obvious garbage, kFault for subtle garbage
//   hazard  -> kPanic, machine down (immediate) or arena corruption
//              (deferred)
#include <gtest/gtest.h>

#include "tests/fault_util.h"
#include "tests/test_util.h"

namespace ballista::core {
namespace {

using ballista::testing::av;
using ballista::testing::CallFixture;
using ballista::testing::rd8;
using sim::OsVariant;

std::uint8_t buf4[4] = {1, 2, 3, 4};

TEST(CallContext, LinuxBadPointerReturnsError) {
  CallFixture f(OsVariant::kLinux);
  auto ctx = f.ctx();
  EXPECT_EQ(ctx.k_write(0, buf4), MemStatus::kError);
  EXPECT_EQ(ctx.k_write(0xDEAD0000, buf4), MemStatus::kError);
  std::uint8_t out[4];
  EXPECT_EQ(ctx.k_read(0, out), MemStatus::kError);
  // Valid target works and the data lands.
  const sim::Addr a = f.proc->mem().alloc(16);
  EXPECT_EQ(ctx.k_write(a, buf4), MemStatus::kOk);
  EXPECT_EQ(rd8(f.proc->mem(), a + 3, sim::Access::kKernel), 4);
}

TEST(CallContext, LinuxReadOnlyTargetIsErrorNotFault) {
  CallFixture f(OsVariant::kLinux);
  auto ctx = f.ctx();
  const sim::Addr ro = f.proc->mem().alloc(16, sim::kPermRead);
  EXPECT_EQ(ctx.k_write(ro, buf4), MemStatus::kError);
}

TEST(CallContext, NtBadPointerRaisesIntoTask) {
  for (OsVariant v : {OsVariant::kWinNT4, OsVariant::kWin2000}) {
    CallFixture f(v);
    auto ctx = f.ctx();
    EXPECT_EQ(ctx.k_write(0, buf4), MemStatus::kStopped);
    EXPECT_EQ(ctx.fault(), av(0, true));
    EXPECT_EQ(ctx.causes_recorded(), 1);
    auto rctx = f.ctx();
    std::uint8_t out[4];
    EXPECT_EQ(rctx.k_read(0xDEAD0000, out), MemStatus::kStopped);
    EXPECT_EQ(rctx.fault(), av(0xDEAD0000, false));
    EXPECT_EQ(rctx.causes_recorded(), 1);
    auto okctx = f.ctx();
    const sim::Addr a = f.proc->mem().alloc(16);
    EXPECT_EQ(okctx.k_write(a, buf4), MemStatus::kOk);
    EXPECT_EQ(okctx.causes_recorded(), 0);
    EXPECT_FALSE(f.machine.crashed());
  }
}

TEST(CallContext, Win9xStubSwallowsObviousGarbage) {
  CallFixture f(OsVariant::kWin98);
  auto ctx = f.ctx();
  EXPECT_EQ(ctx.k_write(0, buf4), MemStatus::kSilent);          // NULL
  EXPECT_EQ(ctx.k_write(0x100, buf4), MemStatus::kSilent);      // low
  EXPECT_EQ(ctx.k_write(0xC0000000, buf4), MemStatus::kSilent); // kernel
}

TEST(CallContext, Win9xStubMissesSubtleGarbage) {
  CallFixture f(OsVariant::kWin98);
  auto ctx = f.ctx();
  const sim::Addr dangling = f.proc->mem().alloc_dangling(16);
  EXPECT_EQ(ctx.k_write(dangling, buf4), MemStatus::kStopped);  // Abort
  EXPECT_EQ(ctx.fault(), av(dangling, true));
  EXPECT_EQ(ctx.causes_recorded(), 1);
  auto ro_ctx = f.ctx();
  const sim::Addr ro = f.proc->mem().alloc(16, sim::kPermRead);
  EXPECT_EQ(ro_ctx.k_write(ro, buf4), MemStatus::kStopped);
  EXPECT_EQ(ro_ctx.fault(), av(ro, true));
  EXPECT_EQ(ro_ctx.causes_recorded(), 1);
}

TEST(CallContext, ImmediateHazardPanicsOnLowAddress) {
  CallFixture f(OsVariant::kWin98, CrashStyle::kImmediate);
  auto ctx = f.ctx();
  EXPECT_EQ(ctx.k_write(0, buf4), MemStatus::kStopped);
  EXPECT_TRUE(f.machine.crashed());
  // The low system area is in the shared arena: a critical structure.
  EXPECT_EQ(f.machine.panic_kind(), sim::PanicKind::kCriticalArenaWrite);
  EXPECT_EQ(ctx.causes_recorded(), 0);
}

TEST(CallContext, ImmediateHazardPanicsOnUnmappedUserAddress) {
  CallFixture f(OsVariant::kWin98, CrashStyle::kImmediate);
  auto ctx = f.ctx();
  const sim::Addr dangling = f.proc->mem().alloc_dangling(16);
  EXPECT_EQ(ctx.k_write(dangling, buf4), MemStatus::kStopped);
  EXPECT_TRUE(f.machine.crashed());
  EXPECT_EQ(f.machine.panic_kind(), sim::PanicKind::kKernelPageFault);
}

TEST(CallContext, ImmediateHazardSucceedsOnValidMemory) {
  CallFixture f(OsVariant::kWin98, CrashStyle::kImmediate);
  auto ctx = f.ctx();
  const sim::Addr a = f.proc->mem().alloc(16);
  EXPECT_EQ(ctx.k_write(a, buf4), MemStatus::kOk);
  EXPECT_FALSE(f.machine.crashed());
}

TEST(CallContext, DeferredHazardCorruptsAndReportsSuccess) {
  CallFixture f(OsVariant::kWin98, CrashStyle::kDeferred);
  auto ctx = f.ctx();
  const sim::Addr dangling = f.proc->mem().alloc_dangling(16);
  EXPECT_EQ(ctx.k_write(dangling, buf4), MemStatus::kOk);  // "succeeds"
  EXPECT_FALSE(f.machine.crashed());
  EXPECT_GT(f.machine.arena().corruption(), 0);
  // The machine dies a few kernel entries later.
  int entries = 0;
  while (entries < 100 && f.machine.kernel_enter() == sim::Verdict::kUp)
    ++entries;
  EXPECT_LT(entries, 100);
  EXPECT_TRUE(f.machine.crashed());
  EXPECT_EQ(f.machine.panic_kind(), sim::PanicKind::kDeferredFuse);
}

TEST(CallContext, DeferredHazardReadAlsoCorrupts) {
  CallFixture f(OsVariant::kWin98, CrashStyle::kDeferred);
  auto ctx = f.ctx();
  std::uint8_t out[4] = {9, 9, 9, 9};
  EXPECT_EQ(ctx.k_read(0xDEAD0000, out), MemStatus::kOk);
  EXPECT_EQ(out[0], 0);  // zero-filled
  EXPECT_GT(f.machine.arena().corruption(), 0);
}

TEST(CallContext, HazardWithoutArenaCannotCorrupt) {
  // A hazard entry on an arena-less personality degrades gracefully.
  CallFixture f(OsVariant::kWinNT4, CrashStyle::kDeferred);
  auto ctx = f.ctx();
  EXPECT_EQ(ctx.k_write(0xDEAD0000, buf4), MemStatus::kOk);
  EXPECT_FALSE(f.machine.crashed());
}

TEST(CallContext, CeSlotAddressingRedirectsGarbageIntoArena) {
  CallFixture f(OsVariant::kWinCE, CrashStyle::kImmediate);
  auto ctx = f.ctx();
  // A garbage user address that is unmapped in the task resolves into the
  // shared slot space in kernel context -> critical corruption -> panic.
  EXPECT_EQ(ctx.k_write(0x20746f6e, buf4), MemStatus::kStopped);
  EXPECT_TRUE(f.machine.crashed());
  EXPECT_EQ(f.machine.panic_kind(), sim::PanicKind::kCriticalArenaWrite);
}

TEST(CallContext, CeSlotAddressingLeavesValidAddressesAlone) {
  CallFixture f(OsVariant::kWinCE, CrashStyle::kImmediate);
  auto ctx = f.ctx();
  const sim::Addr a = f.proc->mem().alloc(16);
  EXPECT_EQ(ctx.k_write(a, buf4), MemStatus::kOk);
  EXPECT_EQ(rd8(f.proc->mem(), a, sim::Access::kKernel), 1);
  EXPECT_FALSE(f.machine.crashed());
}

TEST(CallContext, ReadStrPerPolicy) {
  {
    CallFixture f(OsVariant::kLinux);
    auto ctx = f.ctx();
    std::string s;
    EXPECT_EQ(ctx.k_read_str(0, &s), MemStatus::kError);
    const sim::Addr a = f.proc->mem().alloc_cstr("path");
    EXPECT_EQ(ctx.k_read_str(a, &s), MemStatus::kOk);
    EXPECT_EQ(s, "path");
  }
  {
    CallFixture f(OsVariant::kWinNT4);
    auto ctx = f.ctx();
    std::string s;
    EXPECT_EQ(ctx.k_read_str(0, &s), MemStatus::kStopped);
    EXPECT_EQ(ctx.fault(), av(0, false));
    EXPECT_EQ(ctx.causes_recorded(), 1);
  }
  {
    CallFixture f(OsVariant::kWin95);
    auto ctx = f.ctx();
    std::string s;
    EXPECT_EQ(ctx.k_read_str(0, &s), MemStatus::kSilent);
  }
}

TEST(CallContext, WideStringHelpers) {
  CallFixture f(OsVariant::kWinCE);
  auto ctx = f.ctx();
  const sim::Addr a = f.proc->mem().alloc_wstr(u"unicode");
  std::u16string s;
  EXPECT_EQ(ctx.k_read_wstr(a, &s), MemStatus::kOk);
  EXPECT_EQ(s, u"unicode");
}

TEST(CallContext, ScalarHelpersRoundTrip) {
  CallFixture f(OsVariant::kLinux);
  auto ctx = f.ctx();
  const sim::Addr a = f.proc->mem().alloc(16);
  EXPECT_EQ(ctx.k_write_u32(a, 0xAABBCCDD), MemStatus::kOk);
  std::uint32_t v32 = 0;
  EXPECT_EQ(ctx.k_read_u32(a, &v32), MemStatus::kOk);
  EXPECT_EQ(v32, 0xAABBCCDDu);
  EXPECT_EQ(ctx.k_write_u64(a + 8, 0x1020304050607080ull), MemStatus::kOk);
  std::uint64_t v64 = 0;
  EXPECT_EQ(ctx.k_read_u64(a + 8, &v64), MemStatus::kOk);
  EXPECT_EQ(v64, 0x1020304050607080ull);
}

TEST(CallContext, ErrorPlumbingSetsCodes) {
  CallFixture f(OsVariant::kWinNT4);
  auto ctx = f.ctx();
  const CallOutcome w = ctx.win_fail(87, 0);
  EXPECT_EQ(w.status, CallStatus::kErrorReported);
  EXPECT_EQ(f.proc->last_error(), 87u);

  CallFixture g(OsVariant::kLinux);
  auto gctx = g.ctx();
  const CallOutcome p = gctx.posix_fail(EBADF);
  EXPECT_EQ(p.status, CallStatus::kErrorReported);
  EXPECT_EQ(p.ret, static_cast<std::uint64_t>(-1));
  EXPECT_EQ(g.proc->err_no(), EBADF);
}

TEST(CallContext, MemFailShapesFollowStatus) {
  CallFixture f(OsVariant::kWin95);
  auto ctx = f.ctx();
  EXPECT_EQ(ctx.win_mem_fail(MemStatus::kSilent).status,
            CallStatus::kSilentSuccess);
  EXPECT_EQ(ctx.win_mem_fail(MemStatus::kError).status,
            CallStatus::kErrorReported);
  EXPECT_EQ(ctx.posix_mem_fail(MemStatus::kError).status,
            CallStatus::kErrorReported);
}

TEST(CallContext, ArgAccessors) {
  CallFixture f(OsVariant::kLinux);
  const double pi = 3.25;
  auto ctx =
      f.ctx({42, static_cast<RawArg>(-7) & 0xffffffffull,
             std::bit_cast<RawArg>(pi)});
  EXPECT_EQ(ctx.arg_count(), 3u);
  EXPECT_EQ(ctx.arg32(0), 42u);
  EXPECT_EQ(ctx.argi(1), -7);
  EXPECT_DOUBLE_EQ(ctx.argf(2), 3.25);
}

}  // namespace
}  // namespace ballista::core
