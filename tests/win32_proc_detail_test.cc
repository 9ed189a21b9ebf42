// Deeper semantic tests for the Win32 Process Primitives group: sync-object
// protocols, suspend/resume counting, thread contexts and the Interlocked
// family's actual arithmetic.
#include <gtest/gtest.h>

#include "tests/fault_util.h"
#include "tests/test_util.h"
#include "win32/win32.h"

namespace ballista::win32 {
namespace {

using core::CallOutcome;
using core::RawArg;
using sim::OsVariant;
using testing::shared_world;
using testing::rd32;

class ProcFixture : public ::testing::Test {
 protected:
  ProcFixture() : machine(OsVariant::kWinNT4) {
    proc = machine.create_process();
  }

  CallOutcome call(const char* name, std::vector<RawArg> args) {
    const core::MuT* mut = shared_world().registry.find(name);
    EXPECT_NE(mut, nullptr) << name;
    last_args = std::move(args);
    core::CallContext ctx(machine, *proc, *mut, last_args);
    (void)machine.kernel_enter();
    return mut->impl(ctx);
  }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  std::vector<RawArg> last_args;
};

TEST_F(ProcFixture, AutoResetEventConsumesOneWait) {
  const auto ev = call("CreateEvent", {0, 0 /*auto*/, 1 /*signaled*/, 0});
  ASSERT_EQ(ev.status, core::CallStatus::kSuccess);
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret,
            0u);  // WAIT_OBJECT_0
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret, 0x102u);  // timeout
  EXPECT_EQ(call("SetEvent", {ev.ret}).ret, 1u);
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret, 0u);
}

TEST_F(ProcFixture, ManualResetEventStaysSignaled) {
  const auto ev = call("CreateEvent", {0, 1 /*manual*/, 1, 0});
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret, 0u);
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret, 0u);
  EXPECT_EQ(call("ResetEvent", {ev.ret}).ret, 1u);
  EXPECT_EQ(call("WaitForSingleObject", {ev.ret, 100}).ret, 0x102u);
}

TEST_F(ProcFixture, MutexOwnershipProtocol) {
  const auto mx = call("CreateMutex", {0, 0 /*not owned*/, 0});
  EXPECT_EQ(call("WaitForSingleObject", {mx.ret, 100}).ret, 0u);  // acquired
  // Re-acquiring a held mutex times out in this (non-recursive) model.
  EXPECT_EQ(call("WaitForSingleObject", {mx.ret, 100}).ret, 0x102u);
  EXPECT_EQ(call("ReleaseMutex", {mx.ret}).ret, 1u);
  // Releasing when not held is an error.
  EXPECT_EQ(call("ReleaseMutex", {mx.ret}).status,
            core::CallStatus::kErrorReported);
}

TEST_F(ProcFixture, SemaphoreCountsDownAndUp) {
  const auto sem = call("CreateSemaphore", {0, 2, 2, 0});
  ASSERT_EQ(sem.status, core::CallStatus::kSuccess);
  EXPECT_EQ(call("WaitForSingleObject", {sem.ret, 100}).ret, 0u);
  EXPECT_EQ(call("WaitForSingleObject", {sem.ret, 100}).ret, 0u);
  EXPECT_EQ(call("WaitForSingleObject", {sem.ret, 100}).ret, 0x102u);
  const sim::Addr prev = proc->mem().alloc(8);
  EXPECT_EQ(call("ReleaseSemaphore", {sem.ret, 1, prev}).ret, 1u);
  EXPECT_EQ(rd32(proc->mem(), prev, sim::Access::kKernel), 0u);
  // Releasing beyond the maximum fails.
  EXPECT_EQ(call("ReleaseSemaphore", {sem.ret, 5, 0}).status,
            core::CallStatus::kErrorReported);
}

// The process group registers the sync group's ReleaseMutex and
// ReleaseSemaphore bodies, so it sets the sync group's error codes.
TEST_F(ProcFixture, ReleaseErrorsAreTheSyncGroups) {
  const core::MuT* rm = shared_world().registry.find("ReleaseMutex");
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->group, core::FuncGroup::kProcessPrimitives);
  const auto mx = call("CreateMutex", {0, 0 /*not owned*/, 0});
  EXPECT_EQ(call("ReleaseMutex", {mx.ret}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->last_error(), 288u);  // ERROR_NOT_OWNER
  const auto sem = call("CreateSemaphore", {0, 2, 2, 0});
  EXPECT_EQ(call("ReleaseSemaphore", {sem.ret, 5, 0}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->last_error(), 298u);  // ERROR_TOO_MANY_POSTS
}

TEST_F(ProcFixture, CreateSemaphoreValidatesCounts) {
  EXPECT_EQ(call("CreateSemaphore", {0, 5, 2, 0}).status,
            core::CallStatus::kErrorReported);  // initial > max
  EXPECT_EQ(
      call("CreateSemaphore", {0, 0, 0, 0}).status,
      core::CallStatus::kErrorReported);  // max == 0
}

TEST_F(ProcFixture, SuspendResumeCountsNest) {
  const auto h = call("CreateThread", {0, 0, 0x5000, 0, 0, 0});
  ASSERT_EQ(h.status, core::CallStatus::kSuccess);
  EXPECT_EQ(call("SuspendThread", {h.ret}).ret, 0u);   // previous count
  EXPECT_EQ(call("SuspendThread", {h.ret}).ret, 1u);
  EXPECT_EQ(call("ResumeThread", {h.ret}).ret, 2u);
  EXPECT_EQ(call("ResumeThread", {h.ret}).ret, 1u);
  EXPECT_EQ(call("ResumeThread", {h.ret}).ret, 0u);    // already running
}

TEST_F(ProcFixture, ThreadContextRoundTrip) {
  const auto h = call("CreateThread", {0, 0, 0x5000, 0, 0, 0});
  const sim::Addr ctx_buf = proc->mem().alloc(68);
  EXPECT_FALSE(proc->mem().write_u32(ctx_buf, 0x10007, sim::Access::kKernel));
  // Set register 0 to a marker via SetThreadContext, read it back.
  EXPECT_FALSE(proc->mem().write_u32(ctx_buf + 4,
                                     0xfeedface, sim::Access::kKernel));
  EXPECT_EQ(call("SetThreadContext", {h.ret, ctx_buf}).ret, 1u);
  const sim::Addr out_buf = proc->mem().alloc(68);
  EXPECT_EQ(call("GetThreadContext", {h.ret, out_buf}).ret, 1u);
  EXPECT_EQ(rd32(proc->mem(), out_buf + 4, sim::Access::kKernel),
            0xfeedfaceu);
}

TEST_F(ProcFixture, CreateThreadRejectsNullStart) {
  EXPECT_EQ(call("CreateThread", {0, 0, 0, 0, 0, 0}).status,
            core::CallStatus::kErrorReported);
}

TEST_F(ProcFixture, CreateThreadWritesTidThroughPointer) {
  const sim::Addr tid_out = proc->mem().alloc(8);
  const auto h = call("CreateThread", {0, 0, 0x5000, 0, 0, tid_out});
  EXPECT_EQ(h.status, core::CallStatus::kSuccess);
  EXPECT_NE(rd32(proc->mem(), tid_out, sim::Access::kKernel), 0u);
}

TEST_F(ProcFixture, InterlockedArithmetic) {
  const sim::Addr v = proc->mem().alloc(8);
  EXPECT_FALSE(proc->mem().write_u32(v, 10, sim::Access::kKernel));
  EXPECT_EQ(call("InterlockedIncrement", {v}).ret, 11u);
  EXPECT_EQ(call("InterlockedDecrement", {v}).ret, 10u);
  EXPECT_EQ(call("InterlockedExchange", {v, 99}).ret, 10u);  // old value
  EXPECT_EQ(rd32(proc->mem(), v, sim::Access::kKernel), 99u);
  EXPECT_EQ(call("InterlockedExchangeAdd", {v, 1}).ret, 99u);
  EXPECT_EQ(call("InterlockedCompareExchange", {v, 5, 100}).ret, 100u);
  EXPECT_EQ(rd32(proc->mem(), v, sim::Access::kKernel), 5u);
  EXPECT_EQ(call("InterlockedCompareExchange", {v, 7, 42}).ret, 5u);
  EXPECT_EQ(rd32(proc->mem(), v, sim::Access::kKernel), 5u);  // no match
}

TEST_F(ProcFixture, TerminateAndExitCodeFlow) {
  const auto h = call("CreateThread", {0, 0, 0x5000, 0, 0, 0});
  const sim::Addr code = proc->mem().alloc(8);
  EXPECT_EQ(call("GetExitCodeThread", {h.ret, code}).ret, 1u);
  EXPECT_EQ(rd32(proc->mem(), code, sim::Access::kKernel),
            0x103u);  // STILL_ACTIVE
  EXPECT_EQ(call("TerminateThread", {h.ret, 77}).ret, 1u);
  EXPECT_EQ(call("GetExitCodeThread", {h.ret, code}).ret, 1u);
  EXPECT_EQ(rd32(proc->mem(), code, sim::Access::kKernel), 77u);
  // A terminated thread is signaled: waits return immediately.
  EXPECT_EQ(call("WaitForSingleObject", {h.ret, 100}).ret, 0u);
}

TEST_F(ProcFixture, WaitForMultipleWaitAllSemantics) {
  const auto e1 = call("CreateEvent", {0, 1, 1, 0});
  const auto e2 = call("CreateEvent", {0, 1, 0, 0});
  const sim::Addr arr = proc->mem().alloc(16);
  EXPECT_FALSE(proc->mem().write_u32(arr, static_cast<std::uint32_t>(e1.ret),
                                     sim::Access::kKernel));
  EXPECT_FALSE(proc->mem().write_u32(arr + 4,
                                     static_cast<std::uint32_t>(e2.ret),
                                     sim::Access::kKernel));
  // wait-any: satisfied by e1.
  EXPECT_EQ(call("WaitForMultipleObjects", {2, arr, 0, 100}).ret, 0u);
  // wait-all: e2 unsignaled -> timeout.
  EXPECT_EQ(call("WaitForMultipleObjects", {2, arr, 1, 100}).ret, 0x102u);
  (void)call("SetEvent", {e2.ret});
  EXPECT_EQ(call("WaitForMultipleObjects", {2, arr, 1, 100}).ret, 0u);
}

TEST_F(ProcFixture, CreateProcessNeedsARealImage) {
  const sim::Addr missing = proc->mem().alloc_cstr("/tmp/absent.exe");
  const sim::Addr pi = proc->mem().alloc(16);
  EXPECT_EQ(call("CreateProcess", {missing, 0, 0, pi}).status,
            core::CallStatus::kErrorReported);
  const sim::Addr image = proc->mem().alloc_cstr("/tmp/fixture.dat");
  const auto r = call("CreateProcess", {image, 0, 0, pi});
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  const std::uint32_t h = rd32(proc->mem(), pi, sim::Access::kKernel);
  EXPECT_NE(proc->handles().get(h), nullptr);
}

TEST_F(ProcFixture, SleepAdvancesTheClock) {
  const auto t0 = machine.ticks();
  EXPECT_EQ(call("Sleep", {250}).status, core::CallStatus::kSuccess);
  EXPECT_GE(machine.ticks() - t0, 250u);
}

TEST_F(ProcFixture, PseudoHandlesResolve) {
  EXPECT_EQ(call("GetCurrentProcess", {}).ret, 0xffffffffull);
  EXPECT_EQ(call("GetCurrentThread", {}).ret, 0xfffffffeull);
  const sim::Addr code = proc->mem().alloc(8);
  EXPECT_EQ(call("GetExitCodeProcess", {0xffffffffull, code}).ret, 1u);
  EXPECT_EQ(call("GetExitCodeThread", {0xfffffffeull, code}).ret, 1u);
}

TEST_F(ProcFixture, ThreadPriorityRange) {
  EXPECT_EQ(call("SetThreadPriority",
                 {0xfffffffeull, static_cast<RawArg>(-2) & 0xffffffffull})
                .ret,
            1u);
  EXPECT_EQ(call("GetThreadPriority", {0xfffffffeull}).ret,
            static_cast<RawArg>(-2) & 0xffffffffull);
  EXPECT_EQ(call("SetThreadPriority", {0xfffffffeull, 1000}).status,
            core::CallStatus::kErrorReported);
}

}  // namespace
}  // namespace ballista::win32
