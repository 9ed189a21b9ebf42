// Unit tests for kernel objects and handle tables, plus the Win32 wait/
// pseudo-handle constants and per-personality handle dispatch the sync
// group leans on.
#include <gtest/gtest.h>

#include "sim/filesystem.h"
#include "sim/kobject.h"
#include "tests/test_util.h"
#include "win32/win32.h"

namespace ballista::sim {
namespace {

using ballista::testing::CallFixture;

TEST(HandleTable, Win32NumberingIsMultiplesOfFour) {
  HandleTable t;
  const auto h1 = t.insert(std::make_shared<EventObject>(true, true, "")).value;
  const auto h2 = t.insert(std::make_shared<EventObject>(true, true, "")).value;
  EXPECT_EQ(h1, 4u);
  EXPECT_EQ(h2, 8u);
  EXPECT_TRUE(t.valid(h1));
  EXPECT_FALSE(t.valid(6));
}

TEST(HandleTable, PosixNumberingIsLowestFree) {
  HandleTable t;
  t.set_posix_numbering(true);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 0u);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 1u);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 2u);
  (void)t.close(1);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 1u);  // reuses the gap
}

TEST(HandleTable, CloseIsIdempotentlyReported) {
  HandleTable t;
  const auto h = t.insert(std::make_shared<EventObject>(true, true, "")).value;
  EXPECT_TRUE(t.close(h).value);
  EXPECT_FALSE(t.close(h).value);
  EXPECT_EQ(t.get(h), nullptr);
}

TEST(HandleTable, InsertAtOverwrites) {
  HandleTable t;
  t.set_posix_numbering(true);
  auto a = std::make_shared<PipeObject>();
  auto b = std::make_shared<PipeObject>();
  (void)t.insert(a);
  (void)t.insert_at(0, b);
  EXPECT_EQ(t.get(0), b);
}

TEST(HandleTable, SharedObjectsSurviveOneClose) {
  HandleTable t;
  auto obj = std::make_shared<EventObject>(true, true, "ev");
  const auto h1 = t.insert(obj).value;
  const auto h2 = t.insert(obj).value;
  (void)t.close(h1);
  EXPECT_EQ(t.get(h2)->name(), "ev");
}

TEST(HandleTable, Win32ValuesOffTheGridNameNothing) {
  HandleTable t;
  const auto h = t.insert(std::make_shared<PipeObject>()).value;
  ASSERT_EQ(h, 4u);
  EXPECT_EQ(t.get(0), nullptr);
  EXPECT_EQ(t.get(5), nullptr);
  EXPECT_EQ(t.get(1ull << 62), nullptr);
  EXPECT_FALSE(t.close(5).value);
  EXPECT_FALSE(t.close(1ull << 62).value);
  EXPECT_NE(t.get(4), nullptr);
}

TEST(HandleTable, PosixDupFarThenInsertTakesLowestFree) {
  HandleTable t;
  t.set_posix_numbering(true);
  for (int i = 0; i < 3; ++i) (void)t.insert(std::make_shared<PipeObject>());
  auto far = std::make_shared<PipeObject>();
  (void)t.insert_at(1024, far);  // dup2's largest target
  EXPECT_EQ(t.get(1024), far);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 3u);
  EXPECT_EQ(t.size(), 5u);
  (void)t.close(1);
  EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, 1u);
  EXPECT_EQ(t.get(1ull << 62), nullptr);
}

TEST(HandleTable, ResetRewindsNumberingAndSize) {
  for (const bool posix : {false, true}) {
    HandleTable t;
    t.set_posix_numbering(posix);
    std::uint64_t first = 0;
    for (int i = 0; i < 5; ++i) {
      const auto h = t.insert(std::make_shared<PipeObject>()).value;
      if (i == 0) first = h;
    }
    (void)t.close(first);
    EXPECT_EQ(t.size(), 4u);
    t.reset();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.get(first), nullptr);
    EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value, posix ? 0u : 4u);
    EXPECT_EQ(t.size(), 1u);
  }
}

TEST(HandleTable, RewindKeepsTheFirstHandlesAndNumbersOn) {
  for (const bool posix : {false, true}) {
    HandleTable t;
    t.set_posix_numbering(posix);
    std::vector<std::shared_ptr<PipeObject>> objs;
    std::vector<std::uint64_t> hs;
    for (int i = 0; i < 5; ++i) {
      objs.push_back(std::make_shared<PipeObject>());
      hs.push_back(t.insert(objs.back()).value);
    }
    (void)t.close(hs[1]);
    t.rewind(3);
    EXPECT_EQ(t.size(), 2u);  // hs[0] and hs[2]; hs[1] was closed
    EXPECT_TRUE(t.holds(hs[0], objs[0].get()));
    EXPECT_FALSE(t.holds(hs[1], objs[1].get()));
    EXPECT_EQ(t.get(hs[3]), nullptr);
    EXPECT_EQ(objs[3].use_count(), 1);  // dropped slots let go
    t.install(hs[1], objs[1]);
    EXPECT_EQ(t.size(), 3u);
    const long refs = objs[0].use_count();
    t.install(hs[0], objs[0]);  // already there: no new reference
    EXPECT_EQ(objs[0].use_count(), refs);
    // Numbering goes on as after three inserts into a fresh table.
    EXPECT_EQ(t.insert(std::make_shared<PipeObject>()).value,
              posix ? 3u : 16u);
  }
}

TEST(HandleTable, EntriesAscend) {
  HandleTable win;
  std::vector<std::shared_ptr<PipeObject>> objs;
  for (int i = 0; i < 5; ++i) {
    objs.push_back(std::make_shared<PipeObject>());
    (void)win.insert(objs.back());
  }
  (void)win.close(12);
  std::vector<std::uint64_t> seen;
  for (const auto& [h, obj] : win.entries()) {
    seen.push_back(h);
    EXPECT_EQ(obj, objs[h / 4 - 1]);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{4, 8, 16, 20}));

  HandleTable posix;
  posix.set_posix_numbering(true);
  (void)posix.insert_at(7, std::make_shared<PipeObject>());
  (void)posix.insert(std::make_shared<PipeObject>());
  (void)posix.insert(std::make_shared<PipeObject>());
  seen.clear();
  for (const auto& [h, obj] : posix.entries()) {
    seen.push_back(h);
    EXPECT_NE(obj, nullptr);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 7}));
}

TEST(FileObject, ReadWriteAdvancesPosition) {
  auto node = std::make_shared<FsNode>("f", false);
  FileObject f(node, FileObject::kAccessRead | FileObject::kAccessWrite,
               false);
  const std::uint8_t in[5] = {'h', 'e', 'l', 'l', 'o'};
  EXPECT_EQ(f.write_at(in).value, 5u);
  EXPECT_EQ(f.position(), 5u);
  f.set_position(0);
  std::uint8_t out[5] = {};
  EXPECT_EQ(f.read_at(out), 5u);
  EXPECT_EQ(out[4], 'o');
  EXPECT_EQ(f.read_at(out), 0u);  // at EOF
}

TEST(FileObject, AppendModeWritesAtEnd) {
  auto node = std::make_shared<FsNode>("f", false);
  node->edit_data() = {1, 2, 3};
  FileObject f(node, FileObject::kAccessWrite, /*append=*/true);
  f.set_position(0);
  const std::uint8_t in[1] = {9};
  (void)f.write_at(in);
  EXPECT_EQ(node->data().size(), 4u);
  EXPECT_EQ(node->data()[3], 9);
}

TEST(FileObject, SparseWriteGrowsFile) {
  auto node = std::make_shared<FsNode>("f", false);
  FileObject f(node, FileObject::kAccessWrite, false);
  f.set_position(100);
  const std::uint8_t in[1] = {7};
  (void)f.write_at(in);
  EXPECT_EQ(node->data().size(), 101u);
  EXPECT_EQ(node->data()[50], 0);
}

TEST(SemaphoreObject, ReleaseRespectsMaximum) {
  SemaphoreObject s(1, 2, "");
  EXPECT_TRUE(s.signaled());
  EXPECT_TRUE(s.release(1).value);
  EXPECT_FALSE(s.release(1).value);  // would exceed max
  EXPECT_EQ(s.count(), 2);
  EXPECT_TRUE(s.release(-2).value);  // acquire twice (internal use)
  EXPECT_FALSE(s.signaled());
}

TEST(MutexObject, HeldStateTracksSignal) {
  MutexObject m(true, "");
  EXPECT_TRUE(m.held());
  EXPECT_FALSE(m.signaled());
  (void)m.set_held(false);
  EXPECT_TRUE(m.signaled());
}

TEST(ThreadObject, StartsRunningWithStillActiveCode) {
  ThreadObject t(101, 1);
  EXPECT_FALSE(t.signaled());
  EXPECT_EQ(t.exit_code, 0x103u);  // STILL_ACTIVE
  t.context().regs[0] = 0xAA;
  EXPECT_EQ(t.context().regs[0], 0xAAu);
}

TEST(WaitConstants, MatchTheWin32Abi) {
  EXPECT_EQ(win32::WAIT_OBJECT_0, 0u);
  EXPECT_EQ(win32::WAIT_TIMEOUT, 0x102u);
  EXPECT_EQ(win32::WAIT_FAILED, 0xffffffffu);
  EXPECT_EQ(win32::INFINITE32, 0xffffffffu);
  // GetCurrentProcess() and INVALID_HANDLE_VALUE share a bit pattern — the
  // classic Win32 footgun the h_sync pools exercise on purpose.
  EXPECT_EQ(win32::kPseudoCurrentProcess, 0xffffffffull);
  EXPECT_EQ(win32::kPseudoCurrentThread, 0xfffffffeull);
  EXPECT_EQ(win32::INVALID_HANDLE_VALUE32, win32::kPseudoCurrentProcess);
}

TEST(EventObject, ManualVsAutoResetState) {
  EventObject manual(/*manual_reset=*/true, /*initial=*/true, "");
  EXPECT_TRUE(manual.manual_reset());
  EXPECT_TRUE(manual.signaled());
  (void)manual.set_signaled(false);  // ResetEvent
  EXPECT_FALSE(manual.signaled());

  EventObject auto_ev(/*manual_reset=*/false, /*initial=*/false, "");
  EXPECT_FALSE(auto_ev.manual_reset());
  EXPECT_FALSE(auto_ev.signaled());
  (void)auto_ev.set_signaled(true);  // SetEvent; a successful wait clears it
  EXPECT_TRUE(auto_ev.signaled());
}

TEST(MutexObject, FreeMutexIsSignaled) {
  MutexObject m(/*initially_owned=*/false, "");
  EXPECT_FALSE(m.held());
  EXPECT_TRUE(m.signaled());
  (void)m.set_held(true);  // a successful wait acquires it
  EXPECT_FALSE(m.signaled());
}

TEST(SemaphoreObject, DrainedSemaphoreIsNotSignaled) {
  SemaphoreObject s(0, 4, "");
  EXPECT_FALSE(s.signaled());
  EXPECT_TRUE(s.release(1).value);
  EXPECT_TRUE(s.signaled());
  EXPECT_FALSE(s.release(4).value);  // 1 + 4 > max: ERROR_TOO_MANY_POSTS shape
  EXPECT_TRUE(s.release(3).value);   // exactly to the maximum is fine
  EXPECT_EQ(s.count(), 4);
}

// The sync group's handle checks must dispatch identically on every variant:
// pseudo-handles resolve to the current process/thread objects everywhere.
TEST(CheckHandle, PseudoHandlesResolveOnEveryWindowsVariant) {
  for (OsVariant v : kAllVariants) {
    if (v == OsVariant::kLinux) continue;
    CallFixture f(v);
    auto ctx = f.ctx();
    const auto pc = win32::check_handle(ctx, win32::kPseudoCurrentProcess);
    EXPECT_FALSE(pc.fail) << variant_name(v);
    EXPECT_EQ(pc.obj, f.proc->self_object()) << variant_name(v);
    const auto pt = win32::check_handle(ctx, win32::kPseudoCurrentThread);
    EXPECT_FALSE(pt.fail) << variant_name(v);
    EXPECT_EQ(pt.obj, f.proc->main_thread()) << variant_name(v);
  }
}

// A bad or wrong-kind handle splits by personality: the NT/CE families report
// ERROR_INVALID_HANDLE, the loose Win9x stubs report success having done
// nothing (the Silent failures Figure 2's voting surfaces).
TEST(CheckHandle, BadHandleDispatchesPerPersonality) {
  for (OsVariant v : kAllVariants) {
    if (v == OsVariant::kLinux) continue;
    CallFixture f(v);
    // A kind mismatch must fail like a stale handle: an event handle is not
    // a mutex.
    const auto h =
        f.proc->handles().insert(std::make_shared<EventObject>(true, true, "")).value;
    auto ctx = f.ctx();
    const auto stale = win32::check_handle(ctx, 0x4444, ObjectKind::kEvent);
    const auto wrong = win32::check_handle(ctx, h, ObjectKind::kMutex);
    for (const auto* r : {&stale, &wrong}) {
      EXPECT_EQ(r->obj, nullptr) << variant_name(v);
      ASSERT_TRUE(r->fail.has_value()) << variant_name(v);
      if (personality_for(v).pointer_policy == PointerPolicy::kStubCheckLoose) {
        EXPECT_EQ(r->fail->status, core::CallStatus::kSilentSuccess)
            << variant_name(v);
      } else {
        EXPECT_EQ(r->fail->status, core::CallStatus::kErrorReported)
            << variant_name(v);
        EXPECT_EQ(f.proc->last_error(), win32::ERR_INVALID_HANDLE)
            << variant_name(v);
      }
    }
  }
}

}  // namespace
}  // namespace ballista::sim
