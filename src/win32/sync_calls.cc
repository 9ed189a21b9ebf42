// Win32 Synchronization group (FuncGroup::kWin32Sync, wire id 12): the
// kernel-object synchronization surface — events, mutexes, semaphores, the
// wait family and the Interlocked primitives — driven by sync-focused value
// pools instead of the generic handle pool the Process Primitives group
// uses.  This is the first growth group registered through the data-driven
// group registry (core/groups.h): it stays out of default campaigns (and
// therefore out of the original twelve groups' golden .blog baselines) and
// runs via `--groups sync`.
//
// Per-variant error model: the NT family validates handles in the kernel
// and rejects with ERROR_INVALID_HANDLE; the Win9x stubs "handle" a bad
// handle by doing nothing and reporting success (check_handle's
// kStubCheckLoose arm) — the Silent-failure contrasts the voting layer
// surfaces.  CE thunks the Interlocked family through the kernel (Table 3's
// *Interlocked* deferred hazards), which this group carries too.
//
// The Process Primitives group registers seven of these bodies under its own
// pools (win32.h): CreateEvent, Set/Reset/PulseEvent, CreateMutex,
// ReleaseMutex, ReleaseSemaphore, the single-object wait and the
// Interlocked family, so both groups set the same error codes.
#include <vector>

#include "core/poolkit.h"
#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::ok;
using core::RawArg;
using core::ValueCtx;
using core::poolkit::BadPtr;

// --- value-pool helpers ------------------------------------------------------

std::uint64_t insert_event(ValueCtx& c, bool manual, bool signaled,
                           std::string name = {}) {
  return c.insert_handle(
      std::make_shared<sim::EventObject>(manual, signaled, std::move(name)));
}

std::uint64_t insert_mutex(ValueCtx& c, bool owned, std::string name = {}) {
  return c.insert_handle(
      std::make_shared<sim::MutexObject>(owned, std::move(name)));
}

std::uint64_t insert_semaphore(ValueCtx& c, std::int64_t initial,
                               std::int64_t maximum, std::string name = {}) {
  return c.insert_handle(std::make_shared<sim::SemaphoreObject>(
      initial, maximum, std::move(name)));
}

void register_sync_types(core::TypeLibrary& lib) {
  if (lib.has("h_sync_event")) return;  // idempotent across re-registration

  // Typed sync-object handles: the valid values cover the object's state
  // space (signaled/unsignaled, held/free, available/drained); the
  // exceptional values are the closed / wrong-kind / pseudo / garbage
  // handles whose rejection separates the NT kernel from the 9x stubs.
  auto& t_ev = lib.make("h_sync_event");
  t_ev.add("ev_manual_signaled", false,
           [](ValueCtx& c) { return insert_event(c, true, true); })
      .add("ev_auto_signaled", false,
           [](ValueCtx& c) { return insert_event(c, false, true); })
      .add("ev_manual_unsignaled", false,
           [](ValueCtx& c) { return insert_event(c, true, false); })
      .add("ev_closed", true,
           [](ValueCtx& c) {
             return core::poolkit::insert_closed_handle(
                 c, std::make_shared<sim::EventObject>(true, true, ""));
           })
      .add("ev_wrong_kind_file", true,
           [](ValueCtx& c) { return core::poolkit::insert_fixture_file_handle(c); })
      .add("ev_wrong_kind_mutex", true,
           [](ValueCtx& c) { return insert_mutex(c, false); })
      .add("ev_pseudo_process", true,
           [](ValueCtx&) { return kPseudoCurrentProcess; })
      .add("ev_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("ev_odd7", true, [](ValueCtx&) { return RawArg{7}; })
      .add("ev_garbage", true, [](ValueCtx&) { return RawArg{0x5151caf0}; });

  auto& t_mx = lib.make("h_sync_mutex");
  t_mx.add("mx_held", false, [](ValueCtx& c) { return insert_mutex(c, true); })
      .add("mx_free", false, [](ValueCtx& c) { return insert_mutex(c, false); })
      .add("mx_closed", true,
           [](ValueCtx& c) {
             return core::poolkit::insert_closed_handle(
                 c, std::make_shared<sim::MutexObject>(true, ""));
           })
      .add("mx_wrong_kind_event", true,
           [](ValueCtx& c) { return insert_event(c, true, true); })
      .add("mx_pseudo_thread", true,
           [](ValueCtx&) { return kPseudoCurrentThread; })
      .add("mx_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("mx_garbage", true, [](ValueCtx&) { return RawArg{0xbadf00d}; });

  auto& t_sem = lib.make("h_sync_sem");
  t_sem
      .add("sem_avail", false,
           [](ValueCtx& c) { return insert_semaphore(c, 1, 4); })
      .add("sem_full", false,
           [](ValueCtx& c) { return insert_semaphore(c, 4, 4); })
      .add("sem_drained", false,
           [](ValueCtx& c) { return insert_semaphore(c, 0, 4); })
      .add("sem_closed", true,
           [](ValueCtx& c) {
             return core::poolkit::insert_closed_handle(
                 c, std::make_shared<sim::SemaphoreObject>(1, 4, ""));
           })
      .add("sem_wrong_kind_file", true,
           [](ValueCtx& c) { return core::poolkit::insert_fixture_file_handle(c); })
      .add("sem_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("sem_kernel_addr", true, [](ValueCtx&) { return RawArg{0xC0004000}; });

  // Anything-waitable pool for the wait family: every kind of waitable in
  // both signaled and unsignaled state, plus the usual rejects.  The pseudo
  // process handle is *valid* here (WaitForSingleObject on one's own
  // still-running process times out rather than failing).
  auto& t_wait = lib.make("h_sync_wait");
  t_wait
      .add("w_event_signaled", false,
           [](ValueCtx& c) { return insert_event(c, true, true); })
      .add("w_event_auto_signaled", false,
           [](ValueCtx& c) { return insert_event(c, false, true); })
      .add("w_event_unsignaled", false,
           [](ValueCtx& c) { return insert_event(c, true, false); })
      .add("w_mutex_free", false,
           [](ValueCtx& c) { return insert_mutex(c, false); })
      .add("w_sem_avail", false,
           [](ValueCtx& c) { return insert_semaphore(c, 2, 4); })
      .add("w_thread_running", false,
           [](ValueCtx& c) {
             return c.insert_handle(c.proc.spawn_thread().value);
           })
      .add("w_pseudo_process", false,
           [](ValueCtx&) { return kPseudoCurrentProcess; })
      .add("w_closed", true,
           [](ValueCtx& c) {
             return core::poolkit::insert_closed_handle(
                 c, std::make_shared<sim::EventObject>(true, false, ""));
           })
      .add("w_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("w_garbage", true, [](ValueCtx&) { return RawArg{0x22221110}; });

  // Wait timeouts.  INFINITE is legal by contract (hence non-exceptional)
  // but hangs the task when nothing can signal the object — the Restart
  // failures the paper's wait rows show.
  auto& t_to = lib.make("sync_timeout");
  t_to.add("st_0", false, [](ValueCtx&) { return RawArg{0}; })
      .add("st_1", false, [](ValueCtx&) { return RawArg{1}; })
      .add("st_50", false, [](ValueCtx&) { return RawArg{50}; })
      .add("st_infinite", false, [](ValueCtx&) { return RawArg{INFINITE32}; })
      .add("st_max_finite", true,
           [](ValueCtx&) { return RawArg{0xfffffffeull}; });

  // HANDLE arrays for WaitForMultipleObjects: mixed-kind valid arrays plus
  // arrays seeded with closed/garbage entries and the bogus base pointers
  // (NULL / dangling / kernel / unaligned) the kernel copy-in must survive.
  auto& t_arr = lib.make("sync_handle_array");
  t_arr
      .add("sarr_mixed_signaled", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             const std::uint64_t hs[4] = {
                 insert_event(c, true, true), insert_mutex(c, false),
                 insert_semaphore(c, 2, 4), insert_event(c, false, true)};
             for (int i = 0; i < 4; ++i)
               c.proc.mem().poke_u32(a + 4 * i,
                                      static_cast<std::uint32_t>(hs[i]));
             return a;
           })
      .add("sarr_none_signaled", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             for (int i = 0; i < 4; ++i)
               c.proc.mem().poke_u32(
                   a + 4 * i,
                   static_cast<std::uint32_t>(insert_event(c, true, false)));
             return a;
           })
      .add("sarr_with_closed", true,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             c.proc.mem().poke_u32(
                 a, static_cast<std::uint32_t>(insert_event(c, true, true)));
             c.proc.mem().poke_u32(
                 a + 4,
                 static_cast<std::uint32_t>(core::poolkit::insert_closed_handle(
                     c, std::make_shared<sim::EventObject>(true, true, ""))));
             return a;
           })
      .add("sarr_with_garbage", true,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             c.proc.mem().poke_u32(a, 0xdeadbeef);
             c.proc.mem().poke_u32(a + 4, 0);
             return a;
           });
  core::poolkit::add_bad_pointer_values(
      t_arr, {{BadPtr::kNull, "sarr_null"},
              {BadPtr::kDangling, "sarr_dangling", 16},
              {BadPtr::kKernel, "sarr_kernel", 0xC0005000},
              {BadPtr::kUnaligned, "sarr_unaligned", 20}});

  // ReleaseSemaphore counts: 1/2 are in-range for the pool's semaphores;
  // 0, negative and huge must be rejected with ERROR_INVALID_PARAMETER /
  // ERROR_TOO_MANY_POSTS.
  auto& t_rc = lib.make("sync_release_count");
  t_rc.add("rc_1", false, [](ValueCtx&) { return RawArg{1}; })
      .add("rc_2", false, [](ValueCtx&) { return RawArg{2}; })
      .add("rc_0", true, [](ValueCtx&) { return RawArg{0}; })
      .add("rc_neg1", true, [](ValueCtx&) { return RawArg{0xffffffffull}; })
      .add("rc_huge", true, [](ValueCtx&) { return RawArg{0x7fffffffull}; });

  // Interlocked targets: LONG* the primitive reads and writes.  On CE these
  // dereference in kernel context (the deferred-corruption hazard); on x86
  // desktops a bad target is a user-mode fault at worst.
  auto& t_il = lib.make("interlock_target");
  t_il.add("il_valid", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(4);
             c.proc.mem().poke_u32(a, 41);
             return a;
           })
      .add("il_wraparound", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(4);
             c.proc.mem().poke_u32(a, 0xffffffff);
             return a;
           })
      .add("il_unaligned", false,
           [](ValueCtx& c) {
             // Seed byte-wise: a u32 store at a+1 would itself fault on the
             // strict-alignment CE personality before the MuT ever runs.
             const auto a = c.proc.mem().alloc(8);
             c.proc.mem().poke_u8(a + 1, 7);
             return a + 1;
           });
  core::poolkit::add_bad_pointer_values(
      t_il, {{BadPtr::kNull, "il_null"},
             {BadPtr::kKernel, "il_kernel", 0xC0004000},
             {BadPtr::kDangling, "il_dangling", 4},
             {BadPtr::kGarbage, "il_garbage", 0x31337}});

  // Names for the Open* family.  The "present" values create the named
  // object in the handle table first, so a correct Open duplicates it; the
  // absent/bad values exercise the not-found and copy-in failure paths.
  auto& t_name = lib.make("sync_name");
  t_name
      .add("name_event", false,
           [](ValueCtx& c) {
             insert_event(c, true, true, "sync-evt");
             return c.proc.mem().alloc_cstr("sync-evt");
           })
      .add("name_mutex", false,
           [](ValueCtx& c) {
             insert_mutex(c, false, "sync-mtx");
             return c.proc.mem().alloc_cstr("sync-mtx");
           })
      .add("name_semaphore", false,
           [](ValueCtx& c) {
             insert_semaphore(c, 1, 4, "sync-sem");
             return c.proc.mem().alloc_cstr("sync-sem");
           })
      .add("name_absent", false,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr("no-such-obj"); })
      .add("name_empty", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_cstr(""); });
  core::poolkit::add_bad_pointer_values(
      t_name, {{BadPtr::kNull, "name_null"},
               {BadPtr::kDangling, "name_dangling", 32},
               {BadPtr::kKernel, "name_kernel", 0xC0002000}});
}

// --- calls only this group registers --------------------------------------

CallOutcome do_sync_create_semaphore(CallContext& ctx) {
  const std::int64_t initial = ctx.argi(1);
  const std::int64_t maximum = ctx.argi(2);
  if (maximum <= 0 || initial < 0 || initial > maximum)
    return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const Addr name = ctx.arg_addr(3);
  std::string n;
  if (name != 0) {
    const MemStatus st = ctx.k_read_str(name, &n, 260);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return core::ok_or_stopped(
      ctx.proc().handles().insert(std::make_shared<sim::SemaphoreObject>(
          initial, maximum, std::move(n))));
}

/// Acquire side effects of a satisfied wait, by object kind.
sim::Verdict consume_signal(sim::KernelObject& obj) {
  if (obj.kind() == sim::ObjectKind::kMutex)
    return static_cast<sim::MutexObject&>(obj).set_held(true);
  if (obj.kind() == sim::ObjectKind::kEvent &&
      !static_cast<sim::EventObject&>(obj).manual_reset())
    return obj.set_signaled(false);
  if (obj.kind() == sim::ObjectKind::kSemaphore)
    return static_cast<sim::SemaphoreObject&>(obj).release(-1).verdict;
  return sim::Verdict::kUp;
}

CallOutcome wait_single(CallContext& ctx, std::uint64_t h,
                             std::uint32_t timeout) {
  auto hc = check_handle(ctx, h, std::nullopt, WAIT_FAILED);
  if (hc.fail) return *hc.fail;
  if (hc.obj->signaled()) {
    if (sim::down(consume_signal(*hc.obj))) return core::stopped();
    return ok(WAIT_OBJECT_0);
  }
  // Nothing else can ever signal it: the task hangs (a Restart failure).
  if (timeout == INFINITE32) return ctx.hang(ctx.mut().name);
  ctx.machine().advance_ticks(timeout);
  return ok(WAIT_TIMEOUT);
}

CallOutcome do_sync_wait_multiple(CallContext& ctx) {
  constexpr std::uint32_t kMaxWait = 64;  // MAXIMUM_WAIT_OBJECTS
  const std::uint32_t count = ctx.arg32(0);
  const Addr handles = ctx.arg_addr(1);
  const bool wait_all = ctx.arg32(2) != 0;
  const std::uint32_t timeout = ctx.arg32(3);
  if (count == 0 || count > kMaxWait)
    return ctx.win_fail(ERR_INVALID_PARAMETER, WAIT_FAILED);
  std::vector<std::uint64_t> hs;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t h = 0;
    const MemStatus st = ctx.k_read_u32(handles + 4ull * i, &h);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st, WAIT_FAILED);
    hs.push_back(h);
  }
  std::vector<sim::KernelObject*> objs;
  std::uint32_t satisfied = 0;
  std::vector<std::shared_ptr<sim::KernelObject>> keep;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto hc = check_handle(ctx, hs[i], std::nullopt, WAIT_FAILED);
    if (hc.fail) return *hc.fail;
    if (hc.obj->signaled()) {
      if (!wait_all) {
        if (sim::down(consume_signal(*hc.obj))) return core::stopped();
        return ok(WAIT_OBJECT_0 + i);
      }
      ++satisfied;
    }
    keep.push_back(hc.obj);
    objs.push_back(hc.obj.get());
  }
  if (wait_all && satisfied == count) {
    // All-or-nothing acquisition: side effects land only once every object
    // is signaled, never piecemeal.
    for (sim::KernelObject* o : objs)
      if (sim::down(consume_signal(*o))) return core::stopped();
    return ok(WAIT_OBJECT_0);
  }
  if (timeout == INFINITE32) return ctx.hang(ctx.mut().name);
  ctx.machine().advance_ticks(timeout);
  return ok(WAIT_TIMEOUT);
}

CallOutcome do_signal_object_and_wait(CallContext& ctx) {
  // SignalObjectAndWait(hToSignal, hToWaitOn, dwMilliseconds, bAlertable) —
  // NT-family only; the 9x kernels never exported it.
  auto hc = check_handle(ctx, ctx.arg(0), std::nullopt, WAIT_FAILED);
  if (hc.fail) return *hc.fail;
  switch (hc.obj->kind()) {
    case sim::ObjectKind::kEvent:
      if (sim::down(hc.obj->set_signaled(true))) return core::stopped();
      break;
    case sim::ObjectKind::kMutex: {
      auto* m = static_cast<sim::MutexObject*>(hc.obj.get());
      if (!m->held()) return ctx.win_fail(ERR_NOT_OWNER, WAIT_FAILED);
      if (sim::down(m->set_held(false))) return core::stopped();
      break;
    }
    case sim::ObjectKind::kSemaphore: {
      const sim::Survived<bool> released =
          static_cast<sim::SemaphoreObject*>(hc.obj.get())->release(1);
      if (released.down()) return core::stopped();
      if (!released.value) return ctx.win_fail(ERR_TOO_MANY_POSTS, WAIT_FAILED);
      break;
    }
    default:
      // Only the three signalable kinds are accepted for the signal half.
      return ctx.win_fail(ERR_INVALID_HANDLE, WAIT_FAILED);
  }
  return wait_single(ctx, ctx.arg(1), ctx.arg32(2));
}

CallOutcome do_open_object(CallContext& ctx, sim::ObjectKind kind) {
  // Open{Event,Mutex,Semaphore}(dwDesiredAccess, bInheritHandle, lpName):
  // resolve the name against the live kernel-object namespace (modeled as
  // the named objects in the process handle table) and duplicate the
  // handle.  Name validation is identical on every variant — the per-variant
  // contrast here comes from the copy-in faults on bad name pointers.
  const Addr name = ctx.arg_addr(2);
  if (name == 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  std::string n;
  const MemStatus st = ctx.k_read_str(name, &n, 260);
  if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  if (n.empty()) return ctx.win_fail(ERR_INVALID_NAME, 0);
  for (const auto& [h, obj] : ctx.proc().handles().entries()) {
    if (obj && obj->kind() == kind && obj->name() == n)
      return core::ok_or_stopped(ctx.proc().handles().insert(obj));
  }
  return ctx.win_fail(ERR_FILE_NOT_FOUND, 0);
}

}  // namespace

// --- calls the process group registers too (win32.h) -----------------------

CallOutcome do_create_event(CallContext& ctx) {
  const Addr sa = ctx.arg_addr(0);
  if (sa != 0) {
    std::uint32_t len = 0;
    const MemStatus st = ctx.k_read_u32(sa, &len);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  const Addr name = ctx.arg_addr(3);
  std::string n;
  if (name != 0) {
    const MemStatus st = ctx.k_read_str(name, &n, 260);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return core::ok_or_stopped(
      ctx.proc().handles().insert(std::make_shared<sim::EventObject>(
          ctx.arg32(1) != 0, ctx.arg32(2) != 0, std::move(n))));
}

CallOutcome event_op(CallContext& ctx, int op) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kEvent);
  if (hc.fail) return *hc.fail;
  auto* e = static_cast<sim::EventObject*>(hc.obj.get());
  // SetEvent signals; ResetEvent, and PulseEvent (which releases and then
  // resets), leave it non-signaled.
  if (sim::down(e->set_signaled(op == 0))) return core::stopped();
  return ok(1);
}

CallOutcome do_create_mutex(CallContext& ctx) {
  const Addr name = ctx.arg_addr(2);
  std::string n;
  if (name != 0) {
    const MemStatus st = ctx.k_read_str(name, &n, 260);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return core::ok_or_stopped(ctx.proc().handles().insert(
      std::make_shared<sim::MutexObject>(ctx.arg32(1) != 0, std::move(n))));
}

CallOutcome do_release_mutex(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kMutex);
  if (hc.fail) return *hc.fail;
  auto* m = static_cast<sim::MutexObject*>(hc.obj.get());
  // Releasing a mutex the caller does not hold is ERROR_NOT_OWNER on every
  // variant — the 9x stubs validate ownership even though they skip handle
  // validation, so this arm contributes no Silent contrast.
  if (!m->held()) return ctx.win_fail(ERR_NOT_OWNER, 0);
  if (sim::down(m->set_held(false))) return core::stopped();
  return ok(1);
}

CallOutcome do_release_semaphore(CallContext& ctx) {
  auto hc = check_handle(ctx, ctx.arg(0), sim::ObjectKind::kSemaphore);
  if (hc.fail) return *hc.fail;
  auto* s = static_cast<sim::SemaphoreObject*>(hc.obj.get());
  const std::int32_t n = ctx.argi(1);
  if (n <= 0) return ctx.win_fail(ERR_INVALID_PARAMETER, 0);
  const std::int64_t prev = s->count();
  // Past the maximum the release is rejected whole (the SDK's
  // ERROR_TOO_MANY_POSTS), leaving the count untouched.
  const sim::Survived<bool> released = s->release(n);
  if (released.down()) return core::stopped();
  if (!released.value) return ctx.win_fail(ERR_TOO_MANY_POSTS, 0);
  const Addr out = ctx.arg_addr(2);
  if (out != 0) {
    const MemStatus st =
        ctx.k_write_u32(out, static_cast<std::uint32_t>(prev));
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
  }
  return ok(1);
}

CallOutcome do_wait_single(CallContext& ctx) {
  return wait_single(ctx, ctx.arg(0), ctx.arg32(1));
}

/// Interlocked* dereference the target in the caller on x86 desktops (a
/// user fault at worst) but thunk into the kernel on Windows CE — Table 3's
/// *Interlocked{Increment,Decrement,Exchange} deferred hazards.
CallOutcome interlocked(CallContext& ctx, int op) {
  const Addr target = ctx.arg_addr(0);
  std::uint32_t v = 0;
  if (ctx.os().crt_in_kernel || ctx.hazard() != core::CrashStyle::kNone) {
    MemStatus st = ctx.k_read_u32(target, &v);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    std::uint32_t nv = v;
    switch (op) {
      case 0: nv = v + 1; break;
      case 1: nv = v - 1; break;
      case 2: nv = ctx.arg32(1); break;
      case 3: nv = v + ctx.arg32(1); break;
      case 4:
        if (v == ctx.arg32(2)) nv = ctx.arg32(1);
        break;
    }
    st = ctx.k_write_u32(target, nv);
    if (st != MemStatus::kOk) return ctx.win_mem_fail(st);
    return ok(op <= 1 ? nv : v);
  }
  auto& mem = ctx.proc().mem();
  if (auto f = mem.read_u32(target, &v, sim::Access::kUser))
    return ctx.raise(*f);
  std::uint32_t nv = v;
  switch (op) {
    case 0: nv = v + 1; break;
    case 1: nv = v - 1; break;
    case 2: nv = ctx.arg32(1); break;
    case 3: nv = v + ctx.arg32(1); break;
    case 4:
      if (v == ctx.arg32(2)) nv = ctx.arg32(1);
      break;
  }
  if (auto f = mem.write_u32(target, nv, sim::Access::kUser))
    return ctx.raise(*f);
  return ok(op <= 1 ? nv : v);
}

void register_sync_calls(core::TypeLibrary& lib, core::Registry& reg) {
  register_sync_types(lib);
  Defs d{lib, reg};

  const auto G = core::FuncGroup::kWin32Sync;
  const auto A = core::ApiKind::kWin32Sys;
  const auto all = core::kMaskAllWindows;
  const auto no_ce = core::kMaskDesktopWindows;
  const auto nt_only = static_cast<std::uint8_t>(
      core::variant_bit(sim::OsVariant::kWinNT4) |
      core::variant_bit(sim::OsVariant::kWin2000));
  const auto not95_no_ce = static_cast<std::uint8_t>(
      core::kMaskDesktopWindows & ~core::variant_bit(sim::OsVariant::kWin95));
  const auto CE = sim::OsVariant::kWinCE;
  const auto kDef = core::CrashStyle::kDeferred;

  d.add("CreateEvent", A, G, {"security_attr", "int", "int", "sync_name"},
        do_create_event, all);
  d.add("SetEvent", A, G, {"h_sync_event"},
        [](CallContext& c) { return event_op(c, 0); }, all);
  d.add("ResetEvent", A, G, {"h_sync_event"},
        [](CallContext& c) { return event_op(c, 1); }, all);
  d.add("PulseEvent", A, G, {"h_sync_event"},
        [](CallContext& c) { return event_op(c, 2); }, no_ce);
  d.add("CreateMutex", A, G, {"security_attr", "int", "sync_name"},
        do_create_mutex, all);
  d.add("ReleaseMutex", A, G, {"h_sync_mutex"}, do_release_mutex, all);
  d.add("CreateSemaphore", A, G, {"security_attr", "int", "int", "sync_name"},
        do_sync_create_semaphore, no_ce);
  d.add("ReleaseSemaphore", A, G,
        {"h_sync_sem", "sync_release_count", "buf"},
        do_release_semaphore, no_ce);

  d.add("OpenEvent", A, G, {"flags32", "int", "sync_name"},
        [](CallContext& c) {
          return do_open_object(c, sim::ObjectKind::kEvent);
        },
        no_ce);
  d.add("OpenMutex", A, G, {"flags32", "int", "sync_name"},
        [](CallContext& c) {
          return do_open_object(c, sim::ObjectKind::kMutex);
        },
        no_ce);
  d.add("OpenSemaphore", A, G, {"flags32", "int", "sync_name"},
        [](CallContext& c) {
          return do_open_object(c, sim::ObjectKind::kSemaphore);
        },
        no_ce);

  d.add("WaitForSingleObject", A, G, {"h_sync_wait", "sync_timeout"},
        do_wait_single, all);
  d.add("WaitForMultipleObjects", A, G,
        {"count_small", "sync_handle_array", "int", "sync_timeout"},
        do_sync_wait_multiple, all);
  d.add("SignalObjectAndWait", A, G,
        {"h_sync_event", "h_sync_wait", "sync_timeout", "int"},
        do_signal_object_and_wait, nt_only);

  auto& ii = d.add("InterlockedIncrement", A, G, {"interlock_target"},
                   [](CallContext& c) { return interlocked(c, 0); }, all);
  ii.hazards[CE] = kDef;  // Table 3: *InterlockedIncrement
  auto& id = d.add("InterlockedDecrement", A, G, {"interlock_target"},
                   [](CallContext& c) { return interlocked(c, 1); }, all);
  id.hazards[CE] = kDef;
  auto& ix = d.add("InterlockedExchange", A, G, {"interlock_target", "int"},
                   [](CallContext& c) { return interlocked(c, 2); }, all);
  ix.hazards[CE] = kDef;
  d.add("InterlockedExchangeAdd", A, G, {"interlock_target", "int"},
        [](CallContext& c) { return interlocked(c, 3); }, not95_no_ce);
  d.add("InterlockedCompareExchange", A, G,
        {"interlock_target", "int", "int"},
        [](CallContext& c) { return interlocked(c, 4); }, not95_no_ce);
}

}  // namespace ballista::win32
