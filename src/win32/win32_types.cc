// Win32 data types: the HANDLE family (built by inheriting a generic handle
// pool and specializing, the approach §3.1 describes), plus pointer-to-struct
// types used across the API.
#include "win32/win32.h"

namespace ballista::win32 {

namespace {

using core::RawArg;
using core::ValueCtx;

std::uint64_t insert_fixture_file(ValueCtx& c, bool writable) {
  auto& fs = c.machine.fs();
  auto node = fs.resolve(fs.parse("/tmp/fixture.dat", c.proc.cwd()));
  auto obj = std::make_shared<sim::FileObject>(
      node,
      sim::FileObject::kAccessRead |
          (writable ? sim::FileObject::kAccessWrite : 0u),
      false);
  return c.insert_handle(std::move(obj));
}

}  // namespace

void register_win32_types(core::TypeLibrary& lib) {
  // --- generic HANDLE ----------------------------------------------------------
  auto& t_h = lib.make("h_any");
  t_h.add("h_file_valid", false,
          [](ValueCtx& c) { return insert_fixture_file(c, true); })
      .add("h_event_valid", false,
           [](ValueCtx& c) {
             return c.insert_handle(
                 std::make_shared<sim::EventObject>(true, true, ""));
           })
      .add("h_event_unsignaled", false,
           [](ValueCtx& c) {
             return c.insert_handle(
                 std::make_shared<sim::EventObject>(true, false, ""));
           })
      .add("h_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("h_invalid_value", true,
           [](ValueCtx&) { return INVALID_HANDLE_VALUE32; })
      .add("h_closed", true,
           [](ValueCtx& c) {
             const auto h = insert_fixture_file(c, false);
             (void)c.proc.handles().close(h);  // outside the window: kUp
             return h;
           })
      .add("h_garbage", true, [](ValueCtx&) { return RawArg{0x12345678}; })
      .add("h_odd", true, [](ValueCtx&) { return RawArg{7}; })
      .add("h_kernel_addr", true, [](ValueCtx&) { return RawArg{0xC0004000}; });

  // --- specialized handles ---------------------------------------------------
  auto& t_hfile = lib.make("h_file", &lib.get("h_any"));
  t_hfile
      .add("h_file_ro", false,
           [](ValueCtx& c) { return insert_fixture_file(c, false); })
      .add("h_file_readonly_node", false,
           [](ValueCtx& c) {
             auto& fs = c.machine.fs();
             auto node = fs.resolve(fs.parse("/tmp/readonly.dat", c.proc.cwd()));
             return c.insert_handle(std::make_shared<sim::FileObject>(
                 node, sim::FileObject::kAccessRead, false));
           })
      .add("h_pseudo_process_as_file", true,
           [](ValueCtx&) { return kPseudoCurrentProcess; });

  auto& t_hthread = lib.make("h_thread", &lib.get("h_any"));
  t_hthread
      .add("h_thread_main", false,
           [](ValueCtx& c) { return c.insert_handle(c.proc.main_thread()); })
      .add("h_thread_pseudo", false,
           [](ValueCtx&) { return kPseudoCurrentThread; })
      .add("h_thread_spawned", false, [](ValueCtx& c) {
        return c.insert_handle(c.proc.spawn_thread().value);
      });

  auto& t_hproc = lib.make("h_process", &lib.get("h_any"));
  t_hproc
      .add("h_process_pseudo", false,
           [](ValueCtx&) { return kPseudoCurrentProcess; })
      .add("h_process_self", false, [](ValueCtx& c) {
        return c.insert_handle(c.proc.self_object());
      });

  auto& t_hevent = lib.make("h_event", &lib.get("h_any"));
  t_hevent
      .add("h_event_unsignaled", false,
           [](ValueCtx& c) {
             return c.insert_handle(
                 std::make_shared<sim::EventObject>(true, false, ""));
           })
      .add("h_event_auto", false, [](ValueCtx& c) {
        return c.insert_handle(
            std::make_shared<sim::EventObject>(false, true, ""));
      });

  auto& t_hmutex = lib.make("h_mutex", &lib.get("h_any"));
  t_hmutex.add("h_mutex_valid", false, [](ValueCtx& c) {
    return c.insert_handle(
        std::make_shared<sim::MutexObject>(false, ""));
  });

  auto& t_hsem = lib.make("h_sem", &lib.get("h_any"));
  t_hsem.add("h_sem_valid", false, [](ValueCtx& c) {
    return c.insert_handle(
        std::make_shared<sim::SemaphoreObject>(1, 4, ""));
  });

  auto& t_hheap = lib.make("h_heap", &lib.get("h_any"));
  t_hheap.add("h_heap_valid", false, [](ValueCtx& c) {
    return c.insert_handle(
        std::make_shared<sim::HeapObject>(1 << 16, 1 << 20));
  });

  auto& t_hfind = lib.make("h_find", &lib.get("h_any"));
  t_hfind.add("h_find_valid", false, [](ValueCtx& c) {
    std::vector<std::string> names{"fixture.dat", "readonly.dat"};
    return c.insert_handle(
        std::make_shared<sim::FindObject>(std::move(names)));
  });

  // --- waitable-handle arrays (MsgWaitForMultipleObjects et al.) --------------
  auto& t_harray = lib.make("handle_array");
  t_harray
      .add("harr_two_signaled", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             for (int i = 0; i < 2; ++i) {
               const auto h = c.insert_handle(
                   std::make_shared<sim::EventObject>(true, true, ""));
               c.proc.mem().poke_u32(a + 4 * i, static_cast<std::uint32_t>(h));
             }
             return a;
           })
      .add("harr_unsignaled", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             const auto h = c.insert_handle(
                 std::make_shared<sim::EventObject>(true, false, ""));
             c.proc.mem().poke_u32(a, static_cast<std::uint32_t>(h));
             return a;
           })
      .add("harr_garbage_handles", true,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(16);
             c.proc.mem().poke_u32(a, 0xdeadbeef);
             c.proc.mem().poke_u32(a + 4, 0);
             return a;
           })
      .add("harr_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("harr_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(16); })
      .add("harr_kernel", true, [](ValueCtx&) { return RawArg{0xC0005000}; })
      .add("harr_low", true, [](ValueCtx&) { return RawArg{0x00000040}; });

  // --- pointer-to-struct types -------------------------------------------------
  // CONTEXT*: a correctly sized, flag-initialized record plus the generic bad
  // pointers inherited from "buf" (Listing 1 passes NULL).
  auto& t_ctx = lib.make("context_ptr", &lib.get("buf"));
  t_ctx.add("ctx_valid_full", false, [](ValueCtx& c) {
    const auto a = c.proc.mem().alloc(68);
    c.proc.mem().poke_u32(a, 0x10007);  // CONTEXT_FULL
    return a;
  });

  auto& t_ft = lib.make("filetime_ptr", &lib.get("buf"));
  t_ft.add("ft_valid_1999", false, [](ValueCtx& c) {
    const auto a = c.proc.mem().alloc(8);
    // 100ns units since 1601; a mid-1999 value.
    c.proc.mem().poke_u64(a, 0x01BEC2'33F0E4'4000ull);
    return a;
  });

  auto& t_st = lib.make("systemtime_ptr", &lib.get("buf"));
  t_st.add("st_valid", false, [](ValueCtx& c) {
    const auto a = c.proc.mem().alloc(16);
    const std::uint16_t f[8] = {1999, 6, 1, 28, 13, 45, 30, 0};
    for (int i = 0; i < 8; ++i)
      c.proc.mem().poke_u16(a + 2 * i, f[i]);
    return a;
  });

  // SECURITY_ATTRIBUTES*: NULL is the normal value.
  auto& t_sa = lib.make("security_attr");
  t_sa.add("sa_null_ok", false, [](ValueCtx&) { return RawArg{0}; })
      .add("sa_valid", false,
           [](ValueCtx& c) {
             const auto a = c.proc.mem().alloc(12);
             c.proc.mem().poke_u32(a, 12);
             return a;
           })
      .add("sa_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(12); })
      .add("sa_garbage", true, [](ValueCtx&) { return RawArg{0x31337}; });
}

}  // namespace ballista::win32
