// C-library data types: FILE pointers (including the string-buffer-cast value
// that took Windows CE down through seventeen functions), fopen mode strings,
// heap pointers, and <time.h> argument structures.
#include <string>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::RawArg;
using core::ValueCtx;

constexpr std::uint64_t kHeapMagic = 0x48454150'4348554eULL;  // "HEAPCHUN"

sim::Addr make_valid_file(ValueCtx& c, bool writable) {
  auto node = std::make_shared<sim::FsNode>("stream.dat", false);
  const std::string payload = "stream contents: 42 1999 ballista\n";
  node->edit_data().assign(payload.begin(), payload.end());
  // Materialization runs outside the module window: nothing is cut here.
  return make_file_struct(c.proc, std::move(node),
                          kFRead | (writable ? kFWrite : 0u) | kFOpen)
      .value;
}

}  // namespace

void register_clib_types(core::TypeLibrary& lib) {
  using sim::Access;

  // --- FILE* ------------------------------------------------------------------
  auto& t_cfile = lib.make("cfile");
  t_cfile
      .add("file_valid_rw", false,
           [](ValueCtx& c) { return make_valid_file(c, true); })
      .add("file_valid_ro", false,
           [](ValueCtx& c) { return make_valid_file(c, false); })
      .add("file_stdout", false,
           [](ValueCtx& c) { return harness_crt_state(c.proc).file_stdout; })
      .add("file_stdin", false,
           [](ValueCtx& c) { return harness_crt_state(c.proc).file_stdin; })
      .add("file_closed", true,
           [](ValueCtx& c) {
             const sim::Addr fp = make_valid_file(c, true);
             // Mimic fclose: cleared magic, flags and internal pointers.
             auto& mem = c.proc.mem();
             mem.poke_u32(fp + kFileOffMagic, 0);
             mem.poke_u32(fp + kFileOffFlags, 0);
             mem.poke_u32(fp + kFileOffBuf, 0);
             mem.poke_u32(fp + kFileOffLock, 0);
             return fp;
           })
      .add("file_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("file_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(32); })
      // The paper's root cause for 17 Windows CE Catastrophic failures: "a
      // string buffer typecast to a file pointer" (§5).
      .add("file_string_buffer", true,
           [](ValueCtx& c) {
             return c.proc.mem().alloc_cstr(
                 "this is character data, not a FILE structure at all");
           })
      .add("file_bad_magic", true, [](ValueCtx& c) {
        auto& mem = c.proc.mem();
        const sim::Addr fp = mem.alloc(32);
        mem.poke_u32(fp + kFileOffMagic, 0x12345678);
        mem.poke_u32(fp + kFileOffHandle, 0xdddddddd);
        mem.poke_u32(fp + kFileOffFlags, 0xffffffff);
        mem.poke_u32(fp + kFileOffBuf, 0x41414141);
        mem.poke_u32(fp + kFileOffLock, 0x42424242);
        return fp;
      });

  // --- fopen mode strings -------------------------------------------------------
  auto& t_mode = lib.make("mode_str", &lib.get("cstr"));
  for (const char* m : {"r", "w", "a", "r+", "w+", "rb", "ab"}) {
    t_mode.add(std::string("mode_") + m, false,
               [m](ValueCtx& c) { return c.proc.mem().alloc_cstr(m); });
  }
  t_mode.add("mode_bogus", true, [](ValueCtx& c) {
    return c.proc.mem().alloc_cstr("xyz");
  });

  auto& t_wmode = lib.make("mode_wstr", &lib.get("wstr"));
  for (const char16_t* m : {u"r", u"w", u"a", u"r+"}) {
    t_wmode.add(std::string("wmode_") +
                    static_cast<char>(m[0]) + (m[1] ? "+" : ""),
                false, [m](ValueCtx& c) { return c.proc.mem().alloc_wstr(m); });
  }
  t_wmode.add("wmode_bogus", true, [](ValueCtx& c) {
    return c.proc.mem().alloc_wstr(u"xyz");
  });

  // --- heap pointers (malloc results) -------------------------------------------
  auto& t_heap = lib.make("heap_ptr");
  t_heap
      .add("heap_valid_64", false,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr base = mem.alloc(64 + 16);
             mem.poke_u64(base, kHeapMagic);
             mem.poke_u64(base + 8, 64);
             c.proc.default_heap()->allocations[base + 16] = 64;
             return base + 16;
           })
      .add("heap_null", false, [](ValueCtx&) { return RawArg{0}; })
      .add("heap_freed", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(64) + 16; })
      .add("heap_interior", true,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr base = mem.alloc(64 + 16);
             mem.poke_u64(base, kHeapMagic);
             mem.poke_u64(base + 8, 64);
             c.proc.default_heap()->allocations[base + 16] = 64;
             return base + 24;  // 8 bytes past the true allocation start
           })
      .add("heap_stack_buffer", true,
           [](ValueCtx& c) { return c.proc.mem().alloc(64); })
      .add("heap_garbage", true, [](ValueCtx&) { return RawArg{0x12345678}; })
      .add("heap_kernel", true, [](ValueCtx&) { return RawArg{0xC0003000}; });

  // --- <time.h> argument structures ----------------------------------------------
  auto& t_time = lib.make("time_ptr");
  t_time
      .add("time_valid", false,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr a = mem.alloc(8);
             mem.poke_u32(a, 930000000u);  // mid-1999
             return a;
           })
      .add("time_zero", false,
           [](ValueCtx& c) {
             const sim::Addr a = c.proc.mem().alloc(8);
             c.proc.mem().poke_u32(a, 0);
             return a;
           })
      .add("time_huge", true,
           [](ValueCtx& c) {
             const sim::Addr a = c.proc.mem().alloc(8);
             c.proc.mem().poke_u32(a, 0xffffffff);
             return a;
           })
      .add("time_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("time_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(8); })
      .add("time_unaligned", false,
           [](ValueCtx& c) { return c.proc.mem().alloc(8) + 1; });

  // time(NULL) is legal: a separate pool where NULL is non-exceptional.
  auto& t_time_opt = lib.make("time_ptr_opt", &lib.get("time_ptr"));
  t_time_opt.add("time_null_ok", false, [](ValueCtx&) { return RawArg{0}; });

  auto& t_tm = lib.make("tm_ptr");
  t_tm
      .add("tm_valid", false,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr a = mem.alloc(40);
             const std::int32_t f[9] = {30, 45, 13, 28, 5, 99, 1, 178, 0};
             for (int i = 0; i < 9; ++i)
               mem.poke_u32(a + 4 * i, static_cast<std::uint32_t>(f[i]));
             return a;
           })
      .add("tm_out_of_range", true,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr a = mem.alloc(40);
             const std::int32_t f[9] = {99, -5, 200, 99, 0x7fffffff,
                                        0x7fffffff, 0x7fffffff, -1, 7};
             for (int i = 0; i < 9; ++i)
               mem.poke_u32(a + 4 * i, static_cast<std::uint32_t>(f[i]));
             return a;
           })
      .add("tm_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("tm_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(40); })
      .add("tm_string_buffer", true, [](ValueCtx& c) {
        return c.proc.mem().alloc_cstr(
            "definitely not a struct tm, just characters");
      });
}

}  // namespace ballista::clib
