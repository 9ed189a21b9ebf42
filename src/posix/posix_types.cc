// POSIX data types: file descriptors, DIR*, signal numbers, mmap arguments,
// argv vectors, sigsets and timespecs.
#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

using core::RawArg;
using core::ValueCtx;

std::uint64_t open_fixture_fd(ValueCtx& c, bool writable) {
  auto& fs = c.machine.fs();
  auto node = fs.resolve(fs.parse("/tmp/fixture.dat", c.proc.cwd()));
  auto obj = std::make_shared<sim::FileObject>(
      node,
      sim::FileObject::kAccessRead |
          (writable ? sim::FileObject::kAccessWrite : 0u),
      false);
  return c.insert_handle(std::move(obj));
}

// DIR structure: magic + cursor, in simulated memory (glibc resolves it in
// user space — the source of Linux's residual system-call Aborts).
constexpr std::uint32_t kDirMagic = 0x44495221;  // 'DIR!'

std::uint64_t make_dir_struct(ValueCtx& c) {
  auto& mem = c.proc.mem();
  const sim::Addr d = mem.alloc(16);
  mem.poke_u32(d, kDirMagic);
  auto& fs = c.machine.fs();
  auto node = fs.resolve(fs.parse("/tmp", c.proc.cwd()));
  auto obj = std::make_shared<sim::DirectoryObject>(node);
  const std::uint64_t h = c.insert_handle(std::move(obj));
  mem.poke_u32(d + 4, static_cast<std::uint32_t>(h));
  mem.poke_u32(d + 8, 0);  // cursor
  return d;
}

}  // namespace

void register_posix_types(core::TypeLibrary& lib) {
  auto& t_fd = lib.make("fd");
  t_fd.add("fd_fixture_rw", false,
           [](ValueCtx& c) { return open_fixture_fd(c, true); })
      .add("fd_fixture_ro", false,
           [](ValueCtx& c) { return open_fixture_fd(c, false); })
      .add("fd_stdin", false, [](ValueCtx& c) { return c.proc.std_in; })
      .add("fd_stdout", false, [](ValueCtx& c) { return c.proc.std_out; })
      .add("fd_closed", true,
           [](ValueCtx& c) {
             const auto fd = open_fixture_fd(c, false);
             (void)c.proc.handles().close(fd);  // outside the window: kUp
             return fd;
           })
      .add("fd_neg1", true, [](ValueCtx&) { return RawArg(-1); })
      .add("fd_9999", true, [](ValueCtx&) { return RawArg{9999}; })
      .add("fd_intmax", true, [](ValueCtx&) { return RawArg{0x7fffffff}; });

  auto& t_dir = lib.make("dir_ptr");
  t_dir.add("dir_valid", false, make_dir_struct)
      .add("dir_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("dir_closed", true,
           [](ValueCtx& c) {
             const auto d = make_dir_struct(c);
             c.proc.mem().poke_u32(d, 0);
             return d;
           })
      .add("dir_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(16); })
      .add("dir_string_buffer", true, [](ValueCtx& c) {
        return c.proc.mem().alloc_cstr("not a DIR structure");
      });

  auto& t_sig = lib.make("sig_num");
  t_sig.add("sig_0", false, [](ValueCtx&) { return RawArg{0}; })
      .add("sig_hup", false, [](ValueCtx&) { return RawArg{1}; })
      .add("sig_usr1", false, [](ValueCtx&) { return RawArg{10}; })
      .add("sig_term", false, [](ValueCtx&) { return RawArg{15}; })
      .add("sig_31", false, [](ValueCtx&) { return RawArg{31}; })
      .add("sig_64", true, [](ValueCtx&) { return RawArg{64}; })
      .add("sig_neg1", true, [](ValueCtx&) { return RawArg(-1); })
      .add("sig_1000", true, [](ValueCtx&) { return RawArg{1000}; });

  auto& t_pid = lib.make("pid_arg");
  t_pid.add("pid_self", false, [](ValueCtx& c) { return c.proc.pid(); })
      .add("pid_0", false, [](ValueCtx&) { return RawArg{0}; })
      .add("pid_1", false, [](ValueCtx&) { return RawArg{1}; })
      .add("pid_neg1", true, [](ValueCtx&) { return RawArg(-1); })
      .add("pid_bogus", true, [](ValueCtx&) { return RawArg{54321}; })
      .add("pid_intmax", true, [](ValueCtx&) { return RawArg{0x7fffffff}; });

  auto& t_prot = lib.make("mmap_prot");
  t_prot.add("prot_none", false, [](ValueCtx&) { return RawArg{0}; })
      .add("prot_read", false, [](ValueCtx&) { return RawArg{1}; })
      .add("prot_rw", false, [](ValueCtx&) { return RawArg{3}; })
      .add("prot_rwx", false, [](ValueCtx&) { return RawArg{7}; })
      .add("prot_bogus", true, [](ValueCtx&) { return RawArg{0xff}; });

  auto& t_whence = lib.make("whence");
  t_whence.add("seek_set", false, [](ValueCtx&) { return RawArg{0}; })
      .add("seek_cur", false, [](ValueCtx&) { return RawArg{1}; })
      .add("seek_end", false, [](ValueCtx&) { return RawArg{2}; })
      .add("seek_bogus", true, [](ValueCtx&) { return RawArg{42}; })
      .add("seek_neg", true, [](ValueCtx&) { return RawArg(-1); });

  // argv/envp vectors: arrays of char* in simulated memory.
  auto& t_argv = lib.make("argv_ptr");
  t_argv
      .add("argv_valid", false,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr s0 = mem.alloc_cstr("prog");
             const sim::Addr s1 = mem.alloc_cstr("-x");
             const sim::Addr v = mem.alloc(24);
             mem.poke_u32(v, static_cast<std::uint32_t>(s0));
             mem.poke_u32(v + 4, static_cast<std::uint32_t>(s1));
             mem.poke_u32(v + 8, 0);
             return v;
           })
      .add("argv_empty", false,
           [](ValueCtx& c) {
             const sim::Addr v = c.proc.mem().alloc(8);
             return v;  // { NULL }
           })
      .add("argv_null", true, [](ValueCtx&) { return RawArg{0}; })
      .add("argv_unterminated", true,
           [](ValueCtx& c) {
             // A page of pointers with no NULL terminator: walking it runs
             // into garbage pointers and then the guard page.
             auto& mem = c.proc.mem();
             const sim::Addr v = mem.alloc(4096);
             for (int i = 0; i < 1024; ++i)
               mem.poke_u32(v + 4 * i, 0x61616161);
             return v;
           })
      .add("argv_dangling", true,
           [](ValueCtx& c) { return c.proc.mem().alloc_dangling(16); })
      .add("argv_bad_member", true, [](ValueCtx& c) {
        auto& mem = c.proc.mem();
        const sim::Addr v = mem.alloc(16);
        mem.poke_u32(v, 0xdead0000);
        mem.poke_u32(v + 4, 0);
        return v;
      });

  auto& t_sigset = lib.make("sigset_ptr", &lib.get("buf"));
  t_sigset.add("sigset_valid", false, [](ValueCtx& c) {
    const sim::Addr a = c.proc.mem().alloc(128);
    return a;
  });

  auto& t_ts = lib.make("timespec_ptr", &lib.get("buf"));
  t_ts.add("ts_valid_short", false,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr a = mem.alloc(16);
             mem.poke_u64(a, 0);
             mem.poke_u64(a + 8, 1000);  // 1us
             return a;
           })
      .add("ts_negative", true,
           [](ValueCtx& c) {
             auto& mem = c.proc.mem();
             const sim::Addr a = mem.alloc(16);
             mem.poke_u64(a, static_cast<std::uint64_t>(-5));
             mem.poke_u64(a + 8, 0);
             return a;
           })
      .add("ts_huge_nsec", true, [](ValueCtx& c) {
        auto& mem = c.proc.mem();
        const sim::Addr a = mem.alloc(16);
        mem.poke_u64(a, 0);
        mem.poke_u64(a + 8, 5'000'000'000ull);
        return a;
      });

  auto& t_uid = lib.make("uid_arg");
  t_uid.add("uid_0", false, [](ValueCtx&) { return RawArg{0}; })
      .add("uid_500", false, [](ValueCtx&) { return RawArg{500}; })
      .add("uid_neg1", true, [](ValueCtx&) { return RawArg(-1); })
      .add("uid_huge", true, [](ValueCtx&) { return RawArg{0xfffffffe}; });
}

}  // namespace ballista::posix_api
