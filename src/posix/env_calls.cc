// POSIX Process Environment group (18 calls): environment access, identity,
// host information, configuration limits.
//
// getenv/putenv are glibc code operating on user-space tables (they abort on
// garbage); the id calls cannot fail at all; sysconf/pathconf validate and
// return -1/EINVAL — together a low-failure group matching Figure 1.
#include <cstring>

#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

using core::ok;

CallOutcome do_getenv(CallContext& ctx) {
  // glibc walks environ in user space: the name is dereferenced raw.
  auto& mem = ctx.proc().mem();
  std::string name;
  for (std::uint64_t i = 0; i < 65536; ++i) {
    std::uint8_t c = 0;
    if (auto f = mem.read_u8(ctx.arg_addr(0) + i, &c, sim::Access::kUser))
      return ctx.raise(*f);
    if (c == 0) break;
    name.push_back(static_cast<char>(c));
  }
  auto it = ctx.proc().env().find(name);
  if (it == ctx.proc().env().end()) return ok(0);  // NULL: not found
  return core::ok_or_stopped(ctx.proc().mem().task_alloc_cstr(it->second));
}

CallOutcome do_putenv(CallContext& ctx) {
  auto& mem = ctx.proc().mem();
  std::string kv;
  for (std::uint64_t i = 0; i < 65536; ++i) {
    std::uint8_t c = 0;
    if (auto f = mem.read_u8(ctx.arg_addr(0) + i, &c, sim::Access::kUser))
      return ctx.raise(*f);
    if (c == 0) break;
    kv.push_back(static_cast<char>(c));
  }
  const auto eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) return ctx.posix_fail(EINVAL);
  ctx.proc().edit_env()[kv.substr(0, eq)] = kv.substr(eq + 1);
  return ok(0);
}

CallOutcome do_setenv(CallContext& ctx) {
  std::string name;
  MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &name, 4096);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (name.empty() || name.find('=') != std::string::npos)
    return ctx.posix_fail(EINVAL);
  std::string value;
  st = ctx.k_read_str(ctx.arg_addr(1), &value, 4096);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  const bool overwrite = ctx.arg32(2) != 0;
  if (!overwrite && ctx.proc().env().count(name) != 0) return ok(0);
  ctx.proc().edit_env()[name] = value;
  return ok(0);
}

CallOutcome do_unsetenv(CallContext& ctx) {
  std::string name;
  const MemStatus st = ctx.k_read_str(ctx.arg_addr(0), &name, 4096);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  if (name.empty() || name.find('=') != std::string::npos)
    return ctx.posix_fail(EINVAL);
  if (ctx.proc().env().count(name) != 0) ctx.proc().edit_env().erase(name);
  return ok(0);
}

CallOutcome do_uname(CallContext& ctx) {
  // struct utsname: five 65-byte fields.
  std::uint8_t uts[325] = {};
  std::memcpy(uts, "Linux", 5);
  std::memcpy(uts + 65, "ballista", 8);
  std::memcpy(uts + 130, "2.2.5", 5);
  const MemStatus st = ctx.k_write(ctx.arg_addr(0), uts);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(0);
}

CallOutcome do_gethostname(CallContext& ctx) {
  const std::string host = "ballista";
  const std::uint64_t len = ctx.arg(1);
  if (static_cast<std::int64_t>(len) < 0) return ctx.posix_fail(EINVAL);
  if (len < host.size() + 1) return ctx.posix_fail(ENAMETOOLONG);
  std::vector<std::uint8_t> bytes(host.begin(), host.end());
  bytes.push_back(0);
  const MemStatus st = ctx.k_write(ctx.arg_addr(0), bytes);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(0);
}

CallOutcome do_sethostname(CallContext& ctx) {
  const std::uint64_t len = ctx.arg(1);
  if (static_cast<std::int64_t>(len) < 0 || len > 64)
    return ctx.posix_fail(EINVAL);
  std::vector<std::uint8_t> bytes(len);
  const MemStatus st = ctx.k_read(ctx.arg_addr(0), bytes);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ctx.posix_fail(EPERM);  // not root
}

CallOutcome do_getlogin(CallContext& ctx) {
  return core::ok_or_stopped(ctx.proc().mem().task_alloc_cstr("tester"));
}

CallOutcome id_value(CallContext& ctx, std::uint32_t v) {
  (void)ctx;
  return ok(v);
}

CallOutcome do_setuid(CallContext& ctx) {
  const std::uint32_t uid = ctx.arg32(0);
  if (uid == 500) return ok(0);  // our own uid
  return ctx.posix_fail(EPERM);
}

CallOutcome do_getgroups(CallContext& ctx) {
  const std::int64_t size = static_cast<std::int32_t>(ctx.arg32(0));
  if (size < 0) return ctx.posix_fail(EINVAL);
  if (size == 0) return ok(1);  // number of groups
  const MemStatus st = ctx.k_write_u32(ctx.arg_addr(1), 500);
  if (st != MemStatus::kOk) return ctx.posix_mem_fail(st);
  return ok(1);
}

CallOutcome do_sysconf(CallContext& ctx) {
  const std::int64_t name = static_cast<std::int32_t>(ctx.arg32(0));
  switch (name) {
    case 0: return ok(1024);            // _SC_ARG_MAX-ish
    case 1: return ok(256);             // _SC_CHILD_MAX
    case 2: return ok(100);             // _SC_CLK_TCK
    case 4: return ok(256);             // _SC_OPEN_MAX
    case 30: return ok(4096);           // _SC_PAGESIZE
    default:
      if (name < 0 || name > 200) return ctx.posix_fail(EINVAL);
      return ok(static_cast<std::uint64_t>(-1));  // unsupported: -1, no errno
  }
}

CallOutcome do_pathconf(CallContext& ctx) {
  const auto pr = read_posix_path(ctx, ctx.arg_addr(0));
  if (!pr.path) return pr.fail;
  auto& fs = ctx.machine().fs();
  if (fs.resolve(fs.parse(*pr.path, ctx.proc().cwd())) == nullptr)
    return ctx.posix_fail(ENOENT);
  const std::int64_t name = static_cast<std::int32_t>(ctx.arg32(1));
  if (name < 0 || name > 20) return ctx.posix_fail(EINVAL);
  return ok(name == 4 ? 255 : 4096);  // NAME_MAX / PATH_MAX flavors
}

CallOutcome do_fpathconf(CallContext& ctx) {
  auto fc = check_fd(ctx, ctx.arg(0));
  if (fc.fail) return *fc.fail;
  const std::int64_t name = static_cast<std::int32_t>(ctx.arg32(1));
  if (name < 0 || name > 20) return ctx.posix_fail(EINVAL);
  return ok(name == 4 ? 255 : 4096);
}

}  // namespace

void register_posix_env(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kProcessEnvironment;
  const auto A = core::ApiKind::kPosixSys;
  const auto L = core::kMaskLinux;

  d.add("getenv", A, G, {"cstr"}, do_getenv, L);
  d.add("putenv", A, G, {"cstr"}, do_putenv, L);
  d.add("setenv", A, G, {"cstr", "cstr", "int"}, do_setenv, L);
  d.add("unsetenv", A, G, {"cstr"}, do_unsetenv, L);
  d.add("uname", A, G, {"buf"}, do_uname, L);
  d.add("gethostname", A, G, {"buf", "size"}, do_gethostname, L);
  d.add("sethostname", A, G, {"cstr", "size"}, do_sethostname, L);
  d.add("getlogin", A, G, {}, do_getlogin, L);
  d.add("getuid", A, G, {},
        [](CallContext& c) { return id_value(c, 500); }, L);
  d.add("geteuid", A, G, {},
        [](CallContext& c) { return id_value(c, 500); }, L);
  d.add("getgid", A, G, {},
        [](CallContext& c) { return id_value(c, 500); }, L);
  d.add("getegid", A, G, {},
        [](CallContext& c) { return id_value(c, 500); }, L);
  d.add("setuid", A, G, {"uid_arg"}, do_setuid, L);
  d.add("setgid", A, G, {"uid_arg"}, do_setuid, L);
  d.add("getgroups", A, G, {"int", "buf"}, do_getgroups, L);
  d.add("sysconf", A, G, {"int"}, do_sysconf, L);
  d.add("pathconf", A, G, {"path", "int"}, do_pathconf, L);
  d.add("fpathconf", A, G, {"fd", "int"}, do_fpathconf, L);
}

}  // namespace ballista::posix_api
