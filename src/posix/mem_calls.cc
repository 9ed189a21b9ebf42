// POSIX Memory Management group (8 calls): mmap munmap mprotect msync mlock
// munlock mlockall munlockall.  The Linux kernel validates every argument and
// returns EINVAL/EFAULT/ENOMEM — this group's near-zero Abort rate is a
// centerpiece of the paper's Figure 1 contrast with Windows.
#include <optional>

#include "posix/posix.h"

namespace ballista::posix_api {

namespace {

using core::ok;

constexpr std::uint64_t kVmLimit = 256ull << 20;

bool page_aligned(Addr a) { return a % sim::kPageSize == 0; }

CallOutcome do_mmap(CallContext& ctx) {
  const Addr addr = ctx.arg_addr(0);
  const std::uint64_t len = ctx.arg(1);
  const std::uint32_t prot = ctx.arg32(2);
  const std::uint32_t flags = ctx.arg32(3);
  const std::int64_t fd = static_cast<std::int32_t>(ctx.arg(4));
  const std::int64_t off = static_cast<std::int32_t>(ctx.arg(5));

  if (len == 0 || len > kVmLimit) return ctx.posix_fail(EINVAL);
  if ((prot & ~7u) != 0) return ctx.posix_fail(EINVAL);
  const bool anon = (flags & 0x20) != 0;  // MAP_ANONYMOUS
  const bool shared = (flags & 0x01) != 0;
  const bool priv = (flags & 0x02) != 0;
  if (shared == priv) return ctx.posix_fail(EINVAL);  // exactly one required
  if (off % static_cast<std::int64_t>(sim::kPageSize) != 0)
    return ctx.posix_fail(EINVAL);
  if (!anon) {
    auto fc = check_fd(ctx, static_cast<std::uint64_t>(fd),
                       sim::ObjectKind::kFile);
    if (fc.fail) return *fc.fail;
  }
  if (addr != 0) {
    if (!page_aligned(addr) || addr >= sim::kSharedArenaBase)
      return ctx.posix_fail(EINVAL);
    if (sim::down(ctx.proc().mem().map(
            addr, len,
            prot == 0 ? sim::kPermNone
                      : ((prot & 2) ? sim::kPermRW : sim::kPermRead))))
      return core::stopped();
    return ok(addr);
  }
  return core::ok_or_stopped(ctx.proc().mem().task_alloc(
      len, prot == 0 ? sim::kPermNone
                     : ((prot & 2) ? sim::kPermRW : sim::kPermRead)));
}

CallOutcome do_munmap(CallContext& ctx) {
  const Addr addr = ctx.arg_addr(0);
  const std::uint64_t len = ctx.arg(1);
  if (!page_aligned(addr) || len == 0) return ctx.posix_fail(EINVAL);
  // munmap of unmapped ranges succeeds on Linux.
  if (sim::down(ctx.proc().mem().unmap(addr, std::min(len, kVmLimit))))
    return core::stopped();
  return ok(0);
}

CallOutcome do_mprotect(CallContext& ctx) {
  const Addr addr = ctx.arg_addr(0);
  const std::uint64_t len = ctx.arg(1);
  const std::uint32_t prot = ctx.arg32(2);
  if (!page_aligned(addr)) return ctx.posix_fail(EINVAL);
  if ((prot & ~7u) != 0) return ctx.posix_fail(EINVAL);
  if (!ctx.proc().mem().is_mapped(addr)) return ctx.posix_fail(ENOMEM);
  if (sim::down(ctx.proc().mem().protect(
          addr, std::min(len, kVmLimit),
          prot == 0 ? sim::kPermNone
                    : ((prot & 2) ? sim::kPermRW : sim::kPermRead))))
    return core::stopped();
  return ok(0);
}

CallOutcome do_msync(CallContext& ctx) {
  const Addr addr = ctx.arg_addr(0);
  const std::uint32_t flags = ctx.arg32(2);
  if (!page_aligned(addr)) return ctx.posix_fail(EINVAL);
  if ((flags & ~7u) != 0 || flags == 0) return ctx.posix_fail(EINVAL);
  if ((flags & 1) && (flags & 4)) return ctx.posix_fail(EINVAL);  // ASYNC+SYNC
  if (!ctx.proc().mem().is_mapped(addr)) return ctx.posix_fail(ENOMEM);
  return ok(0);
}

CallOutcome do_mlock(CallContext& ctx, bool lock) {
  (void)lock;
  const Addr addr = ctx.arg_addr(0);
  const std::uint64_t len = ctx.arg(1);
  if (len > kVmLimit) return ctx.posix_fail(ENOMEM);
  if (!ctx.proc().mem().is_mapped(addr)) return ctx.posix_fail(ENOMEM);
  return ok(0);
}

CallOutcome do_mlockall(CallContext& ctx, bool lock) {
  if (!lock) return ok(0);
  const std::uint32_t flags = ctx.arg32(0);
  if (flags == 0 || (flags & ~3u) != 0) return ctx.posix_fail(EINVAL);
  return ok(0);
}

}  // namespace

void register_posix_mem(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kMemoryManagement;
  const auto A = core::ApiKind::kPosixSys;
  const auto L = core::kMaskLinux;

  d.add("mmap", A, G, {"opt_addr", "size", "mmap_prot", "flags32", "fd", "int"},
        do_mmap, L);
  d.add("munmap", A, G, {"opt_addr", "size"}, do_munmap, L);
  d.add("mprotect", A, G, {"opt_addr", "size", "mmap_prot"}, do_mprotect, L);
  d.add("msync", A, G, {"opt_addr", "size", "flags32"}, do_msync, L);
  d.add("mlock", A, G, {"opt_addr", "size"},
        [](CallContext& c) { return do_mlock(c, true); }, L);
  d.add("munlock", A, G, {"opt_addr", "size"},
        [](CallContext& c) { return do_mlock(c, false); }, L);
  d.add("mlockall", A, G, {"flags32"},
        [](CallContext& c) { return do_mlockall(c, true); }, L);
  d.add("munlockall", A, G, {},
        [](CallContext& c) { return do_mlockall(c, false); }, L);
}

}  // namespace ballista::posix_api
