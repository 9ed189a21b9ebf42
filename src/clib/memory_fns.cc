// The C memory family: memcpy/memmove/memset/memcmp/memchr plus the heap
// quartet (malloc/calloc/realloc/free).
//
// Heap chunks carry a 16-byte header in simulated memory.  glibc's free()
// chases chunk metadata on garbage pointers (Abort); the VC6 CRT on the NT
// family trusted its header check enough to dereference (Abort), while the
// 9x-era CRT validated against its allocation table and quietly ignored bad
// frees (Silent) — reproducing the paper's observation that NT/2000 have
// *higher* C-memory Abort rates than 95/98 (§4, Figure 2 discussion).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

constexpr std::uint64_t kScanCap = 1 << 20;
constexpr std::uint64_t kHeapMagic = 0x48454150'4348554eULL;  // "HEAPCHUN"
constexpr std::uint64_t kHeapLimit = 16 << 20;

/// Bulk copy with segments cut at every source AND destination page
/// boundary.  Within a segment no access can fault (checks are
/// page-granular), so faults land at segment boundaries — the same
/// addresses, in the same read-before-write order, with the same partially
/// written destination, as the historical byte-interleaved loop.
sim::MaybeFault block_copy(sim::AddressSpace& mem, Addr dst, Addr src,
                           std::uint64_t n) {
  std::uint8_t tmp[sim::kPageSize];
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        {sim::kPageSize - ((src + i) % sim::kPageSize),
         sim::kPageSize - ((dst + i) % sim::kPageSize), n - i});
    if (auto f = mem.read_bytes(src + i, {tmp, seg}, sim::Access::kUser))
      return f;
    if (auto f = mem.write_bytes(dst + i, {tmp, seg}, sim::Access::kUser))
      return f;
    i += seg;
  }
  return {};
}

/// A fresh chunk's user address, or kDown when the machine died making it
/// (an armed cut on its map or header stores).
sim::Survived<Addr> heap_alloc(CallContext& ctx, std::uint64_t size) {
  auto& mem = ctx.proc().mem();
  const sim::Survived<Addr> base = mem.task_alloc(size + 16);
  if (base.down()) return base;
  for (const auto& [off, v] : {std::pair<Addr, std::uint64_t>{0, kHeapMagic},
                               std::pair<Addr, std::uint64_t>{8, size}})
    if (sim::down(mem.expect_no_fault(
            mem.write_u64(base.value + off, v, sim::Access::kKernel),
            "heap header")))
      return {0, sim::Verdict::kDown};
  ctx.proc().default_heap()->allocations[base.value + 16] = size;
  return {base.value + 16};
}


/// Validates a heap pointer the way the active CRT would.  Stores the chunk
/// size in `*size`, or nullopt when the pointer was rejected (9x CRT table
/// check); returns the fault the CRT takes dereferencing garbage (glibc, NT
/// CRT), for the caller to raise.
sim::MaybeFault heap_validate(CallContext& ctx, Addr p,
                              std::optional<std::uint64_t>* size) {
  auto& mem = ctx.proc().mem();
  auto& allocs = ctx.proc().default_heap()->allocations;
  const auto flavor = ctx.os().crt;
  constexpr auto kUser = sim::Access::kUser;
  std::uint64_t magic = 0, chunk = 0;

  *size = std::nullopt;
  if (flavor == sim::CrtFlavor::kGlibc) {
    // Chase chunk metadata: header magic, then the "next chunk" walk.  On a
    // bogus chunk the walk strides past the page the pointer happened to sit
    // in — the classic unlink crash.
    if (auto f = mem.read_u64(p - 16, &magic, kUser)) return f;
    if (auto f = mem.read_u64(p - 8, &chunk, kUser)) return f;
    if (magic != kHeapMagic) {
      const std::uint64_t stride =
          std::max<std::uint64_t>(chunk & 0xffffff, sim::kPageSize);
      std::uint8_t next = 0;
      return mem.read_u8(p + stride, &next, kUser);
    }
    *size = chunk;
    return {};
  }
  if (sim::is_nt_family(ctx.variant())) {
    // VC6 CRT on NT: trust the header.
    if (auto f = mem.read_u64(p - 16, &magic, kUser)) return f;
    if (magic != kHeapMagic) return {};
    if (auto f = mem.read_u64(p - 8, &chunk, kUser)) return f;
    *size = chunk;
    return {};
  }
  // 9x / CE CRT: allocation-table lookup, no dereference.
  auto it = allocs.find(p);
  if (it != allocs.end()) *size = it->second;
  return {};
}

CallOutcome do_malloc(CallContext& ctx) {
  const std::uint64_t size = ctx.arg(0);
  if (size > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  return core::ok_or_stopped(heap_alloc(ctx, size == 0 ? 1 : size));
}

CallOutcome do_calloc(CallContext& ctx) {
  // Period-accurate 32-bit multiplication: n*size wraps, the classic calloc
  // overflow (a Silent failure when it happens to "succeed").
  const std::uint32_t n = ctx.arg32(0), size = ctx.arg32(1);
  const std::uint32_t total = n * size;
  if (total > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  // Zero-filled by the map.
  return core::ok_or_stopped(heap_alloc(ctx, total == 0 ? 1 : total));
}

CallOutcome do_free(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  if (p == 0) return ok(0);  // free(NULL) is legal
  std::optional<std::uint64_t> size;
  if (auto f = heap_validate(ctx, p, &size)) return ctx.raise(*f);
  auto& allocs = ctx.proc().default_heap()->allocations;
  if (!size) {
    // Rejected: glibc/NT already dereferenced (or survived); the 9x table
    // check swallows the bad free entirely.
    if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    return core::silent_success(0);
  }
  if (allocs.erase(p) != 0 &&
      ctx.proc().mem().unmap(p - 16, *size + 16) == sim::Verdict::kDown)
    return core::stopped();
  return ok(0);
}

CallOutcome do_realloc(CallContext& ctx) {
  const Addr p = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1);
  if (p == 0) return do_malloc(ctx);
  if (size > kHeapLimit) {
    ctx.proc().set_errno(ENOMEM);
    return core::error_reported(0);
  }
  std::optional<std::uint64_t> old_size;
  if (auto f = heap_validate(ctx, p, &old_size)) return ctx.raise(*f);
  if (!old_size) {
    ctx.proc().set_errno(EINVAL);
    return core::error_reported(0);
  }
  if (size == 0) {
    ctx.proc().default_heap()->allocations.erase(p);
    return ok(0);
  }
  const sim::Survived<Addr> allocated = heap_alloc(ctx, size);
  if (allocated.down()) return core::stopped();
  const Addr np = allocated.value;
  const std::uint64_t copy = std::min(*old_size, size);
  if (auto f = block_copy(ctx.proc().mem(), np, p, std::min(copy, kScanCap)))
    return ctx.raise(*f);
  ctx.proc().default_heap()->allocations.erase(p);
  return ok(np);
}

CallOutcome do_memcpy(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  if (auto f = block_copy(ctx.proc().mem(), dst, src, std::min(n, kScanCap)))
    return ctx.raise(*f);
  return ok(dst);
}

CallOutcome do_memmove(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  const std::uint64_t len = std::min(n, kScanCap);
  // Full gather then full scatter, as before (that is what makes it a move).
  std::vector<std::uint8_t> tmp;
  if (auto f = gather_bytes(mem, src, len, &tmp)) return ctx.raise(*f);
  if (auto f = mem.write_bytes(dst, tmp, sim::Access::kUser))
    return ctx.raise(*f);
  return ok(dst);
}

CallOutcome do_memset(CallContext& ctx) {
  const Addr dst = ctx.arg_addr(0);
  const std::uint8_t c = static_cast<std::uint8_t>(ctx.arg32(1));
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  std::uint8_t fill[sim::kPageSize];
  std::memset(fill, c, sizeof fill);
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        sim::kPageSize - ((dst + i) % sim::kPageSize), len - i);
    if (auto f = mem.write_bytes(dst + i, {fill, seg}, sim::Access::kUser))
      return ctx.raise(*f);
    i += seg;
  }
  return ok(dst);
}

CallOutcome do_memcmp(CallContext& ctx) {
  const Addr a = ctx.arg_addr(0), b = ctx.arg_addr(1);
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  // Segment at both operands' page boundaries: the early exit at the first
  // differing byte never touches a page the byte-wise loop would not have
  // reached, and the a-before-b fault order is preserved.
  std::uint8_t ta[sim::kPageSize], tb[sim::kPageSize];
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        {sim::kPageSize - ((a + i) % sim::kPageSize),
         sim::kPageSize - ((b + i) % sim::kPageSize), len - i});
    if (auto f = mem.read_bytes(a + i, {ta, seg}, sim::Access::kUser))
      return ctx.raise(*f);
    if (auto f = mem.read_bytes(b + i, {tb, seg}, sim::Access::kUser))
      return ctx.raise(*f);
    for (std::uint64_t k = 0; k < seg; ++k)
      if (ta[k] != tb[k])
        return ok(static_cast<std::uint64_t>(ta[k] < tb[k] ? -1 : 1));
    i += seg;
  }
  return ok(0);
}

CallOutcome do_memchr(CallContext& ctx) {
  const Addr s = ctx.arg_addr(0);
  const std::uint8_t c = static_cast<std::uint8_t>(ctx.arg32(1));
  const std::uint64_t n = ctx.arg(2);
  auto& mem = ctx.proc().mem();
  std::uint8_t tmp[sim::kPageSize];
  std::uint64_t i = 0;
  const std::uint64_t len = std::min(n, kScanCap);
  while (i < len) {
    const std::uint64_t seg = std::min<std::uint64_t>(
        sim::kPageSize - ((s + i) % sim::kPageSize), len - i);
    if (auto f = mem.read_bytes(s + i, {tmp, seg}, sim::Access::kUser))
      return ctx.raise(*f);
    const void* hit = std::memchr(tmp, c, seg);
    if (hit != nullptr)
      return ok(s + i +
                static_cast<std::uint64_t>(static_cast<const std::uint8_t*>(hit) -
                                           tmp));
    i += seg;
  }
  return ok(0);
}

}  // namespace

void register_memory_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCMemory;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();

  d.add("memcpy", A, G, {"buf", "cbuf", "size"}, do_memcpy, all);
  d.add("memmove", A, G, {"buf", "cbuf", "size"}, do_memmove, all);
  d.add("memset", A, G, {"buf", "char_int", "size"}, do_memset, all);
  d.add("memcmp", A, G, {"cbuf", "cbuf", "size"}, do_memcmp, all);
  d.add("memchr", A, G, {"cbuf", "char_int", "size"}, do_memchr, all);
  d.add("malloc", A, G, {"size"}, do_malloc, all);
  d.add("calloc", A, G, {"size", "size"}, do_calloc, all);
  d.add("realloc", A, G, {"heap_ptr", "size"}, do_realloc, all);
  d.add("free", A, G, {"heap_ptr"}, do_free, all);
}

}  // namespace ballista::clib
