#include "sim/addrspace.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/trace.h"
#include "sim/mutation.h"

namespace ballista::sim {

namespace {

/// What every unwritten page reads as.
constexpr PageBytes kZeroPage{};

/// A step of harness code (value materialization) died under an armed cut:
/// harness code runs outside the module window, so that is a harness bug.
void harness_step(Verdict v) {
  if (v == Verdict::kDown)
    throw std::logic_error("harness code was cut by an armed fault plan");
}

const std::uint8_t* bytes_of(const Page& p) noexcept {
  return p.data != nullptr ? p.data->data() : kZeroPage.data();
}

/// Page::image for a page of the checkpoint with these permissions.
std::uint8_t image_entry(std::uint8_t perm, bool kernel_only) noexcept {
  static_assert((kPermRW & (Page::kImageMember | Page::kImageKernelOnly)) == 0);
  return static_cast<std::uint8_t>(
      Page::kImageMember | (kernel_only ? Page::kImageKernelOnly : 0) | perm);
}

}  // namespace

SharedArena::SharedArena() = default;

Page* SharedArena::page(Addr a) {
  const auto [it, created] = pages_.try_emplace(page_of(a));
  if (created) {
    // Arena pages are readable/writable from kernel context; the
    // AddressSpace decides what user mode may do with them per personality.
    it->second.kernel_only = true;
    it->second.touched = true;
  }
  return &it->second;
}

AddressSpace::Leaf* AddressSpace::find_leaf(Addr key) const noexcept {
  if (last_leaf_ != nullptr && last_key_ == key) return last_leaf_;
  const auto it = std::lower_bound(
      dir_.begin(), dir_.end(), key,
      [](const DirEntry& d, Addr k) { return d.key < k; });
  if (it == dir_.end() || it->key != key) return nullptr;
  last_key_ = key;
  last_leaf_ = it->leaf.get();
  return last_leaf_;
}

Page* AddressSpace::find_page(Addr pg) const noexcept {
  Leaf* leaf = find_leaf(pg >> kLeafBits);
  const std::size_t i = pg & (kLeafPages - 1);
  return leaf != nullptr && leaf->has(i) ? &leaf->pages[i] : nullptr;
}

Page& AddressSpace::entry(Addr pg) {
  const Addr key = pg >> kLeafBits;
  Leaf* leaf = find_leaf(key);
  if (leaf == nullptr) {
    auto fresh = std::make_unique<Leaf>();
    leaf = fresh.get();
    const auto at = std::lower_bound(
        dir_.begin(), dir_.end(), key,
        [](const DirEntry& d, Addr k) { return d.key < k; });
    dir_.insert(at, DirEntry{key, std::move(fresh)});
    last_key_ = key;
    last_leaf_ = leaf;
  }
  // An entry that is not present is a default Page (retire() leaves it so).
  const std::size_t i = pg & (kLeafPages - 1);
  if (!leaf->has(i)) {
    leaf->present[i / 64] |= std::uint64_t{1} << (i % 64);
    leaf->words |= static_cast<std::uint16_t>(1u << (i / 64));
    ++leaf->mapped;
    ++mapped_;
  }
  return leaf->pages[i];
}

template <typename Visit>
void AddressSpace::for_each_mapped(Addr start, std::uint64_t size,
                                   Visit visit) {
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  if (last < first) return;
  auto it = std::lower_bound(
      dir_.begin(), dir_.end(), first >> kLeafBits,
      [](const DirEntry& d, Addr k) { return d.key < k; });
  for (; it != dir_.end() && it->key <= last >> kLeafBits; ++it) {
    Leaf& leaf = *it->leaf;
    const Addr base = it->key << kLeafBits;
    const std::size_t lo = first > base ? first - base : 0;
    const std::size_t hi = std::min<Addr>(last - base, kLeafPages - 1);
    // The non-empty words from lo's through hi's.
    std::uint32_t words = leaf.words & ((2u << (hi / 64)) - 1) &
                          ~((1u << (lo / 64)) - 1);
    while (words != 0) {
      const std::size_t w = static_cast<std::size_t>(std::countr_zero(words));
      words &= words - 1;
      std::uint64_t bits = leaf.present[w];
      if (w == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
      if (w == hi / 64) bits &= ~std::uint64_t{0} >> (63 - hi % 64);
      // One visit per run of consecutive mapped pages.
      while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        const unsigned n = static_cast<unsigned>(std::countr_one(bits >> b));
        bits = b + n < 64 ? bits & (~std::uint64_t{0} << (b + n)) : 0;
        visit(leaf, w * 64 + b, n, base + w * 64 + b);
      }
    }
  }
}

void AddressSpace::touch(Page& p, Addr pg) {
  if (p.touched) return;
  p.touched = true;
  touched_.push_back(pg);
}

std::uint8_t* AddressSpace::backing(Page& p, Addr pg, std::size_t off,
                                    std::size_t n) {
  if (p.data == nullptr) {
    // Free-listed storage is all zeros already (drop_bytes saw to it).
    if (free_bytes_.empty()) {
      p.data = std::make_unique<PageBytes>();
    } else {
      p.data = std::move(free_bytes_.back());
      free_bytes_.pop_back();
    }
    touch(p, pg);
  }
  p.written_lo = std::min(p.written_lo, static_cast<std::uint16_t>(off));
  p.written_hi = std::max(p.written_hi, static_cast<std::uint16_t>(off + n));
  return p.data->data();
}

void AddressSpace::drop_bytes(Page& p) {
  if (p.data != nullptr && free_bytes_.size() < kMaxFreePages) {
    if (p.written_lo < p.written_hi)
      std::memset(p.data->data() + p.written_lo, 0,
                  p.written_hi - p.written_lo);
    free_bytes_.push_back(std::move(p.data));
  }
  p.data.reset();
  p.written_lo = static_cast<std::uint16_t>(kPageSize);
  p.written_hi = 0;
}

void AddressSpace::retire(Leaf& leaf, std::size_t i, std::size_t n) {
  for (const std::size_t end = i + n; i != end; ++i) {
    drop_bytes(leaf.pages[i]);
    leaf.pages[i] = Page{};
    leaf.present[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    if (leaf.present[i / 64] == 0)
      leaf.words &= static_cast<std::uint16_t>(~(1u << (i / 64)));
  }
  leaf.mapped -= n;
  mapped_ -= n;
}

void AddressSpace::trim_leaves() {
  if (dir_.size() <= kMaxLeaves) return;
  std::erase_if(dir_, [](const DirEntry& d) { return d.leaf->mapped == 0; });
  last_leaf_ = nullptr;
}

Verdict AddressSpace::announce(MutationKind kind, Addr page) {
  return hub_ != nullptr ? hub_->notify(kind, page) : Verdict::kUp;
}

Verdict AddressSpace::map(Addr start, std::uint64_t size, std::uint8_t perm,
                          bool kernel_only) {
  if (announce(MutationKind::kPageMap, page_of(start)) == Verdict::kDown)
    return Verdict::kDown;
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  for (Addr pg = first; pg <= last; ++pg) {
    Page& p = entry(pg);
    p.perm = perm;
    p.kernel_only = kernel_only;
    touch(p, pg);
  }
  return Verdict::kUp;
}

Verdict AddressSpace::unmap(Addr start, std::uint64_t size) {
  if (announce(MutationKind::kPageUnmap, page_of(start)) == Verdict::kDown)
    return Verdict::kDown;
  for_each_mapped(start, size,
                  [this](Leaf& leaf, std::size_t i, std::size_t n, Addr) {
                    retire(leaf, i, n);
                  });
  return Verdict::kUp;
}

void AddressSpace::reset() {
  for_each_mapped(0, ~std::uint64_t{0},
                  [this](Leaf& leaf, std::size_t i, std::size_t n, Addr) {
                    retire(leaf, i, n);
                  });
  trim_leaves();
  touched_.clear();
  bump_ = kBumpBase;
}

void AddressSpace::checkpoint() {
  image_.clear();
  for_each_mapped(0, ~std::uint64_t{0}, [this](Leaf& leaf, std::size_t i,
                                               std::size_t n, Addr pg) {
    for (const std::size_t end = i + n; i != end; ++i, ++pg) {
      Page& page = leaf.pages[i];
      image_.push_back({pg, page.perm, page.kernel_only});
      page.image = image_entry(page.perm, page.kernel_only);
      // Checkpointed pages are all-zero by contract, so dropping their
      // storage changes nothing visible and makes the next write to any of
      // them land on the touched list.
      drop_bytes(page);
      page.touched = false;
    }
  });
  touched_.clear();
  image_bump_ = bump_;
  has_image_ = true;
}

void AddressSpace::restore() {
  if (!has_image_) {
    reset();
    return;
  }
  for (const Addr pg : touched_) {
    Leaf* leaf = find_leaf(pg >> kLeafBits);
    const std::size_t i = pg & (kLeafPages - 1);
    if (leaf == nullptr || !leaf->has(i)) continue;  // unmapped again
    Page& p = leaf->pages[i];
    if (p.image == 0) {
      retire(*leaf, i, 1);
      continue;
    }
    drop_bytes(p);
    p.perm = p.image & kPermRW;
    p.kernel_only = (p.image & Page::kImageKernelOnly) != 0;
    p.touched = false;
  }
  touched_.clear();
  // Every page mapped since the checkpoint was touched and is gone, so a
  // short page table means the case unmapped checkpointed pages (wild
  // VirtualFree/munmap values can land in the stack); map those again.
  if (mapped_ != image_.size()) {
    for (const ImageEntry& e : image_) {
      Page& p = entry(e.page);
      p.perm = e.perm;
      p.kernel_only = e.kernel_only;
      p.image = image_entry(e.perm, e.kernel_only);
    }
  }
  trim_leaves();
  bump_ = image_bump_;
}

Verdict AddressSpace::protect(Addr start, std::uint64_t size,
                              std::uint8_t perm) {
  if (announce(MutationKind::kPageProtect, page_of(start)) == Verdict::kDown)
    return Verdict::kDown;
  for_each_mapped(start, size, [this, perm](Leaf& leaf, std::size_t i,
                                            std::size_t n, Addr pg) {
    protect_run(&leaf.pages[i], n, pg, perm);
  });
  return Verdict::kUp;
}

void AddressSpace::protect_run(Page* p, std::size_t n, Addr pg,
                               std::uint8_t perm) {
  // Unrolled: a whole-range protect over a mapped stack is this loop.
#pragma GCC unroll 8
  for (std::size_t k = 0; k < n; ++k) {
    p[k].perm = perm;
    touch(p[k], pg + k);
  }
}

bool AddressSpace::is_mapped(Addr a) const noexcept {
  if (find_page(page_of(a)) != nullptr) return true;
  return arena_ != nullptr && arena_->contains(a);
}

std::uint8_t AddressSpace::perm_of(Addr a) const noexcept {
  if (const Page* p = find_page(page_of(a))) return p->perm;
  if (arena_ != nullptr && arena_->contains(a)) return kPermRW;
  return kPermNone;
}

Survived<Addr> AddressSpace::task_alloc(std::uint64_t size,
                                        std::uint8_t perm) {
  if (size == 0) size = 1;
  const Addr base = bump_;
  if (map(base, size, perm) == Verdict::kDown) return {0, Verdict::kDown};
  // Advance past the allocation plus one permanently-unmapped guard page.
  const std::uint64_t pages = (size + kPageSize - 1) / kPageSize;
  bump_ += (pages + 1) * kPageSize;
  return {base};
}

Survived<Addr> AddressSpace::task_alloc_cstr(std::string_view s) {
  const Survived<Addr> base = task_alloc(s.size() + 1);
  if (base.down()) return base;
  return {base.value,
          expect_no_fault(write_cstr(base.value, s, Access::kKernel),
                          "task string")};
}

Addr AddressSpace::alloc(std::uint64_t size, std::uint8_t perm) {
  const Survived<Addr> base = task_alloc(size, perm);
  harness_step(base.verdict);
  return base.value;
}

Addr AddressSpace::alloc_bytes(std::span<const std::uint8_t> bytes,
                               std::uint8_t perm) {
  const Addr base = alloc(std::max<std::uint64_t>(bytes.size(), 1), kPermRW);
  poke_bytes(base, bytes);
  if (perm != kPermRW)
    harness_step(protect(base, std::max<std::uint64_t>(bytes.size(), 1), perm));
  return base;
}

Addr AddressSpace::alloc_cstr(std::string_view s, std::uint8_t perm) {
  const Addr base = alloc(s.size() + 1, kPermRW);
  harness_step(expect_no_fault(write_cstr(base, s, Access::kKernel),
                               "harness store"));
  if (perm != kPermRW) harness_step(protect(base, s.size() + 1, perm));
  return base;
}

Addr AddressSpace::alloc_wstr(std::u16string_view s, std::uint8_t perm) {
  const Addr base = alloc((s.size() + 1) * 2, kPermRW);
  // UTF-16LE code units plus the terminator, staged once and stored as a
  // single page-segment walk.
  std::vector<std::uint8_t> bytes((s.size() + 1) * 2, 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(s[i]);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(s[i] >> 8);
  }
  poke_bytes(base, bytes);
  if (perm != kPermRW) harness_step(protect(base, (s.size() + 1) * 2, perm));
  return base;
}

Addr AddressSpace::alloc_dangling(std::uint64_t size) {
  const Addr base = alloc(size);
  harness_step(unmap(base, size));
  return base;
}

const Page* AddressSpace::page_for(Addr a, Access m, bool write) const {
  const Page* p = find_page(page_of(a));
  if (p == nullptr && arena_ != nullptr && arena_->contains(a))
    p = arena_->page(a);
  if (p == nullptr) return nullptr;
  if (m == Access::kUser) {
    if (p->kernel_only) return nullptr;
    if (write && (p->perm & kPermWrite) == 0) return nullptr;
    if (!write && (p->perm & kPermRead) == 0) return nullptr;
  } else {
    // Kernel mode bypasses the user/kernel split.  Writes to read-only user
    // pages still fault (write-protect honoured in ring 0, as on NT/Linux;
    // Win9x hazard paths never reach here with a read-only page unnoticed
    // because the arena pages are RW).
    if (write && (p->perm & kPermWrite) == 0) return nullptr;
  }
  return p;
}

Fault AddressSpace::fault(FaultType t, Addr a, bool write) const {
  if (trace_ != nullptr) trace_->emit(trace::fault_event(t, a, write));
  return Fault{t, a, write};
}

MaybeFault AddressSpace::check_alignment(Addr a, std::uint64_t size,
                                         bool write) const {
  if (strict_align_ && size > 1 && (a % size) != 0)
    return fault(FaultType::kMisalignment, a, write);
  return {};
}

MaybeFault AddressSpace::read_u8(Addr a, std::uint8_t* out, Access m) const {
  const Page* p = page_for(a, m, false);
  if (p == nullptr) return fault(FaultType::kAccessViolation, a, false);
  *out = bytes_of(*p)[a % kPageSize];
  return {};
}

MaybeFault AddressSpace::write_u8(Addr a, std::uint8_t v, Access m) {
  Page* p = writable_page(a, m);
  if (p == nullptr) return fault(FaultType::kAccessViolation, a, true);
  // Announce after the access check (a faulting store mutates nothing) and
  // before applying, so an armed cut leaves this very byte unwritten.
  if (announce(MutationKind::kPageWrite, page_of(a)) == Verdict::kDown)
    return Fault{};
  backing(*p, page_of(a), a % kPageSize, 1)[a % kPageSize] = v;
  return {};
}

// Multi-byte accessors and bulk transfers walk page-granular segments: one
// access check per page touched instead of one hash lookup per byte.  Fault
// behaviour is identical to the historical byte-wise walk — permissions are
// page-granular, so the first offending byte of a range is always the first
// byte the range touches in the offending page, which is exactly where the
// segment walk faults too (and nothing in that page is mutated when it does).
MaybeFault AddressSpace::read_u16(Addr a, std::uint16_t* out, Access m) const {
  std::uint8_t b[2];
  if (auto f = check_alignment(a, 2, false)) return f;
  if (auto f = read_bytes(a, b, m)) return f;
  *out = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  return {};
}

MaybeFault AddressSpace::read_u32(Addr a, std::uint32_t* out, Access m) const {
  std::uint8_t b[4];
  if (auto f = check_alignment(a, 4, false)) return f;
  if (auto f = read_bytes(a, b, m)) return f;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  *out = v;
  return {};
}

MaybeFault AddressSpace::read_u64(Addr a, std::uint64_t* out, Access m) const {
  std::uint8_t b[8];
  if (auto f = check_alignment(a, 8, false)) return f;
  if (auto f = read_bytes(a, b, m)) return f;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  *out = v;
  return {};
}

MaybeFault AddressSpace::write_u16(Addr a, std::uint16_t v, Access m) {
  if (auto f = check_alignment(a, 2, true)) return f;
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  return write_bytes(a, b, m);
}

MaybeFault AddressSpace::write_u32(Addr a, std::uint32_t v, Access m) {
  if (auto f = check_alignment(a, 4, true)) return f;
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return write_bytes(a, b, m);
}

MaybeFault AddressSpace::write_u64(Addr a, std::uint64_t v, Access m) {
  if (auto f = check_alignment(a, 8, true)) return f;
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return write_bytes(a, b, m);
}

MaybeFault AddressSpace::read_bytes(Addr a, std::span<std::uint8_t> out,
                                    Access m) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr addr = a + done;
    const Page* p = page_for(addr, m, false);
    if (p == nullptr) return fault(FaultType::kAccessViolation, addr, false);
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, out.size() - done);
    std::memcpy(out.data() + done, bytes_of(*p) + off, n);
    done += n;
  }
  return {};
}

MaybeFault AddressSpace::write_bytes(Addr a, std::span<const std::uint8_t> in,
                                     Access m) {
  std::size_t done = 0;
  while (done < in.size()) {
    const Addr addr = a + done;
    Page* p = writable_page(addr, m);
    if (p == nullptr) return fault(FaultType::kAccessViolation, addr, true);
    // One persistence point per page run, announced after the access check
    // and before the bytes land — the same coalesced sequence the byte-wise
    // walk produced (consecutive same-page stores were one point), so crash
    // cut numbering is unchanged and an armed cut still leaves the whole
    // page run unwritten.
    if (announce(MutationKind::kPageWrite, page_of(addr)) == Verdict::kDown)
      return Fault{};
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, in.size() - done);
    std::memcpy(backing(*p, page_of(addr), off, n) + off, in.data() + done, n);
    done += n;
  }
  return {};
}

MaybeFault AddressSpace::read_cstr(Addr a, std::string* out,
                                   std::size_t max_len, Access m) const {
  out->clear();
  std::size_t i = 0;
  while (i < max_len) {
    const Addr addr = a + i;
    const Page* p = page_for(addr, m, false);
    if (p == nullptr) return fault(FaultType::kAccessViolation, addr, false);
    const std::size_t off = addr % kPageSize;
    const std::size_t n = std::min<std::size_t>(kPageSize - off, max_len - i);
    const std::uint8_t* base = bytes_of(*p) + off;
    const void* nul = std::memchr(base, 0, n);
    const std::size_t len =
        nul != nullptr
            ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(nul) -
                                       base)
            : n;
    out->append(reinterpret_cast<const char*>(base), len);
    if (nul != nullptr) return {};
    i += n;
  }
  return {};
}

MaybeFault AddressSpace::read_wstr(Addr a, std::u16string* out,
                                   std::size_t max_len, Access m) const {
  out->clear();
  for (std::size_t i = 0; i < max_len; ++i) {
    std::uint16_t c = 0;
    if (auto f = read_u16(a + 2 * i, &c, m)) return f;
    if (c == 0) return {};
    out->push_back(static_cast<char16_t>(c));
  }
  return {};
}

MaybeFault AddressSpace::write_cstr(Addr a, std::string_view s, Access m) {
  if (auto f = write_bytes(
          a, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, m))
    return f;
  return write_u8(a + s.size(), 0, m);
}

Verdict AddressSpace::expect_no_fault(const MaybeFault& f,
                                      std::string_view where) const {
  if (!f) return Verdict::kUp;
  if (hub_ != nullptr && hub_->machine_down()) return Verdict::kDown;
  std::string s{"fault in harness code ("};
  s += where;
  s += "): ";
  s += describe_fault(*f);
  throw std::logic_error(s);
}

void AddressSpace::poke_u8(Addr a, std::uint8_t v) {
  harness_step(
      expect_no_fault(write_u8(a, v, Access::kKernel), "harness store"));
}

void AddressSpace::poke_u16(Addr a, std::uint16_t v) {
  harness_step(
      expect_no_fault(write_u16(a, v, Access::kKernel), "harness store"));
}

void AddressSpace::poke_u32(Addr a, std::uint32_t v) {
  harness_step(
      expect_no_fault(write_u32(a, v, Access::kKernel), "harness store"));
}

void AddressSpace::poke_u64(Addr a, std::uint64_t v) {
  harness_step(
      expect_no_fault(write_u64(a, v, Access::kKernel), "harness store"));
}

void AddressSpace::poke_bytes(Addr a, std::span<const std::uint8_t> in) {
  harness_step(
      expect_no_fault(write_bytes(a, in, Access::kKernel), "harness store"));
}

bool AddressSpace::check_range(Addr a, std::uint64_t size, bool write,
                               Access m) const noexcept {
  if (size == 0) return true;
  const Addr first = page_base(a);
  const Addr last = page_base(a + size - 1);
  for (Addr pg = first;; pg += kPageSize) {
    const Page* p = find_page(page_of(pg));
    // The arena is demand-created; treat it as present for probing.
    if (p == nullptr && arena_ != nullptr && arena_->contains(pg))
      return m == Access::kKernel;
    if (p == nullptr) return false;
    if (m == Access::kUser && p->kernel_only) return false;
    if (write && (p->perm & kPermWrite) == 0) return false;
    if (!write && (p->perm & kPermRead) == 0) return false;
    if (pg == last) break;
  }
  if (strict_align_ && size >= 2 && size <= 8 && (a % size) != 0) return false;
  return true;
}

}  // namespace ballista::sim
