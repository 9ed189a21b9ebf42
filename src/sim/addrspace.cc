#include "sim/addrspace.h"

#include <algorithm>

#include "core/trace.h"
#include "sim/mutation.h"

namespace ballista::sim {

namespace {

/// What every unwritten page reads as.
constexpr PageBytes kZeroPage{};

const std::uint8_t* bytes_of(const Page& p) noexcept {
  return p.data != nullptr ? p.data->data() : kZeroPage.data();
}

/// Calls `visit(it)` on every private page of [start, start+size) that is
/// mapped; `visit` may retire the page.  It walks whichever is smaller: the
/// page numbers in the range or the mapped set.  A size_neg1 VirtualProtect
/// spans a million page numbers while a case maps a few dozen pages, so the
/// range operations cost what they touch.  A range whose end wraps past the
/// top of the address space is empty, as it was for the page-number walk.
template <typename PageMap, typename Visit>
void for_each_mapped(PageMap& pages, Addr start, std::uint64_t size,
                     Visit visit) {
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  if (last < first) return;
  if (last - first < pages.size()) {
    for (Addr pg = first; pg <= last; ++pg) {
      const auto it = pages.find(pg);
      if (it != pages.end()) visit(it);
    }
    return;
  }
  for (auto it = pages.begin(); it != pages.end();) {
    const auto cur = it++;
    if (cur->first >= first && cur->first <= last) visit(cur);
  }
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

void AddressSpace::touch(Page& p, Addr pg) {
  if (p.touched) return;
  p.touched = true;
  touched_.push_back(pg);
}

std::uint8_t* AddressSpace::backing(Page& p, Addr pg) {
  if (p.data == nullptr) {
    if (free_bytes_.empty()) {
      p.data = std::make_unique<PageBytes>();
    } else {
      p.data = std::move(free_bytes_.back());
      free_bytes_.pop_back();
      p.data->fill(0);  // recycled storage must look freshly allocated
    }
    touch(p, pg);
  }
  return p.data->data();
}

void AddressSpace::drop_bytes(Page& p) {
  if (p.data != nullptr && free_bytes_.size() < kMaxFreePages)
    free_bytes_.push_back(std::move(p.data));
  p.data.reset();
}

void AddressSpace::retire(PageMap::iterator it) {
  drop_bytes(it->second);
  auto node = pages_.extract(it);
  if (free_nodes_.size() < kMaxFreePages)
    free_nodes_.push_back(std::move(node));
}

AddressSpace::PageMap::iterator AddressSpace::entry(Addr pg) {
  const auto it = pages_.find(pg);
  if (it != pages_.end()) return it;
  if (free_nodes_.empty()) return pages_.try_emplace(pg).first;
  auto node = std::move(free_nodes_.back());
  free_nodes_.pop_back();
  node.key() = pg;
  node.mapped() = Page{};
  return pages_.insert(std::move(node)).position;
}

void AddressSpace::map(Addr start, std::uint64_t size, std::uint8_t perm,
                       bool kernel_only) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageMap, page_of(start));
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  for (Addr pg = first; pg <= last; ++pg) {
    Page& p = entry(pg)->second;
    p.perm = perm;
    p.kernel_only = kernel_only;
    touch(p, pg);
  }
}

void AddressSpace::unmap(Addr start, std::uint64_t size) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageUnmap, page_of(start));
  for_each_mapped(pages_, start, size,
                  [this](PageMap::iterator it) { retire(it); });
}

void AddressSpace::reset() {
  while (!pages_.empty()) retire(pages_.begin());
  touched_.clear();
  bump_ = kBumpBase;
}

void AddressSpace::checkpoint() {
  image_.clear();
  for (auto& [pg, page] : pages_) {
    image_.push_back({pg, page.perm, page.kernel_only});
    // Checkpointed pages are all-zero by contract, so dropping their
    // storage changes nothing visible and makes the next write to any of
    // them land on the touched list.
    drop_bytes(page);
    page.touched = false;
  }
  std::sort(image_.begin(), image_.end(),
            [](const ImageEntry& x, const ImageEntry& y) {
              return x.page < y.page;
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
    const auto it = pages_.find(pg);
    if (it == pages_.end()) continue;  // unmapped again by the case
    const auto cp = std::lower_bound(
        image_.begin(), image_.end(), pg,
        [](const ImageEntry& e, Addr page) { return e.page < page; });
    if (cp == image_.end() || cp->page != pg) {
      retire(it);
      continue;
    }
    Page& p = it->second;
    drop_bytes(p);
    p.perm = cp->perm;
    p.kernel_only = cp->kernel_only;
    p.touched = false;
  }
  touched_.clear();
  // Every page mapped since the checkpoint was touched and is gone, so a
  // short page table means the case unmapped checkpointed pages (wild
  // VirtualFree/munmap values can land in the stack); map those again.
  if (pages_.size() != image_.size()) {
    for (const ImageEntry& e : image_) {
      Page& p = entry(e.page)->second;
      p.perm = e.perm;
      p.kernel_only = e.kernel_only;
    }
  }
  bump_ = image_bump_;
}

void AddressSpace::protect(Addr start, std::uint64_t size, std::uint8_t perm) {
  if (hub_ != nullptr)
    hub_->notify(MutationKind::kPageProtect, page_of(start));
  for_each_mapped(pages_, start, size, [this, perm](PageMap::iterator it) {
    it->second.perm = perm;
    touch(it->second, it->first);
  });
}

bool AddressSpace::is_mapped(Addr a) const noexcept {
  if (pages_.count(page_of(a)) != 0) return true;
  return arena_ != nullptr && arena_->contains(a);
}

std::uint8_t AddressSpace::perm_of(Addr a) const noexcept {
  auto it = pages_.find(page_of(a));
  if (it != pages_.end()) return it->second.perm;
  if (arena_ != nullptr && arena_->contains(a)) return kPermRW;
  return kPermNone;
}

Addr AddressSpace::alloc(std::uint64_t size, std::uint8_t perm) {
  if (size == 0) size = 1;
  const Addr base = bump_;
  map(base, size, perm);
  // Advance past the allocation plus one permanently-unmapped guard page.
  const std::uint64_t pages = (size + kPageSize - 1) / kPageSize;
  bump_ += (pages + 1) * kPageSize;
  return base;
}

Addr AddressSpace::alloc_bytes(std::span<const std::uint8_t> bytes,
                               std::uint8_t perm) {
  const Addr base = alloc(std::max<std::uint64_t>(bytes.size(), 1), kPermRW);
  write_bytes(base, bytes, Access::kKernel);
  if (perm != kPermRW) protect(base, std::max<std::uint64_t>(bytes.size(), 1), perm);
  return base;
}

Addr AddressSpace::alloc_cstr(std::string_view s, std::uint8_t perm) {
  const Addr base = alloc(s.size() + 1, kPermRW);
  write_cstr(base, s, Access::kKernel);
  if (perm != kPermRW) protect(base, s.size() + 1, perm);
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
  write_bytes(base, bytes, Access::kKernel);
  if (perm != kPermRW) protect(base, (s.size() + 1) * 2, perm);
  return base;
}

Addr AddressSpace::alloc_dangling(std::uint64_t size) {
  const Addr base = alloc(size);
  unmap(base, size);
  return base;
}

const Page* AddressSpace::page_for(Addr a, Access m, bool write) const {
  auto it = pages_.find(page_of(a));
  const Page* p = nullptr;
  if (it != pages_.end()) {
    p = &it->second;
  } else if (arena_ != nullptr && arena_->contains(a)) {
    p = arena_->page(a);
  }
  if (p == nullptr) fault(FaultType::kAccessViolation, a, write);
  if (m == Access::kUser) {
    if (p->kernel_only) fault(FaultType::kAccessViolation, a, write);
    if (write && (p->perm & kPermWrite) == 0)
      fault(FaultType::kAccessViolation, a, true);
    if (!write && (p->perm & kPermRead) == 0)
      fault(FaultType::kAccessViolation, a, false);
  } else {
    // Kernel mode bypasses the user/kernel split.  Writes to read-only user
    // pages still fault (write-protect honoured in ring 0, as on NT/Linux;
    // Win9x hazard paths never reach here with a read-only page unnoticed
    // because the arena pages are RW).
    if (write && (p->perm & kPermWrite) == 0)
      fault(FaultType::kAccessViolation, a, true);
  }
  return p;
}

void AddressSpace::fault(FaultType t, Addr a, bool write) const {
  if (trace_ != nullptr) trace_->emit(trace::fault_event(t, a, write));
  throw SimFault(Fault{t, a, write});
}

void AddressSpace::check_alignment(Addr a, std::uint64_t size,
                                   bool write) const {
  if (strict_align_ && size > 1 && (a % size) != 0)
    fault(FaultType::kMisalignment, a, write);
}

std::uint8_t AddressSpace::read_u8(Addr a, Access m) const {
  return bytes_of(*page_for(a, m, false))[a % kPageSize];
}

void AddressSpace::write_u8(Addr a, std::uint8_t v, Access m) {
  Page* p = writable_page(a, m);
  // Announce after the access check (a faulting store mutates nothing) and
  // before applying, so an armed cut leaves this very byte unwritten.
  if (hub_ != nullptr) hub_->notify(MutationKind::kPageWrite, page_of(a));
  backing(*p, page_of(a))[a % kPageSize] = v;
}

// Multi-byte accessors and bulk transfers walk page-granular segments: one
// access check per page touched instead of one hash lookup per byte.  Fault
// behaviour is identical to the historical byte-wise walk — permissions are
// page-granular, so the first offending byte of a range is always the first
// byte the range touches in the offending page, which is exactly where the
// segment walk faults too (and nothing in that page is mutated when it does).
std::uint16_t AddressSpace::read_u16(Addr a, Access m) const {
  check_alignment(a, 2, false);
  std::uint8_t b[2];
  read_bytes(a, b, m);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t AddressSpace::read_u32(Addr a, Access m) const {
  check_alignment(a, 4, false);
  std::uint8_t b[4];
  read_bytes(a, b, m);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t AddressSpace::read_u64(Addr a, Access m) const {
  check_alignment(a, 8, false);
  std::uint8_t b[8];
  read_bytes(a, b, m);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void AddressSpace::write_u16(Addr a, std::uint16_t v, Access m) {
  check_alignment(a, 2, true);
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  write_bytes(a, b, m);
}

void AddressSpace::write_u32(Addr a, std::uint32_t v, Access m) {
  check_alignment(a, 4, true);
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(a, b, m);
}

void AddressSpace::write_u64(Addr a, std::uint64_t v, Access m) {
  check_alignment(a, 8, true);
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  write_bytes(a, b, m);
}

void AddressSpace::read_bytes(Addr a, std::span<std::uint8_t> out,
                              Access m) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr addr = a + done;
    const Page* p = page_for(addr, m, false);
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, out.size() - done);
    std::memcpy(out.data() + done, bytes_of(*p) + off, n);
    done += n;
  }
}

void AddressSpace::write_bytes(Addr a, std::span<const std::uint8_t> in,
                               Access m) {
  std::size_t done = 0;
  while (done < in.size()) {
    const Addr addr = a + done;
    Page* p = writable_page(addr, m);
    // One persistence point per page run, announced after the access check
    // and before the bytes land — the same coalesced sequence the byte-wise
    // walk produced (consecutive same-page stores were one point), so crash
    // cut numbering is unchanged and an armed cut still leaves the whole
    // page run unwritten.
    if (hub_ != nullptr) hub_->notify(MutationKind::kPageWrite, page_of(addr));
    const std::size_t off = addr % kPageSize;
    const std::size_t n =
        std::min<std::size_t>(kPageSize - off, in.size() - done);
    std::memcpy(backing(*p, page_of(addr)) + off, in.data() + done, n);
    done += n;
  }
}

std::string AddressSpace::read_cstr(Addr a, std::size_t max_len,
                                    Access m) const {
  std::string s;
  std::size_t i = 0;
  while (i < max_len) {
    const Addr addr = a + i;
    const Page* p = page_for(addr, m, false);
    const std::size_t off = addr % kPageSize;
    const std::size_t n = std::min<std::size_t>(kPageSize - off, max_len - i);
    const std::uint8_t* base = bytes_of(*p) + off;
    const void* nul = std::memchr(base, 0, n);
    const std::size_t len =
        nul != nullptr
            ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(nul) -
                                       base)
            : n;
    s.append(reinterpret_cast<const char*>(base), len);
    if (nul != nullptr) return s;
    i += n;
  }
  return s;
}

std::u16string AddressSpace::read_wstr(Addr a, std::size_t max_len,
                                       Access m) const {
  std::u16string s;
  for (std::size_t i = 0; i < max_len; ++i) {
    const std::uint16_t c = read_u16(a + 2 * i, m);
    if (c == 0) return s;
    s.push_back(static_cast<char16_t>(c));
  }
  return s;
}

void AddressSpace::write_cstr(Addr a, std::string_view s, Access m) {
  write_bytes(a,
              {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, m);
  write_u8(a + s.size(), 0, m);
}

bool AddressSpace::check_range(Addr a, std::uint64_t size, bool write,
                               Access m) const noexcept {
  if (size == 0) return true;
  const Addr first = page_base(a);
  const Addr last = page_base(a + size - 1);
  for (Addr pg = first;; pg += kPageSize) {
    auto it = pages_.find(page_of(pg));
    const Page* p = nullptr;
    if (it != pages_.end()) {
      p = &it->second;
    } else if (arena_ != nullptr && arena_->contains(pg)) {
      // The arena is demand-created; treat it as present for probing.
      return m == Access::kKernel;
    }
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
