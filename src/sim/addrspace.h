// Simulated paged virtual address space.
//
// Every pointer a test case passes to a simulated API is an address in this
// space.  API implementations and CRT personalities dereference those
// addresses through this MMU, so access violations, misalignment faults and
// dangling-pointer behaviour *emerge* exactly where a real OS would take the
// trap, instead of being scripted per test value.
//
// Layout (mirrors the 32-bit Windows/Linux splits the paper's systems used):
//   [0x0000_0000, 0x0001_0000)  low system area — unmapped for user code; on
//                               Win9x personalities the kernel sees it as part
//                               of the writable shared arena (the historical
//                               cause of NULL-pointer kernel corruption)
//   [0x0001_0000, 0x8000_0000)  private user pages
//   [0x8000_0000, 0xC000_0000)  shared arena (Win9x: mapped into every process
//                               and writable from kernel context; NT/Linux:
//                               kernel-only, user access faults)
//   [0xC000_0000, ...)          kernel image / VxD space
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/fault.h"

namespace ballista::trace {
class TraceSink;
}

namespace ballista::sim {

class MutationHub;

inline constexpr Addr kPageSize = 4096;
inline constexpr Addr kLowSystemEnd = 0x0001'0000;
inline constexpr Addr kUserBase = 0x0001'0000;
inline constexpr Addr kSharedArenaBase = 0x8000'0000;
inline constexpr Addr kSharedArenaEnd = 0xC000'0000;
inline constexpr Addr kKernelBase = 0xC000'0000;

inline constexpr Addr page_of(Addr a) noexcept { return a / kPageSize; }
inline constexpr Addr page_base(Addr a) noexcept { return a & ~(kPageSize - 1); }

enum PermBits : std::uint8_t {
  kPermNone = 0,
  kPermRead = 1,
  kPermWrite = 2,
  kPermRW = kPermRead | kPermWrite,
};

/// Whether an access is made by application code or by the kernel on the
/// application's behalf.  Kernel-mode accesses bypass the user/kernel split
/// (that bypass is precisely the Win9x failure mode the paper documents).
enum class Access : std::uint8_t { kUser, kKernel };

/// The bytes of one page.
using PageBytes = std::array<std::uint8_t, kPageSize>;

/// One page-table entry, stored by value in its owner's page map.
struct Page {
  std::uint8_t perm = kPermRW;
  bool kernel_only = false;
  /// Already on the owning space's touched list (mapped, written or
  /// re-protected since its checkpoint()), so restore() visits this page.
  /// Arena pages start touched: no space's restore() ever visits them.
  bool touched = false;
  /// The page's contents, or null until its first write: an unwritten page
  /// reads as zeros and costs no host memory.  Every mutation funnels
  /// through AddressSpace::write_u8/write_bytes, whose AddressSpace::backing
  /// call is the one place that allocates it.
  std::unique_ptr<PageBytes> data;
};

/// Pages shared machine-wide.  On Win9x personalities this models the shared
/// arena plus the low system area; writes from kernel context land here and
/// persist across test processes, which is how the paper's `*`-marked
/// "reproducible only inside the harness" crashes arise.
class SharedArena {
 public:
  SharedArena();

  bool contains(Addr a) const noexcept {
    return a < kLowSystemEnd || (a >= kSharedArenaBase && a < kSharedArenaEnd);
  }

  /// The arena page containing `a`, created (unwritten) on first use.
  Page* page(Addr a);

  /// Number of kernel-context writes that have landed in the arena since the
  /// last reboot.  The Machine consults this to decide on deferred panics.
  int corruption() const noexcept { return corruption_; }
  void note_corruption() noexcept { ++corruption_; }
  void clear() {
    pages_.clear();
    corruption_ = 0;
  }

 private:
  std::unordered_map<Addr, Page> pages_;
  int corruption_ = 0;
};

/// One process's view of memory.  Owns its private pages; optionally sees a
/// machine-wide SharedArena for the shared ranges.
class AddressSpace {
 public:
  /// @param arena        machine-shared pages, or nullptr if this personality
  ///                     maps nothing user-visible there
  /// @param strict_align raise kMisalignment on unaligned multi-byte access
  ///                     (Windows CE hardware; x86 personalities tolerate it)
  explicit AddressSpace(SharedArena* arena = nullptr, bool strict_align = false)
      : arena_(arena), strict_align_(strict_align) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- mapping -------------------------------------------------------------

  /// Maps [start, start+size) with the given permissions (page granular).
  void map(Addr start, std::uint64_t size, std::uint8_t perm,
           bool kernel_only = false);
  void unmap(Addr start, std::uint64_t size);

  /// Returns the space to its just-constructed state (no mappings, bump
  /// allocator rewound).  The dirty set is exactly the live page table, and
  /// the pages it held go to a free list for reuse by later map() calls —
  /// recycling a process costs its own mappings, not a rebuild of the world.
  void reset();

  /// Captures the current mapping set (page numbers + permissions) as the
  /// image restore() returns to.  Checkpointed pages must be all-zero at
  /// capture time — SimProcess checkpoints right after mapping its fresh
  /// stack — so restore() can drop what a case wrote instead of keeping
  /// copies.
  void checkpoint();
  /// Returns to the checkpoint() image in cost proportional to what the
  /// case touched: it visits only the touched list, the pages mapped,
  /// written or re-protected since the checkpoint.  Pages mapped since are
  /// retired, written checkpointed pages give up their storage (and read as
  /// zeros again), permissions are squared back, and the bump allocator
  /// rewinds.  Only when the case unmapped a checkpointed page does it walk
  /// the image to map it again.  Without a prior checkpoint this
  /// degenerates to reset().
  void restore();
  void protect(Addr start, std::uint64_t size, std::uint8_t perm);
  bool is_mapped(Addr a) const noexcept;
  /// Permission byte of the page containing `a`, or kPermNone if unmapped.
  std::uint8_t perm_of(Addr a) const noexcept;

  // --- allocation helpers (for harness-constructed argument buffers) --------

  /// Bump allocator with an unmapped guard page after every allocation, so
  /// one-past-the-end overruns fault like a real heap with guard pages.
  Addr alloc(std::uint64_t size, std::uint8_t perm = kPermRW);
  Addr alloc_bytes(std::span<const std::uint8_t> bytes,
                   std::uint8_t perm = kPermRW);
  Addr alloc_cstr(std::string_view s, std::uint8_t perm = kPermRW);
  /// UTF-16 style string of 16-bit units, NUL-terminated.
  Addr alloc_wstr(std::u16string_view s, std::uint8_t perm = kPermRW);
  /// Allocates then immediately unmaps: a dangling pointer test value.
  Addr alloc_dangling(std::uint64_t size);

  // --- access (throws SimFault) ---------------------------------------------

  std::uint8_t read_u8(Addr a, Access m = Access::kUser) const;
  std::uint16_t read_u16(Addr a, Access m = Access::kUser) const;
  std::uint32_t read_u32(Addr a, Access m = Access::kUser) const;
  std::uint64_t read_u64(Addr a, Access m = Access::kUser) const;
  void write_u8(Addr a, std::uint8_t v, Access m = Access::kUser);
  void write_u16(Addr a, std::uint16_t v, Access m = Access::kUser);
  void write_u32(Addr a, std::uint32_t v, Access m = Access::kUser);
  void write_u64(Addr a, std::uint64_t v, Access m = Access::kUser);

  void read_bytes(Addr a, std::span<std::uint8_t> out,
                  Access m = Access::kUser) const;
  void write_bytes(Addr a, std::span<const std::uint8_t> in,
                   Access m = Access::kUser);

  /// Reads a NUL-terminated string, faulting wherever the walk leaves mapped
  /// memory.  `max_len` bounds runaway scans over huge mapped regions.
  std::string read_cstr(Addr a, std::size_t max_len = 1 << 20,
                        Access m = Access::kUser) const;
  std::u16string read_wstr(Addr a, std::size_t max_len = 1 << 20,
                           Access m = Access::kUser) const;
  void write_cstr(Addr a, std::string_view s, Access m = Access::kUser);

  /// True if [a, a+size) is fully readable/writable in the given mode, without
  /// faulting — the probe primitive NT-class kernels use.
  bool check_range(Addr a, std::uint64_t size, bool write,
                   Access m = Access::kKernel) const noexcept;

  bool strict_alignment() const noexcept { return strict_align_; }
  SharedArena* arena() const noexcept { return arena_; }

  /// Wires the MMU into the owning machine's trace spine so faults are
  /// recorded before they throw.  Standalone address spaces (tests, benches)
  /// leave it unset and fault silently, as before.
  void set_trace(trace::TraceSink* sink) noexcept { trace_ = sink; }

  /// Wires the MMU into the owning machine's mutation hub so page writes,
  /// mappings and protection changes announce persistence points.  Standalone
  /// spaces (tests, benches) leave it unset and mutate silently, as before.
  void set_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

  /// Total private pages currently mapped (leak checks in tests).
  std::size_t mapped_page_count() const noexcept { return pages_.size(); }

 private:
  using PageMap = std::unordered_map<Addr, Page>;
  struct ImageEntry {
    Addr page;
    std::uint8_t perm;
    bool kernel_only;
  };

  const Page* page_for(Addr a, Access m, bool write) const;
  /// page_for for the write paths, which may mutate this space.
  Page* writable_page(Addr a, Access m) {
    return const_cast<Page*>(page_for(a, m, true));
  }
  [[noreturn]] void fault(FaultType t, Addr a, bool write) const;
  void check_alignment(Addr a, std::uint64_t size, bool write) const;
  /// The map entry for page `pg`, inserted unwritten (on a free-listed
  /// node when there is one) if absent.
  PageMap::iterator entry(Addr pg);
  /// Puts page `pg` on the touched list restore() walks, once.
  void touch(Page& p, Addr pg);
  /// The writable bytes of page `pg`, backing it with zeroed storage (from
  /// the free list when it has some) on its first write.
  std::uint8_t* backing(Page& p, Addr pg);
  /// Moves a page's storage, if any, to the free list.
  void drop_bytes(Page& p);
  /// Unmaps the page at `it`: its storage and its map node go to the free
  /// lists, so mapping it again allocates nothing.
  void retire(PageMap::iterator it);

  static constexpr Addr kBumpBase = 0x0010'0000;  // harness allocation region
  /// Free-list cap, for page storage and for map nodes alike: a test case
  /// maps and writes a few dozen pages (stack + argument buffers); a
  /// 16 MiB mapping is an outlier whose nodes are not worth caching.
  static constexpr std::size_t kMaxFreePages = 256;

  PageMap pages_;
  std::vector<std::unique_ptr<PageBytes>> free_bytes_;
  std::vector<PageMap::node_type> free_nodes_;
  /// Page numbers touched since the checkpoint (see Page::touched).
  std::vector<Addr> touched_;
  /// The checkpointed pages, sorted by page number.
  std::vector<ImageEntry> image_;
  bool has_image_ = false;
  Addr image_bump_ = kBumpBase;
  SharedArena* arena_;
  trace::TraceSink* trace_ = nullptr;
  MutationHub* hub_ = nullptr;
  bool strict_align_;
  Addr bump_ = kBumpBase;
};

}  // namespace ballista::sim
