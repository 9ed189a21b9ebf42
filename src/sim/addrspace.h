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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
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
enum class MutationKind : std::uint8_t;

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

/// One page-table entry, stored by value in its owner's page table.
struct Page {
  std::uint8_t perm = kPermRW;
  bool kernel_only = false;
  /// Already on the owning space's touched list (mapped, written or
  /// re-protected since its checkpoint()), so restore() visits this page.
  /// Arena pages start touched: no space's restore() ever visits them.
  bool touched = false;
  /// The checkpoint image's entry for this page (kImageMember plus its
  /// permissions), or 0 when the page is not in the image: restore() reads
  /// it here instead of searching the image.
  std::uint8_t image = 0;
  /// Bytes [written_lo, written_hi) of `data` are all that can be non-zero:
  /// the extent written since the storage was handed out, and all that must
  /// be zeroed again before it goes back to the free list.
  std::uint16_t written_lo = static_cast<std::uint16_t>(kPageSize);
  std::uint16_t written_hi = 0;
  /// The page's contents, or null until its first write: an unwritten page
  /// reads as zeros and costs no host memory.  Every mutation funnels
  /// through a StoreRun or AddressSpace::write_bytes, whose
  /// AddressSpace::backing call is the one place that allocates it.
  std::unique_ptr<PageBytes> data;

  /// Widens the written extent over bytes [off, off+n).
  void widen(std::size_t off, std::size_t n) noexcept {
    written_lo = std::min(written_lo, static_cast<std::uint16_t>(off));
    written_hi = std::max(written_hi, static_cast<std::uint16_t>(off + n));
  }

  static constexpr std::uint8_t kImageMember = 0x80;
  static constexpr std::uint8_t kImageKernelOnly = 0x40;
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
  /// map, unmap and protect each announce one persistence point first and
  /// return kDown, having changed nothing, when an armed cut fires on it.
  Verdict map(Addr start, std::uint64_t size, std::uint8_t perm,
              bool kernel_only = false);
  Verdict unmap(Addr start, std::uint64_t size);

  /// Returns the space to its just-constructed state (no mappings, bump
  /// allocator rewound).  The dirty set is exactly the live page table; its
  /// storage goes to a free list and its leaves stay (up to kMaxLeaves) for
  /// later map() calls — recycling a process costs its own mappings, not a
  /// rebuild of the world.
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
  /// zeros again), permissions are squared back from the image entry each
  /// page carries, and the bump allocator rewinds.  Only when the case
  /// unmapped a checkpointed page does it walk the image to map it again.
  /// Without a prior checkpoint this degenerates to reset().
  void restore();
  Verdict protect(Addr start, std::uint64_t size, std::uint8_t perm);
  bool is_mapped(Addr a) const noexcept;
  /// Permission byte of the page containing `a`, or kPermNone if unmapped.
  std::uint8_t perm_of(Addr a) const noexcept;

  // --- allocation helpers (for harness-constructed argument buffers) --------

  /// Bump allocator with an unmapped guard page after every allocation, so
  /// one-past-the-end overruns fault like a real heap with guard pages.
  /// The alloc* helpers serve harness code, which runs outside the module
  /// window where nothing announces; a cut reaching one is a harness bug
  /// (std::logic_error).
  Addr alloc(std::uint64_t size, std::uint8_t perm = kPermRW);
  /// alloc for code a module under test runs (malloc, HeapAlloc, mmap, CRT
  /// set-up): the base, or kDown when an armed cut fired on the map (no
  /// page mapped, the bump pointer unmoved).
  Survived<Addr> task_alloc(std::uint64_t size, std::uint8_t perm = kPermRW);
  /// alloc_cstr for code a module under test runs, as task_alloc.
  Survived<Addr> task_alloc_cstr(std::string_view s);
  Addr alloc_bytes(std::span<const std::uint8_t> bytes,
                   std::uint8_t perm = kPermRW);
  Addr alloc_cstr(std::string_view s, std::uint8_t perm = kPermRW);
  /// UTF-16 style string of 16-bit units, NUL-terminated.
  Addr alloc_wstr(std::u16string_view s, std::uint8_t perm = kPermRW);
  /// Allocates then immediately unmaps: a dangling pointer test value.
  Addr alloc_dangling(std::uint64_t size);

  // --- access (returns the fault it takes) ----------------------------------
  //
  // Every accessor returns its fault instead of trapping: the same Fault
  // (type, address, is_write) at the same byte, with the one kFault trace
  // event emitted where the access faults.  A faulting store mutates nothing
  // in the faulting page; a range that crosses into a bad page has already
  // written (and announced) its earlier page runs.  A faulting scalar read
  // leaves its out-value unset; a bulk read has filled what precedes the
  // faulting page.  A store whose page-run announcement fires an armed cut
  // returns an engaged MaybeFault with that run unwritten; the machine has
  // died, which its readers check (MaybeFault).

  MaybeFault read_u8(Addr a, std::uint8_t* out,
                     Access m = Access::kUser) const;
  MaybeFault read_u16(Addr a, std::uint16_t* out,
                      Access m = Access::kUser) const;
  MaybeFault read_u32(Addr a, std::uint32_t* out,
                      Access m = Access::kUser) const;
  MaybeFault read_u64(Addr a, std::uint64_t* out,
                      Access m = Access::kUser) const;
  /// One byte store: a StoreRun of one store.
  MaybeFault write_u8(Addr a, std::uint8_t v, Access m = Access::kUser);
  MaybeFault write_u16(Addr a, std::uint16_t v, Access m = Access::kUser);
  MaybeFault write_u32(Addr a, std::uint32_t v, Access m = Access::kUser);
  MaybeFault write_u64(Addr a, std::uint64_t v, Access m = Access::kUser);

  /// A run of byte stores into this space in one access mode, the one
  /// byte-store funnel.  A run's first store into a page takes the full
  /// path: the access check, one kPageWrite announcement, backing.  Its
  /// later stores into that page write straight into the page's storage and
  /// widen its written extent, which is what the hub's same-page coalescing
  /// makes of their announcements anyway.  So a run takes the faults, writes
  /// the bytes and announces the persistence points of one write_u8 per
  /// byte, at one access check per page.
  ///
  /// Run contract: between two stores of one run nothing else may announce
  /// to the hub or change the space (no map, unmap, protect, restore or
  /// other store); reads are fine.  A store that faults, or whose
  /// announcement fires an armed cut, writes nothing and leaves the run
  /// where it was.
  class StoreRun {
   public:
    explicit StoreRun(AddressSpace& mem, Access m = Access::kUser) noexcept
        : mem_(mem), mode_(m) {}

    /// Stores `v` at `a`; returns what write_u8(a, v) would.
    MaybeFault put(Addr a, std::uint8_t v) {
      if (page_of(a) != page_) return first_store(a, v);
      const std::size_t off = a % kPageSize;
      entry_->data->data()[off] = v;
      entry_->widen(off, 1);
      return {};
    }

   private:
    /// A store into a page the run does not hold: on success the run holds
    /// that page.
    MaybeFault first_store(Addr a, std::uint8_t v);

    AddressSpace& mem_;
    Access mode_;
    /// The page number the run holds (none: page_of never yields ~0) and
    /// its backed entry.
    Addr page_ = ~Addr{0};
    Page* entry_ = nullptr;
  };

  MaybeFault read_bytes(Addr a, std::span<std::uint8_t> out,
                        Access m = Access::kUser) const;
  MaybeFault write_bytes(Addr a, std::span<const std::uint8_t> in,
                         Access m = Access::kUser);

  /// Reads a NUL-terminated string, faulting wherever the walk leaves mapped
  /// memory.  `max_len` bounds runaway scans over huge mapped regions.
  MaybeFault read_cstr(Addr a, std::string* out, std::size_t max_len = 1 << 20,
                       Access m = Access::kUser) const;
  MaybeFault read_wstr(Addr a, std::u16string* out,
                       std::size_t max_len = 1 << 20,
                       Access m = Access::kUser) const;
  MaybeFault write_cstr(Addr a, std::string_view s, Access m = Access::kUser);

  // --- harness stores ------------------------------------------------------

  /// Harness code (CRT set-up, test-value materialization) touches only
  /// memory it has just mapped, so a fault there is a harness bug, never a
  /// verdict: throws std::logic_error naming `where` and the fault.  A store
  /// the machine died under is kDown (CRT set-up reached from a module under
  /// test can be cut like any store).
  Verdict expect_no_fault(const MaybeFault& f, std::string_view where) const;

  /// Kernel-mode stores for harness code (test-value constructors) into
  /// memory it has just mapped.  A fault or a cut here is a bug in the
  /// harness, never a verdict: both throw std::logic_error.  Code a module
  /// under test runs (CRT set-up included) stores through write_* and
  /// expect_no_fault instead, which passes a cut up.
  void poke_u8(Addr a, std::uint8_t v);
  void poke_u16(Addr a, std::uint16_t v);
  void poke_u32(Addr a, std::uint32_t v);
  void poke_u64(Addr a, std::uint64_t v);
  void poke_bytes(Addr a, std::span<const std::uint8_t> in);

  /// True if [a, a+size) is fully readable/writable in the given mode, without
  /// faulting — the probe primitive NT-class kernels use.
  bool check_range(Addr a, std::uint64_t size, bool write,
                   Access m = Access::kKernel) const noexcept;

  bool strict_alignment() const noexcept { return strict_align_; }
  SharedArena* arena() const noexcept { return arena_; }

  /// Wires the MMU into the owning machine's trace spine so faults are
  /// recorded where they are taken.  Standalone address spaces (tests, benches)
  /// leave it unset and fault silently, as before.
  void set_trace(trace::TraceSink* sink) noexcept { trace_ = sink; }

  /// Wires the MMU into the owning machine's mutation hub so page writes,
  /// mappings and protection changes announce persistence points.  Standalone
  /// spaces (tests, benches) leave it unset and mutate silently, as before.
  void set_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

  /// Total private pages currently mapped (leak checks in tests).
  std::size_t mapped_page_count() const noexcept { return mapped_; }

 private:
  /// The page table is two-level: a leaf holds 1024 consecutive page-table
  /// entries by value plus a presence bitmap, and a small directory sorted by
  /// leaf number holds the leaves.  A task touches a handful of leaves (the
  /// bump region, the stack, wild mappings), so a lookup is the last-leaf
  /// cache or a short binary search, then two indexings; 64-bit page numbers
  /// take the same path as any other.
  static constexpr unsigned kLeafBits = 10;
  static constexpr Addr kLeafPages = Addr{1} << kLeafBits;
  struct Leaf {
    std::array<Page, kLeafPages> pages;
    std::array<std::uint64_t, kLeafPages / 64> present{};
    /// Bit w set when present[w] is not zero, so walks skip empty words.
    std::uint16_t words = 0;
    std::size_t mapped = 0;
    bool has(std::size_t i) const noexcept {
      return (present[i / 64] >> (i % 64) & 1) != 0;
    }
  };
  struct DirEntry {
    Addr key;  // page number >> kLeafBits
    std::unique_ptr<Leaf> leaf;
  };
  struct ImageEntry {
    Addr page;
    std::uint8_t perm;
    bool kernel_only;
  };

  /// The page an access to `a` lands on, or null when the access faults: the
  /// fault is then always an access violation at `a` in the access's
  /// direction, which the caller returns through fault().
  const Page* page_for(Addr a, Access m, bool write) const;
  /// page_for for the write paths, which may mutate this space.
  Page* writable_page(Addr a, Access m) {
    return const_cast<Page*>(page_for(a, m, true));
  }
  /// Records the fault on the trace spine and returns it.
  Fault fault(FaultType t, Addr a, bool write) const;
  /// Announces one persistence point to the hub, if wired.
  Verdict announce(MutationKind kind, Addr page);
  MaybeFault check_alignment(Addr a, std::uint64_t size, bool write) const;
  /// The leaf holding page numbers [key << kLeafBits, ...), or null.
  Leaf* find_leaf(Addr key) const noexcept;
  /// The mapped page `pg`, or null.
  Page* find_page(Addr pg) const noexcept;
  /// The entry for page `pg`, mapped unwritten (in a new leaf when its
  /// leaf is not in the directory) if absent.
  Page& entry(Addr pg);
  /// Calls `visit(leaf, i, n, pg)` on every run of mapped pages in [start,
  /// start+size): entries i..i+n-1 of `leaf`, page numbers pg..pg+n-1, in
  /// ascending order along the presence bitmaps; `visit` may retire them.
  /// A range whose end wraps past the top of the address space is empty.
  template <typename Visit>
  void for_each_mapped(Addr start, std::uint64_t size, Visit visit);
  /// Puts page `pg` on the touched list restore() walks, once.
  void touch(Page& p, Addr pg);
  /// protect()'s work on a run of n mapped pages p[0..n), page numbers
  /// pg..pg+n-1.  Out of line: inlined into the range walk, its unrolled
  /// loop cost every protect call more registers to save than it saved.
  [[gnu::noinline]] void protect_run(Page* p, std::size_t n, Addr pg,
                                     std::uint8_t perm);
  /// The writable bytes of page `pg`, backing it with zeroed storage (from
  /// the free list when it has some) on its first write, for a store of `n`
  /// bytes at offset `off`, which widens the page's written extent.
  std::uint8_t* backing(Page& p, Addr pg, std::size_t off, std::size_t n);
  /// Moves a page's storage, if any, to the free list, zeroing its written
  /// extent first: storage on the free list is all zeros.
  void drop_bytes(Page& p);
  /// Unmaps pages i..i+n-1 of `leaf`: their storage goes to the free list,
  /// so mapping and writing them again allocates nothing.
  void retire(Leaf& leaf, std::size_t i, std::size_t n);
  /// Once the directory holds more than kMaxLeaves leaves, frees the ones
  /// left without a mapped page.
  void trim_leaves();

  static constexpr Addr kBumpBase = 0x0010'0000;  // harness allocation region
  /// Free-list cap for page storage: a test case maps and writes a few
  /// dozen pages (stack + argument buffers).
  static constexpr std::size_t kMaxFreePages = 256;
  /// Leaves a space keeps once they are empty: the stack's, the bump
  /// region's (which every case empties and fills again) and a couple for
  /// wild mappings.  Beyond that a restore frees the empty ones.
  static constexpr std::size_t kMaxLeaves = 4;

  /// The leaves, sorted by key.  An empty leaf stays until a restore() or
  /// reset() trims it, so walks never see one vanish.
  std::vector<DirEntry> dir_;
  /// The leaf the last lookup landed in.
  mutable Addr last_key_ = 0;
  mutable Leaf* last_leaf_ = nullptr;
  std::size_t mapped_ = 0;
  std::vector<std::unique_ptr<PageBytes>> free_bytes_;
  /// Page numbers touched since the checkpoint (see Page::touched).
  std::vector<Addr> touched_;
  /// The checkpointed pages, for mapping again the ones a case unmapped.
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
