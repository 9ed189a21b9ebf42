// Unit tests for the simulated address space and MMU fault behaviour.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>

#include "sim/addrspace.h"
#include "sim/machine.h"
#include "sim/mutation.h"

namespace ballista::sim {
namespace {

TEST(AddressSpace, UnmappedReadFaults) {
  AddressSpace mem;
  EXPECT_THROW(mem.read_u8(0x5000), SimFault);
  EXPECT_THROW(mem.read_u8(0), SimFault);
  EXPECT_THROW(mem.write_u8(0xDEADBEEF, 1), SimFault);
}

TEST(AddressSpace, MapThenAccess) {
  AddressSpace mem;
  mem.map(0x10000, 4096, kPermRW);
  mem.write_u8(0x10000, 42);
  EXPECT_EQ(mem.read_u8(0x10000), 42);
  mem.write_u32(0x10100, 0xCAFEBABE);
  EXPECT_EQ(mem.read_u32(0x10100), 0xCAFEBABEu);
  mem.write_u64(0x10200, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u64(0x10200), 0x1122334455667788ull);
}

TEST(AddressSpace, FaultCarriesAddressAndDirection) {
  AddressSpace mem;
  try {
    mem.write_u8(0x7777, 1);
    FAIL() << "expected fault";
  } catch (const SimFault& f) {
    EXPECT_EQ(f.fault().address, 0x7777u);
    EXPECT_TRUE(f.fault().is_write);
    EXPECT_EQ(f.fault().type, FaultType::kAccessViolation);
  }
}

TEST(AddressSpace, ReadOnlyPageRejectsWrites) {
  AddressSpace mem;
  mem.map(0x20000, 4096, kPermRead);
  EXPECT_EQ(mem.read_u8(0x20000), 0);
  EXPECT_THROW(mem.write_u8(0x20000, 1), SimFault);
  // Kernel mode also honours write protection.
  EXPECT_THROW(mem.write_u8(0x20000, 1, Access::kKernel), SimFault);
}

TEST(AddressSpace, ProtectChangesPermissions) {
  AddressSpace mem;
  mem.map(0x30000, 4096, kPermRW);
  mem.write_u8(0x30000, 9);
  mem.protect(0x30000, 4096, kPermRead);
  EXPECT_THROW(mem.write_u8(0x30000, 1), SimFault);
  EXPECT_EQ(mem.read_u8(0x30000), 9);  // contents survive protection change
  mem.protect(0x30000, 4096, kPermNone);
  EXPECT_THROW(mem.read_u8(0x30000), SimFault);
}

TEST(AddressSpace, UnmapCreatesDanglingFaults) {
  AddressSpace mem;
  mem.map(0x40000, 8192, kPermRW);
  mem.unmap(0x40000, 4096);
  EXPECT_THROW(mem.read_u8(0x40000), SimFault);
  EXPECT_EQ(mem.read_u8(0x41000), 0);  // second page still mapped
}

TEST(AddressSpace, KernelOnlyPagesBlockUserAccess) {
  AddressSpace mem;
  mem.map(0x50000, 4096, kPermRW, /*kernel_only=*/true);
  EXPECT_THROW(mem.read_u8(0x50000, Access::kUser), SimFault);
  EXPECT_EQ(mem.read_u8(0x50000, Access::kKernel), 0);
}

TEST(AddressSpace, AllocPlacesGuardPages) {
  AddressSpace mem;
  const Addr a = mem.alloc(64);
  mem.write_u8(a, 1);
  mem.write_u8(a + 63, 1);
  // Writes run off the page containing the allocation into the guard page.
  const Addr page_end = page_base(a) + kPageSize;
  EXPECT_THROW(mem.write_u8(page_end, 1), SimFault);
  // Successive allocations never touch each other.
  const Addr b = mem.alloc(64);
  EXPECT_GE(b, page_end + kPageSize);
}

TEST(AddressSpace, AllocDanglingFaultsImmediately) {
  AddressSpace mem;
  const Addr a = mem.alloc_dangling(64);
  EXPECT_THROW(mem.read_u8(a), SimFault);
}

TEST(AddressSpace, CStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_cstr("robustness");
  EXPECT_EQ(mem.read_cstr(a), "robustness");
}

TEST(AddressSpace, UnterminatedStringWalkFaultsAtGuard) {
  AddressSpace mem;
  const Addr a = mem.alloc(4096);
  for (int i = 0; i < 4096; ++i) mem.write_u8(a + i, 'A');
  EXPECT_THROW(mem.read_cstr(a), SimFault);
}

TEST(AddressSpace, WideStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_wstr(u"wide");
  EXPECT_EQ(mem.read_wstr(a), u"wide");
}

TEST(AddressSpace, StrictAlignmentFaultsOnOddAccess) {
  AddressSpace strict(nullptr, /*strict_align=*/true);
  strict.map(0x60000, 4096, kPermRW);
  EXPECT_NO_THROW(strict.read_u32(0x60000));
  try {
    strict.read_u32(0x60001);
    FAIL() << "expected misalignment";
  } catch (const SimFault& f) {
    EXPECT_EQ(f.fault().type, FaultType::kMisalignment);
  }
  // Relaxed spaces tolerate it (x86 semantics).
  AddressSpace relaxed;
  relaxed.map(0x60000, 4096, kPermRW);
  EXPECT_NO_THROW(relaxed.read_u32(0x60001));
}

TEST(AddressSpace, CheckRangeMatchesAccessOutcome) {
  AddressSpace mem;
  mem.map(0x70000, 4096, kPermRead);
  EXPECT_TRUE(mem.check_range(0x70000, 4096, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4096, true, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4097, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x90000, 1, false, Access::kUser));
  EXPECT_TRUE(mem.check_range(0x70000, 0, true, Access::kUser));  // empty
}

TEST(AddressSpace, ValueSpanningPageBoundary) {
  AddressSpace mem;
  mem.map(0x80000, 8192, kPermRW);
  const Addr split = 0x81000 - 2;
  mem.write_u32(split, 0xA1B2C3D4);
  EXPECT_EQ(mem.read_u32(split), 0xA1B2C3D4u);
  // With the second page missing, the same write faults at the boundary.
  mem.unmap(0x81000, 4096);
  EXPECT_THROW(mem.write_u32(split, 1), SimFault);
}

TEST(SharedArena, PagesPersistAcrossSpaces) {
  SharedArena arena;
  AddressSpace a(&arena), b(&arena);
  a.write_u8(kSharedArenaBase + 100, 77, Access::kKernel);
  EXPECT_EQ(b.read_u8(kSharedArenaBase + 100, Access::kKernel), 77);
}

TEST(SharedArena, ContainsLowSystemAreaAndArenaRange) {
  SharedArena arena;
  EXPECT_TRUE(arena.contains(0));
  EXPECT_TRUE(arena.contains(0xFFFF));
  EXPECT_FALSE(arena.contains(0x10000));
  EXPECT_TRUE(arena.contains(kSharedArenaBase));
  EXPECT_TRUE(arena.contains(kSharedArenaEnd - 1));
  EXPECT_FALSE(arena.contains(kSharedArenaEnd));
}

TEST(SharedArena, UserAccessToArenaFaults) {
  SharedArena arena;
  AddressSpace mem(&arena);
  mem.write_u8(kSharedArenaBase, 1, Access::kKernel);
  EXPECT_THROW(mem.read_u8(kSharedArenaBase, Access::kUser), SimFault);
}

TEST(SharedArena, CorruptionCounterAndClear) {
  SharedArena arena;
  EXPECT_EQ(arena.corruption(), 0);
  arena.note_corruption();
  arena.note_corruption();
  EXPECT_EQ(arena.corruption(), 2);
  arena.clear();
  EXPECT_EQ(arena.corruption(), 0);
}

TEST(AddressSpace, WithoutArenaLowAndHighAddressesFault) {
  AddressSpace mem;  // NT/Linux style: no shared arena
  EXPECT_THROW(mem.read_u8(0x100, Access::kKernel), SimFault);
  EXPECT_THROW(mem.read_u8(kSharedArenaBase, Access::kKernel), SimFault);
}

// --- pages backed on first write --------------------------------------------

TEST(AddressSpace, UnwrittenPagesReadAsZeros) {
  AddressSpace mem;
  mem.map(0x60000, 2 * kPageSize, kPermRW);
  EXPECT_EQ(mem.read_u8(0x60000), 0);
  EXPECT_EQ(mem.read_u8(0x61FFF), 0);
  EXPECT_EQ(mem.read_u64(0x60FF8), 0u);
  std::vector<std::uint8_t> buf(2 * kPageSize, 0xAA);
  mem.read_bytes(0x60000, buf);
  EXPECT_EQ(buf, std::vector<std::uint8_t>(2 * kPageSize, 0));
  EXPECT_EQ(mem.read_cstr(0x60000), "");
  EXPECT_TRUE(mem.check_range(0x60000, 2 * kPageSize, true, Access::kUser));
  // A string that runs off a written page ends at the unwritten one.
  mem.write_bytes(0x60FFE, std::vector<std::uint8_t>{'h', 'i'});
  EXPECT_EQ(mem.read_cstr(0x60FFE), "hi");
  std::fill(buf.begin(), buf.end(), 0xAA);
  mem.read_bytes(0x60000, buf);
  EXPECT_EQ(buf[kPageSize - 2], 'h');
  EXPECT_EQ(buf[kPageSize - 1], 'i');
  EXPECT_EQ(buf[kPageSize], 0);
}

constexpr Addr kCheckpointStack = 0x7ff0'0000 - 0x1'0000;

TEST(AddressSpace, RestoreAfterLargeMapKeepsTheCheckpointCount) {
  AddressSpace mem;
  mem.map(kCheckpointStack, 16 * kPageSize, kPermRW);
  mem.checkpoint();
  const std::size_t at_checkpoint = mem.mapped_page_count();
  mem.map(0x1000'0000, 16ull << 20, kPermRW);
  EXPECT_EQ(mem.mapped_page_count(), at_checkpoint + 4096);
  mem.write_u8(0x1000'0000 + (8ull << 20), 1);
  mem.restore();
  EXPECT_EQ(mem.mapped_page_count(), at_checkpoint);
  EXPECT_FALSE(mem.is_mapped(0x1000'0000));
}

TEST(AddressSpace, WrittenStackPageReadsZeroAfterRestore) {
  AddressSpace mem;
  mem.map(kCheckpointStack, 16 * kPageSize, kPermRW);
  mem.checkpoint();
  for (int round = 0; round < 3; ++round) {
    mem.write_u32(kCheckpointStack + 3 * kPageSize + 16, 0xCAFEBABE);
    mem.write_u8(kCheckpointStack + 15 * kPageSize + 4095, 0x7F);
    mem.restore();
    EXPECT_EQ(mem.read_u32(kCheckpointStack + 3 * kPageSize + 16), 0u);
    EXPECT_EQ(mem.read_u8(kCheckpointStack + 15 * kPageSize + 4095), 0);
  }
}

TEST(AddressSpace, UnmappedOrReprotectedStackPagesComeBackZeroed) {
  AddressSpace mem;
  mem.map(kCheckpointStack, 4 * kPageSize, kPermRW);
  mem.map(kCheckpointStack + 4 * kPageSize, kPageSize, kPermRead,
          /*kernel_only=*/true);
  mem.checkpoint();
  for (Addr pg = 0; pg < 4; ++pg)
    mem.write_u8(kCheckpointStack + pg * kPageSize + 1, 0x11);
  mem.unmap(kCheckpointStack + kPageSize, kPageSize);
  mem.protect(kCheckpointStack + 2 * kPageSize, kPageSize, kPermNone);
  mem.protect(kCheckpointStack + 4 * kPageSize, kPageSize, kPermRW);
  mem.write_u8(kCheckpointStack + 4 * kPageSize, 0x22, Access::kKernel);
  mem.restore();
  EXPECT_EQ(mem.mapped_page_count(), 5u);
  for (Addr pg = 0; pg < 4; ++pg) {
    const Addr a = kCheckpointStack + pg * kPageSize;
    EXPECT_EQ(mem.perm_of(a), kPermRW) << pg;
    EXPECT_EQ(mem.read_u8(a + 1), 0) << pg;
  }
  const Addr ko = kCheckpointStack + 4 * kPageSize;
  EXPECT_EQ(mem.perm_of(ko), kPermRead);
  EXPECT_THROW(mem.read_u8(ko, Access::kUser), SimFault);
  EXPECT_EQ(mem.read_u8(ko, Access::kKernel), 0);
  EXPECT_THROW(mem.write_u8(ko, 1, Access::kKernel), SimFault);
}

TEST(SharedArena, PageReadsZeroUntilWrittenAndClearWipesIt) {
  SharedArena arena;
  AddressSpace mem(&arena);
  const Addr a = kSharedArenaBase + 0x1234;
  EXPECT_EQ(mem.read_u8(a, Access::kKernel), 0);
  EXPECT_EQ(arena.page(a)->data, nullptr);
  mem.write_u8(a, 0x42, Access::kKernel);
  ASSERT_NE(arena.page(a)->data, nullptr);
  EXPECT_EQ(mem.read_u8(a, Access::kKernel), 0x42);
  EXPECT_EQ(mem.read_u8(a + 1, Access::kKernel), 0);
  arena.clear();
  EXPECT_EQ(arena.page(a)->data, nullptr);
  EXPECT_EQ(mem.read_u8(a, Access::kKernel), 0);
}

// --- range operations over a few mapped pages ---------------------------------
//
// protect/unmap walk whichever is smaller, the page numbers of the range or
// the mapped set.  Each call is checked against the page-by-page walk over
// every page number in the range, on a space shaped like a task: a
// checkpointed 64 KiB stack plus a few harness allocations.

constexpr Addr kStackBase = 0x7ff0'0000 - 0x1'0000;
constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();

/// Page number -> permission of every private page a test mapped.
using PageModel = std::map<Addr, std::uint8_t>;

/// The reference: visit every page number from first to last, one by one.
/// `perm` set = protect, unset = unmap.
PageModel reference_walk(PageModel model, Addr start, std::uint64_t size,
                         std::optional<std::uint8_t> perm) {
  const Addr first = page_of(start);
  const Addr last = page_of(start + (size ? size - 1 : 0));
  for (Addr pg = first; pg <= last; ++pg) {
    const auto it = model.find(pg);
    if (it == model.end()) continue;
    if (perm)
      it->second = *perm;
    else
      model.erase(it);
  }
  return model;
}

class RangeWalk : public ::testing::Test {
 protected:
  /// A Win95 space: it sees the shared arena.
  RangeWalk() : machine_(OsVariant::kWin95), mem_(&machine_.arena()) {
    mem_.set_mutation_hub(&machine_.mutations());
    map(kStackBase, 16 * kPageSize, kPermRW);
    mem_.checkpoint();
    for (std::uint64_t size : {64, 4096, 3 * 4096, 100, 8192, 32}) {
      const Addr a = mem_.alloc(size);
      for (Addr pg = page_of(a); pg <= page_of(a + size - 1); ++pg)
        model_[pg] = kPermRW;
    }
    map(0x0040'0000, 5 * kPageSize, kPermRead);
    map(0x7000'0000, kPageSize, kPermRW);
    hub().set_counting(true);
    hub().open_window();
  }

  void map(Addr start, std::uint64_t size, std::uint8_t perm) {
    mem_.map(start, size, perm);
    for (Addr pg = page_of(start); pg <= page_of(start + size - 1); ++pg)
      model_[pg] = perm;
  }

  MutationHub& hub() { return machine_.mutations(); }

  /// Asserts the space holds exactly `want`: every page the test ever
  /// mapped is mapped with the model's permission or not at all, and no
  /// other private page exists.
  void expect_pages(const PageModel& want, const PageModel& ever) {
    EXPECT_EQ(mem_.mapped_page_count(), want.size());
    for (const auto& [pg, perm] : ever) {
      const Addr a = pg * kPageSize;
      const auto it = want.find(pg);
      if (it == want.end()) {
        EXPECT_FALSE(mem_.is_mapped(a)) << std::hex << a;
      } else {
        EXPECT_TRUE(mem_.is_mapped(a)) << std::hex << a;
        EXPECT_EQ(mem_.perm_of(a), it->second) << std::hex << a;
      }
    }
  }

  /// Runs protect (perm set) or unmap over [start, start+size) and checks
  /// the result against the reference walk and the hub's single point.
  void check(Addr start, std::uint64_t size,
             std::optional<std::uint8_t> perm) {
    const PageModel want = reference_walk(model_, start, size, perm);
    const MutationKind kind =
        perm ? MutationKind::kPageProtect : MutationKind::kPageUnmap;
    const std::uint64_t seq = hub().seq(), before = hub().count(kind);
    if (perm)
      mem_.protect(start, size, *perm);
    else
      mem_.unmap(start, size);
    EXPECT_EQ(hub().seq(), seq + 1);
    EXPECT_EQ(hub().count(kind), before + 1);
    const PageModel ever = model_;
    model_ = want;
    expect_pages(want, ever);
  }

  Machine machine_;
  AddressSpace mem_;
  PageModel model_;
};

TEST_F(RangeWalk, ProtectWholeRangeFromAMappedPage) {
  check(kStackBase + 3 * kPageSize, 0xFFFF'FFFF, kPermRead);
  // From the first allocation up: everything above it, the stack included.
  check(0x0010'0000, 0xFFFF'FFFF, kPermNone);
  // A handful of pages: the range is now the smaller side.
  check(kStackBase + kPageSize + 7, 2 * kPageSize, kPermRW);
}

TEST_F(RangeWalk, UnmapWholeRangeFromAMappedPage) {
  check(kStackBase + 5 * kPageSize, 0xFFFF'FFFF, std::nullopt);
  check(0x0010'0000 + 10, 2 * kPageSize, std::nullopt);
  check(0, 0xFFFF'FFFF, std::nullopt);
  EXPECT_EQ(mem_.mapped_page_count(), 0u);
}

TEST_F(RangeWalk, WrappingRangesMatchTheReference) {
  // From a page boundary, a size that wraps past the top ends one page
  // below the start: the range is empty.
  check(kStackBase, kAll, kPermRead);
  check(kStackBase, kAll - kPageSize, std::nullopt);
  // From inside a page, the wrapped end can land back in the start page.
  check(kStackBase + 5, kAll, kPermNone);
  check(0x0040'0000 + 9, kAll, std::nullopt);
  check(kAll - 10, 100, kPermNone);
}

TEST_F(RangeWalk, ArenaPagesAreUntouched) {
  // Materialize arena pages in the low system area and the shared arena.
  mem_.write_u8(0x100, 7, Access::kKernel);
  mem_.write_u8(kSharedArenaBase + 0x2000, 9, Access::kKernel);
  check(0, 0xFFFF'FFFF, kPermRead);
  check(kSharedArenaBase - 2 * kPageSize, 0x4000'0000, kPermNone);
  check(0, 0xFFFF'FFFF, std::nullopt);
  for (const Addr a : {Addr{0x100}, kSharedArenaBase + 0x2000}) {
    EXPECT_TRUE(mem_.is_mapped(a));
    EXPECT_EQ(mem_.perm_of(a), kPermRW);
    EXPECT_EQ(machine_.arena().page(a)->perm, kPermRW);
  }
  EXPECT_EQ(mem_.read_u8(0x100, Access::kKernel), 7);
  mem_.write_u8(kSharedArenaBase + 0x2000, 10, Access::kKernel);
}

TEST_F(RangeWalk, RestoreRemapsUnmappedStackPagesZeroed) {
  mem_.write_u32(kStackBase + 4 * kPageSize + 8, 0xDEADBEEF, Access::kUser);
  mem_.protect(kStackBase + 9 * kPageSize, kPageSize, kPermRead);
  check(kStackBase - 4 * kPageSize, 0xFFFF'FFFF, std::nullopt);
  EXPECT_FALSE(mem_.is_mapped(kStackBase));
  mem_.restore();
  EXPECT_EQ(mem_.mapped_page_count(), 16u);
  for (Addr a = kStackBase; a < kStackBase + 16 * kPageSize; a += kPageSize) {
    EXPECT_EQ(mem_.perm_of(a), kPermRW) << std::hex << a;
    for (Addr off = 0; off < kPageSize; off += 4)
      ASSERT_EQ(mem_.read_u32(a + off), 0u) << std::hex << a + off;
  }
  // Allocations made after the checkpoint are gone.
  EXPECT_FALSE(mem_.is_mapped(0x0010'0000));
}

}  // namespace
}  // namespace ballista::sim
