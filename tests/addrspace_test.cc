// Unit tests for the simulated address space and MMU fault behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "sim/addrspace.h"
#include "sim/machine.h"
#include "sim/mutation.h"
#include "tests/fault_util.h"

namespace ballista::sim {
namespace {

using testing::av;
using testing::rd16;
using testing::rd32;
using testing::rd64;
using testing::rd8;
using testing::rdstr;
using testing::rdwstr;
using testing::read_fault;

TEST(AddressSpace, UnmappedReadFaults) {
  AddressSpace mem;
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0x5000), av(0x5000, false));
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0), av(0, false));
  EXPECT_EQ(mem.write_u8(0xDEADBEEF, 1), av(0xDEADBEEF, true));
}

TEST(AddressSpace, MapThenAccess) {
  AddressSpace mem;
  (void)mem.map(0x10000, 4096, kPermRW);
  EXPECT_FALSE(mem.write_u8(0x10000, 42));
  EXPECT_EQ(rd8(mem, 0x10000), 42);
  EXPECT_FALSE(mem.write_u32(0x10100, 0xCAFEBABE));
  EXPECT_EQ(rd32(mem, 0x10100), 0xCAFEBABEu);
  EXPECT_FALSE(mem.write_u64(0x10200, 0x1122334455667788ull));
  EXPECT_EQ(rd64(mem, 0x10200), 0x1122334455667788ull);
}

TEST(AddressSpace, FaultCarriesAddressAndDirection) {
  AddressSpace mem;
  const MaybeFault f = mem.write_u8(0x7777, 1);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->address, 0x7777u);
  EXPECT_TRUE(f->is_write);
  EXPECT_EQ(f->type, FaultType::kAccessViolation);
}

TEST(AddressSpace, ReadOnlyPageRejectsWrites) {
  AddressSpace mem;
  (void)mem.map(0x20000, 4096, kPermRead);
  EXPECT_EQ(rd8(mem, 0x20000), 0);
  EXPECT_EQ(mem.write_u8(0x20000, 1), av(0x20000, true));
  // Kernel mode also honours write protection.
  EXPECT_EQ(mem.write_u8(0x20000, 1, Access::kKernel), av(0x20000, true));
}

TEST(AddressSpace, ProtectChangesPermissions) {
  AddressSpace mem;
  (void)mem.map(0x30000, 4096, kPermRW);
  EXPECT_FALSE(mem.write_u8(0x30000, 9));
  (void)mem.protect(0x30000, 4096, kPermRead);
  EXPECT_EQ(mem.write_u8(0x30000, 1), av(0x30000, true));
  EXPECT_EQ(rd8(mem, 0x30000), 9);  // contents survive protection change
  (void)mem.protect(0x30000, 4096, kPermNone);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0x30000), av(0x30000, false));
}

TEST(AddressSpace, UnmapCreatesDanglingFaults) {
  AddressSpace mem;
  (void)mem.map(0x40000, 8192, kPermRW);
  (void)mem.unmap(0x40000, 4096);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0x40000), av(0x40000, false));
  EXPECT_EQ(rd8(mem, 0x41000), 0);  // second page still mapped
}

TEST(AddressSpace, KernelOnlyPagesBlockUserAccess) {
  AddressSpace mem;
  (void)mem.map(0x50000, 4096, kPermRW, /*kernel_only=*/true);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0x50000, Access::kUser),
            av(0x50000, false));
  EXPECT_EQ(rd8(mem, 0x50000, Access::kKernel), 0);
}

TEST(AddressSpace, AllocPlacesGuardPages) {
  AddressSpace mem;
  const Addr a = mem.alloc(64);
  EXPECT_FALSE(mem.write_u8(a, 1));
  EXPECT_FALSE(mem.write_u8(a + 63, 1));
  // Writes run off the page containing the allocation into the guard page.
  const Addr page_end = page_base(a) + kPageSize;
  EXPECT_EQ(mem.write_u8(page_end, 1), av(page_end, true));
  // Successive allocations never touch each other.
  const Addr b = mem.alloc(64);
  EXPECT_GE(b, page_end + kPageSize);
}

TEST(AddressSpace, AllocDanglingFaultsImmediately) {
  AddressSpace mem;
  const Addr a = mem.alloc_dangling(64);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, a), av(a, false));
}

TEST(AddressSpace, CStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_cstr("robustness");
  EXPECT_EQ(rdstr(mem, a), "robustness");
}

TEST(AddressSpace, UnterminatedStringWalkFaultsAtGuard) {
  AddressSpace mem;
  const Addr a = mem.alloc(4096);
  for (int i = 0; i < 4096; ++i) EXPECT_FALSE(mem.write_u8(a + i, 'A'));
  std::string s;
  EXPECT_EQ(mem.read_cstr(a, &s), av(a + 4096, false));
}

TEST(AddressSpace, WideStringRoundTrip) {
  AddressSpace mem;
  const Addr a = mem.alloc_wstr(u"wide");
  EXPECT_EQ(rdwstr(mem, a), u"wide");
}

TEST(AddressSpace, StrictAlignmentFaultsOnOddAccess) {
  AddressSpace strict(nullptr, /*strict_align=*/true);
  (void)strict.map(0x60000, 4096, kPermRW);
  EXPECT_FALSE(read_fault<std::uint32_t>(strict, 0x60000));
  EXPECT_EQ(read_fault<std::uint32_t>(strict, 0x60001),
            (Fault{FaultType::kMisalignment, 0x60001, false}));
  // Relaxed spaces tolerate it (x86 semantics).
  AddressSpace relaxed;
  (void)relaxed.map(0x60000, 4096, kPermRW);
  EXPECT_FALSE(read_fault<std::uint32_t>(relaxed, 0x60001));
}

TEST(AddressSpace, CheckRangeMatchesAccessOutcome) {
  AddressSpace mem;
  (void)mem.map(0x70000, 4096, kPermRead);
  EXPECT_TRUE(mem.check_range(0x70000, 4096, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4096, true, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x70000, 4097, false, Access::kUser));
  EXPECT_FALSE(mem.check_range(0x90000, 1, false, Access::kUser));
  EXPECT_TRUE(mem.check_range(0x70000, 0, true, Access::kUser));  // empty
}

TEST(AddressSpace, ValueSpanningPageBoundary) {
  AddressSpace mem;
  (void)mem.map(0x80000, 8192, kPermRW);
  const Addr split = 0x81000 - 2;
  EXPECT_FALSE(mem.write_u32(split, 0xA1B2C3D4));
  EXPECT_EQ(rd32(mem, split), 0xA1B2C3D4u);
  // With the second page missing, the same write faults at the boundary.
  (void)mem.unmap(0x81000, 4096);
  EXPECT_EQ(mem.write_u32(split, 1), av(0x81000, true));
}

// --- every accessor returns its fault ---------------------------------------
//
// One table over every accessor and every way an access can fault: the
// returned Fault (type, address, direction), exactly one kFault trace event,
// the page-write persistence points announced, and the bytes a store leaves
// behind in the good page it crossed out of.

constexpr Addr kGood = 0x10000;      // RW
constexpr Addr kReadOnly = 0x20000;  // read-only
constexpr Addr kNoRead = 0x30000;    // no access at all
constexpr Addr kKernelPg = 0x40000;  // RW, kernel-only
constexpr Addr kUnmapped = 0x50000;
constexpr Addr kEdge = 0x60000;      // RW; the page after it is unmapped
constexpr Addr kCross = kEdge + kPageSize - 2;

using AccessFn = std::function<MaybeFault(AddressSpace&)>;
using NamedAccess = std::pair<std::string, AccessFn>;

struct AccessRow {
  std::string name;
  AccessFn access;
  Fault want;
  std::uint64_t page_writes;  // points announced before the fault
  /// The two bytes at kCross afterwards (the crossing stores' partial write).
  std::vector<std::uint8_t> edge_after = {'x', 'y'};
};

/// Every read accessor, at `a`.
std::vector<NamedAccess> reads_at(Addr a) {
  return {
      {"read_u8",
       [a](AddressSpace& m) {
         std::uint8_t v;
         return m.read_u8(a, &v);
       }},
      {"read_u16",
       [a](AddressSpace& m) {
         std::uint16_t v;
         return m.read_u16(a, &v);
       }},
      {"read_u32",
       [a](AddressSpace& m) {
         std::uint32_t v;
         return m.read_u32(a, &v);
       }},
      {"read_u64",
       [a](AddressSpace& m) {
         std::uint64_t v;
         return m.read_u64(a, &v);
       }},
      {"read_bytes",
       [a](AddressSpace& m) {
         std::uint8_t b[8];
         return m.read_bytes(a, b);
       }},
      {"read_cstr",
       [a](AddressSpace& m) {
         std::string s;
         return m.read_cstr(a, &s);
       }},
      {"read_wstr",
       [a](AddressSpace& m) {
         std::u16string s;
         return m.read_wstr(a, &s);
       }},
  };
}

/// Every write accessor, at `a`.
std::vector<NamedAccess> writes_at(Addr a) {
  static const std::uint8_t kFour[4] = {1, 2, 3, 4};
  return {
      {"write_u8", [a](AddressSpace& m) { return m.write_u8(a, 1); }},
      {"write_u16", [a](AddressSpace& m) { return m.write_u16(a, 1); }},
      {"write_u32", [a](AddressSpace& m) { return m.write_u32(a, 1); }},
      {"write_u64", [a](AddressSpace& m) { return m.write_u64(a, 1); }},
      {"write_bytes", [a](AddressSpace& m) { return m.write_bytes(a, kFour); }},
      {"write_cstr", [a](AddressSpace& m) { return m.write_cstr(a, "abc"); }},
  };
}

std::vector<AccessRow> access_rows() {
  using testing::av;
  std::vector<AccessRow> rows;
  const std::pair<const char*, Addr> bad_pages[] = {
      {"unmapped page", kUnmapped}, {"kernel-only page", kKernelPg}};
  for (const auto& [where, a] : bad_pages) {
    for (auto& [name, fn] : reads_at(a))
      rows.push_back({name + " of an " + where, fn, av(a, false), 0});
    for (auto& [name, fn] : writes_at(a))
      rows.push_back({name + " to an " + where, fn, av(a, true), 0});
  }
  for (auto& [name, fn] : writes_at(kReadOnly))
    rows.push_back({name + " to a read-only page", fn, av(kReadOnly, true), 0});
  for (auto& [name, fn] : reads_at(kNoRead))
    rows.push_back({name + " of a no-read page", fn, av(kNoRead, false), 0});
  // Crossing from a good page into the unmapped one: reads fault at the
  // first unmapped byte; stores write and announce their good-page run
  // first.  (The unterminated bytes at kCross make the string reads cross
  // too; one- and two-byte accesses at kCross fit the good page.)
  const Addr next = kEdge + kPageSize;
  for (auto& [name, fn] : reads_at(kCross)) {
    if (name == "read_u8" || name == "read_u16") continue;
    rows.push_back({name + " across a page edge", fn, av(next, false), 0});
  }
  for (auto& [name, fn] : writes_at(kCross)) {
    if (name == "write_u8" || name == "write_u16") continue;
    std::vector<std::uint8_t> partial = {1, 0};  // low bytes of the value 1
    if (name == "write_bytes") partial = {1, 2};
    if (name == "write_cstr") partial = {'a', 'b'};
    rows.push_back(
        {name + " across a page edge", fn, av(next, true), 1, partial});
  }
  return rows;
}

/// Runs `row` on a fresh space wired to a machine's trace sink and hub.
void check_access_row(const AccessRow& row, bool strict) {
  SCOPED_TRACE(row.name);
  Machine machine(OsVariant::kWinNT4);
  AddressSpace mem(nullptr, strict);
  mem.set_trace(&machine.trace());
  mem.set_mutation_hub(&machine.mutations());
  (void)mem.map(kGood, kPageSize, kPermRW);
  (void)mem.map(kReadOnly, kPageSize, kPermRead);
  (void)mem.map(kNoRead, kPageSize, kPermNone);
  (void)mem.map(kKernelPg, kPageSize, kPermRW, /*kernel_only=*/true);
  (void)mem.map(kEdge, kPageSize, kPermRW);
  mem.poke_bytes(kCross, std::vector<std::uint8_t>{'x', 'y'});

  MutationHub& hub = machine.mutations();
  hub.set_counting(true);
  hub.open_window();
  const trace::Counters before = machine.trace().counters();
  const std::uint64_t writes = hub.count(MutationKind::kPageWrite);
  EXPECT_EQ(row.access(mem), row.want);
  hub.close_window();
  EXPECT_EQ((machine.trace().counters() - before)[trace::EventKind::kFault],
            1u);
  EXPECT_EQ(hub.count(MutationKind::kPageWrite) - writes, row.page_writes);
  // A faulting store leaves the faulting page untouched.
  EXPECT_EQ(testing::rd8(mem, kReadOnly), 0);
  EXPECT_EQ(testing::rd8(mem, kKernelPg, Access::kKernel), 0);
  EXPECT_EQ(testing::rd8(mem, kCross), row.edge_after[0]);
  EXPECT_EQ(testing::rd8(mem, kCross + 1), row.edge_after[1]);
}

TEST(AddressSpace, EveryAccessorReturnsItsFault) {
  const std::vector<AccessRow> rows = access_rows();
  EXPECT_EQ(rows.size(), 2u * (7 + 6) + 6 + 7 + 5 + 4);
  for (const AccessRow& row : rows) check_access_row(row, /*strict=*/false);
}

TEST(AddressSpace, EveryMultiByteAccessorReturnsItsMisalignment) {
  // Strict alignment checks before any page lookup: the fault is at the
  // access's own address, in its direction, and nothing is announced.
  const Addr odd = kGood + 1;
  for (auto& [name, fn] : reads_at(odd)) {
    if (name == "read_u8" || name == "read_bytes" || name == "read_cstr")
      continue;  // no alignment to check
    check_access_row(
        {name, fn, Fault{FaultType::kMisalignment, odd, false}, 0}, true);
  }
  for (auto& [name, fn] : writes_at(odd)) {
    if (name == "write_u8" || name == "write_bytes" || name == "write_cstr")
      continue;
    check_access_row(
        {name, fn, Fault{FaultType::kMisalignment, odd, true}, 0}, true);
  }
}

TEST(SharedArena, PagesPersistAcrossSpaces) {
  SharedArena arena;
  AddressSpace a(&arena), b(&arena);
  EXPECT_FALSE(a.write_u8(kSharedArenaBase + 100, 77, Access::kKernel));
  EXPECT_EQ(rd8(b, kSharedArenaBase + 100, Access::kKernel), 77);
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
  EXPECT_FALSE(mem.write_u8(kSharedArenaBase, 1, Access::kKernel));
  EXPECT_EQ(read_fault<std::uint8_t>(mem, kSharedArenaBase, Access::kUser),
            av(kSharedArenaBase, false));
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
  EXPECT_EQ(read_fault<std::uint8_t>(mem, 0x100, Access::kKernel),
            av(0x100, false));
  EXPECT_EQ(read_fault<std::uint8_t>(mem, kSharedArenaBase, Access::kKernel),
            av(kSharedArenaBase, false));
}

// --- pages backed on first write --------------------------------------------

TEST(AddressSpace, UnwrittenPagesReadAsZeros) {
  AddressSpace mem;
  (void)mem.map(0x60000, 2 * kPageSize, kPermRW);
  EXPECT_EQ(rd8(mem, 0x60000), 0);
  EXPECT_EQ(rd8(mem, 0x61FFF), 0);
  EXPECT_EQ(rd64(mem, 0x60FF8), 0u);
  std::vector<std::uint8_t> buf(2 * kPageSize, 0xAA);
  EXPECT_FALSE(mem.read_bytes(0x60000, buf));
  EXPECT_EQ(buf, std::vector<std::uint8_t>(2 * kPageSize, 0));
  EXPECT_EQ(rdstr(mem, 0x60000), "");
  EXPECT_TRUE(mem.check_range(0x60000, 2 * kPageSize, true, Access::kUser));
  // A string that runs off a written page ends at the unwritten one.
  EXPECT_FALSE(mem.write_bytes(0x60FFE, std::vector<std::uint8_t>{'h', 'i'}));
  EXPECT_EQ(rdstr(mem, 0x60FFE), "hi");
  std::fill(buf.begin(), buf.end(), 0xAA);
  EXPECT_FALSE(mem.read_bytes(0x60000, buf));
  EXPECT_EQ(buf[kPageSize - 2], 'h');
  EXPECT_EQ(buf[kPageSize - 1], 'i');
  EXPECT_EQ(buf[kPageSize], 0);
}

constexpr Addr kCheckpointStack = 0x7ff0'0000 - 0x1'0000;

TEST(AddressSpace, RestoreAfterLargeMapKeepsTheCheckpointCount) {
  AddressSpace mem;
  (void)mem.map(kCheckpointStack, 16 * kPageSize, kPermRW);
  mem.checkpoint();
  const std::size_t at_checkpoint = mem.mapped_page_count();
  (void)mem.map(0x1000'0000, 16ull << 20, kPermRW);
  EXPECT_EQ(mem.mapped_page_count(), at_checkpoint + 4096);
  EXPECT_FALSE(mem.write_u8(0x1000'0000 + (8ull << 20), 1));
  mem.restore();
  EXPECT_EQ(mem.mapped_page_count(), at_checkpoint);
  EXPECT_FALSE(mem.is_mapped(0x1000'0000));
}

TEST(AddressSpace, WrittenStackPageReadsZeroAfterRestore) {
  AddressSpace mem;
  (void)mem.map(kCheckpointStack, 16 * kPageSize, kPermRW);
  mem.checkpoint();
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(mem.write_u32(kCheckpointStack + 3 * kPageSize + 16,
                               0xCAFEBABE));
    EXPECT_FALSE(mem.write_u8(kCheckpointStack + 15 * kPageSize + 4095, 0x7F));
    mem.restore();
    EXPECT_EQ(rd32(mem, kCheckpointStack + 3 * kPageSize + 16), 0u);
    EXPECT_EQ(rd8(mem, kCheckpointStack + 15 * kPageSize + 4095), 0);
  }
}

TEST(AddressSpace, UnmappedOrReprotectedStackPagesComeBackZeroed) {
  AddressSpace mem;
  (void)mem.map(kCheckpointStack, 4 * kPageSize, kPermRW);
  (void)mem.map(kCheckpointStack + 4 * kPageSize, kPageSize, kPermRead,
          /*kernel_only=*/true);
  mem.checkpoint();
  for (Addr pg = 0; pg < 4; ++pg)
    EXPECT_FALSE(mem.write_u8(kCheckpointStack + pg * kPageSize + 1, 0x11));
  (void)mem.unmap(kCheckpointStack + kPageSize, kPageSize);
  (void)mem.protect(kCheckpointStack + 2 * kPageSize, kPageSize, kPermNone);
  (void)mem.protect(kCheckpointStack + 4 * kPageSize, kPageSize, kPermRW);
  EXPECT_FALSE(mem.write_u8(kCheckpointStack + 4 * kPageSize,
                            0x22, Access::kKernel));
  mem.restore();
  EXPECT_EQ(mem.mapped_page_count(), 5u);
  for (Addr pg = 0; pg < 4; ++pg) {
    const Addr a = kCheckpointStack + pg * kPageSize;
    EXPECT_EQ(mem.perm_of(a), kPermRW) << pg;
    EXPECT_EQ(rd8(mem, a + 1), 0) << pg;
  }
  const Addr ko = kCheckpointStack + 4 * kPageSize;
  EXPECT_EQ(mem.perm_of(ko), kPermRead);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, ko, Access::kUser), av(ko, false));
  EXPECT_EQ(rd8(mem, ko, Access::kKernel), 0);
  EXPECT_EQ(mem.write_u8(ko, 1, Access::kKernel), av(ko, true));
}

TEST(SharedArena, PageReadsZeroUntilWrittenAndClearWipesIt) {
  SharedArena arena;
  AddressSpace mem(&arena);
  const Addr a = kSharedArenaBase + 0x1234;
  EXPECT_EQ(rd8(mem, a, Access::kKernel), 0);
  EXPECT_EQ(arena.page(a)->data, nullptr);
  EXPECT_FALSE(mem.write_u8(a, 0x42, Access::kKernel));
  ASSERT_NE(arena.page(a)->data, nullptr);
  EXPECT_EQ(rd8(mem, a, Access::kKernel), 0x42);
  EXPECT_EQ(rd8(mem, a + 1, Access::kKernel), 0);
  arena.clear();
  EXPECT_EQ(arena.page(a)->data, nullptr);
  EXPECT_EQ(rd8(mem, a, Access::kKernel), 0);
}

// --- the two-level page table -------------------------------------------------
//
// Leaves hold 1024 pages, so page numbers 1023 and 1024 sit in different
// leaves, and the last page of the 32-bit space (0xFFFFF) is the top of
// leaf 0x3FF.  Page numbers at and above 2^20 (addresses past 4 GiB) take
// the same path as any other.

constexpr Addr kLeafEdge = 1024 * kPageSize;  // first page of leaf 1

TEST(AddressSpace, PagesOnEitherSideOfALeafBoundaryAreIndependent) {
  AddressSpace mem;
  (void)mem.map(kLeafEdge - kPageSize, kPageSize, kPermRW);  // page 1023
  EXPECT_EQ(mem.mapped_page_count(), 1u);
  EXPECT_FALSE(mem.write_u8(kLeafEdge - 1, 0x5A));
  EXPECT_EQ(read_fault<std::uint8_t>(mem, kLeafEdge), av(kLeafEdge, false));
  // A value straddling the boundary faults at the first byte past it, with
  // the bytes before it written.
  EXPECT_EQ(mem.write_u32(kLeafEdge - 2, 0x11223344), av(kLeafEdge, true));
  EXPECT_EQ(rd8(mem, kLeafEdge - 2), 0x44);
  (void)mem.map(kLeafEdge, kPageSize, kPermRW);  // page 1024
  EXPECT_EQ(mem.mapped_page_count(), 2u);
  EXPECT_FALSE(mem.write_u32(kLeafEdge - 2, 0xCAFEBABE));
  EXPECT_EQ(rd32(mem, kLeafEdge - 2), 0xCAFEBABEu);
  (void)mem.unmap(kLeafEdge - kPageSize, kPageSize);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, kLeafEdge - 1),
            av(kLeafEdge - 1, false));
  EXPECT_EQ(rd8(mem, kLeafEdge), 0xFE);  // little-endian byte 2
  EXPECT_EQ(mem.mapped_page_count(), 1u);

  // The last page of the 32-bit space, and the first byte past it.
  constexpr Addr kTop32 = 0xFFFF'F000;
  (void)mem.map(kTop32, kPageSize, kPermRW);
  EXPECT_FALSE(mem.write_u8(0xFFFF'FFFF, 0x77));
  EXPECT_EQ(rd8(mem, 0xFFFF'FFFF), 0x77);
  EXPECT_EQ(read_fault<std::uint16_t>(mem, 0xFFFF'FFFF),
            av(0x1'0000'0000, false));
  EXPECT_TRUE(mem.check_range(kTop32, kPageSize, true, Access::kUser));
  EXPECT_FALSE(mem.check_range(kTop32, kPageSize + 1, false, Access::kUser));
  EXPECT_EQ(mem.mapped_page_count(), 2u);
}

TEST(AddressSpace, PageNumbersPast32BitsTakeTheSamePath) {
  AddressSpace mem;
  const Addr above = Addr{1} << 32;  // page 2^20
  const Addr far = 0x1234'5678'9000;
  const Addr top = ~Addr{0} - (kPageSize - 1);  // the last 64-bit page
  for (const Addr a : {above, far, top}) (void)mem.map(a, kPageSize, kPermRW);
  EXPECT_EQ(mem.mapped_page_count(), 3u);
  for (const Addr a : {above, far, top}) {
    EXPECT_TRUE(mem.is_mapped(a)) << std::hex << a;
    EXPECT_FALSE(mem.write_u64(a + 8, a)) << std::hex << a;
    EXPECT_EQ(rd64(mem, a + 8), a) << std::hex << a;
    EXPECT_EQ(mem.perm_of(a + kPageSize - 1), kPermRW) << std::hex << a;
  }
  EXPECT_EQ(rd8(mem, ~Addr{0}), 0);
  // A two-byte read from the top byte wraps to address 0.
  EXPECT_EQ(read_fault<std::uint16_t>(mem, ~Addr{0}), av(0, false));
  // Garbage 64-bit pointers fault where they point, in their direction.
  constexpr Addr kGarbage = 0xDEAD'BEEF'CAFE'F00D;
  EXPECT_EQ(read_fault<std::uint8_t>(mem, kGarbage), av(kGarbage, false));
  EXPECT_EQ(read_fault<std::uint32_t>(mem, kGarbage), av(kGarbage, false));
  EXPECT_EQ(mem.write_u8(kGarbage, 1), av(kGarbage, true));
  EXPECT_EQ(mem.write_u8(kGarbage, 1, Access::kKernel), av(kGarbage, true));
  EXPECT_EQ(rdstr(mem, far), "");
  EXPECT_EQ(mem.perm_of(kGarbage), kPermNone);
  EXPECT_FALSE(mem.check_range(kGarbage, 4, false));
  // A run off the end of a far page faults at the next page's first byte.
  std::vector<std::uint8_t> buf(2 * kPageSize);
  EXPECT_EQ(mem.read_bytes(far, buf), av(far + kPageSize, false));
  (void)mem.unmap(above, ~Addr{0} - above);
  EXPECT_EQ(mem.mapped_page_count(), 0u);
  EXPECT_EQ(read_fault<std::uint8_t>(mem, far), av(far, false));
}

TEST(AddressSpace, RangeOperationsAcrossALeafBoundary) {
  AddressSpace mem;
  const Addr base = kLeafEdge - 4 * kPageSize;  // pages 1020..1029
  (void)mem.map(base, 10 * kPageSize, kPermRW);
  EXPECT_EQ(mem.mapped_page_count(), 10u);
  (void)mem.protect(kLeafEdge - 2 * kPageSize, 4 * kPageSize, kPermRead);
  for (Addr pg = 0; pg < 10; ++pg) {
    const Addr a = base + pg * kPageSize;
    EXPECT_EQ(mem.perm_of(a), pg >= 2 && pg < 6 ? kPermRead : kPermRW) << pg;
  }
  EXPECT_EQ(mem.write_u8(kLeafEdge, 1), av(kLeafEdge, true));
  (void)mem.unmap(kLeafEdge - kPageSize, 2 * kPageSize);  // pages 1023, 1024
  EXPECT_EQ(mem.mapped_page_count(), 8u);
  EXPECT_FALSE(mem.is_mapped(kLeafEdge - kPageSize));
  EXPECT_FALSE(mem.is_mapped(kLeafEdge));
  EXPECT_TRUE(mem.is_mapped(kLeafEdge - 2 * kPageSize));
  EXPECT_TRUE(mem.is_mapped(kLeafEdge + kPageSize));
  // A 4 GiB protect from the first page reaches both leaves' survivors.
  (void)mem.protect(base, 1ull << 32, kPermNone);
  for (Addr pg = 0; pg < 10; ++pg) {
    const Addr a = base + pg * kPageSize;
    if (mem.is_mapped(a)) {
      EXPECT_EQ(mem.perm_of(a), kPermNone) << pg;
    }
  }
  (void)mem.unmap(0, 1ull << 32);
  EXPECT_EQ(mem.mapped_page_count(), 0u);
}

TEST(AddressSpace, RecycledStorageReadsZeroWhereAnEarlierCaseWrote) {
  AddressSpace mem;
  (void)mem.map(kCheckpointStack, 16 * kPageSize, kPermRW);
  mem.checkpoint();
  // Case 1 writes the first and last byte of a fresh page and of a stack
  // page; restore gives both storages back.
  const Addr page = mem.alloc(kPageSize);
  const Addr stack = kCheckpointStack + 7 * kPageSize;
  for (const Addr a : {page, stack}) {
    EXPECT_FALSE(mem.write_u8(a, 0xAA));
    EXPECT_FALSE(mem.write_u8(a + kPageSize - 1, 0xBB));
  }
  mem.restore();
  // Case 2 gets the same address back, and its first write takes storage
  // from the free list: every byte but the one it wrote reads zero.
  EXPECT_EQ(mem.alloc(kPageSize), page);
  for (const Addr a : {page, stack}) {
    EXPECT_FALSE(mem.write_u8(a + 100, 0x01));
    std::vector<std::uint8_t> bytes(kPageSize, 0xFF);
    EXPECT_FALSE(mem.read_bytes(a, bytes));
    std::vector<std::uint8_t> want(kPageSize, 0);
    want[100] = 0x01;
    EXPECT_EQ(bytes, want) << std::hex << a;
  }
}

// --- range operations over a few mapped pages ---------------------------------
//
// protect/unmap walk the presence bitmaps of the leaves the range overlaps.
// Each call is checked against the page-by-page walk over every page number
// in the range, on a space shaped like a task: a checkpointed 64 KiB stack
// plus a few harness allocations.

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
    (void)mem_.map(start, size, perm);
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
      (void)mem_.protect(start, size, *perm);
    else
      (void)mem_.unmap(start, size);
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
  EXPECT_FALSE(mem_.write_u8(0x100, 7, Access::kKernel));
  EXPECT_FALSE(mem_.write_u8(kSharedArenaBase + 0x2000, 9, Access::kKernel));
  check(0, 0xFFFF'FFFF, kPermRead);
  check(kSharedArenaBase - 2 * kPageSize, 0x4000'0000, kPermNone);
  check(0, 0xFFFF'FFFF, std::nullopt);
  for (const Addr a : {Addr{0x100}, kSharedArenaBase + 0x2000}) {
    EXPECT_TRUE(mem_.is_mapped(a));
    EXPECT_EQ(mem_.perm_of(a), kPermRW);
    EXPECT_EQ(machine_.arena().page(a)->perm, kPermRW);
  }
  EXPECT_EQ(rd8(mem_, 0x100, Access::kKernel), 7);
  EXPECT_FALSE(mem_.write_u8(kSharedArenaBase + 0x2000, 10, Access::kKernel));
}

TEST_F(RangeWalk, RestoreRemapsUnmappedStackPagesZeroed) {
  EXPECT_FALSE(mem_.write_u32(kStackBase + 4 * kPageSize + 8,
                              0xDEADBEEF, Access::kUser));
  (void)mem_.protect(kStackBase + 9 * kPageSize, kPageSize, kPermRead);
  check(kStackBase - 4 * kPageSize, 0xFFFF'FFFF, std::nullopt);
  EXPECT_FALSE(mem_.is_mapped(kStackBase));
  mem_.restore();
  EXPECT_EQ(mem_.mapped_page_count(), 16u);
  for (Addr a = kStackBase; a < kStackBase + 16 * kPageSize; a += kPageSize) {
    EXPECT_EQ(mem_.perm_of(a), kPermRW) << std::hex << a;
    for (Addr off = 0; off < kPageSize; off += 4)
      ASSERT_EQ(rd32(mem_, a + off), 0u) << std::hex << a + off;
  }
  // Allocations made after the checkpoint are gone.
  EXPECT_FALSE(mem_.is_mapped(0x0010'0000));
}

}  // namespace
}  // namespace ballista::sim
