// Deeper semantic tests for the C library: stdio mode/seek matrices, unget
// behaviour, string scanning, formatting and parsing details — checked
// through direct dispatch so results (not just classifications) are visible.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "clib/crt.h"
#include "tests/fault_util.h"
#include "tests/test_util.h"

namespace ballista::clib {
namespace {

using core::CallOutcome;
using core::RawArg;
using sim::OsVariant;
using testing::shared_world;
using testing::av;
using testing::rd32;
using testing::rd8;
using testing::rdstr;

/// Dispatch helper: one call against a persistent machine/process.
class ClibFixture : public ::testing::Test {
 protected:
  ClibFixture() : machine(OsVariant::kLinux) {
    proc = machine.create_process();
  }

  CallOutcome call(const char* name, std::vector<RawArg> args) {
    const core::MuT* mut = shared_world().registry.find(name);
    EXPECT_NE(mut, nullptr) << name;
    last_args = std::move(args);
    core::CallContext ctx(machine, *proc, *mut, last_args);
    (void)machine.kernel_enter();
    return mut->impl(ctx);
  }

  sim::Addr cstr(std::string_view s) { return proc->mem().alloc_cstr(s); }
  std::string str_at(sim::Addr a) {
    return rdstr(proc->mem(), a, 4096, sim::Access::kKernel);
  }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  std::vector<RawArg> last_args;
};

TEST_F(ClibFixture, FopenModeMatrix) {
  // "r" on a missing file: NULL.
  EXPECT_EQ(call("fopen", {cstr("/tmp/nope"), cstr("r")}).ret, 0u);
  // "w" creates it.
  const auto w = call("fopen", {cstr("/tmp/nope"), cstr("w")});
  EXPECT_NE(w.ret, 0u);
  // Now "r" works.
  EXPECT_NE(call("fopen", {cstr("/tmp/nope"), cstr("r")}).ret, 0u);
  // "a" appends: write then check size grows.
  const auto a = call("fopen", {cstr("/tmp/nope"), cstr("a")});
  EXPECT_NE(a.ret, 0u);
}

TEST_F(ClibFixture, WriteReadRoundTripThroughStdio) {
  const auto f = call("fopen", {cstr("/tmp/rt.txt"), cstr("w")});
  ASSERT_NE(f.ret, 0u);
  const sim::Addr data = cstr("roundtrip!");
  EXPECT_EQ(call("fwrite", {data, 1, 10, f.ret}).ret, 10u);
  EXPECT_EQ(call("fclose", {f.ret}).ret, 0u);

  const auto g = call("fopen", {cstr("/tmp/rt.txt"), cstr("r")});
  ASSERT_NE(g.ret, 0u);
  const sim::Addr buf = proc->mem().alloc(64);
  EXPECT_EQ(call("fread", {buf, 1, 10, g.ret}).ret, 10u);
  EXPECT_EQ(rdstr(proc->mem(), buf, 10, sim::Access::kKernel),
            "roundtrip!");
}

TEST_F(ClibFixture, SeekTellRewindProtocol) {
  const auto f = call("fopen", {cstr("/tmp/fixture.dat"), cstr("r")});
  ASSERT_NE(f.ret, 0u);
  EXPECT_EQ(call("fseek", {f.ret, 10, 0}).ret, 0u);        // SEEK_SET
  EXPECT_EQ(call("ftell", {f.ret}).ret, 10u);
  EXPECT_EQ(call("fseek", {f.ret, 5, 1}).ret, 0u);         // SEEK_CUR
  EXPECT_EQ(call("ftell", {f.ret}).ret, 15u);
  EXPECT_EQ(call("fseek", {f.ret, 0, 2}).ret, 0u);         // SEEK_END
  EXPECT_GT(call("ftell", {f.ret}).ret, 15u);
  EXPECT_EQ(call("rewind", {f.ret}).ret, 0u);
  EXPECT_EQ(call("ftell", {f.ret}).ret, 0u);
  // Bogus whence and negative targets report errors.
  EXPECT_EQ(call("fseek", {f.ret, 0, 42}).status,
            core::CallStatus::kErrorReported);
  EXPECT_EQ(call("fseek", {f.ret, static_cast<RawArg>(-100) & 0xffffffffull,
                           0})
                .status,
            core::CallStatus::kErrorReported);
}

TEST_F(ClibFixture, UngetcComesBackFirst) {
  const auto f = call("fopen", {cstr("/tmp/fixture.dat"), cstr("r")});
  ASSERT_NE(f.ret, 0u);
  const auto first = call("fgetc", {f.ret});
  EXPECT_EQ(call("ungetc", {'Q', f.ret}).ret, static_cast<RawArg>('Q'));
  EXPECT_EQ(call("fgetc", {f.ret}).ret, static_cast<RawArg>('Q'));
  // Stream then resumes where it was.
  const auto next = call("fgetc", {f.ret});
  EXPECT_NE(next.ret, first.ret);
}

TEST_F(ClibFixture, FgetsStopsAtNewline) {
  const auto f = call("fopen", {cstr("/tmp/lines.txt"), cstr("w")});
  const sim::Addr text = cstr("one\ntwo\n");
  EXPECT_EQ(call("fwrite", {text, 1, 8, f.ret}).status,
            core::CallStatus::kSuccess);
  EXPECT_EQ(call("fclose", {f.ret}).status, core::CallStatus::kSuccess);
  const auto g = call("fopen", {cstr("/tmp/lines.txt"), cstr("r")});
  const sim::Addr buf = proc->mem().alloc(64);
  EXPECT_NE(call("fgets", {buf, 32, g.ret}).ret, 0u);
  EXPECT_EQ(str_at(buf), "one\n");
}

TEST_F(ClibFixture, SprintfFormatsIntoBuffer) {
  const sim::Addr buf = proc->mem().alloc(128);
  const auto r = call("sprintf", {buf, cstr("value=%d!")});
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  EXPECT_EQ(str_at(buf), "value=0!");  // missing varargs print a zero
}

TEST_F(ClibFixture, SscanfParsesDigits) {
  const auto r = call("sscanf", {cstr("   123"), cstr("plain")});
  EXPECT_EQ(r.ret, 0u);  // no conversions
}

TEST_F(ClibFixture, StrtokWalksTokens) {
  const sim::Addr s = cstr("a,b,,c");
  const sim::Addr delim = cstr(",");
  const auto t1 = call("strtok", {s, delim});
  EXPECT_EQ(str_at(t1.ret), "a");
  const auto t2 = call("strtok", {0, delim});
  EXPECT_EQ(str_at(t2.ret), "b");
  const auto t3 = call("strtok", {0, delim});
  EXPECT_EQ(str_at(t3.ret), "c");
  EXPECT_EQ(call("strtok", {0, delim}).ret, 0u);
}

TEST_F(ClibFixture, StrSpnFamilies) {
  EXPECT_EQ(call("strspn", {cstr("aabbcc"), cstr("ab")}).ret, 4u);
  EXPECT_EQ(call("strcspn", {cstr("xyz,abc"), cstr(",")}).ret, 3u);
  const auto p = call("strpbrk", {cstr("hello world"), cstr("ow")});
  EXPECT_EQ(str_at(p.ret), "o world");
  EXPECT_EQ(call("strpbrk", {cstr("hello"), cstr("xyz")}).ret, 0u);
}

TEST_F(ClibFixture, StrchrAndStrrchrFindEnds) {
  const sim::Addr s = cstr("abcabc");
  const auto first = call("strchr", {s, 'b'});
  const auto last = call("strrchr", {s, 'b'});
  EXPECT_EQ(first.ret, s + 1);
  EXPECT_EQ(last.ret, s + 4);
  // NUL is findable at the terminator.
  EXPECT_EQ(call("strchr", {s, 0}).ret, s + 6);
}

TEST_F(ClibFixture, StrncatRespectsN) {
  const sim::Addr dst = proc->mem().alloc(64);
  EXPECT_FALSE(proc->mem().write_cstr(dst, "ab", sim::Access::kKernel));
  EXPECT_EQ(call("strncat", {dst, cstr("cdef"), 2}).status,
            core::CallStatus::kSuccess);
  EXPECT_EQ(str_at(dst), "abcd");
}

TEST_F(ClibFixture, MemmoveHandlesOverlap) {
  const sim::Addr buf = proc->mem().alloc(16);
  EXPECT_FALSE(proc->mem().write_cstr(buf, "0123456789", sim::Access::kKernel));
  EXPECT_EQ(call("memmove", {buf + 2, buf, 8}).status,
            core::CallStatus::kSuccess);
  EXPECT_EQ(str_at(buf + 2), "01234567");
}

TEST_F(ClibFixture, AtoiAndStrtolParse) {
  EXPECT_EQ(call("atoi", {cstr("  -42xyz")}).ret,
            static_cast<RawArg>(-42));
  EXPECT_EQ(call("atoi", {cstr("junk")}).ret, 0u);
  const sim::Addr endp = proc->mem().alloc(8);
  EXPECT_EQ(call("strtol", {cstr("ff"), endp, 16}).ret, 255u);
  EXPECT_EQ(call("strtol", {cstr("777"), endp, 8}).ret, 511u);
}

TEST_F(ClibFixture, CtypeValuesAreCorrectForValidInput) {
  EXPECT_EQ(call("isalpha", {'a'}).ret, 1u);
  EXPECT_EQ(call("isalpha", {'5'}).ret, 0u);
  EXPECT_EQ(call("isdigit", {'5'}).ret, 1u);
  EXPECT_EQ(call("isspace", {'\t'}).ret, 1u);
  EXPECT_EQ(call("isupper", {'a'}).ret, 0u);
  EXPECT_EQ(call("tolower", {'A'}).ret, static_cast<RawArg>('a'));
  EXPECT_EQ(call("toupper", {'z'}).ret, static_cast<RawArg>('Z'));
  EXPECT_EQ(call("toupper", {'!'}).ret, static_cast<RawArg>('!'));
}

TEST_F(ClibFixture, TimePipeline) {
  const sim::Addr tloc = proc->mem().alloc(8);
  const auto now = call("time", {tloc});
  EXPECT_GT(now.ret, 900'000'000u);  // anchored in 1999
  EXPECT_EQ(rd32(proc->mem(), tloc, sim::Access::kKernel),
            static_cast<std::uint32_t>(now.ret));
  const auto tm = call("gmtime", {tloc});
  ASSERT_NE(tm.ret, 0u);
  const auto str = call("asctime", {tm.ret});
  ASSERT_NE(str.ret, 0u);
  const std::string text = str_at(str.ret);
  EXPECT_NE(text.find("19"), std::string::npos);  // a 19xx year
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(ClibFixture, MktimeInvertsRoughly) {
  // Build a tm for mid-1999 and check mktime lands the same decade.
  const sim::Addr tm = proc->mem().alloc(40);
  const std::int32_t f[9] = {0, 0, 12, 28, 5, 99, 0, 0, 0};
  for (int i = 0; i < 9; ++i)
    EXPECT_FALSE(proc->mem().write_u32(tm + 4 * i,
                                       static_cast<std::uint32_t>(f[i]),
                                       sim::Access::kKernel));
  const auto t = call("mktime", {tm});
  EXPECT_GT(t.ret, 890'000'000u);
  EXPECT_LT(t.ret, 970'000'000u);
}

TEST_F(ClibFixture, StrftimeKnownConversions) {
  const sim::Addr tm = proc->mem().alloc(40);
  const std::int32_t f[9] = {30, 45, 13, 28, 5, 99, 1, 178, 0};
  for (int i = 0; i < 9; ++i)
    EXPECT_FALSE(proc->mem().write_u32(tm + 4 * i,
                                       static_cast<std::uint32_t>(f[i]),
                                       sim::Access::kKernel));
  const sim::Addr buf = proc->mem().alloc(64);
  const auto n = call("strftime", {buf, 64, cstr("%Y-%m-%d %H:%M"), tm});
  EXPECT_EQ(n.ret, 16u);
  EXPECT_EQ(str_at(buf), "1999-06-28 13:45");
  // Too-small buffer returns 0 without writing.
  EXPECT_EQ(call("strftime", {buf, 4, cstr("%Y-%m-%d"), tm}).ret, 0u);
}

TEST_F(ClibFixture, MathErrnoProtocol) {
  const auto r = call("sqrt", {std::bit_cast<RawArg>(4.0)});
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(r.ret), 2.0);
  const auto p = call("pow", {std::bit_cast<RawArg>(2.0),
                              std::bit_cast<RawArg>(10.0)});
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(p.ret), 1024.0);
  const auto bad = call("fmod", {std::bit_cast<RawArg>(1.0),
                                 std::bit_cast<RawArg>(0.0)});
  EXPECT_EQ(bad.status, core::CallStatus::kErrorReported);
  EXPECT_EQ(proc->err_no(), EDOM);
}

TEST_F(ClibFixture, StrtodRejectsWhatStodRejected) {
  // No conversion gives 0, and so does a value outside double's range; the
  // rest is std::strtod, hex floats and trailing junk included.
  const std::pair<const char*, double> rows[] = {
      {"abc", 0}, {" 3.5x", 3.5}, {"1e999", 0}, {"1e-400", 0}, {"0x1p3", 8}};
  const sim::Addr end = proc->mem().alloc(8);
  for (const auto& [text, want] : rows) {
    const sim::Addr s = cstr(text);
    const auto r = call("strtod", {s, end});
    ASSERT_EQ(r.status, core::CallStatus::kSuccess) << text;
    EXPECT_EQ(std::bit_cast<double>(r.ret), want) << text;
    // endptr receives nptr itself: the model does not track the parse end.
    EXPECT_EQ(rd32(proc->mem(), end, sim::Access::kKernel),
              static_cast<std::uint32_t>(s))
        << text;
  }
}

TEST_F(ClibFixture, CallocZeroesAndMallocChunksAreDistinct) {
  const auto a = call("malloc", {64});
  const auto b = call("malloc", {64});
  EXPECT_NE(a.ret, 0u);
  EXPECT_NE(a.ret, b.ret);
  const auto c = call("calloc", {4, 16});
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(rd8(proc->mem(), c.ret + i, sim::Access::kKernel), 0);
  EXPECT_EQ(call("free", {a.ret}).status, core::CallStatus::kSuccess);
}

TEST_F(ClibFixture, ReallocPreservesPrefix) {
  const auto a = call("malloc", {8});
  EXPECT_FALSE(proc->mem().write_cstr(a.ret, "seven!!", sim::Access::kKernel));
  const auto b = call("realloc", {a.ret, 64});
  EXPECT_EQ(str_at(b.ret), "seven!!");
}

// --- CRT set-up and host buffers sized by the bytes that move ----------------

/// One direct call of a registered MuT on a given machine and task.
CallOutcome dispatch(sim::Machine& m, sim::SimProcess& proc, const char* name,
                     std::vector<RawArg> args) {
  const core::MuT* mut = shared_world().registry.find(name);
  EXPECT_NE(mut, nullptr) << name;
  core::CallContext ctx(m, proc, *mut, args);
  (void)m.kernel_enter();
  return mut->impl(ctx);
}

/// The one fault a call records and returns (fails the test when it returns
/// normally instead).
sim::Fault fault_of(sim::Machine& m, sim::SimProcess& proc, const char* name,
                    std::vector<RawArg> args) {
  const core::MuT* mut = shared_world().registry.find(name);
  EXPECT_NE(mut, nullptr) << name;
  core::CallContext ctx(m, proc, *mut, args);
  (void)m.kernel_enter();
  EXPECT_EQ(mut->impl(ctx).status, core::CallStatus::kStopped)
      << name << " did not fault";
  EXPECT_EQ(ctx.causes_recorded(), 1) << name;
  return ctx.fault().value_or(sim::Fault{});
}

/// The ctype classification, recomputed from libc for comparison.
std::uint8_t libc_ctype(int c) {
  const unsigned char u = static_cast<unsigned char>(c);
  std::uint8_t bits = 0;
  if (std::isupper(u)) bits |= kCtUpper;
  if (std::islower(u)) bits |= kCtLower;
  if (std::isdigit(u)) bits |= kCtDigit;
  if (std::isspace(u)) bits |= kCtSpace;
  if (std::ispunct(u)) bits |= kCtPunct;
  if (std::iscntrl(u)) bits |= kCtCntrl;
  if (std::isxdigit(u)) bits |= kCtHex;
  if (std::isprint(u)) bits |= kCtPrint;
  return bits;
}

constexpr OsVariant kCrtFlavors[] = {OsVariant::kLinux, OsVariant::kWinNT4,
                                     OsVariant::kWinCE};

TEST(CrtSetup, CtypeTableHoldsTheClassificationUnderEveryFlavor) {
  for (const OsVariant v : kCrtFlavors) {
    sim::Machine m(v);
    // A fresh task, then a recycled one: both get the same table.
    for (int round = 0; round < 2; ++round) {
      auto proc = m.acquire_process();
      const sim::Addr table = harness_crt_state(*proc).ctype_table;
      for (int c = -128; c <= 255; ++c)
        ASSERT_EQ(rd8(proc->mem(), table + 128 + c, sim::Access::kKernel),
                  libc_ctype(c & 0xff))
            << sim::variant_name(v) << " c=" << c;
      // Flush against the end of its page: one past it is unmapped.
      EXPECT_FALSE(proc->mem().is_mapped(table + 384));
      m.release_process(std::move(proc));
    }
  }
}

TEST(CrtSetup, FirstUseInsideACaseAnnouncesTheSamePoints) {
  sim::Machine m(OsVariant::kWinNT4);
  auto proc = m.acquire_process();
  auto& hub = m.mutations();
  hub.set_counting(true);
  hub.open_window();
  ASSERT_NE(crt_state(*proc), nullptr);
  hub.close_window();
  // Ten mappings (ctype page, _iob, two static buffers, a buffer and a lock
  // per standard stream), one write point for the whole ctype table, one
  // per standard FILE structure, and three handle inserts.
  EXPECT_EQ(hub.count(sim::MutationKind::kPageMap), 10u);
  EXPECT_EQ(hub.count(sim::MutationKind::kPageWrite), 4u);
  EXPECT_EQ(hub.count(sim::MutationKind::kHandleCreate), 3u);
  EXPECT_EQ(hub.seq(), 17u);
  m.release_process(std::move(proc));
}

TEST(CrtSetup, CutAtTheCtypePointLeavesTheWholeTableUnwritten) {
  sim::Machine m(OsVariant::kLinux);
  auto proc = m.acquire_process();
  auto& hub = m.mutations();
  hub.arm(sim::FaultPlan{2});  // point 1 maps the page, point 2 fills it
  hub.open_window();
  EXPECT_EQ(crt_state(*proc), nullptr);
  hub.close_window();
  EXPECT_EQ(hub.cut_fired_at(), 2u);
  EXPECT_TRUE(m.crashed());
  EXPECT_EQ(proc->crt_state(), nullptr);  // nothing attached
  const sim::Addr table = 0x7000'0000 + sim::kPageSize - 384;
  for (sim::Addr a = table; a < table + 384; ++a)
    ASSERT_EQ(rd8(proc->mem(), a, sim::Access::kKernel), 0) << a - table;
}

TEST(CrtBuffers, FreadOfAMegabyteCopiesWhatTheStreamHolds) {
  const std::string payload = "stream contents: 42 1999 ballista\n";
  for (const OsVariant v : kCrtFlavors) {
    sim::Machine m(v);
    auto proc = m.acquire_process();
    auto node = std::make_shared<sim::FsNode>("stream.dat", false);
    node->edit_data().assign(payload.begin(), payload.end());
    const sim::Addr fp =
        make_file_struct(*proc, node, kFRead | kFWrite | kFOpen).value;
    const sim::Addr buf = proc->mem().alloc(sim::kPageSize);
    // size*n far beyond 1 MiB: whole items of what the stream holds.
    EXPECT_EQ(dispatch(m, *proc, "fread", {buf, 1, 0xffffffff, fp}).ret, 34u)
        << sim::variant_name(v);
    EXPECT_EQ(rdstr(proc->mem(), buf, 64, sim::Access::kKernel), payload);
    EXPECT_EQ(dispatch(m, *proc, "fread", {buf, 1, 0xffffffff, fp}).ret, 0u);
    EXPECT_EQ(dispatch(m, *proc, "fseek", {fp, 0, 0}).ret, 0u);
    EXPECT_EQ(
        dispatch(m, *proc, "fread", {buf + 100, 2, 0x80000000, fp}).ret, 17u);
    EXPECT_EQ(rdstr(proc->mem(), buf + 100, 64, sim::Access::kKernel),
              payload);
    m.release_process(std::move(proc));
  }
}

TEST_F(ClibFixture, FwriteOverAnUnmappedPageFaultsThereAndWritesNothing) {
  const auto f = call("fopen", {cstr("/tmp/fw.dat"), cstr("w")});
  ASSERT_NE(f.ret, 0u);
  const sim::Addr src = proc->mem().alloc(64) + 60;
  const sim::Addr guard = sim::page_base(src) + sim::kPageSize;
  for (const RawArg n : {RawArg{0xffffffff}, RawArg{1 << 20}, RawArg{5000}}) {
    EXPECT_EQ(fault_of(machine, *proc, "fwrite", {src, 1, n, f.ret}),
              av(guard, false));
  }
  const auto node = machine.fs().resolve(
      machine.fs().parse("/tmp/fw.dat", sim::FileSystem::root_path()));
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->data().empty());
}

TEST_F(ClibFixture, MemmoveOverAnUnmappedPageFaultsThereAndMovesNothing) {
  const sim::Addr dst = proc->mem().alloc(sim::kPageSize);
  const std::vector<std::uint8_t> fill(sim::kPageSize, 0x5a);
  EXPECT_FALSE(proc->mem().write_bytes(dst, fill, sim::Access::kKernel));
  const sim::Addr src = proc->mem().alloc(64) + 60;
  const sim::Addr guard = sim::page_base(src) + sim::kPageSize;
  for (const RawArg n : {RawArg{0xffffffff}, RawArg{4096}}) {
    EXPECT_EQ(fault_of(machine, *proc, "memmove", {dst, src, n}),
              av(guard, false));
  }
  std::vector<std::uint8_t> now(sim::kPageSize);
  EXPECT_FALSE(proc->mem().read_bytes(dst, now, sim::Access::kKernel));
  EXPECT_EQ(now, fill);
}

TEST_F(ClibFixture, PathReadsFaultAtTheFirstUnmappedByte) {
  const sim::Addr page = proc->mem().alloc(sim::kPageSize);
  const std::vector<std::uint8_t> fill(sim::kPageSize, 'p');
  EXPECT_FALSE(proc->mem().write_bytes(page, fill, sim::Access::kKernel));
  const sim::Addr guard = page + sim::kPageSize;
  // Paths are read up to 4,096 characters, so start inside the page.
  for (const sim::Addr path : {page + 1, page + 4000}) {
    EXPECT_EQ(fault_of(machine, *proc, "fopen", {path, cstr("r")}),
              av(guard, false));
    EXPECT_EQ(fault_of(machine, *proc, "remove", {path}), av(guard, false));
    EXPECT_EQ(fault_of(machine, *proc, "rename", {cstr("/tmp/a"), path}),
              av(guard, false));
  }
  const sim::Addr dangling = proc->mem().alloc_dangling(32);
  EXPECT_EQ(fault_of(machine, *proc, "fopen", {dangling, cstr("r")}),
            av(dangling, false));
}

/// The address `room` bytes before the guard page of a fresh allocation.
sim::Addr before_guard(sim::AddressSpace& mem, std::uint64_t room) {
  const std::uint64_t pages = (room + sim::kPageSize - 1) / sim::kPageSize;
  const sim::Addr guard = mem.alloc(pages * sim::kPageSize) +
                          pages * sim::kPageSize;
  return guard - room;
}

TEST(CrtStores, CopiesFaultAtTheGuardPagesFirstByteWithEarlierBytesWritten) {
  for (const OsVariant v : kCrtFlavors) {
    sim::Machine m(v);
    auto proc = m.acquire_process();
    auto& mem = proc->mem();
    // A source longer than the room before the guard, which spans 50 bytes
    // of one page and the whole next one.
    const std::uint64_t room = sim::kPageSize + 50;
    const sim::Addr src = mem.alloc_cstr(std::string(room + 200, 'q'));
    for (const char* name : {"strcpy", "strncpy", "strncat"}) {
      const sim::Addr dst = before_guard(mem, room);
      const sim::Addr guard = dst + room;
      EXPECT_EQ(fault_of(m, *proc, name, {dst, src, 2 * room}),
                av(guard, true))
          << sim::variant_name(v) << " " << name;
      for (sim::Addr a = dst; a < guard; ++a)
        ASSERT_EQ(rd8(mem, a), 'q') << sim::variant_name(v) << " " << name
                                    << " byte " << a - dst;
    }
    // strncpy's NUL padding runs into the guard page the same way.
    const sim::Addr dst = before_guard(mem, room);
    const std::vector<std::uint8_t> fill(room, 0x5a);
    EXPECT_FALSE(mem.write_bytes(dst, fill, sim::Access::kKernel));
    EXPECT_EQ(fault_of(m, *proc, "strncpy", {dst, mem.alloc_cstr("hi"), 8192}),
              av(dst + room, true))
        << sim::variant_name(v);
    EXPECT_EQ(rd8(mem, dst), 'h');
    EXPECT_EQ(rd8(mem, dst + 1), 'i');
    for (sim::Addr a = dst + 2; a < dst + room; ++a)
      ASSERT_EQ(rd8(mem, a), 0) << sim::variant_name(v) << " byte " << a - dst;
    m.release_process(std::move(proc));
  }
}

TEST(CrtStores, OverlappingStrcpyReadsTheSourceAsEachPageWasLoaded) {
  for (const OsVariant v : kCrtFlavors) {
    sim::Machine m(v);
    auto proc = m.acquire_process();
    auto& mem = proc->mem();
    // Within one page the reader's snapshot holds the original string.
    const sim::Addr s = mem.alloc_cstr("abcdef");
    EXPECT_EQ(dispatch(m, *proc, "strcpy", {s + 1, s}).ret, s + 1);
    EXPECT_EQ(rdstr(mem, s), "aabcdef") << sim::variant_name(v);
    // Across a page boundary the next page is loaded after the store into
    // its first byte, so that byte is read as copied: "abc|def" copies as
    // "abccef".
    const sim::Addr page = mem.alloc(2 * sim::kPageSize);
    const sim::Addr t = page + sim::kPageSize - 3;
    EXPECT_FALSE(mem.write_cstr(t, "abcdef", sim::Access::kKernel));
    EXPECT_EQ(dispatch(m, *proc, "strcpy", {t + 1, t}).ret, t + 1);
    EXPECT_EQ(rdstr(mem, t + 1), "abccef") << sim::variant_name(v);
    m.release_process(std::move(proc));
  }
}

TEST(CrtStores, StrftimeFormatFaultsAtTheFirstUnmappedByte) {
  // Windows CE has no C time group.
  for (const OsVariant v : {OsVariant::kLinux, OsVariant::kWinNT4}) {
    sim::Machine m(v);
    auto proc = m.acquire_process();
    auto& mem = proc->mem();
    const sim::Addr tm = mem.alloc(40);
    const sim::Addr buf = mem.alloc(64);
    // A format that never ends, and one whose last byte opens a conversion.
    for (const char last : {'x', '%'}) {
      const sim::Addr fmt = before_guard(mem, 100);
      std::vector<std::uint8_t> text(100, 'x');
      text.back() = static_cast<std::uint8_t>(last);
      EXPECT_FALSE(mem.write_bytes(fmt, text, sim::Access::kKernel));
      EXPECT_EQ(fault_of(m, *proc, "strftime", {buf, 64, fmt, tm}),
                av(fmt + 100, false))
          << sim::variant_name(v) << " " << last;
    }
    m.release_process(std::move(proc));
  }
}

TEST(CrtBuffers, MisalignedWidePathRaisesMisalignmentOnCe) {
  sim::Machine m(OsVariant::kWinCE);
  auto proc = m.acquire_process();
  auto& mem = proc->mem();
  const sim::Addr odd = mem.alloc_wstr(u"/tmp/fixture.dat") + 1;
  const sim::Addr mode = mem.alloc_wstr(u"r");
  for (const sim::Fault& flt : {fault_of(m, *proc, "_wfopen", {odd, mode}),
                                fault_of(m, *proc, "_wremove", {odd})})
    EXPECT_EQ(flt, (sim::Fault{sim::FaultType::kMisalignment, odd, false}));
  // An aligned wide path that runs into unmapped memory faults at its
  // first unmapped byte.
  const sim::Addr page = mem.alloc(sim::kPageSize);
  for (sim::Addr a = page; a < page + sim::kPageSize; a += 2)
    EXPECT_FALSE(mem.write_u16(a, u'w', sim::Access::kKernel));
  EXPECT_EQ(fault_of(m, *proc, "_wfopen", {page + 64, mode}),
            av(page + sim::kPageSize, false));
  m.release_process(std::move(proc));
}

}  // namespace
}  // namespace ballista::clib
