// Deeper semantic tests for the Win32 Process Environment and File/Directory
// groups.
#include <gtest/gtest.h>

#include "tests/fault_util.h"
#include "tests/test_util.h"
#include "win32/win32.h"

namespace ballista::win32 {
namespace {

using ballista::testing::rd32;
using ballista::testing::rd64;
using ballista::testing::rdstr;

using ballista::testing::run_named_case;
using ballista::testing::shared_world;
using core::Outcome;
using sim::OsVariant;

constexpr OsVariant kNT = OsVariant::kWinNT4;

TEST(EnvCalls, ExpandEnvironmentStringsSubstitutes) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  // Direct API-level check through the context rather than the harness.
  auto proc = m.create_process();
  proc->edit_env()["WHO"] = "ballista";
  const core::MuT* mut = w.registry.find("ExpandEnvironmentStrings");
  const sim::Addr src = proc->mem().alloc_cstr("hello %WHO%!");
  const sim::Addr dst = proc->mem().alloc(256);
  std::vector<core::RawArg> args = {src, dst, 256};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  const auto out = mut->impl(ctx);
  EXPECT_EQ(out.status, core::CallStatus::kSuccess);
  EXPECT_EQ(rdstr(proc->mem(), dst, 64, sim::Access::kKernel),
            "hello ballista!");
}

TEST(EnvCalls, UnknownVariableStaysVerbatim) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("ExpandEnvironmentStrings");
  const sim::Addr src = proc->mem().alloc_cstr("%NO_SUCH_VAR%");
  const sim::Addr dst = proc->mem().alloc(256);
  std::vector<core::RawArg> args = {src, dst, 256};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  (void)mut->impl(ctx);
  EXPECT_EQ(rdstr(proc->mem(), dst, 64, sim::Access::kKernel),
            "%NO_SUCH_VAR%");
}

TEST(EnvCalls, SetEnvironmentVariableRejectsEquals) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("SetEnvironmentVariable");
  const sim::Addr name = proc->mem().alloc_cstr("BAD=NAME");
  const sim::Addr value = proc->mem().alloc_cstr("x");
  std::vector<core::RawArg> args = {name, value};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  const auto out = mut->impl(ctx);
  EXPECT_EQ(out.status, core::CallStatus::kErrorReported);
}

TEST(EnvCalls, SetWithNullValueDeletes) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  proc->edit_env()["DOOMED"] = "x";
  const core::MuT* mut = w.registry.find("SetEnvironmentVariable");
  const sim::Addr name = proc->mem().alloc_cstr("DOOMED");
  std::vector<core::RawArg> args = {name, 0};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  (void)mut->impl(ctx);
  EXPECT_EQ(proc->env().count("DOOMED"), 0u);
}

TEST(EnvCalls, VersionNumbersFollowTheFamily) {
  const auto& w = shared_world();
  auto version_of = [&](OsVariant v) {
    sim::Machine m(v);
    auto proc = m.create_process();
    const core::MuT* mut = w.registry.find("GetVersion");
    std::vector<core::RawArg> args;
    core::CallContext ctx(m, *proc, *mut, args);
    return mut->impl(ctx).ret;
  };
  // 9x family sets the high bit; NT does not.
  EXPECT_NE(version_of(OsVariant::kWin95) & 0x8000'0000ull, 0u);
  EXPECT_NE(version_of(OsVariant::kWin98) & 0x8000'0000ull, 0u);
  EXPECT_EQ(version_of(OsVariant::kWinNT4) & 0x8000'0000ull, 0u);
  EXPECT_EQ(version_of(OsVariant::kWin2000) & 0xffull, 5u);  // major 5
}

TEST(EnvCalls, ComputerNameRoundTrip) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("GetComputerName");
  const sim::Addr buf = proc->mem().alloc(64);
  const sim::Addr size = proc->mem().alloc(8);
  EXPECT_FALSE(proc->mem().write_u32(size, 64, sim::Access::kKernel));
  std::vector<core::RawArg> args = {buf, size};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  const auto out = mut->impl(ctx);
  EXPECT_EQ(out.ret, 1u);
  EXPECT_EQ(rdstr(proc->mem(), buf, 32, sim::Access::kKernel),
            "BALLISTA-PC");
  // Too-small buffer reports the needed size.
  EXPECT_FALSE(proc->mem().write_u32(size, 4, sim::Access::kKernel));
  core::CallContext ctx2(m, *proc, *mut, args);
  const auto out2 = mut->impl(ctx2);
  EXPECT_EQ(out2.status, core::CallStatus::kErrorReported);
  EXPECT_EQ(rd32(proc->mem(), size, sim::Access::kKernel), 12u);
}

TEST(EnvCalls, SetComputerNameValidates) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  EXPECT_EQ(run_named_case(w, kNT, "SetComputerName", {"str_hello"}, &m)
                .outcome,
            Outcome::kPass);
  // 4096-char name: invalid.
  const auto r =
      run_named_case(w, kNT, "SetComputerName", {"str_long"}, &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(FileCalls, CopyThenDeleteFlow) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  // CopyFile(fixture -> missing) succeeds.
  const auto r = run_named_case(w, kNT, "CopyFile",
                                {"path_fixture", "path_missing", "int_0"},
                                &m);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.success_no_error);
  // Deleting the read-only fixture is denied.
  const auto rd = run_named_case(w, kNT, "DeleteFile", {"path_readonly"}, &m);
  EXPECT_FALSE(rd.success_no_error);
}

TEST(FileCalls, MoveToExistingTargetFails) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  const auto r = run_named_case(w, kNT, "MoveFile",
                                {"path_fixture", "path_readonly"}, &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(FileCalls, AttributesReflectNodeState) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("GetFileAttributes");
  const sim::Addr p = proc->mem().alloc_cstr("/tmp/readonly.dat");
  std::vector<core::RawArg> args = {p};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  EXPECT_EQ(mut->impl(ctx).ret & 0x01u, 0x01u);  // FILE_ATTRIBUTE_READONLY
  const sim::Addr d = proc->mem().alloc_cstr("/tmp");
  std::vector<core::RawArg> args2 = {d};
  core::CallContext ctx2(m, *proc, *mut, args2);
  EXPECT_EQ(mut->impl(ctx2).ret & 0x10u, 0x10u);  // FILE_ATTRIBUTE_DIRECTORY
}

TEST(FileCalls, GetTempFileNameCreatesWhenUniqueZero) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("GetTempFileName");
  const sim::Addr dir = proc->mem().alloc_cstr("/tmp");
  const sim::Addr prefix = proc->mem().alloc_cstr("bal");
  const sim::Addr out = proc->mem().alloc(256);
  std::vector<core::RawArg> args = {dir, prefix, 0, out};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  const auto r = mut->impl(ctx);
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  const std::string name =
      rdstr(proc->mem(), out, 128, sim::Access::kKernel);
  auto node = m.fs().resolve(m.fs().parse(name, proc->cwd()));
  EXPECT_NE(node, nullptr) << name;
}

TEST(FileCalls, SetFilePointerMethodsAndUnderflow) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  // SEEK from end (method 2 in pool flags_2).
  EXPECT_EQ(run_named_case(w, kNT, "SetFilePointer",
                           {"h_file_valid", "int_64", "buf_null", "flags_2"},
                           &m)
                .outcome,
            Outcome::kPass);
  // Negative target underflows.
  const auto r = run_named_case(w, kNT, "SetFilePointer",
                                {"h_file_valid", "int_neg1", "buf_null",
                                 "flags_0"},
                                &m);
  EXPECT_FALSE(r.success_no_error);
}

TEST(FileCalls, FileTimeConversionsAreConsistent) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  // FILETIME -> SYSTEMTIME -> FILETIME round trip within a minute.
  const core::MuT* f2s = w.registry.find("FileTimeToSystemTime");
  const core::MuT* s2f = w.registry.find("SystemTimeToFileTime");
  const sim::Addr ft = proc->mem().alloc(8);
  EXPECT_FALSE(proc->mem().write_u64(ft, 0x01BEC233F0E44000ull,
                                     sim::Access::kKernel));
  const sim::Addr st = proc->mem().alloc(16);
  const sim::Addr ft2 = proc->mem().alloc(8);
  {
    std::vector<core::RawArg> args = {ft, st};
    core::CallContext ctx(m, *proc, *f2s, args);
    (void)m.kernel_enter();
    EXPECT_EQ(f2s->impl(ctx).ret, 1u);
  }
  {
    std::vector<core::RawArg> args = {st, ft2};
    core::CallContext ctx(m, *proc, *s2f, args);
    EXPECT_EQ(s2f->impl(ctx).ret, 1u);
  }
  const std::uint64_t a = rd64(proc->mem(), ft, sim::Access::kKernel);
  const std::uint64_t b = rd64(proc->mem(), ft2, sim::Access::kKernel);
  // Exact round trip (sub-second truncation only).
  EXPECT_LT(a > b ? a - b : b - a, 10'000'000ull);
}

TEST(FileCalls, FindFirstWildcardEnumeratesScratchDir) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("FindFirstFile");
  const sim::Addr pat = proc->mem().alloc_cstr("/tmp/*");
  const sim::Addr data = proc->mem().alloc(512);
  std::vector<core::RawArg> args = {pat, data};
  core::CallContext ctx(m, *proc, *mut, args);
  (void)m.kernel_enter();
  const auto r = mut->impl(ctx);
  EXPECT_EQ(r.status, core::CallStatus::kSuccess);
  // First match (alphabetical): fixture.dat, written into the find data.
  EXPECT_EQ(rdstr(proc->mem(), data + 48, 64, sim::Access::kKernel),
            "fixture.dat");
}

TEST(IoCalls, GetStdHandleKnowsTheThreeStreams) {
  const auto& w = shared_world();
  sim::Machine m(kNT);
  auto proc = m.create_process();
  const core::MuT* mut = w.registry.find("GetStdHandle");
  for (std::uint32_t which : {0xfffffff6u, 0xfffffff5u, 0xfffffff4u}) {
    std::vector<core::RawArg> args = {which};
    core::CallContext ctx(m, *proc, *mut, args);
    (void)m.kernel_enter();
    const auto r = mut->impl(ctx);
    EXPECT_EQ(r.status, core::CallStatus::kSuccess);
    EXPECT_NE(proc->handles().get(r.ret), nullptr);
  }
}

}  // namespace
}  // namespace ballista::win32
