// Tests for single-case execution and CRASH classification.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;

/// Builds a one-MuT world whose implementation is supplied by the test.
struct MiniMut {
  explicit MiniMut(ApiImpl impl, std::vector<const DataType*> params = {}) {
    mut.name = "mini";
    mut.api = ApiKind::kCLib;
    mut.group = FuncGroup::kCString;
    mut.params = std::move(params);
    mut.impl = std::move(impl);
    mut.variant_mask = kMaskEverything;
  }
  MuT mut;
};

const TestValue kBenign{"benign", false, [](ValueCtx&) { return RawArg{1}; }};
const TestValue kExceptional{"exceptional", true,
                             [](ValueCtx&) { return RawArg{0}; }};

TEST(Executor, SuccessWithNoErrorIsPassAndSilentCandidate) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return ok(0); },
               {});
  MiniMut with_arg([](CallContext&) { return ok(0); }, {});
  // benign tuple: pass, not a silent candidate
  const CaseResult r1 = ex.run_case(mini.mut, {});
  EXPECT_EQ(r1.outcome, Outcome::kPass);
  EXPECT_TRUE(r1.success_no_error);
  EXPECT_FALSE(r1.any_exceptional);
}

TEST(Executor, ExceptionalTupleIsFlagged) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  DataType t("t");
  MiniMut mini([](CallContext&) { return ok(0); }, {&t});
  const TestValue* tuple[1] = {&kExceptional};
  const CaseResult r = ex.run_case(mini.mut, tuple);
  EXPECT_TRUE(r.any_exceptional);
  EXPECT_TRUE(r.success_no_error);
}

TEST(Executor, ErrorReportedIsRobustPass) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext& c) { return c.posix_fail(EINVAL); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.success_no_error);
}

TEST(Executor, SimFaultClassifiesAsAbort) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        std::uint8_t b = 0;
        if (auto f = c.proc().mem().read_u8(0, &b, sim::Access::kUser))
          return c.raise(*f);
        return ok(0);
      },
      {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_EQ(r.fault.type, sim::FaultType::kAccessViolation);
  // The rendered fault names its address and direction.
  EXPECT_EQ(describe_stop(r), "ACCESS_VIOLATION reading 0x0");
  EXPECT_FALSE(m.crashed());
}

/// A MuT whose user-mode store through a wild pointer faults.
CallOutcome wild_store(CallContext& c) {
  if (auto f = c.proc().mem().write_u8(0xDEAD0000, 7, sim::Access::kUser))
    return c.raise(*f);
  return ok(0);
}

TEST(Executor, FaultedCallIsAbortAndNeverReturnsToItsCaller) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut mini(wild_store);
  const CaseResult r = ex.run_case(mini.mut, {}, 7);
  EXPECT_EQ(r.outcome, Outcome::kAbort);
  EXPECT_EQ(r.fault.type, sim::FaultType::kAccessViolation);
  EXPECT_EQ(describe_stop(r), "ACCESS_VIOLATION writing 0xdead0000");
  std::vector<trace::EventKind> kinds;
  for (const trace::TraceEvent& ev : m.trace().tail())
    if (ev.case_index == 7) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<trace::EventKind>{
                       trace::EventKind::kSyscallEnter,
                       trace::EventKind::kFault,
                       trace::EventKind::kCaseClassified}));
  EXPECT_EQ(r.events[trace::EventKind::kSyscallExit], 0u);
  EXPECT_EQ(r.events[trace::EventKind::kFault], 1u);
}

/// Runs `impl` as the MuT "mini" and returns the HarnessError it raised.
std::string harness_error_of(ApiImpl impl,
                             std::vector<const DataType*> params = {},
                             std::span<const TestValue* const> tuple = {}) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut mini(std::move(impl), std::move(params));
  try {
    (void)ex.run_case(mini.mut, tuple);
  } catch (const HarnessError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no harness error";
  return "";
}

TEST(Executor, SwallowedFaultIsAHarnessError) {
  EXPECT_EQ(harness_error_of([](CallContext& c) -> CallOutcome {
              (void)wild_store(c);
              return ok(0);
            }),
            "harness error in mini: a fault was recorded but not returned");
}

TEST(Executor, DoubledFaultIsAHarnessError) {
  EXPECT_EQ(harness_error_of([](CallContext& c) -> CallOutcome {
              (void)wild_store(c);
              return wild_store(c);
            }),
            "harness error in mini: a stopped outcome has two recorded causes");
}

TEST(Executor, FaultInValueMaterializationIsAHarnessError) {
  DataType t("wild_type");
  const TestValue wild{"wild", false, [](ValueCtx& c) {
                         c.proc.mem().poke_u8(0xDEAD0000, 1);
                         return RawArg{0};
                       }};
  const TestValue* tuple[1] = {&wild};
  EXPECT_EQ(harness_error_of([](CallContext&) { return ok(0); }, {&t}, tuple),
            "harness error in mini: fault in harness code (harness store): "
            "ACCESS_VIOLATION writing 0xdead0000");
}

TEST(Executor, HangClassifiesAsRestart) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut mini([](CallContext& c) { return c.hang(c.mut().name); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kRestart);
  EXPECT_EQ(r.hang_site.data(), mini.mut.name.data());  // a view, not a copy
  EXPECT_EQ(describe_stop(r), "task hang in mini");
  // The task never returns to its caller, so no kSyscallExit.
  EXPECT_EQ(r.events[trace::EventKind::kSyscallExit], 0u);
  EXPECT_FALSE(m.crashed());
}

// The hang half of the harness-error checks (the hang_paths aggregate runs
// them with tests/hang_paths_test.cc).
TEST(HangPaths, SwallowedHangIsAHarnessError) {
  EXPECT_EQ(harness_error_of([](CallContext& c) -> CallOutcome {
              (void)c.hang("forever");
              return ok(0);
            }),
            "harness error in mini: a hang was recorded but not returned");
}

TEST(HangPaths, StopWithNoCauseIsAHarnessError) {
  EXPECT_EQ(harness_error_of([](CallContext&) { return stopped(); }),
            "harness error in mini: a stopped outcome carries no recorded "
            "cause");
}

TEST(HangPaths, StopWithTwoCausesIsAHarnessError) {
  constexpr const char* kTwo =
      "harness error in mini: a stopped outcome has two recorded causes";
  EXPECT_EQ(harness_error_of([](CallContext& c) {
              (void)c.hang("forever");
              return c.hang("forever");
            }),
            kTwo);
  EXPECT_EQ(harness_error_of([](CallContext& c) {
              (void)wild_store(c);
              return c.hang("forever");
            }),
            kTwo);
  EXPECT_EQ(harness_error_of([](CallContext& c) {
              (void)c.machine().panic(sim::PanicKind::kInduced);
              return c.hang("forever");
            }),
            kTwo);
}

TEST(Executor, PanicClassifiesAsCatastrophicAndCrashesMachine) {
  sim::Machine m(OsVariant::kWin98);
  Executor ex(m);
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        if (sim::down(c.machine().panic(sim::PanicKind::kInduced)))
          return core::stopped();
        return ok(0);
      },
      {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kCatastrophic);
  EXPECT_EQ(r.panic, sim::PanicKind::kInduced);
  EXPECT_EQ(describe_stop(r), sim::describe_panic(sim::PanicKind::kInduced));
  EXPECT_TRUE(m.crashed());
}

TEST(Executor, WrongErrorIsHinderingCandidate) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return wrong_error(static_cast<std::uint64_t>(-1)); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.wrong_error);
}

TEST(Executor, SilentSuccessCountsAsSuccessNoError) {
  sim::Machine m(OsVariant::kWin95);
  Executor ex(m);
  MiniMut mini([](CallContext&) { return silent_success(1); }, {});
  const CaseResult r = ex.run_case(mini.mut, {});
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_TRUE(r.success_no_error);
}

TEST(Executor, FilesystemFixtureIsResetBetweenCases) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  MiniMut dirty(
      [](CallContext& c) -> CallOutcome {
        auto& fs = c.machine().fs();
        (void)fs.remove_file(fs.parse("/tmp/fixture.dat", c.proc().cwd()));
        return ok(0);
      },
      {});
  MiniMut check(
      [](CallContext& c) -> CallOutcome {
        auto& fs = c.machine().fs();
        const bool there =
            fs.resolve(fs.parse("/tmp/fixture.dat", c.proc().cwd())) != nullptr;
        return there ? ok(1) : ok(0);
      },
      {});
  (void)ex.run_case(dirty.mut, {});
  const CaseResult r = ex.run_case(check.mut, {});
  EXPECT_TRUE(r.success_no_error);
  // The fixture file was restored for the second case; verify via a third
  // direct look.
  EXPECT_NE(m.fs().resolve(m.fs().parse("/tmp/fixture.dat",
                                        sim::FileSystem::root_path())),
            nullptr);
}

TEST(Executor, ErrorStateSentinelsAreClearedPerCase) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  MiniMut set_err([](CallContext& c) { return c.win_fail(87); }, {});
  MiniMut read_err(
      [](CallContext& c) -> CallOutcome {
        // A fresh task must start with no stale error code.
        return c.proc().last_error() == 0 ? ok(0) : wrong_error(0);
      },
      {});
  (void)ex.run_case(set_err.mut, {});
  const CaseResult r = ex.run_case(read_err.mut, {});
  EXPECT_FALSE(r.wrong_error);
}

TEST(Executor, ValueFactoriesRunInsideTheFreshTask) {
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  DataType t("alloc_type");
  const TestValue allocating{"allocating", false, [](ValueCtx& c) {
                               return c.proc.mem().alloc_cstr("made-in-task");
                             }};
  MiniMut mini(
      [](CallContext& c) -> CallOutcome {
        std::string s;
        if (auto f = c.proc().mem().read_cstr(c.arg_addr(0), &s, 64,
                                              sim::Access::kKernel))
          return c.raise(*f);
        return s == "made-in-task" ? ok(1) : wrong_error(0);
      },
      {&t});
  const TestValue* tuple[1] = {&allocating};
  const CaseResult r = ex.run_case(mini.mut, tuple);
  EXPECT_EQ(r.outcome, Outcome::kPass);
  EXPECT_FALSE(r.wrong_error);
}

}  // namespace
}  // namespace ballista::core
