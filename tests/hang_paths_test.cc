// Task hangs as values: every hang site records its site on the CallContext
// and returns the stopped outcome, and the executor classifies it Restart
// with the site's text.  The harness-error checks of the HangPaths suite (a
// hang the call does not return, a stop with no cause or with two) live in
// executor_test.cc beside the fault ones.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/generator.h"
#include "core/groups.h"
#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;

/// Every Restart case of a cap-800, default-seed sweep over every MuT of
/// every group on every variant, run through Executor::run_case in registry
/// order (rebooting after a Catastrophic case), as runs of equal lines:
/// variant, group:MuT, the rendered stop and how many consecutive cases
/// gave it.  The golden was made by the same sweep over the thrown hangs'
/// messages, so it pins each site's text as well as where it is reached.
std::string restart_runs() {
  std::string out, prev;
  std::uint64_t n = 0;
  const auto flush = [&] {
    if (n != 0) out += prev + '\t' + std::to_string(n) + '\n';
    n = 0;
  };
  for (OsVariant v : sim::kAllVariants) {
    sim::Machine m(v);
    Executor ex(m);
    for (const MuT& mut : testing::shared_world().registry.muts()) {
      if (!mut.supported_on(v)) continue;
      const TupleGenerator gen(mut, 800);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        const CaseResult r =
            ex.run_case(mut, gen.tuple(i), static_cast<std::int64_t>(i));
        if (m.crashed()) m.restore(sim::RestoreLevel::kReboot);
        if (r.outcome != Outcome::kRestart) continue;
        std::string key{sim::variant_name(v)};
        key += '\t';
        key += group_descriptor(mut.group).token;
        key += ':' + mut.name + '\t' + describe_stop(r);
        if (key != prev) flush();
        prev = std::move(key);
        ++n;
      }
    }
  }
  flush();
  return out;
}

TEST(HangPaths, EveryHangSiteClassifiesAsRestartWithItsText) {
  const std::string golden =
      std::string(BALLISTA_GOLDEN_DIR) + "/hang_sites.txt";
  std::ifstream in(golden);
  ASSERT_TRUE(in.good()) << "cannot read " << golden;
  std::ostringstream pinned;
  pinned << in.rdbuf();
  const std::string actual = restart_runs();
  EXPECT_EQ(actual, pinned.str());
  // The sweep reaches every site but waitpid's (tested below).
  for (const char* site :
       {"task hang in read from interactive stdin", "task hang in fgetc(stdin)",
        "task hang in read(empty pipe)", "task hang in Sleep(INFINITE)",
        "process:WaitForSingleObject\ttask hang in WaitForSingleObject",
        "process:WaitForMultipleObjects\ttask hang in WaitForMultipleObjects",
        "process:MsgWaitForMultipleObjectsEx\t",
        "sync:WaitForSingleObject\ttask hang in WaitForSingleObject",
        "sync:WaitForMultipleObjects\ttask hang in WaitForMultipleObjects",
        "sync:SignalObjectAndWait\ttask hang in SignalObjectAndWait",
        "sockets:accept\ttask hang in accept", "sockets:recv\ttask hang in recv",
        "sockets:recvfrom\ttask hang in recvfrom"})
    EXPECT_NE(actual.find(site), std::string::npos) << site;
}

TEST(HangPaths, WaitpidOnARunningChildIsRestart) {
  // No pool holds a running child, so the sweep never reaches this site.
  sim::Machine m(OsVariant::kLinux);
  Executor ex(m);
  const MuT* waitpid = testing::shared_world().registry.find(
      "waitpid", std::nullopt, OsVariant::kLinux);
  ASSERT_NE(waitpid, nullptr);
  ASSERT_EQ(waitpid->params.size(), 3u);
  const TestValue any_child{"any_child", false, [](ValueCtx& c) {
                              (void)c.insert_handle(
                                  std::make_shared<sim::ProcessObject>(7));
                              return RawArg{0xffffffff};  // pid -1
                            }};
  const TestValue zero{"zero", false, [](ValueCtx&) { return RawArg{0}; }};
  const TestValue* tuple[3] = {&any_child, &zero, &zero};
  const CaseResult r = ex.run_case(*waitpid, tuple);
  EXPECT_EQ(r.outcome, Outcome::kRestart);
  EXPECT_EQ(describe_stop(r), "task hang in waitpid(running child)");
}

}  // namespace
}  // namespace ballista::core
