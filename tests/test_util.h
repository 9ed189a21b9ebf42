// Shared helpers for the test suite: one-off machines, call contexts and
// single-case execution against the full world catalog.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ballista.h"
#include "harness/world.h"

namespace ballista::testing {

/// A machine plus one task plus an anonymous MuT descriptor, for exercising
/// CallContext-level behaviour directly.
struct CallFixture {
  explicit CallFixture(sim::OsVariant v,
                       core::CrashStyle hazard = core::CrashStyle::kNone)
      : machine(v) {
    proc = machine.create_process();
    mut.name = "test_fn";
    mut.api = core::ApiKind::kCLib;
    mut.variant_mask = core::kMaskEverything;
    if (hazard != core::CrashStyle::kNone) mut.hazards[v] = hazard;
  }

  core::CallContext ctx(std::vector<core::RawArg> args_in = {}) {
    args = std::move(args_in);
    return core::CallContext(machine, *proc, mut, args);
  }

  sim::Machine machine;
  std::unique_ptr<sim::SimProcess> proc;
  core::MuT mut;
  std::vector<core::RawArg> args;
};

/// Looks up a named test value in a data type's pool (fails the test if
/// absent).
inline const core::TestValue* find_value(const core::DataType& t,
                                         std::string_view name) {
  for (const core::TestValue* v : t.values())
    if (v->name == name) return v;
  ADD_FAILURE() << "no test value named " << name << " in " << t.name();
  return nullptr;
}

/// Runs one call of a registered MuT on a fresh machine, with the tuple
/// selected by value names (one per parameter).
inline core::CaseResult run_named_case(
    const harness::World& world, sim::OsVariant /*v*/,
    std::string_view mut_name, const std::vector<std::string>& value_names,
    sim::Machine* machine) {
  const core::MuT* mut = world.registry.find(mut_name);
  EXPECT_NE(mut, nullptr) << mut_name;
  EXPECT_EQ(mut->params.size(), value_names.size()) << mut_name;
  std::vector<const core::TestValue*> tuple;
  for (std::size_t i = 0; i < value_names.size(); ++i)
    tuple.push_back(find_value(*mut->params[i], value_names[i]));
  core::Executor executor(*machine);
  return executor.run_case(*mut, tuple);
}

/// Field-by-field comparison of two merged campaign results: the engine's
/// determinism contract (any --jobs, resumed logs, the campaign service)
/// compares with this one function.
inline void expect_same_result(const core::CampaignResult& a,
                               const core::CampaignResult& b,
                               const std::string& label) {
  EXPECT_EQ(a.variant, b.variant) << label;
  EXPECT_EQ(a.reboots, b.reboots) << label;
  EXPECT_EQ(a.total_cases, b.total_cases) << label;
  EXPECT_EQ(a.event_counters, b.event_counters) << label;
  ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const core::MutStats& x = a.stats[i];
    const core::MutStats& y = b.stats[i];
    const std::string at = label + " / " + std::string(x.mut->name);
    EXPECT_EQ(x.mut, y.mut) << at;
    EXPECT_EQ(x.planned, y.planned) << at;
    EXPECT_EQ(x.executed, y.executed) << at;
    EXPECT_EQ(x.passes, y.passes) << at;
    EXPECT_EQ(x.aborts, y.aborts) << at;
    EXPECT_EQ(x.restarts, y.restarts) << at;
    EXPECT_EQ(x.silent_candidates, y.silent_candidates) << at;
    EXPECT_EQ(x.hindering, y.hindering) << at;
    EXPECT_EQ(x.catastrophic, y.catastrophic) << at;
    EXPECT_EQ(x.crash_case, y.crash_case) << at;
    EXPECT_EQ(x.crash_detail, y.crash_detail) << at;
    EXPECT_EQ(x.crash_tuple, y.crash_tuple) << at;
    EXPECT_EQ(x.crash_reproducible_single, y.crash_reproducible_single) << at;
    EXPECT_EQ(x.case_codes, y.case_codes) << at;
    EXPECT_EQ(x.event_counts, y.event_counts) << at;
    // Crash-trace tails are captured on the machine that died; schedules
    // with different tick streams must still agree on the causal chain
    // (event kinds + case stamps), though raw tick values may differ.
    ASSERT_EQ(x.crash_trace.size(), y.crash_trace.size()) << at;
    for (std::size_t k = 0; k < x.crash_trace.size(); ++k) {
      EXPECT_EQ(x.crash_trace[k].kind, y.crash_trace[k].kind) << at;
      EXPECT_EQ(x.crash_trace[k].case_index, y.crash_trace[k].case_index)
          << at;
    }
  }
}

/// Shared world built once per test binary (registration is idempotent and
/// read-only afterwards).
inline const harness::World& shared_world() {
  static const std::unique_ptr<harness::World> world = harness::build_world();
  return *world;
}

}  // namespace ballista::testing
