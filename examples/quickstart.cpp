// Quickstart: test your own function with the Ballista harness.
//
// Registers a deliberately fragile little API ("blit") against the generic
// data-type pools, runs an exhaustive campaign on two OS personalities, and
// prints the CRASH-scale breakdown.  This is the minimal end-to-end use of
// the public API: TypeLibrary -> Registry -> Campaign -> report.
#include <iostream>

#include "core/ballista.h"

using namespace ballista;

int main() {
  // 1. Data types: the generic pools are enough for a buffer+length API.
  core::TypeLibrary types;
  core::register_base_types(types);

  // 2. The module under test.  "blit" copies n bytes without validating
  //    anything — a typical robustness bug farm.
  core::Registry registry;
  core::MuT blit;
  blit.name = "blit";
  blit.api = core::ApiKind::kCLib;
  blit.group = core::FuncGroup::kCMemory;
  blit.params = {&types.get("buf"), &types.get("cbuf"), &types.get("size")};
  blit.variant_mask = core::kMaskEverything;
  blit.impl = [](core::CallContext& ctx) -> core::CallOutcome {
    auto& mem = ctx.proc().mem();
    const sim::Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
    const std::uint64_t n = ctx.arg(2);
    // A bad pointer faults in the task: return the fault, the executor
    // classifies it as an Abort.
    for (std::uint64_t i = 0; i < n && i < (1 << 20); ++i) {
      std::uint8_t b = 0;
      if (auto f = mem.read_u8(src + i, &b, sim::Access::kUser))
        return ctx.raise(*f);
      if (auto f = mem.write_u8(dst + i, b, sim::Access::kUser))
        return ctx.raise(*f);
    }
    return core::ok(dst);
  };
  registry.add(std::move(blit));

  // 3. Run the campaign on two personalities and compare.
  for (sim::OsVariant v : {sim::OsVariant::kLinux, sim::OsVariant::kWinNT4}) {
    const core::CampaignResult result = core::Campaign::run(v, registry);
    const core::MutStats& s = result.stats.front();
    std::cout << sim::variant_name(v) << ": " << s.executed << " test cases, "
              << s.aborts << " Aborts (" << core::percent(s.abort_rate())
              << "), " << s.restarts << " Restarts, "
              << s.silent_candidates << " Silent candidates\n";
  }

  // 4. Inspect one specific failure the way the paper's single-test
  //    reproduction programs did.
  sim::Machine machine(sim::OsVariant::kLinux);
  core::Executor executor(machine);
  const core::MuT* mut = registry.find("blit");
  core::TupleGenerator gen(*mut);
  for (std::uint64_t i = 0; i < gen.count(); ++i) {
    const auto tuple = gen.tuple(i);
    const core::CaseResult r = executor.run_case(*mut, tuple);
    if (r.outcome == core::Outcome::kAbort) {
      std::cout << "\nfirst Abort: blit(" << tuple[0]->name << ", "
                << tuple[1]->name << ", " << tuple[2]->name << ") -> "
                << core::describe_stop(r) << "\n";
      break;
    }
  }
  return 0;
}
