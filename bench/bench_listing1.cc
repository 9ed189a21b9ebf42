// Regenerates Listing 1: the one-line program
//     GetThreadContext(GetCurrentThread(), NULL);
// which crashed Windows 95, Windows 98 and Windows CE every time it ran,
// while Windows NT and Windows 2000 survive it.
#include <iostream>

#include "harness/world.h"

int main() {
  using namespace ballista;
  auto world = harness::build_world();
  const core::MuT* mut = world->registry.find("GetThreadContext");

  std::cout << "Listing 1: GetThreadContext(GetCurrentThread(), NULL)\n\n";
  for (sim::OsVariant v : sim::kAllVariants) {
    if (!mut->supported_on(v)) {
      std::cout << "  " << sim::variant_name(v) << ": (not in API)\n";
      continue;
    }
    sim::Machine machine(v);
    core::Executor executor(machine);

    // Build the exact tuple from the pools: pseudo current-thread handle and
    // the NULL context pointer.
    std::vector<const core::TestValue*> tuple;
    for (const core::DataType* t : mut->params) {
      const core::TestValue* pick = nullptr;
      for (const core::TestValue* val : t->values()) {
        if (val->name == "h_thread_pseudo" || val->name == "buf_null") {
          pick = val;
          break;
        }
      }
      tuple.push_back(pick);
    }
    const core::CaseResult r = executor.run_case(*mut, tuple);
    const std::string stop = core::describe_stop(r);
    std::cout << "  " << sim::variant_name(v) << ": "
              << core::outcome_name(r.outcome)
              << (stop.empty() ? "" : "  [" + stop + "]") << "\n";
    if (machine.crashed()) machine.reboot();
  }
  return 0;
}
