// Listing 1 from the paper as a runnable demonstration:
//
//     GetThreadContext(GetCurrentThread(), NULL);
//
// "a representative test case that has crashed Windows 98 every time it has
// been run" — and an error return on Windows NT/2000.  This example runs the
// exact call on every simulated Windows variant and then shows the deferred
// (inter-test interference) flavour of crash with DuplicateHandle.
#include <iostream>

#include "harness/world.h"

using namespace ballista;

namespace {

void run_listing1(const harness::World& world, sim::OsVariant v) {
  const core::MuT* mut = world.registry.find("GetThreadContext");
  if (!mut->supported_on(v)) {
    std::cout << "  " << sim::variant_name(v) << ": not in this API\n";
    return;
  }
  sim::Machine machine(v);
  core::Executor executor(machine);
  std::vector<const core::TestValue*> tuple;
  for (const core::DataType* t : mut->params) {
    for (const core::TestValue* val : t->values()) {
      if (val->name == "h_thread_pseudo" || val->name == "buf_null") {
        tuple.push_back(val);
        break;
      }
    }
  }
  const core::CaseResult r = executor.run_case(*mut, tuple);
  std::cout << "  " << sim::variant_name(v) << ": "
            << core::outcome_name(r.outcome);
  if (const std::string stop = core::describe_stop(r); !stop.empty())
    std::cout << "  (" << stop << ")";
  std::cout << "\n";
}

}  // namespace

int main() {
  auto world = harness::build_world();

  std::cout << "Listing 1: GetThreadContext(GetCurrentThread(), NULL)\n";
  for (sim::OsVariant v : sim::kAllVariants) run_listing1(*world, v);

  std::cout << "\nInter-test interference (the paper's '*' crashes):\n"
            << "DuplicateHandle on Windows 98 corrupts the shared arena and\n"
            << "the machine dies a few system calls later — so a single-test\n"
            << "program cannot reproduce it:\n\n";

  sim::Machine w98(sim::OsVariant::kWin98);
  core::Executor executor(w98);
  const core::MuT* dup = world->registry.find("DuplicateHandle");
  std::vector<const core::TestValue*> tuple;
  const char* wanted[] = {"h_process_pseudo", "h_file_valid",
                          "h_process_pseudo", "buf_dangling",
                          "flags_0",          "int_0",
                          "flags_0"};
  for (std::size_t i = 0; i < dup->params.size(); ++i) {
    for (const core::TestValue* val : dup->params[i]->values()) {
      if (val->name == wanted[i]) {
        tuple.push_back(val);
        break;
      }
    }
  }
  const core::CaseResult first = executor.run_case(*dup, tuple);
  std::cout << "  the call itself: " << core::outcome_name(first.outcome)
            << " (reports success!)\n"
            << "  arena corruption events: " << w98.arena().corruption()
            << "\n";
  const core::MuT* tick = world->registry.find("GetTickCount");
  for (int i = 1; !w98.crashed(); ++i) {
    const core::CaseResult r = executor.run_case(*tick, {});
    if (r.outcome == core::Outcome::kCatastrophic) {
      std::cout << "  " << i
                << " innocent GetTickCount() calls later: "
                << core::describe_stop(r)
                << "\n";
      break;
    }
  }
  w98.reboot();
  std::cout << "  after reboot, the same DuplicateHandle case alone: ";
  const core::CaseResult again = executor.run_case(*dup, tuple);
  std::cout << core::outcome_name(again.outcome)
            << (w98.crashed() ? "" : " — machine survives (hence the '*')")
            << "\n";
  return 0;
}
