// Kernel panics as values: every announcing primitive returns the cut an
// armed fault plan fires on it, the executor classifies a returned panic as
// Catastrophic and treats a swallowed one (or any announcement after it) as
// a harness bug, and across whole crash campaigns nothing a module under
// test runs emits an event after its machine died.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/crashplan.h"
#include "core/generator.h"
#include "sim/kobject.h"
#include "tests/fault_util.h"
#include "tests/test_util.h"

namespace ballista::core {
namespace {

using sim::OsVariant;
using sim::Verdict;
using trace::EventKind;

std::uint64_t event_count(const sim::Machine& m, EventKind k) {
  return m.trace().counters().n[static_cast<std::size_t>(k)];
}

/// One announcing primitive: `setup` runs before the window opens (so it
/// announces nothing), `step` runs under a cut armed at point 1 and returns
/// the primitive's verdict, and `unapplied` checks its effect never landed.
struct CutRow {
  const char* name;
  std::function<void(sim::Machine&, sim::SimProcess&)> setup;
  std::function<Verdict(sim::Machine&, sim::SimProcess&)> step;
  std::function<bool(sim::Machine&, sim::SimProcess&)> unapplied;
};

constexpr sim::Addr kPage = 0x5000'0000;

sim::FsNode* fixture_node(sim::Machine& m) {
  return m.fs()
      .resolve(m.fs().parse("/tmp/fixture.dat", sim::FileSystem::root_path()))
      .get();
}

/// The first object of `kind` the task holds.
std::shared_ptr<sim::KernelObject> held(sim::SimProcess& p, sim::ObjectKind k) {
  for (const auto& [h, obj] : p.handles().entries())
    if (obj->kind() == k) return obj;
  return nullptr;
}

std::vector<CutRow> cut_rows() {
  const auto map_page = [](sim::Machine&, sim::SimProcess& p) {
    (void)p.mem().map(kPage, sim::kPageSize, sim::kPermRW);
  };
  const auto unset = [](sim::Machine&, sim::SimProcess&) {};
  return {
      {"AddressSpace::map", unset,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.mem().map(kPage, sim::kPageSize, sim::kPermRW);
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return !p.mem().is_mapped(kPage);
       }},
      {"AddressSpace::unmap", map_page,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.mem().unmap(kPage, sim::kPageSize);
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return p.mem().is_mapped(kPage);
       }},
      {"AddressSpace::protect", map_page,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.mem().protect(kPage, sim::kPageSize, sim::kPermRead);
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return p.mem().perm_of(kPage) == sim::kPermRW;
       }},
      {"AddressSpace::write_u8", map_page,
       [](sim::Machine& m, sim::SimProcess& p) {
         return p.mem().write_u8(kPage, 7) && m.crashed() ? Verdict::kDown
                                                           : Verdict::kUp;
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return testing::rd8(p.mem(), kPage) == 0;
       }},
      {"AddressSpace::write_bytes", map_page,
       [](sim::Machine& m, sim::SimProcess& p) {
         const std::uint8_t bytes[3] = {1, 2, 3};
         return p.mem().write_bytes(kPage + 1, bytes) && m.crashed()
                    ? Verdict::kDown
                    : Verdict::kUp;
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return testing::rd8(p.mem(), kPage + 1) == 0 &&
                testing::rd8(p.mem(), kPage + 3) == 0;
       }},
      {"FileSystem::announce", unset,
       [](sim::Machine& m, sim::SimProcess&) {
         return m.fs()
             .create_file(m.fs().parse("/tmp/cut.dat",
                                       sim::FileSystem::root_path()),
                          false, false)
             .verdict;
       },
       [](sim::Machine& m, sim::SimProcess&) {
         return m.fs().resolve(m.fs().parse(
                    "/tmp/cut.dat", sim::FileSystem::root_path())) == nullptr;
       }},
      {"KernelObject::set_signaled",
       [](sim::Machine&, sim::SimProcess& p) {
         (void)p.handles().insert(
             std::make_shared<sim::EventObject>(true, false, "cut"));
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return held(p, sim::ObjectKind::kEvent)->set_signaled(true);
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return !held(p, sim::ObjectKind::kEvent)->signaled();
       }},
      {"FileObject::write_at",
       [](sim::Machine& m, sim::SimProcess& p) {
         auto node = m.fs().resolve(
             m.fs().parse("/tmp/fixture.dat", sim::FileSystem::root_path()));
         (void)p.handles().insert(std::make_shared<sim::FileObject>(
             node, sim::FileObject::kAccessWrite, false));
       },
       [](sim::Machine&, sim::SimProcess& p) {
         const std::uint8_t bytes[3] = {'c', 'u', 't'};
         auto* f = static_cast<sim::FileObject*>(
             held(p, sim::ObjectKind::kFile).get());
         return f->write_at(bytes).verdict;
       },
       [](sim::Machine& m, sim::SimProcess& p) {
         auto* f = static_cast<sim::FileObject*>(
             held(p, sim::ObjectKind::kFile).get());
         return f->position() == 0 && fixture_node(m)->data()[0] == 'b';
       }},
      {"HandleTable::insert", unset,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.handles()
             .insert(std::make_shared<sim::EventObject>(true, true, ""))
             .verdict;
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return p.handles().size() == 3;  // the std streams alone
       }},
      {"HandleTable::insert_at", unset,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.handles().insert_at(
             400, std::make_shared<sim::EventObject>(true, true, ""));
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return !p.handles().valid(400);
       }},
      {"HandleTable::close", unset,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.handles().close(p.std_err).verdict;
       },
       [](sim::Machine&, sim::SimProcess& p) {
         return p.handles().valid(p.std_err);
       }},
      {"SimProcess::spawn_thread", unset,
       [](sim::Machine&, sim::SimProcess& p) {
         return p.spawn_thread().verdict;
       },
       [](sim::Machine&, sim::SimProcess& p) {
         // The tid counter did not advance: the next thread takes the first
         // tid after the main thread's.
         return p.spawn_thread().value->tid() ==
                p.main_thread()->tid() + 1;
       }},
  };
}

TEST(PanicPaths, EveryAnnouncingPrimitiveReturnsItsCut) {
  const std::vector<CutRow> rows = cut_rows();
  ASSERT_EQ(rows.size(), 12u);
  for (const CutRow& row : rows) {
    SCOPED_TRACE(row.name);
    sim::Machine m(OsVariant::kWinNT4);
    auto proc = m.acquire_process();
    sim::MutationHub& hub = m.mutations();
    hub.arm(sim::FaultPlan{1});
    row.setup(m, *proc);
    const std::uint64_t cuts = event_count(m, EventKind::kFaultCut);
    const std::uint64_t panics = event_count(m, EventKind::kPanic);
    hub.open_window();
    EXPECT_EQ(row.step(m, *proc), Verdict::kDown);
    hub.close_window();
    EXPECT_EQ(hub.cut_fired_at(), 1u);
    EXPECT_TRUE(m.crashed());
    EXPECT_EQ(m.panic_kind(), sim::PanicKind::kFaultInjection);
    EXPECT_EQ(event_count(m, EventKind::kFaultCut), cuts + 1);
    EXPECT_EQ(event_count(m, EventKind::kPanic), panics + 1);
    EXPECT_TRUE(row.unapplied(m, *proc));
    m.release_process(std::move(proc));
  }
}

/// Builds a one-MuT world whose implementation is supplied by the test.
MuT mini_mut(ApiImpl impl) {
  MuT mut;
  mut.name = "mini";
  mut.api = ApiKind::kWin32Sys;
  mut.group = FuncGroup::kFileDirAccess;
  mut.impl = std::move(impl);
  mut.variant_mask = kMaskEverything;
  return mut;
}

/// Creates /tmp/cut.dat, passing a cut up (or not, when `swallow`).
CallOutcome create_cut_file(CallContext& c, bool swallow) {
  auto& fs = c.machine().fs();
  const auto made = fs.create_file(
      fs.parse("/tmp/cut.dat", sim::FileSystem::root_path()), false, false);
  if (made.down() && !swallow) return stopped();
  return ok(0);
}

/// Runs `mut` with a cut armed at point 1 and returns its HarnessError.
std::string cut_harness_error(const MuT& mut) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  m.mutations().arm(sim::FaultPlan{1});
  try {
    (void)ex.run_case(mut, {});
  } catch (const HarnessError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no harness error";
  return "";
}

TEST(PanicPaths, ReturnedCutIsCatastrophicWithItsCausalTail) {
  sim::Machine m(OsVariant::kWinNT4);
  Executor ex(m);
  const MuT mut = mini_mut(
      [](CallContext& c) { return create_cut_file(c, /*swallow=*/false); });
  m.mutations().arm(sim::FaultPlan{1});
  const CaseResult r = ex.run_case(mut, {}, 3);
  EXPECT_EQ(r.outcome, Outcome::kCatastrophic);
  EXPECT_EQ(r.panic, sim::PanicKind::kFaultInjection);
  EXPECT_EQ(describe_stop(r),
            "kernel panic: fault injection cut at an armed mutation point");
  ASSERT_FALSE(r.trace_tail.empty());
  EXPECT_EQ(r.trace_tail.front().kind, EventKind::kSyscallEnter);
  EXPECT_EQ(r.trace_tail.back().kind, EventKind::kPanic);
  std::vector<EventKind> kinds;
  for (const trace::TraceEvent& ev : m.trace().tail())
    if (ev.case_index == 3) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<EventKind>{
                       EventKind::kSyscallEnter, EventKind::kMutationPoint,
                       EventKind::kFaultCut, EventKind::kPanic,
                       EventKind::kCaseClassified}));
  EXPECT_TRUE(m.crashed());
}

TEST(PanicPaths, SwallowedCutIsAHarnessError) {
  EXPECT_EQ(cut_harness_error(mini_mut([](CallContext& c) {
              return create_cut_file(c, /*swallow=*/true);
            })),
            "harness error in mini: a kernel panic was not returned");
}

TEST(PanicPaths, AnnouncementAfterDeathIsAHarnessError) {
  EXPECT_EQ(cut_harness_error(mini_mut([](CallContext& c) {
              (void)create_cut_file(c, /*swallow=*/true);
              return create_cut_file(c, /*swallow=*/false);
            })),
            "harness error in mini: a persistence point was announced after "
            "a panic");
}

TEST(PanicPaths, FuseBurnOutInKernelEnterIsCatastrophic) {
  sim::Machine m(OsVariant::kWin95);
  Executor ex(m);
  bool ran = false;
  const MuT mut = mini_mut([&ran](CallContext&) {
    ran = true;
    return ok(0);
  });
  m.age_arena(1);  // the next kernel entry is the last one
  const CaseResult r = ex.run_case(mut, {}, 5);
  EXPECT_FALSE(ran);  // the call never reached the module
  EXPECT_EQ(r.outcome, Outcome::kCatastrophic);
  EXPECT_EQ(r.panic, sim::PanicKind::kDeferredFuse);
  EXPECT_EQ(describe_stop(r),
            "kernel panic: delayed failure from corrupted shared arena");
  std::vector<EventKind> kinds;
  for (const trace::TraceEvent& ev : m.trace().tail())
    if (ev.case_index == 5) kinds.push_back(ev.kind);
  EXPECT_EQ(kinds, (std::vector<EventKind>{
                       EventKind::kSyscallEnter, EventKind::kFuseBurn,
                       EventKind::kPanic, EventKind::kCaseClassified}));
}

/// After a case whose machine died, the ring ends kPanic, kCaseClassified:
/// nothing the module ran emitted anything once the machine was down.
void expect_nothing_after_the_panic(const sim::Machine& m, const MuT& mut,
                                    std::uint64_t i, std::uint64_t k) {
  const std::vector<trace::TraceEvent> tail = m.trace().tail();
  ASSERT_GE(tail.size(), 2u);
  EXPECT_EQ(tail[tail.size() - 2].kind, EventKind::kPanic)
      << mut.name << " case " << i << " cut " << k;
  EXPECT_EQ(tail.back().kind, EventKind::kCaseClassified)
      << mut.name << " case " << i << " cut " << k;
}

TEST(PanicPaths, NoModuleEventFollowsAPanicInTheCrashSweep) {
  const auto& world = testing::shared_world();
  for (const OsVariant v : {OsVariant::kWinNT4, OsVariant::kWin95}) {
    SCOPED_TRACE(sim::variant_name(v));
    CrashOptions opt;
    // Every group, the crash default's two included, at a cap that reaches
    // each MuT's mutating paths (cap 8 leaves DeleteFile's unexercised).
    opt.cap = 64;
    opt.group_mask = ~0u;
    const Plan plan = crash_plan_for(v, world.registry, opt);
    sim::Machine m(v);
    Executor ex(m);
    sim::MutationHub& hub = m.mutations();
    std::uint64_t cuts = 0;
    for (const MuT* mut : plan.muts) {
      const TupleGenerator gen(*mut, opt.cap, opt.seed);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        const std::vector<const TestValue*> tuple = gen.tuple(i);
        hub.reset_counts();
        hub.set_counting(true);
        (void)ex.run_case(*mut, tuple, static_cast<std::int64_t>(i));
        hub.set_counting(false);
        const std::uint64_t points = hub.seq();
        if (m.crashed()) {  // an organic panic
          expect_nothing_after_the_panic(m, *mut, i, 0);
          m.restore(sim::RestoreLevel::kReboot);
        }
        for (std::uint64_t k = 1; k <= points; ++k) {
          hub.reset_counts();
          hub.arm(sim::FaultPlan{k});
          (void)ex.run_case(*mut, tuple, static_cast<std::int64_t>(i));
          hub.disarm();
          ASSERT_EQ(hub.cut_fired_at(), k) << mut->name << " case " << i;
          ASSERT_TRUE(m.crashed());
          expect_nothing_after_the_panic(m, *mut, i, k);
          m.restore(sim::RestoreLevel::kReboot);
          ++cuts;
        }
      }
    }
    EXPECT_GT(cuts, 0u);
  }
}

}  // namespace
}  // namespace ballista::core
