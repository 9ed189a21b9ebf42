// Tests for the checkpoint/restore machine-state lifecycle (DESIGN.md §8).
//
// The central contract: a machine restored between cases is observationally
// identical to a freshly booted one, no matter how much state the previous
// case dirtied — so campaign results can never depend on case ordering
// beyond the deliberate shared-arena channel.  The property sweep below
// differences three executions of every catalog case: on a long-lived
// machine soaked in dirt between cases (the production fast path), on a
// machine under ResetPolicy::kAlwaysRebuild (the pre-lifecycle cost model),
// and on a throwaway fresh machine (ground truth).
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ballista {
namespace {

using core::CaseResult;
using core::Outcome;
using sim::OsVariant;
using sim::ResetPolicy;
using sim::RestoreLevel;
using testing::shared_world;

void expect_same_result(const CaseResult& got, const CaseResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.outcome, want.outcome) << label;
  EXPECT_EQ(got.success_no_error, want.success_no_error) << label;
  EXPECT_EQ(got.wrong_error, want.wrong_error) << label;
  EXPECT_EQ(got.any_exceptional, want.any_exceptional) << label;
  EXPECT_EQ(got.fault, want.fault) << label;
  EXPECT_EQ(got.panic, want.panic) << label;
  EXPECT_EQ(got.hang_site, want.hang_site) << label;
  EXPECT_EQ(describe_stop(got), describe_stop(want)) << label;
  EXPECT_EQ(got.events, want.events) << label;
  // Tails are compared with ticks rebased to the window start: absolute tick
  // stamps encode the machine's whole prior history (TraceEvent::operator==
  // includes them), but the causal window's *shape* — kinds, payloads,
  // relative timing — is the schedule-invariant part.
  auto rebase = [](std::vector<trace::TraceEvent> tail) {
    if (!tail.empty()) {
      const std::uint64_t t0 = tail.front().ticks;
      for (auto& e : tail) e.ticks -= t0;
    }
    return tail;
  };
  EXPECT_EQ(rebase(got.trace_tail), rebase(want.trace_tail)) << label;
}

/// Dirties every lifecycle-managed store short of leaving the machine
/// crashed: accumulated arena wear (settled by the kReboot a real campaign
/// would issue), heavy disk churn including deleting fixture files, and a
/// task that leaks handles, mappings, environment and cwd edits into the
/// process pool.
void make_mess(sim::Machine& m) {
  // Arena wear + the reboot that settles it.  The fuse must not stay armed
  // into the measured case (its burn events would land in that case's
  // counter delta), which is exactly how the campaign engine behaves: wear
  // is always followed by a reboot before the next case.
  m.age_arena(1000);
  m.restore(RestoreLevel::kReboot);

  auto& fs = m.fs();
  const sim::ParsedPath cwd = sim::FileSystem::root_path();
  const auto p = [&](std::string_view s) { return fs.parse(s, cwd); };
  (void)fs.create_dir(p("/tmp/mess"));
  if (auto f = fs.create_file(p("/tmp/mess/a.txt"), false, true).value)
    f->edit_data().assign(512, 'x');
  (void)fs.remove_file(p("/tmp/fixture.dat"));
  if (auto ro = fs.resolve(p("/tmp/readonly.dat"))) ro->set_read_only(false);
  (void)fs.rename(p("/tmp/mess"), p("/tmp/mess2"));

  auto proc = m.acquire_process();
  if (auto leak = fs.create_file(p("/tmp/leak.dat"), false, true).value)
    (void)proc->handles().insert(std::make_shared<sim::FileObject>(
        leak, sim::FileObject::kAccessRead, false));
  (void)proc->mem().map(0x5000'0000, 8 * 4096, sim::kPermRW);
  proc->edit_env()["MESS"] = "1";
  proc->set_cwd({{"tmp", "mess2"}});
  proc->set_last_error(5);
  m.release_process(std::move(proc));
}

/// Post-case settling, mirroring the campaign loop: a dead or corrupted
/// machine is power-cycled before the next case.
void settle(sim::Machine& m) {
  if (m.crashed() || m.arena().corruption() > 0)
    m.restore(RestoreLevel::kReboot);
}

class LifecycleSweep : public ::testing::TestWithParam<OsVariant> {};

TEST_P(LifecycleSweep, DirtiedThenRestoredMachineMatchesFreshMachine) {
  const OsVariant v = GetParam();
  const auto& world = shared_world();

  sim::Machine soaked(v);  // ResetPolicy::kIncremental — the production path
  sim::Machine legacy(v);
  legacy.set_reset_policy(ResetPolicy::kAlwaysRebuild);
  core::Executor soaked_ex(soaked);
  core::Executor legacy_ex(legacy);

  for (const core::MuT* mut : world.registry.for_variant(v)) {
    core::TupleGenerator gen(*mut, /*cap=*/4);
    for (std::uint64_t i = 0; i < gen.count(); ++i) {
      make_mess(soaked);
      make_mess(legacy);
      const auto tuple = gen.tuple(i);

      const auto index = static_cast<std::int64_t>(i);
      const CaseResult got = soaked_ex.run_case(*mut, tuple, index);
      const CaseResult alt = legacy_ex.run_case(*mut, tuple, index);

      sim::Machine pristine(v);
      core::Executor pristine_ex(pristine);
      const CaseResult want = pristine_ex.run_case(*mut, tuple, index);

      const std::string label = mut->name + " case " + std::to_string(i);
      expect_same_result(got, want, label + " (incremental restore)");
      expect_same_result(alt, want, label + " (always-rebuild policy)");
      if (::testing::Test::HasFailure()) return;  // one repro beats thousands

      settle(soaked);
      settle(legacy);
    }
  }
  // The sweep must actually have exercised the fast paths it certifies.
  EXPECT_GT(soaked.processes_recycled(), 0u);
  EXPECT_GT(soaked.fs().fixture_rebuilds(), 0u);       // mess forces rebuilds
  EXPECT_GT(soaked.fs().fixture_fast_restores(), 0u);  // run_case verify pass
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, LifecycleSweep,
    ::testing::ValuesIn(sim::kAllVariants.begin(), sim::kAllVariants.end()),
    [](const ::testing::TestParamInfo<OsVariant>& info) {
      std::string name{sim::variant_name(info.param)};
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// --- the double-rebuild regression ------------------------------------------
//
// Before the lifecycle unification, a crash was followed by two full fixture
// rebuilds: Machine::reboot() rebuilt the disk, then the next run_case
// unconditionally rebuilt it again.  The checkpoint image makes the second
// pass a verify: this test pins the exact rebuild count across the
// crash -> reboot -> next-case sequence.

struct MiniMut {
  explicit MiniMut(core::ApiImpl impl) {
    mut.name = "mini";
    mut.api = core::ApiKind::kCLib;
    mut.group = core::FuncGroup::kCString;
    mut.impl = std::move(impl);
    mut.variant_mask = core::kMaskEverything;
  }
  core::MuT mut;
};

TEST(Lifecycle, RebootedFixtureIsNotRebuiltAgainByTheNextCase) {
  sim::Machine m(OsVariant::kWin98);
  core::Executor ex(m);
  MiniMut benign([](core::CallContext&) { return core::ok(0); });
  MiniMut killer([](core::CallContext& c) -> core::CallOutcome {
    // Dirty the disk, then die in the kernel — the worst case for cleanup.
    auto& fs = c.machine().fs();
    (void)fs.create_file(
        fs.parse("/tmp/wreck.dat", sim::FileSystem::root_path()), false, true);
    (void)c.machine().panic(sim::PanicKind::kInduced);
    return core::stopped();
  });

  // A clean boot fixture verifies; nothing has ever rebuilt it.
  ASSERT_EQ(ex.run_case(benign.mut, {}).outcome, Outcome::kPass);
  const std::uint64_t rebuilds0 = m.fs().fixture_rebuilds();
  EXPECT_EQ(rebuilds0, 0u);

  const CaseResult crash = ex.run_case(killer.mut, {});
  ASSERT_EQ(crash.outcome, Outcome::kCatastrophic);
  ASSERT_TRUE(m.crashed());

  // The reboot settles the wrecked disk: exactly one rebuild...
  m.restore(RestoreLevel::kReboot);
  EXPECT_EQ(m.fs().fixture_rebuilds(), rebuilds0 + 1);

  // ...and the next case's kCaseReset verifies instead of rebuilding again.
  const std::uint64_t fast0 = m.fs().fixture_fast_restores();
  ASSERT_EQ(ex.run_case(benign.mut, {}).outcome, Outcome::kPass);
  EXPECT_EQ(m.fs().fixture_rebuilds(), rebuilds0 + 1);
  EXPECT_EQ(m.fs().fixture_fast_restores(), fast0 + 1);
}

// --- process pool ------------------------------------------------------------

std::shared_ptr<sim::PipeObject> pipe_at(sim::SimProcess& p, std::uint64_t h) {
  return std::static_pointer_cast<sim::PipeObject>(p.handles().get(h));
}

/// Every field of the process's kernel objects, compared with `want`'s.
void expect_same_kernel_objects(sim::SimProcess& got, sim::SimProcess& want) {
  const sim::ThreadObject& t = *got.main_thread();
  const sim::ThreadObject& wt = *want.main_thread();
  EXPECT_EQ(t.tid(), wt.tid());
  EXPECT_EQ(t.owner_pid(), wt.owner_pid());
  EXPECT_EQ(t.signaled(), wt.signaled());
  EXPECT_EQ(t.suspend_count, wt.suspend_count);
  EXPECT_EQ(t.priority, wt.priority);
  EXPECT_EQ(t.exit_code, wt.exit_code);
  auto& ctx = got.main_thread()->context();
  auto& wctx = want.main_thread()->context();
  EXPECT_EQ(ctx.flags, wctx.flags);
  EXPECT_EQ(ctx.regs, wctx.regs);

  EXPECT_EQ(got.self_object()->pid(), want.self_object()->pid());
  EXPECT_EQ(got.self_object()->signaled(), want.self_object()->signaled());
  EXPECT_EQ(got.self_object()->exit_code, want.self_object()->exit_code);

  EXPECT_EQ(got.default_heap()->allocations, want.default_heap()->allocations);
  EXPECT_EQ(got.default_heap()->initial_size(),
            want.default_heap()->initial_size());
  EXPECT_EQ(got.default_heap()->max_size(), want.default_heap()->max_size());
  EXPECT_EQ(got.default_heap()->signaled(), want.default_heap()->signaled());

  for (const auto h : {got.std_in, got.std_out, got.std_err}) {
    const auto pipe = pipe_at(got, h);
    const auto wpipe = pipe_at(want, h);
    ASSERT_NE(pipe, nullptr) << h;
    ASSERT_NE(wpipe, nullptr) << h;
    EXPECT_EQ(pipe->buffer, wpipe->buffer) << h;
    EXPECT_EQ(pipe->read_end_open, wpipe->read_end_open) << h;
    EXPECT_EQ(pipe->write_end_open, wpipe->write_end_open) << h;
    EXPECT_EQ(pipe->signaled(), wpipe->signaled()) << h;
  }
}

TEST(Lifecycle, RecycledProcessIsObservationallyFresh) {
  sim::Machine m(OsVariant::kWinNT4);
  sim::Machine reference(OsVariant::kWinNT4);

  auto first = m.acquire_process();
  const std::uint64_t pid0 = first->pid();
  // Dirty everything a case can reach.
  (void)first->handles().insert(std::make_shared<sim::PipeObject>());
  (void)first->mem().map(0x6000'0000, 4096, sim::kPermRW);
  first->edit_env().clear();
  first->set_cwd({{"somewhere", "else"}});
  first->set_last_error(87);
  first->set_errno(22);
  // ...including every mutable field of its kernel objects.
  sim::ThreadObject& thread = *first->main_thread();
  thread.context().flags = 0x1003f;
  thread.context().regs.fill(0xDEADBEEF);
  thread.suspend_count = 3;
  thread.priority = 15;
  thread.exit_code = 7;
  (void)thread.set_signaled(true);
  first->self_object()->exit_code = 9;
  (void)first->self_object()->set_signaled(true);
  first->default_heap()->allocations[0x0030'0000] = 64;
  for (const auto h : {first->std_in, first->std_out, first->std_err}) {
    const auto pipe = pipe_at(*first, h);
    pipe->buffer.assign(100, 0x5A);
    pipe->read_end_open = false;
    pipe->write_end_open = false;
    (void)pipe->set_signaled(false);
  }
  const sim::ThreadObject* thread_before = first->main_thread().get();
  m.release_process(std::move(first));

  auto recycled = m.acquire_process();
  ASSERT_EQ(m.processes_recycled(), 1u);
  // Two constructions, so the fresh process has the recycled one's pid.
  auto discarded = reference.acquire_process();
  auto fresh = reference.acquire_process();
  ASSERT_EQ(reference.processes_recycled(), 0u);

  // Same pid sequence a fresh-construction machine would produce.
  EXPECT_EQ(recycled->pid(), pid0 + 1);
  EXPECT_EQ(recycled->pid(), fresh->pid());
  // Identical observable state: std handles, table shape, env, cwd, errors.
  EXPECT_EQ(recycled->std_in, fresh->std_in);
  EXPECT_EQ(recycled->std_out, fresh->std_out);
  EXPECT_EQ(recycled->std_err, fresh->std_err);
  EXPECT_EQ(recycled->handles().size(), fresh->handles().size());
  EXPECT_EQ(recycled->env(), fresh->env());
  EXPECT_EQ(recycled->cwd().components, fresh->cwd().components);
  EXPECT_EQ(recycled->last_error(), 0u);
  EXPECT_EQ(recycled->err_no(), 0);
  EXPECT_EQ(recycled->main_thread()->tid(), recycled->pid() * 1000 + 1);
  expect_same_kernel_objects(*recycled, *fresh);
  // Nothing outside the process held its objects, so they were reset in
  // place rather than replaced.
  EXPECT_EQ(recycled->main_thread().get(), thread_before);
  EXPECT_EQ(
      recycled->handles().insert(std::make_shared<sim::PipeObject>()).value,
      fresh->handles().insert(std::make_shared<sim::PipeObject>()).value);
  // The dirty mapping is gone; the stack is back.
  EXPECT_FALSE(recycled->mem().is_mapped(0x6000'0000));
}

TEST(Lifecycle, HeldKernelObjectIsNotRecycledInPlace) {
  sim::Machine m(OsVariant::kWinNT4);
  auto first = m.acquire_process();
  const std::shared_ptr<sim::ThreadObject> thread = first->main_thread();
  const std::shared_ptr<sim::PipeObject> out = pipe_at(*first, first->std_out);
  const std::uint64_t tid0 = thread->tid();
  thread->priority = 2;
  thread->exit_code = 0;
  out->buffer = {1, 2, 3};
  out->write_end_open = false;
  m.release_process(std::move(first));

  auto recycled = m.acquire_process();
  ASSERT_EQ(m.processes_recycled(), 1u);
  // Whoever held the old objects still sees them as they were...
  EXPECT_EQ(thread->tid(), tid0);
  EXPECT_EQ(thread->priority, 2);
  EXPECT_EQ(thread->exit_code, 0u);
  EXPECT_EQ(out->buffer, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(out->write_end_open);
  // ...and the recycled process has fresh successors.
  EXPECT_NE(recycled->main_thread(), thread);
  EXPECT_EQ(recycled->main_thread()->tid(), recycled->pid() * 1000 + 1);
  EXPECT_EQ(recycled->main_thread()->priority, 0);
  EXPECT_EQ(recycled->main_thread()->exit_code, 0x103u);
  const auto out2 = pipe_at(*recycled, recycled->std_out);
  EXPECT_NE(out2, out);
  EXPECT_TRUE(out2->buffer.empty());
  EXPECT_TRUE(out2->write_end_open);
}

TEST(Lifecycle, AlwaysRebuildPolicyDisablesPooling) {
  sim::Machine m(OsVariant::kWinNT4);
  m.set_reset_policy(ResetPolicy::kAlwaysRebuild);
  m.release_process(m.acquire_process());
  m.release_process(m.acquire_process());
  EXPECT_EQ(m.processes_recycled(), 0u);
  EXPECT_EQ(m.processes_built(), 2u);
}

TEST(Lifecycle, FullResetRestartsThePidSequence) {
  sim::Machine m(OsVariant::kLinux);
  sim::Machine fresh(OsVariant::kLinux);
  m.release_process(m.acquire_process());
  m.release_process(m.acquire_process());
  m.advance_ticks(999);
  m.restore(RestoreLevel::kFullReset);
  EXPECT_EQ(m.ticks(), fresh.ticks());
  // The pool survives a full reset, but recycling restarts the pid sequence,
  // so a checked-out pool machine is indistinguishable from a new one.
  EXPECT_EQ(m.acquire_process()->pid(), fresh.acquire_process()->pid());
}

}  // namespace
}  // namespace ballista
