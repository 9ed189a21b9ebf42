// Tests for the reset path's dirty tracking (DESIGN.md §8): the filesystem's
// edit epoch, the environment and cwd dirty flags, and the standard-stream
// handles a recycled task keeps.  A restore that trusts a clean flag skips
// its verify, so each flag must move on every path that dirties what it
// guards; the sweep below checks that against the full oracles after every
// catalog case.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace ballista {
namespace {

using sim::OsVariant;
using testing::shared_world;

/// A task on a fresh machine, calling registered MuTs directly.
class Caller {
 public:
  explicit Caller(OsVariant v)
      : machine_(v), proc_(machine_.create_process()) {}

  core::CallOutcome call(std::string_view name, std::vector<core::RawArg> args) {
    const core::MuT* mut =
        shared_world().registry.find(name, std::nullopt, machine_.variant());
    if (mut == nullptr) {
      ADD_FAILURE() << "no MuT " << name;
      return core::ok(0);
    }
    args_ = std::move(args);
    core::CallContext ctx(machine_, *proc_, *mut, args_);
    (void)machine_.kernel_enter();
    return mut->impl(ctx);
  }
  /// call() for a step the test needs to succeed; returns its value.
  std::uint64_t must(std::string_view name, std::vector<core::RawArg> args) {
    const core::CallOutcome out = call(name, std::move(args));
    EXPECT_EQ(out.status, core::CallStatus::kSuccess) << name;
    return out.ret;
  }

  sim::Addr str(std::string_view s) { return proc_->mem().alloc_cstr(s); }
  sim::Addr buf(std::uint64_t n) { return proc_->mem().alloc(n); }
  sim::FileSystem& fs() { return machine_.fs(); }
  sim::SimProcess& proc() { return *proc_; }

 private:
  sim::Machine machine_;
  std::unique_ptr<sim::SimProcess> proc_;
  std::vector<core::RawArg> args_;
};

constexpr std::uint64_t kGenericRW = 0xC000'0000;
constexpr std::uint64_t kOpenExisting = 3;
constexpr std::uint64_t kAttrNormal = 0x80;

/// A Win32 handle to the fixture file, opened for reading and writing.
std::uint64_t open_fixture(Caller& c) {
  return c.must("CreateFile", {c.str("/tmp/fixture.dat"), kGenericRW, 0, 0,
                               kOpenExisting, kAttrNormal, 0});
}

/// What a case's preparation hands its step: a handle and an address.
struct Prepared {
  std::uint64_t handle = 0;
  sim::Addr addr = 0;
};

/// One node-mutation path: `prepare` may dirty the tree freely; `step` is
/// the call whose own edit must move the epoch.
struct EpochCase {
  const char* label;
  OsVariant variant;
  std::function<Prepared(Caller&)> prepare;
  std::function<void(Caller&, const Prepared&)> step;
};

Prepared nothing(Caller&) { return {}; }
Prepared fixture_handle(Caller& c) { return {open_fixture(c)}; }

const std::vector<EpochCase>& mutation_paths() {
  static const std::vector<EpochCase> cases = {
      // --- Win32 ---
      {"CreateFile TRUNCATE_EXISTING", OsVariant::kWinNT4, nothing,
       [](Caller& c, const Prepared&) {
         c.must("CreateFile", {c.str("/tmp/fixture.dat"), kGenericRW, 0, 0,
                               5 /*TRUNCATE_EXISTING*/, kAttrNormal, 0});
       }},
      {"CopyFile onto an existing file", OsVariant::kWinNT4,
       [](Caller& c) {
         return Prepared{c.must("CreateFile",
                                {c.str("/tmp/copy.dat"), kGenericRW, 0, 0,
                                 1 /*CREATE_NEW*/, kAttrNormal, 0})};
       },
       [](Caller& c, const Prepared&) {
         c.must("CopyFile",
                {c.str("/tmp/fixture.dat"), c.str("/tmp/copy.dat"), 0});
       }},
      {"SetEndOfFile", OsVariant::kWinNT4,
       [](Caller& c) {
         const Prepared p = fixture_handle(c);
         c.must("SetFilePointer", {p.handle, 4, 0, 0 /*FILE_BEGIN*/});
         return p;
       },
       [](Caller& c, const Prepared& p) { c.must("SetEndOfFile", {p.handle}); }},
      {"WriteFile", OsVariant::kWinNT4, fixture_handle,
       [](Caller& c, const Prepared& p) {
         c.must("WriteFile", {p.handle, c.str("xyz"), 3, c.buf(4), 0});
       }},
      {"SetFileAttributes", OsVariant::kWinNT4, nothing,
       [](Caller& c, const Prepared&) {
         c.must("SetFileAttributes",
                {c.str("/tmp/fixture.dat"), 0x01 /*READONLY*/});
       }},
      {"SetFileTime", OsVariant::kWinNT4,
       [](Caller& c) {
         Prepared p = fixture_handle(c);
         p.addr = c.buf(8);
         c.proc().mem().poke_u64(p.addr, 0x01BF'53EB'256D'4000);  // 1999
         return p;
       },
       [](Caller& c, const Prepared& p) {
         c.must("SetFileTime", {p.handle, 0, 0, p.addr});
       }},
      // --- POSIX ---
      {"open O_TRUNC", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("open", {c.str("/tmp/fixture.dat"), 0x202 /*RDWR|TRUNC*/, 0});
       }},
      {"truncate", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("truncate", {c.str("/tmp/fixture.dat"), 4});
       }},
      {"ftruncate", OsVariant::kLinux,
       [](Caller& c) {
         return Prepared{
             c.must("open", {c.str("/tmp/fixture.dat"), 2 /*RDWR*/, 0})};
       },
       [](Caller& c, const Prepared& p) { c.must("ftruncate", {p.handle, 4}); }},
      {"link", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("link", {c.str("/tmp/fixture.dat"), c.str("/tmp/hard")});
       }},
      {"symlink", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("symlink", {c.str("/tmp/fixture.dat"), c.str("/tmp/sym")});
       }},
      {"chmod", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("chmod", {c.str("/tmp/readonly.dat"), 0644});
       }},
      {"rename", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("rename", {c.str("/tmp/fixture.dat"), c.str("/tmp/moved")});
       }},
      {"unlink", OsVariant::kLinux, nothing,
       [](Caller& c, const Prepared&) {
         c.must("unlink", {c.str("/tmp/fixture.dat")});
       }},
      // --- C library ---
      {"fopen \"w\"", OsVariant::kWinNT4, nothing,
       [](Caller& c, const Prepared&) {
         c.must("fopen", {c.str("/tmp/fixture.dat"), c.str("w")});
       }},
  };
  return cases;
}

TEST(ResetPaths, EveryNodeMutationPathMovesTheEpoch) {
  for (const EpochCase& tc : mutation_paths()) {
    SCOPED_TRACE(tc.label);
    Caller c(tc.variant);
    const Prepared prepared = tc.prepare(c);
    const std::uint64_t before = c.fs().epoch();
    tc.step(c, prepared);
    EXPECT_GT(c.fs().epoch(), before);
    EXPECT_FALSE(c.fs().epoch_clean());
    EXPECT_FALSE(c.fs().fixture_clean());
    // The moved epoch sends the restore down the walk, which rebuilds.
    const std::uint64_t walks = c.fs().fixture_walks();
    EXPECT_TRUE(c.fs().restore_fixture());
    EXPECT_EQ(c.fs().fixture_walks(), walks + 1);
    EXPECT_TRUE(c.fs().fixture_clean());
    EXPECT_TRUE(c.fs().epoch_clean());
  }
}

TEST(ResetPaths, ResolutionAndReadsLeaveTheEpochAlone) {
  Caller w(OsVariant::kWinNT4);
  Caller p(OsVariant::kLinux);
  const std::uint64_t w0 = w.fs().epoch();
  const std::uint64_t p0 = p.fs().epoch();

  std::string leaf;
  const auto path = w.fs().parse("/tmp/fixture.dat", w.proc().cwd());
  EXPECT_NE(w.fs().resolve(path), nullptr);
  EXPECT_NE(w.fs().resolve_parent(path, &leaf), nullptr);
  EXPECT_EQ(w.must("GetFileAttributes", {w.str("/tmp/readonly.dat")}), 0x01u);
  const std::uint64_t h = open_fixture(w);
  EXPECT_GT(w.must("GetFileSize", {h, 0}), 0u);
  EXPECT_EQ(w.must("ReadFile", {h, w.buf(16), 16, w.buf(4), 0}), 1u);
  // An existing file opened without truncation is not edited.
  EXPECT_EQ(w.call("CreateFile", {w.str("/tmp/fixture.dat"), kGenericRW, 0, 0,
                                  1 /*CREATE_NEW*/, kAttrNormal, 0})
                .status,
            core::CallStatus::kErrorReported);

  EXPECT_EQ(p.must("stat", {p.str("/tmp/fixture.dat"), p.buf(64)}), 0u);
  EXPECT_EQ(p.must("access", {p.str("/tmp/fixture.dat"), 4 /*R_OK*/}), 0u);
  const std::uint64_t fd = p.must("open", {p.str("/tmp/fixture.dat"), 0, 0});
  EXPECT_GT(p.must("read", {fd, p.buf(16), 16}), 0u);
  EXPECT_EQ(p.must("chdir", {p.str("/tmp")}), 0u);

  EXPECT_EQ(w.fs().epoch(), w0);
  EXPECT_EQ(p.fs().epoch(), p0);
  EXPECT_TRUE(w.fs().epoch_clean());
  EXPECT_TRUE(p.fs().epoch_clean());
}

TEST(ResetPaths, NodeOutlivingItsFileSystemStillCountsItsEdits) {
  std::shared_ptr<sim::FsNode> held;
  {
    sim::FileSystem fs;
    held = fs.resolve(fs.parse("/tmp/fixture.dat", sim::FileSystem::root_path()));
    ASSERT_NE(held, nullptr);
  }
  // The epoch counter the node bumps is shared, not owned by the dead
  // filesystem (the asan preset runs this entry).
  held->edit_data().push_back('x');
  held->set_read_only(true);
  EXPECT_EQ(held->data().back(), 'x');
  EXPECT_TRUE(held->read_only());
}

TEST(ResetPaths, EnvironmentAndCwdEditsSetTheirFlags) {
  Caller c(OsVariant::kWinNT4);
  EXPECT_FALSE(c.proc().env_dirty());
  EXPECT_FALSE(c.proc().cwd_dirty());
  c.must("GetEnvironmentVariable", {c.str("PATH"), c.buf(64), 64});
  EXPECT_FALSE(c.proc().env_dirty());
  // Deleting a variable that does not exist edits nothing.
  c.must("SetEnvironmentVariable", {c.str("NOT_THERE"), 0});
  EXPECT_FALSE(c.proc().env_dirty());
  c.must("SetEnvironmentVariable", {c.str("WHO"), c.str("ballista")});
  EXPECT_TRUE(c.proc().env_dirty());
  c.must("SetCurrentDirectory", {c.str("/")});
  EXPECT_TRUE(c.proc().cwd_dirty());
}

/// Every catalog MuT of every variant at a small cap, on one long-lived
/// machine per variant.  After each call, before anything is restored:
///   - an epoch that has not moved since the case's restore implies the
///     tree matches the checkpoint image;
///   - a clear env/cwd flag implies the default a fresh task has.
/// At the start of each case (the task hook), the recycled task's std
/// handles hold its standard-stream pipes, pristine, and nothing else is
/// open.
TEST(ResetPaths, CleanFlagsImplyCleanState) {
  const auto& world = shared_world();
  for (const OsVariant v : sim::kAllVariants) {
    sim::Machine fresh(v);
    const auto reference = fresh.acquire_process();

    sim::Machine m(v);
    core::Executor ex(m);
    std::string label;
    std::uint64_t checked = 0, epoch_clean = 0;
    ex.set_task_setup([&](sim::SimProcess& p) {
      EXPECT_EQ(p.handles().size(), 3u) << label;
      EXPECT_EQ(p.std_in, reference->std_in) << label;
      EXPECT_EQ(p.std_out, reference->std_out) << label;
      EXPECT_EQ(p.std_err, reference->std_err) << label;
      for (const std::uint64_t h : {p.std_in, p.std_out, p.std_err}) {
        const auto obj = p.handles().get(h);
        ASSERT_NE(obj, nullptr) << label;
        ASSERT_EQ(obj->kind(), sim::ObjectKind::kPipe) << label;
        const auto& pipe = static_cast<const sim::PipeObject&>(*obj);
        EXPECT_TRUE(pipe.buffer.empty()) << label;
        EXPECT_TRUE(pipe.read_end_open && pipe.write_end_open) << label;
      }
      EXPECT_NE(p.handles().get(p.std_in), p.handles().get(p.std_out));
      EXPECT_FALSE(p.env_dirty() || p.cwd_dirty()) << label;
    });

    for (const core::MuT* mut : world.registry.for_variant(v)) {
      core::MuT checked_mut = *mut;
      checked_mut.impl = [&, impl = mut->impl](core::CallContext& c) {
        const core::CallOutcome out = impl(c);
        const sim::FileSystem& fs = c.machine().fs();
        if (fs.epoch_clean()) {
          ++epoch_clean;
          EXPECT_TRUE(fs.fixture_clean()) << label;
        }
        if (!c.proc().env_dirty()) {
          EXPECT_EQ(c.proc().env(), reference->env()) << label;
        }
        if (!c.proc().cwd_dirty()) {
          EXPECT_EQ(c.proc().cwd().components, reference->cwd().components)
              << label;
          EXPECT_TRUE(c.proc().cwd().valid) << label;
        }
        ++checked;
        return out;
      };
      core::TupleGenerator gen(*mut, /*cap=*/6);
      for (std::uint64_t i = 0; i < gen.count(); ++i) {
        label = std::string(sim::variant_name(v)) + " " + mut->name +
                " case " + std::to_string(i);
        (void)ex.run_case(checked_mut, gen.tuple(i),
                          static_cast<std::int64_t>(i));
        if (::testing::Test::HasFailure()) return;
        if (m.crashed() || m.arena().corruption() > 0)
          m.restore(sim::RestoreLevel::kReboot);
      }
    }
    // The oracles actually ran, and most cases left the disk alone.
    EXPECT_GT(checked, 0u) << sim::variant_name(v);
    EXPECT_GT(epoch_clean, checked / 2) << sim::variant_name(v);
  }
}

}  // namespace
}  // namespace ballista
