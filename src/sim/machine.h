// The simulated computer: one OS personality, machine-wide state (shared
// arena, filesystem, clock), the panic/reboot protocol, and the deferred
// corruption fuse that models the paper's inter-test-interference crashes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trace.h"
#include "sim/addrspace.h"
#include "sim/filesystem.h"
#include "sim/mutation.h"
#include "sim/net/netstack.h"
#include "sim/personality.h"
#include "sim/process.h"

namespace ballista::sim {

/// How much of the machine a restore() returns to its checkpoint.  Each level
/// includes everything below it (DESIGN.md §8):
///   kCaseReset  — between test cases on a live machine: the disk fixture
///                 (verify-or-rebuild against the checkpoint image).  Process
///                 state needs no restoring — every case runs in a process
///                 acquired pristine from the pool.
///   kReboot     — after a kernel panic: crash flag, panic kind, corruption
///                 fuse, the shared arena, plus the disk fixture.  The tick
///                 clock, pid counter, panic count and the trace ring survive
///                 (a post-reboot trace tail still shows the death), exactly
///                 like power-cycling the box.
///   kFullReset  — pristine post-construction boot state: kReboot plus ticks,
///                 pid counter, panic count and the trace sink.  A restored
///                 machine is indistinguishable from a freshly constructed
///                 one; MachinePool checkout uses this level.
enum class RestoreLevel : std::uint8_t { kCaseReset, kReboot, kFullReset };

/// kIncremental is the production fast path: verified fixture restores and
/// recycled processes.  kAlwaysRebuild reproduces the pre-lifecycle cost
/// model (unconditional fixture rebuild, a fresh process per case) — kept so
/// bench_case_reset can measure the gap and the restore-correctness property
/// tests can difference the two policies on identical workloads.
enum class ResetPolicy : std::uint8_t { kIncremental, kAlwaysRebuild };

class Machine {
 public:
  explicit Machine(OsVariant variant);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const Personality& personality() const noexcept { return pers_; }
  OsVariant variant() const noexcept { return pers_.variant; }

  FileSystem& fs() noexcept { return fs_; }
  const FileSystem& fs() const noexcept { return fs_; }
  SharedArena& arena() noexcept { return arena_; }

  /// The simulated loopback network (DESIGN.md §12).  Port bindings are
  /// machine-wide state like the filesystem, and reset with it.
  NetStack& net() noexcept { return net_; }
  const NetStack& net() const noexcept { return net_; }

  /// The machine's event spine: every kernel-side actor (panic/fuse/MMU
  /// fault paths, CallContext probes, the executor) emits through this sink.
  trace::TraceSink& trace() noexcept { return trace_; }
  const trace::TraceSink& trace() const noexcept { return trace_; }

  /// The fault-point interposition layer: every persistent mutation in the
  /// simulator (fs, pages, handles, process table) announces through this
  /// hub, which can count, trace, or cut execution at the k-th point.
  MutationHub& mutations() noexcept { return mutations_; }
  const MutationHub& mutations() const noexcept { return mutations_; }

  /// Monotonic tick counter standing in for wall-clock time.
  std::uint64_t ticks() const noexcept { return ticks_; }
  void advance_ticks(std::uint64_t n) noexcept { ticks_ += n; }

  bool crashed() const noexcept { return crashed_; }
  PanicKind panic_kind() const noexcept { return panic_kind_; }
  /// Rendered view of the panic kind (empty while the machine is up).
  std::string_view crash_reason() const noexcept {
    return panic_reason(panic_kind_);
  }
  int panic_count() const noexcept { return panic_count_; }

  // --- machine-state lifecycle ----------------------------------------------

  /// Re-captures the current disk state as the image restore() returns to.
  /// The constructor checkpoints the canonical fixture automatically; the
  /// campaign engine never re-checkpoints (the .blog diff oracle depends on
  /// every case starting from the boot image).
  void checkpoint();

  /// The one way to return the machine to a known state; every reset path
  /// (per-case cleanup, post-panic reboot, pool checkout) funnels through
  /// here.  Cost is proportional to what was actually dirtied — a clean
  /// fixture verifies instead of rebuilding, pooled processes recycle their
  /// own dirt on acquire.  kCaseReset must not be used on a crashed machine
  /// (that state needs at least kReboot).
  void restore(RestoreLevel level);

  /// Convenience names for the two historical entry points; both are thin
  /// forwards so there is exactly one reset implementation.
  void reboot() { restore(RestoreLevel::kReboot); }
  void reset() { restore(RestoreLevel::kFullReset); }

  void set_reset_policy(ResetPolicy p) noexcept { policy_ = p; }
  ResetPolicy reset_policy() const noexcept { return policy_; }

  /// A pristine task, recycled from the pool when possible (fresh pid either
  /// way).  Must not be called on a crashed machine.
  std::unique_ptr<SimProcess> acquire_process();
  /// Returns a finished task to the pool for recycling.  Any dirt it carries
  /// (handles, mappings, env/cwd edits) is settled on the next acquire.
  void release_process(std::unique_ptr<SimProcess> proc);

  /// Historical name for acquire_process(); callers that drop the returned
  /// process instead of releasing it merely forgo recycling.
  std::unique_ptr<SimProcess> create_process() { return acquire_process(); }

  /// Lifecycle telemetry (tests and bench_case_reset).
  std::uint64_t processes_recycled() const noexcept { return recycled_; }
  std::uint64_t processes_built() const noexcept { return built_; }
  /// Recycles that rebuilt a task's environment or cwd (an edited one).
  std::uint64_t env_rebuilds() const noexcept { return env_rebuilds_; }

  /// Called on every system-call entry.  Burns the corruption fuse: once a
  /// stray kernel write has landed in the shared arena, the machine survives
  /// only `corruption_fuse` further kernel entries — so a single-test re-run
  /// completes, but the full harness goes down (the paper's `*` failures).
  /// kDown when the fuse burns out here (the machine panics) or the machine
  /// is already down.
  Verdict kernel_enter();

  /// Immediate, attributable kernel death (unprobed kernel write hit a
  /// critical structure, page fault in kernel/VxD context, an armed cut):
  /// records the crash, emits kPanic and returns kDown for the caller to
  /// pass up.
  Verdict panic(PanicKind why);

  /// A kernel-context write landed in the shared arena.  `critical` writes
  /// (low system area: interrupt vectors, VMM structures) kill the machine
  /// now (kDown); others arm the deferred fuse.
  Verdict note_arena_corruption(Addr where, bool critical);

  /// Pre-ages the machine for load testing (paper §5 future work; cf. the
  /// intro's observation that Windows machines needed periodic reboots):
  /// the shared arena already carries accumulated wear, and the machine will
  /// survive only `fuse_entries` further kernel entries unless rebooted.
  /// No-op on personalities without a shared arena.
  void age_arena(int fuse_entries);

 private:
  Personality pers_;
  SharedArena arena_;
  FileSystem fs_;
  NetStack net_;
  trace::TraceSink trace_;
  MutationHub mutations_;
  static constexpr std::uint64_t kBootTicks = 1'000'000;
  static constexpr std::uint64_t kFirstPid = 100;

  std::uint64_t ticks_ = kBootTicks;
  std::uint64_t next_pid_ = kFirstPid;
  bool crashed_ = false;
  PanicKind panic_kind_ = PanicKind::kNone;
  int panic_count_ = 0;
  /// -1 = disarmed; otherwise kernel entries remaining until panic.
  int fuse_remaining_ = -1;

  ResetPolicy policy_ = ResetPolicy::kIncremental;
  /// Retired tasks awaiting recycling.  One process is alive per case, so the
  /// pool stays tiny; the cap only guards against callers that acquire many
  /// processes concurrently and release them all at once.
  static constexpr std::size_t kMaxPooledProcesses = 4;
  std::vector<std::unique_ptr<SimProcess>> process_pool_;
  std::uint64_t recycled_ = 0;
  std::uint64_t built_ = 0;
  std::uint64_t env_rebuilds_ = 0;
};

}  // namespace ballista::sim
