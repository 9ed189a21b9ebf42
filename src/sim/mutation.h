// The fault-point interposition layer: every persistent-state mutation in the
// simulator funnels through one MutationHub owned by the Machine.
//
// Pre-refactor, FileSystem, AddressSpace, the kobject handle tables and
// SimProcess each mutated state through their own ad-hoc paths, so there was
// no single place to ask "what if the world died right here?".  Now each
// mutation *announces* a typed persistence point before it applies:
//
//   AddressSpace stores / map / unmap / protect       -> kPage*
//   FileSystem create/remove/rename + metadata setters -> kFs*
//   FileObject::write_at                              -> kFsData
//   HandleTable insert/close + KernelObject signaling -> kHandle*
//   SimProcess::spawn_thread                          -> kProcessUpdate
//
// The hub assigns each announced point a deterministic 1-based sequence
// number (see the determinism rules in DESIGN.md §10) and can
//
//   count them   (the crash campaign's counting pass),
//   trace them   (trace::EventKind::kMutationPoint), or
//   *cut* at the k-th point via a FaultPlan: the announcement escalates to
//   Machine::panic(PanicKind::kFaultInjection) *before* the mutation applies
//   and returns Verdict::kDown, so the announcing primitive applies nothing
//   and returns the verdict to its caller.  The simulated world dies with the
//   k-th persistent effect un-applied — exactly the torn state a power cut
//   at that instant would leave.
//
// Announcements are gated by an execution window the Executor opens around
// the module-under-test dispatch: harness work (tuple materialization,
// process recycling, fixture restores) never counts as a persistence point.
// With the window closed or the hub idle (neither counting nor armed), the
// funnel is a single predicted-not-taken branch per mutation, keeping the
// base campaign bit-identical and within the <2% overhead budget.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/fault.h"

namespace ballista::sim {

class Machine;

/// Taxonomy of persistent-state mutations (DESIGN.md §10).  Page-level
/// mutations carry the page number as detail; fs mutations a path hash;
/// handle mutations the handle value.
enum class MutationKind : std::uint8_t {
  kPageWrite = 0,   // store into a page (StoreRun, write_bytes; coalesced)
  kPageMap,         // AddressSpace::map
  kPageUnmap,       // AddressSpace::unmap
  kPageProtect,     // AddressSpace::protect
  kFsCreate,        // file or directory node created
  kFsRemove,        // file or directory node removed
  kFsRename,        // node moved (atomic: one point per rename)
  kFsData,          // file contents written/truncated through a FileObject
  kFsMeta,          // node metadata (read_only/hidden/times) edited
  kHandleCreate,    // handle-table insert
  kHandleClose,     // handle-table close
  kHandleSignal,    // kernel-object signal state flipped
  kProcessUpdate,   // process-table update (thread spawned)
};

inline constexpr std::size_t kMutationKindCount = 13;

std::string_view mutation_kind_name(MutationKind k) noexcept;

/// Where to cut the world: panic at the cut_at-th announced persistence
/// point (1-based).  cut_at == 0 means disarmed.
struct FaultPlan {
  std::uint64_t cut_at = 0;
};

/// The interposition hub.  One per Machine; the sim layers hold a pointer
/// and announce through notify().  Not thread-safe — like the Machine it
/// belongs to, it is confined to one worker.
class MutationHub {
 public:
  explicit MutationHub(Machine& machine) noexcept : machine_(machine) {}

  MutationHub(const MutationHub&) = delete;
  MutationHub& operator=(const MutationHub&) = delete;

  // --- modes ----------------------------------------------------------------

  /// Count (and trace) every announced point.  Armed plans imply counting —
  /// the sequence numbers of the counting pass and the cut pass must agree.
  void set_counting(bool on) noexcept {
    counting_ = on;
    update_live();
  }
  bool counting() const noexcept { return counting_; }

  /// Arms a cut at plan.cut_at (clears any previously fired cut record).
  void arm(FaultPlan plan) noexcept {
    plan_ = plan;
    update_live();
  }
  void disarm() noexcept {
    plan_ = FaultPlan{};
    update_live();
  }
  bool armed() const noexcept { return plan_.cut_at != 0; }

  // --- execution window (the Executor opens it around the MuT dispatch) -----

  void open_window() noexcept {
    window_ = true;
    late_ = 0;
    update_live();
  }
  void close_window() noexcept {
    window_ = false;
    update_live();
  }
  bool window_open() const noexcept { return window_; }

  // --- the funnel -----------------------------------------------------------

  /// Announces one persistence point.  The hot path is the single `live_`
  /// check; everything else lives out of line.  Returns kDown when an armed
  /// cut fires (the machine panics through Machine::panic) — before the
  /// caller applies the mutation, which is the whole point — and for any
  /// announcement made in the window once the machine has died, which it
  /// also counts (late_announcements()).
  Verdict notify(MutationKind kind, std::uint64_t detail) {
    if (!live_) return Verdict::kUp;
    return notify_slow(kind, detail);
  }

  /// Machine::panic and Machine::restore keep the hub's view of the machine
  /// in step: a panicked machine must announce nothing more.
  void set_machine_down(bool down) noexcept {
    down_ = down;
    update_live();
  }
  /// The machine has panicked and not yet rebooted.
  bool machine_down() const noexcept { return down_; }
  /// Announcements made in the window after the machine died, since the
  /// window last opened: a caller that did not stop on a panic.
  std::uint64_t late_announcements() const noexcept { return late_; }

  // --- counters -------------------------------------------------------------

  /// Points announced since the last reset_counts() (after coalescing).
  std::uint64_t seq() const noexcept { return seq_; }
  std::uint64_t count(MutationKind k) const noexcept {
    return counts_[static_cast<std::size_t>(k)];
  }
  const std::array<std::uint64_t, kMutationKindCount>& counts() const noexcept {
    return counts_;
  }
  /// Sequence number at which an armed cut fired (0 = it has not).
  std::uint64_t cut_fired_at() const noexcept { return cut_fired_at_; }

  /// Rewinds the sequence counter, the per-kind counts, the coalescing state
  /// and the fired-cut record.  Modes (counting/armed/window) persist.
  void reset_counts() noexcept {
    seq_ = 0;
    counts_.fill(0);
    cut_fired_at_ = 0;
    have_last_ = false;
  }

  /// Everything back to the just-constructed state; MachinePool checkout
  /// hygiene (part of Machine::restore(kFullReset)).
  void full_reset() noexcept {
    reset_counts();
    counting_ = false;
    window_ = false;
    down_ = false;
    late_ = 0;
    plan_ = FaultPlan{};
    update_live();
  }

 private:
  Verdict notify_slow(MutationKind kind, std::uint64_t detail);
  void update_live() noexcept {
    live_ = window_ && (counting_ || plan_.cut_at != 0 || down_);
  }

  Machine& machine_;
  bool counting_ = false;
  bool window_ = false;
  /// The machine has panicked and not yet rebooted.
  bool down_ = false;
  /// (counting, armed or down) AND window open — the one flag the hot path
  /// reads.
  bool live_ = false;
  std::uint64_t late_ = 0;
  FaultPlan plan_;
  std::uint64_t seq_ = 0;
  std::uint64_t cut_fired_at_ = 0;
  /// Coalescing state: consecutive kPageWrite points on the same page
  /// collapse into one persistence point (a memcpy is one torn write, not
  /// 4096 of them — DESIGN.md §10 determinism rules).
  bool have_last_ = false;
  MutationKind last_kind_ = MutationKind::kPageWrite;
  std::uint64_t last_detail_ = 0;
  std::array<std::uint64_t, kMutationKindCount> counts_{};
};

}  // namespace ballista::sim
