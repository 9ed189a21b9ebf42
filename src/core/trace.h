// The structured kernel-event trace spine.
//
// Every diagnostic the harness used to assemble ad hoc as strings
// (Machine::crash_reason, a case's stop text, MutStats::crash_detail) is now
// a *rendered view* over typed TraceEvents.  Each simulated machine owns one
// bounded ring-buffer TraceSink; the sim layer (panic/reboot/fuse/corruption,
// MMU faults), the kernel-side memory helpers (probe decisions, hazard
// writes) and the executor (syscall entry/exit, case classification) all emit
// through it, so the causal chain behind a Table 3 crash —
//
//   kProbeDecision(unprobed) -> kHazardWrite -> kArenaCorruption ->
//   kFuseBurn... -> kPanic
//
// is recorded as data, identically on the one-shard run_sequential, the
// sharded engine and the RPC harness.
//
// Determinism rules: events are stamped with Machine::ticks() (a monotonic
// counter advanced only by simulated work) and the executor's case index —
// never wall-clock time.  Per-event-kind counters exclude the stamps, so the
// aggregate counters folded into a CampaignResult are bit-identical for
// every worker count and for the one-shard run_sequential.
//
// This header is intentionally self-contained (inline) below core: sim code
// emits events and renders panic reasons without linking ballista_core; the
// heavier render/JSON helpers live in trace.cc (core only).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/classify.h"
#include "sim/fault.h"
#include "sim/mutation.h"

namespace ballista::trace {

enum class EventKind : std::uint8_t {
  kSyscallEnter = 0,
  kSyscallExit,
  kProbeDecision,
  kHazardWrite,
  kArenaCorruption,
  kFuseBurn,
  kFault,
  kPanic,
  kReboot,
  kShardStart,
  kShardEnd,
  kCaseClassified,
  kMutationPoint,
  kFaultCut,
};

inline constexpr std::size_t kEventKindCount = 14;

/// Stable lower_snake names, used for the --event-counters JSON keys.
std::string_view event_kind_name(EventKind k) noexcept;

/// What the kernel-side pointer-validation layer decided about one
/// API-level user-memory access (DESIGN.md §2 validation architectures).
enum class ProbeResult : std::uint8_t {
  kOk = 0,      // probe passed (or loose stub accepted); access proceeds
  kRejected,    // probe failed, error code returned (Linux EFAULT path)
  kStubSilent,  // loose stub swallowed obvious garbage: silent no-op
  kGuarded,     // no probe: deref under exception guard (NT/2000 SEH path)
  kUnprobed,    // no validation at all: the Win9x/CE kernel hazard path
};

std::string_view probe_result_name(ProbeResult r) noexcept;

struct TraceEvent {
  EventKind kind = EventKind::kSyscallEnter;
  /// Machine::ticks() at emission; monotonic simulated time, never wall clock.
  std::uint64_t ticks = 0;
  /// Case index the executor was running (-1 outside any case).
  std::int64_t case_index = -1;

  union {
    struct {
      std::int32_t fuse_remaining;  // -1 = fuse disarmed
    } syscall_enter;
    struct {
      core::CallStatus status;
      std::uint64_t ret;
    } syscall_exit;
    struct {
      std::uint64_t addr;
      std::uint32_t size;
      ProbeResult result;
      bool is_write;
    } probe;
    struct {
      std::uint64_t addr;
      std::uint32_t size;
      bool staging;  // staging-buffer overrun (deferred hazard), not direct
    } hazard;
    struct {
      std::uint64_t addr;
      bool critical;
    } corruption;
    struct {
      std::int32_t remaining;  // entries left after this burn
    } fuse;
    struct {
      sim::FaultType type;
      std::uint64_t addr;
      bool is_write;
    } fault;
    struct {
      sim::PanicKind why;
    } panic;
    struct {
      std::int32_t panic_count;
    } reboot;
    struct {
      std::uint64_t index;
      std::uint32_t items;  // meaningful for kShardStart
    } shard;
    struct {
      core::Outcome outcome;
      sim::FaultType fault;  // meaningful when outcome == kAbort
      bool success_no_error;
      bool wrong_error;
    } classified;
    struct {
      sim::MutationKind mkind;
      std::uint64_t seq;     // 1-based persistence-point sequence number
      std::uint64_t detail;  // page number / path hash / handle value
    } mutation;
    struct {
      sim::MutationKind mkind;  // kind of the point the cut landed on
      std::uint64_t seq;
    } fault_cut;
  };

  TraceEvent() : syscall_enter{-1} {}

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) noexcept {
    if (a.kind != b.kind || a.ticks != b.ticks ||
        a.case_index != b.case_index)
      return false;
    switch (a.kind) {
      case EventKind::kSyscallEnter:
        return a.syscall_enter.fuse_remaining == b.syscall_enter.fuse_remaining;
      case EventKind::kSyscallExit:
        return a.syscall_exit.status == b.syscall_exit.status &&
               a.syscall_exit.ret == b.syscall_exit.ret;
      case EventKind::kProbeDecision:
        return a.probe.addr == b.probe.addr && a.probe.size == b.probe.size &&
               a.probe.result == b.probe.result &&
               a.probe.is_write == b.probe.is_write;
      case EventKind::kHazardWrite:
        return a.hazard.addr == b.hazard.addr &&
               a.hazard.size == b.hazard.size &&
               a.hazard.staging == b.hazard.staging;
      case EventKind::kArenaCorruption:
        return a.corruption.addr == b.corruption.addr &&
               a.corruption.critical == b.corruption.critical;
      case EventKind::kFuseBurn:
        return a.fuse.remaining == b.fuse.remaining;
      case EventKind::kFault:
        return a.fault.type == b.fault.type && a.fault.addr == b.fault.addr &&
               a.fault.is_write == b.fault.is_write;
      case EventKind::kPanic:
        return a.panic.why == b.panic.why;
      case EventKind::kReboot:
        return a.reboot.panic_count == b.reboot.panic_count;
      case EventKind::kShardStart:
      case EventKind::kShardEnd:
        return a.shard.index == b.shard.index && a.shard.items == b.shard.items;
      case EventKind::kCaseClassified:
        return a.classified.outcome == b.classified.outcome &&
               a.classified.fault == b.classified.fault &&
               a.classified.success_no_error == b.classified.success_no_error &&
               a.classified.wrong_error == b.classified.wrong_error;
      case EventKind::kMutationPoint:
        return a.mutation.mkind == b.mutation.mkind &&
               a.mutation.seq == b.mutation.seq &&
               a.mutation.detail == b.mutation.detail;
      case EventKind::kFaultCut:
        return a.fault_cut.mkind == b.fault_cut.mkind &&
               a.fault_cut.seq == b.fault_cut.seq;
    }
    return false;
  }
  friend bool operator!=(const TraceEvent& a, const TraceEvent& b) noexcept {
    return !(a == b);
  }
};

// --- event constructors (stamps are filled in by TraceSink::emit) ------------

inline TraceEvent syscall_enter_event(std::int32_t fuse_remaining) noexcept {
  TraceEvent e;
  e.kind = EventKind::kSyscallEnter;
  e.syscall_enter = {fuse_remaining};
  return e;
}

inline TraceEvent syscall_exit_event(core::CallStatus status,
                                     std::uint64_t ret) noexcept {
  TraceEvent e;
  e.kind = EventKind::kSyscallExit;
  e.syscall_exit = {status, ret};
  return e;
}

inline TraceEvent probe_event(ProbeResult result, std::uint64_t addr,
                              std::uint32_t size, bool is_write) noexcept {
  TraceEvent e;
  e.kind = EventKind::kProbeDecision;
  e.probe = {addr, size, result, is_write};
  return e;
}

inline TraceEvent hazard_write_event(std::uint64_t addr, std::uint32_t size,
                                     bool staging) noexcept {
  TraceEvent e;
  e.kind = EventKind::kHazardWrite;
  e.hazard = {addr, size, staging};
  return e;
}

inline TraceEvent corruption_event(std::uint64_t addr,
                                   bool critical) noexcept {
  TraceEvent e;
  e.kind = EventKind::kArenaCorruption;
  e.corruption = {addr, critical};
  return e;
}

inline TraceEvent fuse_burn_event(std::int32_t remaining) noexcept {
  TraceEvent e;
  e.kind = EventKind::kFuseBurn;
  e.fuse = {remaining};
  return e;
}

inline TraceEvent fault_event(sim::FaultType type, std::uint64_t addr,
                              bool is_write) noexcept {
  TraceEvent e;
  e.kind = EventKind::kFault;
  e.fault = {type, addr, is_write};
  return e;
}

inline TraceEvent panic_event(sim::PanicKind why) noexcept {
  TraceEvent e;
  e.kind = EventKind::kPanic;
  e.panic = {why};
  return e;
}

inline TraceEvent reboot_event(std::int32_t panic_count) noexcept {
  TraceEvent e;
  e.kind = EventKind::kReboot;
  e.reboot = {panic_count};
  return e;
}

inline TraceEvent shard_event(EventKind start_or_end, std::uint64_t index,
                              std::uint32_t items) noexcept {
  TraceEvent e;
  e.kind = start_or_end;
  e.shard = {index, items};
  return e;
}

inline TraceEvent classified_event(core::Outcome outcome, sim::FaultType fault,
                                   bool success_no_error,
                                   bool wrong_error) noexcept {
  TraceEvent e;
  e.kind = EventKind::kCaseClassified;
  e.classified = {outcome, fault, success_no_error, wrong_error};
  return e;
}

inline TraceEvent mutation_point_event(sim::MutationKind kind,
                                       std::uint64_t seq,
                                       std::uint64_t detail) noexcept {
  TraceEvent e;
  e.kind = EventKind::kMutationPoint;
  e.mutation = {kind, seq, detail};
  return e;
}

inline TraceEvent fault_cut_event(sim::MutationKind kind,
                                  std::uint64_t seq) noexcept {
  TraceEvent e;
  e.kind = EventKind::kFaultCut;
  e.fault_cut = {kind, seq};
  return e;
}

inline constexpr std::size_t kProbeResultCount = 5;

/// Per-event-kind counters, plus a per-verdict breakdown of kProbeDecision
/// (the question the paper's §2 validation-architecture comparison asks:
/// probe rejections vs. guarded derefs vs. silent stub swallows vs. unprobed
/// hazards).  Stamps (ticks, case index) are deliberately not part of the
/// count, so counters compare equal across schedules whose tick streams
/// differ (sequential loop vs. per-shard machines).
struct Counters {
  std::array<std::uint64_t, kEventKindCount> n{};
  std::array<std::uint64_t, kProbeResultCount> probe{};

  std::uint64_t& operator[](EventKind k) noexcept {
    return n[static_cast<std::size_t>(k)];
  }
  std::uint64_t operator[](EventKind k) const noexcept {
    return n[static_cast<std::size_t>(k)];
  }
  std::uint64_t& operator[](ProbeResult r) noexcept {
    return probe[static_cast<std::size_t>(r)];
  }
  std::uint64_t operator[](ProbeResult r) const noexcept {
    return probe[static_cast<std::size_t>(r)];
  }

  Counters& operator+=(const Counters& o) noexcept {
    for (std::size_t i = 0; i < kEventKindCount; ++i) n[i] += o.n[i];
    for (std::size_t i = 0; i < kProbeResultCount; ++i) probe[i] += o.probe[i];
    return *this;
  }
  friend Counters operator-(const Counters& a, const Counters& b) noexcept {
    Counters d;
    for (std::size_t i = 0; i < kEventKindCount; ++i) d.n[i] = a.n[i] - b.n[i];
    for (std::size_t i = 0; i < kProbeResultCount; ++i)
      d.probe[i] = a.probe[i] - b.probe[i];
    return d;
  }
  friend bool operator==(const Counters& a, const Counters& b) noexcept {
    return a.n == b.n && a.probe == b.probe;
  }
  friend bool operator!=(const Counters& a, const Counters& b) noexcept {
    return !(a == b);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::uint64_t c : n) t += c;
    return t;
  }
};

/// Bounded per-machine event ring.  kFull keeps the last `capacity` events
/// for tail dumps; kCountersOnly keeps only the per-kind counters (the cheap
/// always-on mode); kDisabled turns emission into a no-op.
class TraceSink {
 public:
  enum class Mode : std::uint8_t { kDisabled, kCountersOnly, kFull };
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Points the sink at the owning machine's tick counter; every emitted
  /// event is stamped from it.  Unbound sinks stamp 0.
  void bind_clock(const std::uint64_t* ticks) noexcept { clock_ = ticks; }

  Mode mode() const noexcept { return mode_; }
  void set_mode(Mode m) noexcept { mode_ = m; }

  std::int64_t case_index() const noexcept { return case_index_; }
  void set_case_index(std::int64_t i) noexcept { case_index_ = i; }

  void emit(TraceEvent ev) {
    if (mode_ == Mode::kDisabled) return;
    ++counters_[ev.kind];
    if (ev.kind == EventKind::kProbeDecision) ++counters_[ev.probe.result];
    if (mode_ != Mode::kFull) return;
    ev.ticks = clock_ != nullptr ? *clock_ : 0;
    ev.case_index = case_index_;
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[head_] = ev;
      head_ = (head_ + 1) % capacity_;
    }
  }

  const Counters& counters() const noexcept { return counters_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return ring_.size(); }

  /// The event `back` steps before the newest (0 = the newest); `back` must
  /// be below size().
  const TraceEvent& recent(std::size_t back) const noexcept {
    return ring_[(head_ + ring_.size() - 1 - back) % ring_.size()];
  }

  /// The last min(max_events, size()) events in chronological order.
  std::vector<TraceEvent> tail(std::size_t max_events = kDefaultCapacity) const {
    std::vector<TraceEvent> out;
    const std::size_t n = ring_.size() < max_events ? ring_.size() : max_events;
    out.reserve(n);
    for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
  }

  /// Drops ring, counters and case index (mode and clock binding persist);
  /// part of Machine::reset()'s pristine-boot contract.
  void clear() noexcept {
    ring_.clear();
    head_ = 0;
    counters_ = Counters{};
    case_index_ = -1;
  }

 private:
  std::size_t capacity_;
  const std::uint64_t* clock_ = nullptr;
  Mode mode_ = Mode::kFull;
  std::int64_t case_index_ = -1;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of the oldest event once the ring is full
  Counters counters_;
};

// --- rendering (trace.cc; links ballista_core) -------------------------------

/// The one formatter behind every human-readable diagnostic: crash reasons,
/// a case's stop text (describe_stop) and the CLI --trace dump all render
/// through here (or through the sim-level describe_* helpers it delegates
/// to).
std::string render(const TraceEvent& ev);

/// `tick+OFFSET case N  <render(ev)>` lines, one per event.
std::string render_tail(const std::vector<TraceEvent>& events);

/// One JSON object mapping event-kind names to counts.
std::string counters_json(const Counters& c);

}  // namespace ballista::trace
