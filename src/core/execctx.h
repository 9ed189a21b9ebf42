// CallContext: what an API implementation sees while servicing one test case.
//
// The k_read/k_write/k_read_str helpers implement the per-personality
// validation architectures (DESIGN.md §2).  API implementations write
// straight-line code against these helpers; whether a bad pointer becomes an
// EFAULT error return (Linux), an exception raised into the task (NT/2000,
// counted as Abort), a silent no-op (Win9x loose stubs), or a kernel-side
// catastrophe (Win9x/CE hazard paths) is decided here from the Machine's
// personality and the MuT's hazard entry.
//
// A call that never returns normally stops: the fault the task took or the
// hang it entered is recorded on the context (record, hang), a kernel panic
// on the Machine (Machine::panic), and every layer above passes up one
// stopped value with no cause in it (MemStatus::kStopped, core::stopped()).
// Executor::run_case classifies the case by the recorded cause: Abort,
// Restart or Catastrophic (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/registry.h"
#include "sim/machine.h"

namespace ballista::core {

/// Result of a kernel-side user-memory operation.
enum class [[nodiscard]] MemStatus : std::uint8_t {
  kOk,
  kError,    // caller should fail with a proper error code (EFAULT /
             // ERROR_NOACCESS)
  kSilent,   // loose stub swallowed the bad pointer: return success, do nothing
  kStopped,  // the task faulted (recorded on the context) or the machine
             // panicked under the access: the call ends now, returning
             // core::stopped()
};

/// ok(r.value), or stopped() when the step that produced it killed the
/// machine (a handle insert, a file write or a task allocation an armed cut
/// fired on).
inline CallOutcome ok_or_stopped(const sim::Survived<std::uint64_t>& r) {
  return r.down() ? stopped() : ok(r.value);
}

class CallContext {
 public:
  CallContext(sim::Machine& machine, sim::SimProcess& proc, const MuT& mut,
              std::span<const RawArg> args)
      : machine_(machine),
        proc_(proc),
        mut_(mut),
        args_(args),
        hazard_(mut.hazard_on(machine.variant())) {}

  sim::Machine& machine() noexcept { return machine_; }
  sim::SimProcess& proc() noexcept { return proc_; }
  const MuT& mut() const noexcept { return mut_; }
  const sim::Personality& os() const noexcept { return machine_.personality(); }
  sim::OsVariant variant() const noexcept { return machine_.variant(); }
  CrashStyle hazard() const noexcept { return hazard_; }

  std::size_t arg_count() const noexcept { return args_.size(); }
  RawArg arg(std::size_t i) const noexcept { return args_[i]; }
  std::uint32_t arg32(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(args_[i]);
  }
  std::int32_t argi(std::size_t i) const noexcept {
    return static_cast<std::int32_t>(args_[i]);
  }
  std::int64_t argi64(std::size_t i) const noexcept {
    return static_cast<std::int64_t>(args_[i]);
  }
  double argf(std::size_t i) const noexcept;
  sim::Addr arg_addr(std::size_t i) const noexcept { return args_[i]; }

  // --- kernel-side user-memory access (system-call implementations) ---------

  /// Copies `out.size()` bytes from user address `a`.
  MemStatus k_read(sim::Addr a, std::span<std::uint8_t> out);
  /// Copies `in.size()` bytes to user address `a`.
  MemStatus k_write(sim::Addr a, std::span<const std::uint8_t> in);
  /// Reads a NUL-terminated user string (bounded).
  MemStatus k_read_str(sim::Addr a, std::string* out,
                       std::size_t max_len = 1 << 16);
  MemStatus k_read_wstr(sim::Addr a, std::u16string* out,
                        std::size_t max_len = 1 << 16);

  /// Scalar conveniences over k_read/k_write.
  MemStatus k_write_u32(sim::Addr a, std::uint32_t v);
  MemStatus k_write_u64(sim::Addr a, std::uint64_t v);
  MemStatus k_read_u32(sim::Addr a, std::uint32_t* v);
  MemStatus k_read_u64(sim::Addr a, std::uint64_t* v);

  // --- error-code plumbing ---------------------------------------------------

  /// Win32: returns `ret` after SetLastError(code); reported as a robust Pass.
  CallOutcome win_fail(std::uint32_t code, std::uint64_t ret = 0);
  /// POSIX: returns -1 after errno = code.
  CallOutcome posix_fail(int code);
  /// Propagates a MemStatus into the correct Win32 failure shape (kStopped:
  /// the stopped outcome).
  CallOutcome win_mem_fail(MemStatus s, std::uint64_t fail_ret = 0);
  CallOutcome posix_mem_fail(MemStatus s);

  // --- the stop in flight ----------------------------------------------------

  /// Records `f`, the fault a user-mode access took, and returns the stopped
  /// outcome: `return ctx.raise(*f);`.  Once the machine has died, what
  /// stopped the access was the panic (a store an armed cut fired on returns
  /// an engaged MaybeFault): nothing is recorded.
  CallOutcome raise(const sim::Fault& f);
  /// Records `f` for a helper that reports MemStatus; returns kStopped.
  MemStatus record(const sim::Fault& f);
  /// Folds an access's returned fault into a MemStatus: kOk, or kStopped
  /// with the fault recorded.
  MemStatus trap(const sim::MaybeFault& f) {
    return f ? record(*f) : MemStatus::kOk;
  }
  /// Records that the task blocks with no possible waker at `site` (the
  /// MuT's name or a literal; the view must outlive the case) and returns
  /// the stopped outcome, which Executor::run_case classifies Restart.
  CallOutcome hang(std::string_view site);

  /// The first fault recorded, the first hang site recorded, and how many
  /// causes (faults and hangs) were: a stopped call records exactly one, or
  /// none when the machine died (Executor::run_case treats anything else as
  /// a harness bug).
  const std::optional<sim::Fault>& fault() const noexcept { return fault_; }
  const std::optional<std::string_view>& hang_site() const noexcept {
    return hang_site_;
  }
  int causes_recorded() const noexcept { return causes_recorded_; }

 private:
  /// Records the validation layer's verdict on one API-level user-memory
  /// access (exactly one kProbeDecision per k_read/k_write/k_read_*str call).
  void emit_probe(trace::ProbeResult r, sim::Addr a, std::size_t size,
                  bool is_write);
  /// The Win9x loose stub check: rejects only obvious garbage.
  bool stub_rejects(sim::Addr a) const noexcept;
  /// Windows CE slot addressing for kernel-context dereferences.
  sim::Addr slotize(sim::Addr a) const noexcept;
  /// Hazardous unprobed kernel write: may corrupt the arena or panic
  /// (kStopped).
  MemStatus hazard_write(sim::Addr a, std::span<const std::uint8_t> in);
  MemStatus hazard_read(sim::Addr a, std::span<std::uint8_t> out);
  /// Deferred-hazard staging-buffer overrun into the shared arena.
  MemStatus corrupt_staging_area();

  sim::Machine& machine_;
  sim::SimProcess& proc_;
  const MuT& mut_;
  std::span<const RawArg> args_;
  CrashStyle hazard_;
  std::optional<sim::Fault> fault_;
  std::optional<std::string_view> hang_site_;
  int causes_recorded_ = 0;
};

}  // namespace ballista::core
