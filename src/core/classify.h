// CRASH-scale classification (paper §2).
#pragma once

#include <cstdint>
#include <string_view>

namespace ballista::core {

/// Per-test-case primary outcome.  Silent and Hindering failures are not a
/// primary outcome: the paper estimates Silent failures separately by voting
/// across OS variants (Figure 2), and Hindering only where an oracle exists.
enum class Outcome : std::uint8_t {
  kPass,          // error properly reported, or graceful success
  kAbort,         // hardware-class exception escaped the task
  kRestart,       // task hung; watchdog fired
  kCatastrophic,  // machine down; reboot required
  kNotRun,        // testing of this MuT was interrupted by a system crash
};

std::string_view outcome_name(Outcome o) noexcept;

/// What the module under test reported back through its normal interface.
enum class CallStatus : std::uint8_t {
  kSuccess,        // completed, no error indication
  kErrorReported,  // failure return *and* a plausible error code
  kSilentSuccess,  // returned success while knowingly doing nothing
                   // (the Win9x loose-stub path)
  kWrongError,     // failure return with a misleading error code (Hindering)
  kFaulted,        // the task took a hardware-class fault, recorded on its
                   // CallContext (CallContext::raise); classified as Abort
  kPanicked,       // the machine panicked under the call (Machine::panic
                   // returned Verdict::kDown); classified as Catastrophic
};

struct [[nodiscard]] CallOutcome {
  CallStatus status = CallStatus::kSuccess;
  std::uint64_t ret = 0;
};

/// Convenience constructors used by API implementations.
inline CallOutcome ok(std::uint64_t ret = 0) {
  return {CallStatus::kSuccess, ret};
}
inline CallOutcome error_reported(std::uint64_t ret) {
  return {CallStatus::kErrorReported, ret};
}
inline CallOutcome silent_success(std::uint64_t ret) {
  return {CallStatus::kSilentSuccess, ret};
}
inline CallOutcome wrong_error(std::uint64_t ret) {
  return {CallStatus::kWrongError, ret};
}
/// The outcome of a call whose task took a fault; only valid once the fault
/// is recorded on the CallContext (CallContext::raise, or a kFault MemStatus).
inline CallOutcome faulted() { return {CallStatus::kFaulted, 0}; }
/// The outcome of a call the machine died under; only valid once the
/// machine has panicked (a step returned sim::Verdict::kDown).
inline CallOutcome panicked() { return {CallStatus::kPanicked, 0}; }

}  // namespace ballista::core
