// Hardware-class fault model for the simulated machine.
//
// A test task that takes one of these is classified as an Abort failure
// (paper §2: "Abort failures are an abnormal termination ... as the result of
// a signal or thrown exception").  A fault taken *inside the kernel* on an OS
// personality that does not probe user pointers escalates to a KernelPanic,
// which the harness classifies as Catastrophic.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ballista::sim {

using Addr = std::uint64_t;

/// Hardware exception classes observed by the paper (§3.2 lists the Windows CE
/// set; POSIX signals are the Unix analogues).
enum class FaultType : std::uint8_t {
  kAccessViolation,    // SIGSEGV / EXCEPTION_ACCESS_VIOLATION
  kMisalignment,       // SIGBUS  / EXCEPTION_DATATYPE_MISALIGNMENT
  kStackOverflow,      // EXCEPTION_STACK_OVERFLOW
  kArithmetic,         // SIGFPE  / EXCEPTION_INT_DIVIDE_BY_ZERO
  kIllegalInstruction  // SIGILL
};

std::string_view fault_type_name(FaultType t) noexcept;

struct Fault {
  FaultType type = FaultType::kAccessViolation;
  Addr address = 0;
  bool is_write = false;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// What an access that may trap returns: empty when it completed, else the
/// fault it took.  The MMU returns it where hardware would trap, and every
/// layer above passes it up to the executor, which classifies the task's
/// fault (DESIGN.md §4).  [[nodiscard]], so a dropped fault does not compile
/// cleanly.
struct [[nodiscard]] MaybeFault : std::optional<Fault> {
  using std::optional<Fault>::optional;
};

/// Why a machine died.  The structured counterpart of the old free-form
/// crash-reason strings: blame attribution (deferred vs. immediate) and all
/// human-readable rendering key off this enum, never off string matching.
enum class PanicKind : std::uint8_t {
  kNone = 0,            // machine is up
  kKernelPageFault,     // page fault in kernel context (unprobed user pointer)
  kCriticalArenaWrite,  // kernel write through user pointer hit a critical area
  kDeferredFuse,        // delayed death from earlier shared-arena corruption
  kInduced,             // test/diagnostic hook forced the panic
  kFaultInjection,      // crash-consistency cut at an armed mutation point
};

/// The single source of panic-reason text (Machine::crash_reason and the
/// trace renderer both delegate here).
std::string_view panic_reason(PanicKind k) noexcept;

// Shared formatters: the one place fault/hang/panic text is assembled.
std::string describe_fault(const Fault& f);
std::string describe_panic(PanicKind k);
std::string describe_hang(std::string_view site);

/// Harness code (CRT set-up, test-value materialization) touches only memory
/// it has just mapped, so a fault there is a harness bug, never a verdict:
/// throws std::logic_error naming `where` and the fault.
void expect_no_fault(MaybeFault f, std::string_view where);

/// A fault as an exception.  Nothing a module under test runs throws it: the
/// MMU returns its faults as MaybeFault values.  It stays for callers that
/// still name it in a handler.
class SimFault : public std::runtime_error {
 public:
  explicit SimFault(const Fault& f)
      : std::runtime_error(describe_fault(f)), fault_(f) {}

  const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

/// Thrown when kernel-mode code corrupts machine state beyond recovery: the
/// simulated Blue Screen.  Only a Machine::reboot() clears it.
class KernelPanic : public std::runtime_error {
 public:
  explicit KernelPanic(PanicKind why)
      : std::runtime_error(describe_panic(why)), why_(why) {}

  PanicKind kind() const noexcept { return why_; }

 private:
  PanicKind why_;
};

/// Thrown when a simulated task blocks with no possible waker; the executor's
/// watchdog converts it to a Restart failure.
class TaskHang : public std::runtime_error {
 public:
  explicit TaskHang(std::string_view site)
      : std::runtime_error(describe_hang(site)) {}
};

}  // namespace ballista::sim
