// Hardware-class fault model for the simulated machine.
//
// A test task that takes one of these is classified as an Abort failure
// (paper §2: "Abort failures are an abnormal termination ... as the result of
// a signal or thrown exception").  A fault taken *inside the kernel* on an OS
// personality that does not probe user pointers escalates to a kernel panic,
// which the harness classifies as Catastrophic.  Both travel to the executor
// as values: a fault as a MaybeFault, a panic as a Verdict (DESIGN.md §4).
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

/// What a kernel step that can kill the machine reports: kUp when the
/// machine survived it, kDown when it panicked during the step.  kDown means
/// Machine::panic ran (the crash is recorded and kPanic emitted) and the step
/// applied nothing past that point; the caller stops and passes it up to the
/// executor, which classifies the case Catastrophic (DESIGN.md §10).
/// [[nodiscard]], so a dropped panic does not compile cleanly.
enum class [[nodiscard]] Verdict : std::uint8_t { kUp, kDown };

constexpr bool down(Verdict v) noexcept { return v == Verdict::kDown; }

/// What a kernel step that can kill the machine returns when it also yields
/// a value: the value, meaningful only while `verdict` is kUp.
template <typename T>
struct [[nodiscard]] Survived {
  T value{};
  Verdict verdict = Verdict::kUp;

  bool down() const noexcept { return verdict == Verdict::kDown; }
};

/// What an access that may trap returns: empty when it completed, else the
/// fault it took.  The MMU returns it where hardware would trap, and every
/// layer above passes it up to the executor, which classifies the task's
/// fault (DESIGN.md §4).  A store the machine died under (an armed cut fired
/// on it) returns a panicked() value: engaged, so every path that passes a
/// fault up passes the panic up too, and the Fault it holds means nothing.
/// [[nodiscard]], so a dropped fault does not compile cleanly.
struct [[nodiscard]] MaybeFault : std::optional<Fault> {
  using std::optional<Fault>::optional;

  /// The machine panicked during the access (Verdict::kDown).
  static MaybeFault down() {
    MaybeFault f{Fault{}};
    f.down_ = true;
    return f;
  }
  bool panicked() const noexcept { return down_; }

 private:
  bool down_ = false;
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
/// throws std::logic_error naming `where` and the fault.  A store the machine
/// died under is kDown (CRT set-up reached from a module under test can be
/// cut like any store).
Verdict expect_no_fault(MaybeFault f, std::string_view where);

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

/// A kernel panic as an exception.  Nothing in the simulator throws it: a
/// panic is a Verdict (Machine::panic), and the crash state it records is
/// cleared only by Machine::reboot().  It stays for callers that still name
/// it in a handler.
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
