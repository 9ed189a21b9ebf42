// Hardware-class fault model for the simulated machine.
//
// A test task that takes one of these is classified as an Abort failure
// (paper §2: "Abort failures are an abnormal termination ... as the result of
// a signal or thrown exception").  A fault taken *inside the kernel* on an OS
// personality that does not probe user pointers escalates to a kernel panic,
// which the harness classifies as Catastrophic.  Both are values: a fault is
// a MaybeFault the CallContext records, a panic a Verdict the Machine records
// (DESIGN.md §4).
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
/// fault it took.  The MMU returns it where hardware would trap, and the
/// CallContext records it (DESIGN.md §4).  A store the machine died under
/// (an armed cut fired on it) returns an engaged value too, whose Fault
/// means nothing: its readers ask the machine (Machine::crashed(), the
/// MutationHub) and record nothing.  [[nodiscard]], so a dropped fault does
/// not compile cleanly.
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

// The three stops as exceptions.  Nothing in the simulator or the harness
// throws or catches them: a fault, a panic and a hang are each recorded
// where they happen and the call returns core::stopped().  They stay only
// because bench_record's probe_case still names them in a handler; the next
// change to the benchmark drops that handler and these declarations.

class SimFault : public std::runtime_error {
 public:
  explicit SimFault(const Fault& f)
      : std::runtime_error(describe_fault(f)), fault_(f) {}

  const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

class KernelPanic : public std::runtime_error {
 public:
  explicit KernelPanic(PanicKind why)
      : std::runtime_error(describe_panic(why)), why_(why) {}

  PanicKind kind() const noexcept { return why_; }

 private:
  PanicKind why_;
};

class TaskHang : public std::runtime_error {
 public:
  explicit TaskHang(std::string_view site)
      : std::runtime_error(describe_hang(site)) {}
};

}  // namespace ballista::sim
