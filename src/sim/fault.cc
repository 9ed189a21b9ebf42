#include "sim/fault.h"

#include <cstdio>

namespace ballista::sim {

std::string_view fault_type_name(FaultType t) noexcept {
  switch (t) {
    case FaultType::kAccessViolation: return "ACCESS_VIOLATION";
    case FaultType::kMisalignment: return "DATATYPE_MISALIGNMENT";
    case FaultType::kStackOverflow: return "STACK_OVERFLOW";
    case FaultType::kArithmetic: return "ARITHMETIC";
    case FaultType::kIllegalInstruction: return "ILLEGAL_INSTRUCTION";
  }
  return "UNKNOWN";
}

std::string_view panic_reason(PanicKind k) noexcept {
  switch (k) {
    case PanicKind::kNone:
      return "";
    case PanicKind::kKernelPageFault:
      return "page fault in kernel context (unprobed user pointer)";
    case PanicKind::kCriticalArenaWrite:
      return "kernel write through user pointer corrupted system area";
    case PanicKind::kDeferredFuse:
      return "delayed failure from corrupted shared arena";
    case PanicKind::kInduced:
      return "induced panic (test hook)";
    case PanicKind::kFaultInjection:
      return "fault injection cut at an armed mutation point";
  }
  return "";
}

std::string describe_fault(const Fault& f) {
  std::string s{fault_type_name(f.type)};
  s += f.is_write ? " writing " : " reading ";
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(f.address));
  s += buf;
  return s;
}

std::string describe_panic(PanicKind k) {
  std::string s{"kernel panic: "};
  s += panic_reason(k);
  return s;
}

std::string describe_hang(std::string_view site) {
  std::string s{"task hang in "};
  s += site;
  return s;
}

}  // namespace ballista::sim
