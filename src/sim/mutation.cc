#include "sim/mutation.h"

#include "sim/machine.h"

namespace ballista::sim {

std::string_view mutation_kind_name(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kPageWrite: return "page_write";
    case MutationKind::kPageMap: return "page_map";
    case MutationKind::kPageUnmap: return "page_unmap";
    case MutationKind::kPageProtect: return "page_protect";
    case MutationKind::kFsCreate: return "fs_create";
    case MutationKind::kFsRemove: return "fs_remove";
    case MutationKind::kFsRename: return "fs_rename";
    case MutationKind::kFsData: return "fs_data";
    case MutationKind::kFsMeta: return "fs_meta";
    case MutationKind::kHandleCreate: return "handle_create";
    case MutationKind::kHandleClose: return "handle_close";
    case MutationKind::kHandleSignal: return "handle_signal";
    case MutationKind::kProcessUpdate: return "process_update";
  }
  return "unknown";
}

Verdict MutationHub::notify_slow(MutationKind kind, std::uint64_t detail) {
  if (down_) {
    ++late_;
    return Verdict::kDown;
  }
  // Page-write coalescing: a run of byte stores to one page is one
  // persistence point.  Any other announcement (including a write to a
  // different page) breaks the run.
  if (kind == MutationKind::kPageWrite && have_last_ &&
      last_kind_ == MutationKind::kPageWrite && last_detail_ == detail)
    return Verdict::kUp;
  have_last_ = true;
  last_kind_ = kind;
  last_detail_ = detail;

  ++seq_;
  ++counts_[static_cast<std::size_t>(kind)];
  machine_.trace().emit(trace::mutation_point_event(kind, seq_, detail));

  if (plan_.cut_at == 0 || seq_ != plan_.cut_at) return Verdict::kUp;
  // The cut fires *before* the caller applies the mutation: disarm first
  // (the reboot that follows must not re-trigger), record where it fired,
  // and kill the machine.
  cut_fired_at_ = seq_;
  plan_ = FaultPlan{};
  update_live();
  machine_.trace().emit(trace::fault_cut_event(kind, cut_fired_at_));
  return machine_.panic(PanicKind::kFaultInjection);
}

}  // namespace ballista::sim
