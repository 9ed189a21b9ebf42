#include "sim/kobject.h"

#include <algorithm>

#include "sim/filesystem.h"
#include "sim/mutation.h"

namespace ballista::sim {

void KernelObject::set_signaled(bool s) {
  // Only an actual flip is a persistence point — re-signaling a signaled
  // event mutates nothing.
  if (s != signaled_ && hub_ != nullptr)
    hub_->notify(MutationKind::kHandleSignal,
                 static_cast<std::uint64_t>(kind_));
  signaled_ = s;
}

std::uint64_t FileObject::read_at(std::span<std::uint8_t> out) {
  if (node_ == nullptr || node_->is_dir()) return 0;
  const auto& data = node_->data();
  if (pos_ >= data.size()) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), data.size() - pos_);
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(pos_), n, out.begin());
  pos_ += n;
  return n;
}

std::uint64_t FileObject::write_at(std::span<const std::uint8_t> in) {
  if (node_ == nullptr || node_->is_dir()) return 0;
  if (!in.empty() && mutation_hub() != nullptr)
    mutation_hub()->notify(MutationKind::kFsData, in.size());
  auto& data = node_->data();
  if (append_) pos_ = data.size();
  if (pos_ + in.size() > data.size()) data.resize(pos_ + in.size());
  std::copy(in.begin(), in.end(),
            data.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ += in.size();
  return in.size();
}

std::string_view object_kind_name(ObjectKind k) noexcept {
  switch (k) {
    case ObjectKind::kFile: return "File";
    case ObjectKind::kDirectory: return "Directory";
    case ObjectKind::kFindHandle: return "FindHandle";
    case ObjectKind::kEvent: return "Event";
    case ObjectKind::kMutex: return "Mutex";
    case ObjectKind::kSemaphore: return "Semaphore";
    case ObjectKind::kThread: return "Thread";
    case ObjectKind::kProcess: return "Process";
    case ObjectKind::kHeap: return "Heap";
    case ObjectKind::kPipe: return "Pipe";
    case ObjectKind::kModule: return "Module";
    case ObjectKind::kStdStream: return "StdStream";
    case ObjectKind::kSocket: return "Socket";
  }
  return "Unknown";
}

std::size_t HandleTable::slot_of(std::uint64_t h) const noexcept {
  if (posix_numbering_) return h;
  return h % 4 == 0 ? h / 4 : kNoSlot;
}

std::size_t HandleTable::next_live(std::size_t slot) const noexcept {
  while (slot < slots_.size() && slots_[slot] == nullptr) ++slot;
  return slot;
}

void HandleTable::put(std::size_t slot, ObjectRef obj) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  if (slots_[slot] == nullptr) ++live_;
  slots_[slot] = std::move(obj);
}

std::uint64_t HandleTable::insert(ObjectRef obj) {
  std::uint64_t h;
  if (posix_numbering_) {
    // POSIX fd allocation: the lowest unused slot.
    h = 0;
    while (h < slots_.size() && slots_[h] != nullptr) ++h;
  } else {
    h = next_win32_;
    next_win32_ += 4;
  }
  obj->bind_mutation_hub(hub_);
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleCreate, h);
  put(slot_of(h), std::move(obj));
  return h;
}

void HandleTable::insert_at(std::uint64_t h, ObjectRef obj) {
  if (slot_of(h) == kNoSlot) return;
  obj->bind_mutation_hub(hub_);
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleCreate, h);
  put(slot_of(h), std::move(obj));
}

HandleTable::ObjectRef HandleTable::get(std::uint64_t h) const noexcept {
  const std::size_t slot = slot_of(h);
  return slot < slots_.size() ? slots_[slot] : nullptr;
}

bool HandleTable::close(std::uint64_t h) {
  const std::size_t slot = slot_of(h);
  if (slot >= slots_.size() || slots_[slot] == nullptr)
    return false;  // no mutation, no point
  if (hub_ != nullptr) hub_->notify(MutationKind::kHandleClose, h);
  slots_[slot].reset();
  --live_;
  return true;
}

}  // namespace ballista::sim
