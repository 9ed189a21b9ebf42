// Kernel object manager and per-process handle tables.
//
// Win32 HANDLEs and POSIX file descriptors both resolve through a HandleTable
// to reference-counted kernel objects.  Handle values follow NT conventions
// (multiples of 4 starting at 4) so that "small integer that is not a valid
// handle" test values behave as they did on the paper's systems.  Both kinds
// of value are dense small integers, so the table is a flat vector of slots
// (Win32 handle h in slot h/4, POSIX fd n in slot n), not a search tree.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault.h"

namespace ballista::sim {

class FsNode;
class MutationHub;

enum class ObjectKind : std::uint8_t {
  kFile,
  kDirectory,
  kFindHandle,
  kEvent,
  kMutex,
  kSemaphore,
  kThread,
  kProcess,
  kHeap,
  kPipe,
  kModule,
  kStdStream,
  kSocket,  // net/netstack.h SocketObject (growth: sockets group)
};

std::string_view object_kind_name(ObjectKind k) noexcept;

class KernelObject {
 public:
  explicit KernelObject(ObjectKind kind, std::string name = {})
      : kind_(kind), name_(std::move(name)) {}
  virtual ~KernelObject() = default;

  KernelObject(const KernelObject&) = delete;
  KernelObject& operator=(const KernelObject&) = delete;

  ObjectKind kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }

  /// Synchronization state for waitable objects; non-waitables stay signaled
  /// so waits on them return immediately (as NT does for e.g. process handles
  /// of exited processes).
  bool signaled() const noexcept { return signaled_; }
  /// Announces kHandleSignal when the value actually flips.  May throw
  /// KernelPanic when an armed cut fires, so deliberately not noexcept.
  void set_signaled(bool s);

  /// Wires the object into the owning machine's mutation hub; the
  /// HandleTable binds every object it inserts.  Unbound objects (tests,
  /// pre-insert construction) signal silently.
  void bind_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

 protected:
  MutationHub* mutation_hub() const noexcept { return hub_; }
  /// The kernel-side state of a just-constructed object: the given signal
  /// state, set silently, and no hub binding.  For the reset() methods that
  /// let SimProcess::recycle reuse its objects in place.
  void reset_kernel_state(bool signaled) noexcept {
    signaled_ = signaled;
    hub_ = nullptr;
  }

 private:
  ObjectKind kind_;
  std::string name_;
  bool signaled_ = true;
  MutationHub* hub_ = nullptr;
};

struct LockRange {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t owner_pid = 0;
  bool exclusive = true;
};

class FileObject final : public KernelObject {
 public:
  FileObject(std::shared_ptr<FsNode> node, std::uint32_t access, bool append)
      : KernelObject(ObjectKind::kFile),
        node_(std::move(node)),
        access_(access),
        append_(append) {}

  const std::shared_ptr<FsNode>& node() const noexcept { return node_; }
  std::uint64_t position() const noexcept { return pos_; }
  void set_position(std::uint64_t p) noexcept { pos_ = p; }
  std::uint32_t access() const noexcept { return access_; }
  bool append_mode() const noexcept { return append_; }
  std::vector<LockRange>& locks() noexcept { return locks_; }

  static constexpr std::uint32_t kAccessRead = 1;
  static constexpr std::uint32_t kAccessWrite = 2;

  /// Reads from the current position, advancing it; returns bytes read.
  std::uint64_t read_at(std::span<std::uint8_t> out);
  /// Writes at the current position (end when in append mode), growing the
  /// node and advancing; returns bytes written.
  std::uint64_t write_at(std::span<const std::uint8_t> in);

 private:
  std::shared_ptr<FsNode> node_;
  std::uint64_t pos_ = 0;
  std::uint32_t access_;
  bool append_;
  std::vector<LockRange> locks_;
};

class DirectoryObject final : public KernelObject {
 public:
  explicit DirectoryObject(std::shared_ptr<FsNode> node)
      : KernelObject(ObjectKind::kDirectory), node_(std::move(node)) {}
  const std::shared_ptr<FsNode>& node() const noexcept { return node_; }
  std::size_t cursor = 0;

 private:
  std::shared_ptr<FsNode> node_;
};

/// FindFirstFile/FindNextFile enumeration state.
class FindObject final : public KernelObject {
 public:
  explicit FindObject(std::vector<std::string> names)
      : KernelObject(ObjectKind::kFindHandle), names_(std::move(names)) {}
  const std::vector<std::string>& names() const noexcept { return names_; }
  std::size_t cursor = 0;

 private:
  std::vector<std::string> names_;
};

class EventObject final : public KernelObject {
 public:
  EventObject(bool manual_reset, bool initial, std::string name)
      : KernelObject(ObjectKind::kEvent, std::move(name)),
        manual_reset_(manual_reset) {
    set_signaled(initial);
  }
  bool manual_reset() const noexcept { return manual_reset_; }

 private:
  bool manual_reset_;
};

class MutexObject final : public KernelObject {
 public:
  MutexObject(bool initially_owned, std::string name)
      : KernelObject(ObjectKind::kMutex, std::move(name)),
        held_(initially_owned) {
    set_signaled(!initially_owned);
  }
  bool held() const noexcept { return held_; }
  void set_held(bool h) {
    held_ = h;
    set_signaled(!h);
  }

 private:
  bool held_;
};

class SemaphoreObject final : public KernelObject {
 public:
  SemaphoreObject(std::int64_t initial, std::int64_t maximum, std::string name)
      : KernelObject(ObjectKind::kSemaphore, std::move(name)),
        count_(initial),
        max_(maximum) {
    set_signaled(count_ > 0);
  }
  std::int64_t count() const noexcept { return count_; }
  std::int64_t maximum() const noexcept { return max_; }
  bool release(std::int64_t n) {
    if (count_ + n > max_) return false;
    count_ += n;
    set_signaled(count_ > 0);
    return true;
  }

 private:
  std::int64_t count_;
  std::int64_t max_;
};

/// A thread's saved register context, read/written by Get/SetThreadContext.
/// Sized like a Win32 x86 CONTEXT (the structure Listing 1's crash writes).
struct ThreadContextData {
  std::uint32_t flags = 0;
  std::array<std::uint32_t, 16> regs{};
};

class ThreadObject final : public KernelObject {
 public:
  ThreadObject(std::uint64_t tid, std::uint64_t owner_pid)
      : KernelObject(ObjectKind::kThread), tid_(tid), owner_pid_(owner_pid) {
    set_signaled(false);  // running threads are non-signaled
  }
  /// Returns the object to the state the constructor gives it.
  void reset(std::uint64_t tid, std::uint64_t owner_pid) noexcept {
    reset_kernel_state(false);
    tid_ = tid;
    owner_pid_ = owner_pid;
    ctx_ = {};
    suspend_count = 0;
    priority = 0;
    exit_code = 0x103;
  }
  std::uint64_t tid() const noexcept { return tid_; }
  std::uint64_t owner_pid() const noexcept { return owner_pid_; }
  ThreadContextData& context() noexcept { return ctx_; }
  std::int32_t suspend_count = 0;
  std::int32_t priority = 0;
  std::uint32_t exit_code = 0x103;  // STILL_ACTIVE

 private:
  std::uint64_t tid_;
  std::uint64_t owner_pid_;
  ThreadContextData ctx_;
};

class ProcessObject final : public KernelObject {
 public:
  explicit ProcessObject(std::uint64_t pid)
      : KernelObject(ObjectKind::kProcess), pid_(pid) {
    set_signaled(false);
  }
  /// Returns the object to the state the constructor gives it.
  void reset(std::uint64_t pid) noexcept {
    reset_kernel_state(false);
    pid_ = pid;
    exit_code = 0x103;
  }
  std::uint64_t pid() const noexcept { return pid_; }
  std::uint32_t exit_code = 0x103;

 private:
  std::uint64_t pid_;
};

/// A Win32 growable heap created by HeapCreate.
class HeapObject final : public KernelObject {
 public:
  HeapObject(std::uint64_t initial, std::uint64_t maximum)
      : KernelObject(ObjectKind::kHeap), initial_(initial), max_(maximum) {}
  /// Returns the object to the state the constructor gives it.
  void reset(std::uint64_t initial, std::uint64_t maximum) noexcept {
    reset_kernel_state(true);
    initial_ = initial;
    max_ = maximum;
    allocations.clear();
  }
  std::uint64_t initial_size() const noexcept { return initial_; }
  std::uint64_t max_size() const noexcept { return max_; }
  /// live allocations: address -> size
  std::map<Addr, std::uint64_t> allocations;

 private:
  std::uint64_t initial_;
  std::uint64_t max_;
};

class PipeObject final : public KernelObject {
 public:
  PipeObject() : KernelObject(ObjectKind::kPipe) {}
  /// Returns the object to the state the constructor gives it (keeping the
  /// buffer's capacity).
  void reset() noexcept {
    reset_kernel_state(true);
    buffer.clear();
    read_end_open = true;
    write_end_open = true;
  }
  std::vector<std::uint8_t> buffer;
  bool read_end_open = true;
  bool write_end_open = true;
};

/// Per-process handle table: a flat vector of slots.  Win32 handle h lives
/// in slot h/4 (a value that is not a multiple of 4 names nothing); POSIX
/// fd n lives in slot n.  Handles are few and small (Win32 numbering never
/// reuses a value within a process, and dup2 targets are bounded at 1024),
/// so lookups index the vector and reset() keeps its capacity: a recycled
/// process refills its table without allocating.
class HandleTable {
 public:
  using ObjectRef = std::shared_ptr<KernelObject>;

  std::uint64_t insert(ObjectRef obj);
  /// Inserts at a specific slot (POSIX dup2 semantics; the caller bounds
  /// `h`, since the vector grows to reach it).  A Win32 value that is not a
  /// multiple of 4 names no slot, and inserting there does nothing.
  void insert_at(std::uint64_t h, ObjectRef obj);
  ObjectRef get(std::uint64_t h) const noexcept;
  /// Announces kHandleClose for live handles; may throw KernelPanic when an
  /// armed cut fires (hence not noexcept).
  bool close(std::uint64_t h);
  bool valid(std::uint64_t h) const noexcept { return get(h) != nullptr; }
  /// Number of live handles.
  std::size_t size() const noexcept { return live_; }

  /// Live handles in ascending order, as (handle, object) pairs.
  class Entries {
   public:
    class iterator {
     public:
      iterator(const HandleTable& t, std::size_t slot)
          : t_(&t), slot_(t.next_live(slot)) {}
      std::pair<std::uint64_t, const ObjectRef&> operator*() const {
        return {t_->handle_of(slot_), t_->slots_[slot_]};
      }
      iterator& operator++() {
        slot_ = t_->next_live(slot_ + 1);
        return *this;
      }
      bool operator==(const iterator& o) const noexcept {
        return slot_ == o.slot_;
      }

     private:
      const HandleTable* t_;
      std::size_t slot_;
    };
    explicit Entries(const HandleTable& t) : t_(t) {}
    iterator begin() const { return {t_, 0}; }
    iterator end() const { return {t_, t_.slots_.size()}; }

   private:
    const HandleTable& t_;
  };
  Entries entries() const noexcept { return Entries(*this); }

  /// POSIX mode allocates small consecutive integers starting at 0; Win32
  /// mode allocates multiples of 4 starting at 4.
  void set_posix_numbering(bool on) noexcept { posix_numbering_ = on; }

  /// Wires the table into the owning machine's mutation hub: inserts and
  /// closes announce persistence points, and every inserted object is bound
  /// so its signal flips announce too.  Standalone tables stay silent.
  void set_mutation_hub(MutationHub* hub) noexcept { hub_ = hub; }

  /// Drops every handle and rewinds handle numbering to the fresh-table
  /// state (the numbering mode persists).  Cost is the slot count, and the
  /// vector keeps its capacity.  Part of SimProcess::recycle's pristine
  /// contract.
  void reset() noexcept {
    slots_.clear();
    live_ = 0;
    next_win32_ = 4;
  }

 private:
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();
  /// The slot handle `h` lives in, or kNoSlot when `h` names none.
  std::size_t slot_of(std::uint64_t h) const noexcept;
  std::uint64_t handle_of(std::size_t slot) const noexcept {
    return posix_numbering_ ? slot : slot * 4;
  }
  /// The first live slot at or after `slot`, or slots_.size().
  std::size_t next_live(std::size_t slot) const noexcept;
  void put(std::size_t slot, ObjectRef obj);

  std::vector<ObjectRef> slots_;
  std::size_t live_ = 0;
  std::uint64_t next_win32_ = 4;
  bool posix_numbering_ = false;
  MutationHub* hub_ = nullptr;
};

}  // namespace ballista::sim
