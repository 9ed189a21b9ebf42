#include "core/execctx.h"

#include <bit>
#include <cerrno>

namespace ballista::core {

namespace {
// Win32 error codes used by the context itself.
constexpr std::uint32_t kErrorNoaccess = 998;  // ERROR_NOACCESS
}  // namespace

double CallContext::argf(std::size_t i) const noexcept {
  return std::bit_cast<double>(args_[i]);
}

void CallContext::emit_probe(trace::ProbeResult r, sim::Addr a,
                             std::size_t size, bool is_write) {
  machine_.trace().emit(trace::probe_event(
      r, a, static_cast<std::uint32_t>(size), is_write));
}

bool CallContext::stub_rejects(sim::Addr a) const noexcept {
  // The Win9x user-mode stubs caught only the obvious garbage: null-ish
  // pointers in the first 64K and anything pointing at kernel space.
  return a < sim::kLowSystemEnd || a >= sim::kSharedArenaBase;
}

sim::Addr CallContext::slotize(sim::Addr a) const noexcept {
  // Windows CE slot-based addressing: kernel-context resolution of a garbage
  // process-relative address lands in the machine-shared slot space instead
  // of a private mapping.  Addresses that are valid in the task, or already
  // arena/kernel range, pass through unchanged.
  if (!os().slot_addressing) return a;
  auto& mem = proc_.mem();
  if (a >= sim::kSharedArenaBase) return a;
  if (mem.check_range(a, 1, false, sim::Access::kKernel)) return a;
  return sim::kSharedArenaBase + (a & 0x00ff'ffff);
}

MemStatus CallContext::hazard_write(sim::Addr a,
                                    std::span<const std::uint8_t> in) {
  auto& mem = proc_.mem();
  a = slotize(a);
  if (mem.arena() != nullptr && mem.arena()->contains(a)) {
    // The write lands in the machine-shared arena: it "succeeds" from the
    // caller's point of view while corrupting system structures.  Immediate-
    // style hazards die on the spot (kStopped); deferred-style arm the fuse
    // and let this call return success.
    if (auto f = mem.write_bytes(a, in, sim::Access::kKernel))
      return record(*f);
    machine_.trace().emit(trace::hazard_write_event(
        a, static_cast<std::uint32_t>(in.size()), /*staging=*/false));
    if (sim::down(machine_.note_arena_corruption(
            a, hazard_ == CrashStyle::kImmediate)))
      return MemStatus::kStopped;
    return MemStatus::kOk;
  }
  if (hazard_ == CrashStyle::kImmediate) {
    // An unprobed kernel write that faults is a page fault in kernel context
    // (unless the store itself was cut: the machine is already down).
    if (mem.write_bytes(a, in, sim::Access::kKernel)) {
      if (!machine_.crashed())
        (void)machine_.panic(sim::PanicKind::kKernelPageFault);
      return MemStatus::kStopped;
    }
    return MemStatus::kOk;
  }
  // Deferred-style hazard: the fast path stages the transfer through a
  // kernel buffer in the shared arena using a length derived from the
  // (garbage) arguments.  The staging copy overruns into adjacent kernel
  // structures — the call itself "succeeds", and the machine dies a few
  // kernel entries later (the paper's `*` failures).
  if (!mem.check_range(a, in.size(), /*write=*/true, sim::Access::kKernel))
    return corrupt_staging_area();
  return trap(mem.write_bytes(a, in, sim::Access::kKernel));
}

MemStatus CallContext::corrupt_staging_area() {
  auto& mem = proc_.mem();
  if (mem.arena() == nullptr) return MemStatus::kOk;  // no shared state
  constexpr sim::Addr kStaging = sim::kSharedArenaBase + 0x5000;
  const std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad,
                                 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef,
                                 0xde, 0xad, 0xbe, 0xef};
  if (auto f = mem.write_bytes(kStaging, junk, sim::Access::kKernel))
    return record(*f);
  machine_.trace().emit(
      trace::hazard_write_event(kStaging, sizeof junk, /*staging=*/true));
  if (sim::down(machine_.note_arena_corruption(kStaging, /*critical=*/false)))
    return MemStatus::kStopped;
  return MemStatus::kOk;
}

MemStatus CallContext::hazard_read(sim::Addr a, std::span<std::uint8_t> out) {
  auto& mem = proc_.mem();
  a = slotize(a);
  if (mem.arena() != nullptr && mem.arena()->contains(a))
    return trap(mem.read_bytes(a, out, sim::Access::kKernel));
  if (hazard_ == CrashStyle::kImmediate) {
    if (mem.read_bytes(a, out, sim::Access::kKernel)) {
      (void)machine_.panic(sim::PanicKind::kKernelPageFault);
      return MemStatus::kStopped;
    }
    return MemStatus::kOk;
  }
  if (!mem.check_range(a, out.size(), /*write=*/false, sim::Access::kKernel)) {
    // Deferred-style hazard on a read: the staging copy still overruns.
    // The caller receives zero-filled data and a success indication.
    if (corrupt_staging_area() == MemStatus::kStopped)
      return MemStatus::kStopped;
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return MemStatus::kOk;
  }
  return trap(mem.read_bytes(a, out, sim::Access::kKernel));
}

MemStatus CallContext::k_write(sim::Addr a, std::span<const std::uint8_t> in) {
  auto& mem = proc_.mem();
  if (hazard_ != CrashStyle::kNone) {
    emit_probe(trace::ProbeResult::kUnprobed, a, in.size(), true);
    return hazard_write(a, in);
  }

  switch (os().pointer_policy) {
    case sim::PointerPolicy::kProbeReturnError:
      if (!mem.check_range(a, in.size(), true, sim::Access::kUser)) {
        emit_probe(trace::ProbeResult::kRejected, a, in.size(), true);
        return MemStatus::kError;
      }
      emit_probe(trace::ProbeResult::kOk, a, in.size(), true);
      return trap(mem.write_bytes(a, in, sim::Access::kKernel));

    case sim::PointerPolicy::kProbeRaiseException:
      // NT/2000: the probe failure surfaces as an access-violation exception
      // raised into the calling task — write through user-mode rules so the
      // fault carries the faulting address.
      emit_probe(trace::ProbeResult::kGuarded, a, in.size(), true);
      return trap(mem.write_bytes(a, in, sim::Access::kUser));

    case sim::PointerPolicy::kStubCheckLoose:
      if (stub_rejects(a)) {
        emit_probe(trace::ProbeResult::kStubSilent, a, in.size(), true);
        return MemStatus::kSilent;
      }
      // Subtler garbage (dangling, read-only, guard pages) is dereferenced in
      // user mode and faults there: an Abort, not a crash.
      emit_probe(trace::ProbeResult::kOk, a, in.size(), true);
      return trap(mem.write_bytes(a, in, sim::Access::kUser));
  }
  return MemStatus::kError;
}

MemStatus CallContext::k_read(sim::Addr a, std::span<std::uint8_t> out) {
  auto& mem = proc_.mem();
  if (hazard_ != CrashStyle::kNone) {
    emit_probe(trace::ProbeResult::kUnprobed, a, out.size(), false);
    return hazard_read(a, out);
  }

  switch (os().pointer_policy) {
    case sim::PointerPolicy::kProbeReturnError:
      if (!mem.check_range(a, out.size(), false, sim::Access::kUser)) {
        emit_probe(trace::ProbeResult::kRejected, a, out.size(), false);
        return MemStatus::kError;
      }
      emit_probe(trace::ProbeResult::kOk, a, out.size(), false);
      return trap(mem.read_bytes(a, out, sim::Access::kKernel));

    case sim::PointerPolicy::kProbeRaiseException:
      emit_probe(trace::ProbeResult::kGuarded, a, out.size(), false);
      return trap(mem.read_bytes(a, out, sim::Access::kUser));

    case sim::PointerPolicy::kStubCheckLoose:
      if (stub_rejects(a)) {
        emit_probe(trace::ProbeResult::kStubSilent, a, out.size(), false);
        return MemStatus::kSilent;
      }
      emit_probe(trace::ProbeResult::kOk, a, out.size(), false);
      return trap(mem.read_bytes(a, out, sim::Access::kUser));
  }
  return MemStatus::kError;
}

MemStatus CallContext::k_read_str(sim::Addr a, std::string* out,
                                  std::size_t max_len) {
  auto& mem = proc_.mem();
  if (hazard_ != CrashStyle::kNone) {
    // Hazardous string reads: byte-wise kernel walk.
    emit_probe(trace::ProbeResult::kUnprobed, a, 0, false);
    out->clear();
    for (std::size_t i = 0; i < max_len; ++i) {
      std::uint8_t c = 0;
      const MemStatus s = hazard_read(a + i, {&c, 1});
      if (s != MemStatus::kOk) return s;
      if (c == 0) return MemStatus::kOk;
      out->push_back(static_cast<char>(c));
    }
    return MemStatus::kOk;
  }

  switch (os().pointer_policy) {
    case sim::PointerPolicy::kProbeReturnError: {
      // Probe-as-you-go, page-wise: accessibility is page-granular, so
      // probing the first byte of each page segment covers the segment and
      // rejects at exactly the address the historical byte-wise walk
      // rejected at (the first byte the walk touches in the bad page).
      out->clear();
      std::size_t i = 0;
      while (i < max_len) {
        if (!mem.check_range(a + i, 1, false, sim::Access::kUser)) {
          emit_probe(trace::ProbeResult::kRejected, a + i, 1, false);
          return MemStatus::kError;
        }
        const std::size_t n = std::min<std::size_t>(
            sim::kPageSize - ((a + i) % sim::kPageSize), max_len - i);
        std::string seg;
        if (auto f = mem.read_cstr(a + i, &seg, n, sim::Access::kKernel))
          return record(*f);
        out->append(seg);
        if (seg.size() < n) {
          emit_probe(trace::ProbeResult::kOk, a, i + seg.size(), false);
          return MemStatus::kOk;
        }
        i += n;
      }
      emit_probe(trace::ProbeResult::kOk, a, max_len, false);
      return MemStatus::kOk;
    }
    case sim::PointerPolicy::kProbeRaiseException:
      emit_probe(trace::ProbeResult::kGuarded, a, 0, false);
      return trap(mem.read_cstr(a, out, max_len, sim::Access::kUser));
    case sim::PointerPolicy::kStubCheckLoose:
      if (stub_rejects(a)) {
        emit_probe(trace::ProbeResult::kStubSilent, a, 0, false);
        return MemStatus::kSilent;
      }
      emit_probe(trace::ProbeResult::kOk, a, 0, false);
      return trap(mem.read_cstr(a, out, max_len, sim::Access::kUser));
  }
  return MemStatus::kError;
}

MemStatus CallContext::k_read_wstr(sim::Addr a, std::u16string* out,
                                   std::size_t max_len) {
  auto& mem = proc_.mem();
  if (hazard_ != CrashStyle::kNone) {
    emit_probe(trace::ProbeResult::kUnprobed, a, 0, false);
    out->clear();
    for (std::size_t i = 0; i < max_len; ++i) {
      std::uint8_t b[2] = {0, 0};
      const MemStatus s = hazard_read(a + 2 * i, {b, 2});
      if (s != MemStatus::kOk) return s;
      const char16_t c = static_cast<char16_t>(b[0] | (b[1] << 8));
      if (c == 0) return MemStatus::kOk;
      out->push_back(c);
    }
    return MemStatus::kOk;
  }
  switch (os().pointer_policy) {
    case sim::PointerPolicy::kProbeReturnError: {
      out->clear();
      for (std::size_t i = 0; i < max_len; ++i) {
        if (!mem.check_range(a + 2 * i, 2, false, sim::Access::kUser)) {
          emit_probe(trace::ProbeResult::kRejected, a + 2 * i, 2, false);
          return MemStatus::kError;
        }
        std::uint16_t c = 0;
        if (auto f = mem.read_u16(a + 2 * i, &c, sim::Access::kKernel))
          return record(*f);
        if (c == 0) {
          emit_probe(trace::ProbeResult::kOk, a, 2 * i, false);
          return MemStatus::kOk;
        }
        out->push_back(static_cast<char16_t>(c));
      }
      emit_probe(trace::ProbeResult::kOk, a, 2 * max_len, false);
      return MemStatus::kOk;
    }
    case sim::PointerPolicy::kProbeRaiseException:
      emit_probe(trace::ProbeResult::kGuarded, a, 0, false);
      return trap(mem.read_wstr(a, out, max_len, sim::Access::kUser));
    case sim::PointerPolicy::kStubCheckLoose:
      if (stub_rejects(a)) {
        emit_probe(trace::ProbeResult::kStubSilent, a, 0, false);
        return MemStatus::kSilent;
      }
      emit_probe(trace::ProbeResult::kOk, a, 0, false);
      return trap(mem.read_wstr(a, out, max_len, sim::Access::kUser));
  }
  return MemStatus::kError;
}

MemStatus CallContext::k_write_u32(sim::Addr a, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return k_write(a, b);
}

MemStatus CallContext::k_write_u64(sim::Addr a, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return k_write(a, b);
}

MemStatus CallContext::k_read_u32(sim::Addr a, std::uint32_t* v) {
  std::uint8_t b[4] = {};
  const MemStatus s = k_read(a, b);
  if (s != MemStatus::kOk) return s;
  *v = 0;
  for (int i = 3; i >= 0; --i) *v = (*v << 8) | b[i];
  return MemStatus::kOk;
}

MemStatus CallContext::k_read_u64(sim::Addr a, std::uint64_t* v) {
  std::uint8_t b[8] = {};
  const MemStatus s = k_read(a, b);
  if (s != MemStatus::kOk) return s;
  *v = 0;
  for (int i = 7; i >= 0; --i) *v = (*v << 8) | b[i];
  return MemStatus::kOk;
}

CallOutcome CallContext::win_fail(std::uint32_t code, std::uint64_t ret) {
  proc_.set_last_error(code);
  return error_reported(ret);
}

CallOutcome CallContext::posix_fail(int code) {
  proc_.set_errno(code);
  return error_reported(static_cast<std::uint64_t>(-1));
}

CallOutcome CallContext::win_mem_fail(MemStatus s, std::uint64_t fail_ret) {
  if (s == MemStatus::kStopped) return stopped();
  if (s == MemStatus::kSilent) return silent_success(1);
  return win_fail(kErrorNoaccess, fail_ret);
}

CallOutcome CallContext::posix_mem_fail(MemStatus s) {
  if (s == MemStatus::kStopped) return stopped();
  if (s == MemStatus::kSilent) return silent_success(0);
  return posix_fail(EFAULT);
}

CallOutcome CallContext::raise(const sim::Fault& f) {
  (void)record(f);
  return stopped();
}

MemStatus CallContext::record(const sim::Fault& f) {
  if (machine_.crashed()) return MemStatus::kStopped;
  ++causes_recorded_;
  if (!fault_) fault_ = f;
  return MemStatus::kStopped;
}

CallOutcome CallContext::hang(std::string_view site) {
  ++causes_recorded_;
  if (!hang_site_) hang_site_ = site;
  return stopped();
}

}  // namespace ballista::core
