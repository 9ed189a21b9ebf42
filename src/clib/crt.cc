#include "clib/crt.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <stdexcept>
#include <utility>

namespace ballista::clib {

namespace {

/// The ctype table covers c in [-128, 255].
constexpr std::size_t kCtypeEntries = 384;

std::uint8_t classify_char(int c) {
  std::uint8_t bits = 0;
  const unsigned char u = static_cast<unsigned char>(c);
  if (std::isupper(u)) bits |= kCtUpper;
  if (std::islower(u)) bits |= kCtLower;
  if (std::isdigit(u)) bits |= kCtDigit;
  if (std::isspace(u)) bits |= kCtSpace;
  if (std::ispunct(u)) bits |= kCtPunct;
  if (std::iscntrl(u)) bits |= kCtCntrl;
  if (std::isxdigit(u)) bits |= kCtHex;
  if (std::isprint(u)) bits |= kCtPrint;
  return bits;
}

/// The ctype table's contents, computed once per program: every CRT set-up
/// stores the same image, so it costs one page-run write instead of 3,072
/// libc classifier calls and 384 single-byte stores.
const std::array<std::uint8_t, kCtypeEntries>& ctype_image() {
  static const auto image = [] {
    std::array<std::uint8_t, kCtypeEntries> t{};
    for (int c = -128; c <= 255; ++c)
      t[static_cast<std::size_t>(128 + c)] = classify_char(c & 0xff);
    return t;
  }();
  return image;
}

/// Builds the per-task CRT state, or returns null when the machine died
/// under one of its steps (the state is then not attached).
CrtState* build_state(sim::SimProcess& proc) {
  auto state = std::make_shared<CrtState>();
  auto& mem = proc.mem();

  // ctype table for [-128, 255]: 384 bytes placed flush against the end of
  // an isolated page (no neighbours can ever be mapped around it), so
  // table[c] for any c outside [-128, 255] walks into unmapped memory —
  // exactly like running off the real __ctype_b table.
  constexpr Addr kCtypeRegion = 0x7000'0000;
  const Addr page = kCtypeRegion;
  if (mem.map(page, sim::kPageSize, sim::kPermRW) == sim::Verdict::kDown)
    return nullptr;
  state->ctype_table = page + sim::kPageSize - kCtypeEntries;
  if (mem.expect_no_fault(mem.write_bytes(state->ctype_table, ctype_image(),
                                          sim::Access::kKernel),
                          "CRT set-up") == sim::Verdict::kDown)
    return nullptr;

  // _iob region: room for 64 FILE structures, then the static CRT result
  // buffers.
  const auto iob = mem.task_alloc(64 * kFileStructSize);
  if (iob.down()) return nullptr;
  state->iob_base = iob.value;
  state->iob_end = state->iob_base + 64 * kFileStructSize;
  state->iob_next = state->iob_base;
  const auto str = mem.task_alloc(128);
  if (str.down()) return nullptr;
  state->static_str = str.value;
  const auto tm = mem.task_alloc(64);
  if (tm.down()) return nullptr;
  state->static_tm = tm.value;

  proc.set_crt_state(state);
  return state.get();
}

}  // namespace

CrtState* crt_state(sim::SimProcess& proc) {
  if (auto existing = std::static_pointer_cast<CrtState>(proc.crt_state()))
    return existing.get();
  CrtState* st = build_state(proc);
  if (st == nullptr) return nullptr;
  // Standard streams, built after the state is attached so make_file_struct
  // can use it.
  const auto stream = [&](const char* name, std::uint32_t flags, Addr* fp) {
    const sim::Survived<Addr> made = make_file_struct(
        proc, std::make_shared<sim::FsNode>(name, false), flags | kFOpen);
    *fp = made.value;
    return !made.down();
  };
  if (!stream("stdin", kFRead, &st->file_stdin) ||
      !stream("stdout", kFWrite, &st->file_stdout) ||
      !stream("stderr", kFWrite, &st->file_stderr))
    return nullptr;
  return st;
}

CrtState& harness_crt_state(sim::SimProcess& proc) {
  CrtState* st = crt_state(proc);
  if (st == nullptr)
    throw std::logic_error("CRT set-up in harness code was cut");
  return *st;
}

sim::Survived<Addr> make_file_struct(sim::SimProcess& proc,
                                     std::shared_ptr<sim::FsNode> node,
                                     std::uint32_t flags) {
  const sim::Survived<Addr> kDown{0, sim::Verdict::kDown};
  CrtState* st = crt_state(proc);
  if (st == nullptr) return kDown;
  auto& mem = proc.mem();
  if (st->iob_next + kFileStructSize > st->iob_end) return {0};  // table full
  const Addr fp = st->iob_next;
  st->iob_next += kFileStructSize;

  auto obj = std::make_shared<sim::FileObject>(
      std::move(node),
      sim::FileObject::kAccessRead | sim::FileObject::kAccessWrite,
      /*append=*/false);
  const sim::Survived<std::uint64_t> h = proc.handles().insert(std::move(obj));
  if (h.down()) return kDown;

  const auto buf = mem.task_alloc(512);
  if (buf.down()) return kDown;
  const auto lock = mem.task_alloc(16);
  if (lock.down()) return kDown;
  const std::pair<Addr, std::uint32_t> fields[] = {
      {kFileOffMagic, kFileMagic},
      {kFileOffHandle, static_cast<std::uint32_t>(h.value)},
      {kFileOffFlags, flags},
      {kFileOffBuf, static_cast<std::uint32_t>(buf.value)},
      {kFileOffLock, static_cast<std::uint32_t>(lock.value)},
      {kFileOffUnget, 0xffffffff},
      {kFileOffPos, 0}};
  for (const auto& [off, v] : fields)
    if (mem.expect_no_fault(
            mem.write_u32(fp + off, v, sim::Access::kKernel), "CRT set-up") ==
        sim::Verdict::kDown)
      return kDown;
  return {fp};
}

MemStatus file_field_read(CallContext& ctx, Addr fp, Addr off,
                          std::uint32_t* v) {
  *v = 0;
  if (ctx.os().crt_in_kernel) {
    // Hazard/probe semantics applied by the context; a kSilent (deferred
    // stub) result reads as zero, which downstream treats as garbage.
    const MemStatus s = ctx.k_read_u32(fp + off, v);
    return s == MemStatus::kStopped ? s : MemStatus::kOk;
  }
  return ctx.trap(ctx.proc().mem().read_u32(fp + off, v, sim::Access::kUser));
}

MemStatus file_field_write(CallContext& ctx, Addr fp, Addr off,
                           std::uint32_t v) {
  if (ctx.os().crt_in_kernel) {
    const MemStatus s = ctx.k_write_u32(fp + off, v);
    return s == MemStatus::kStopped ? s : MemStatus::kOk;
  }
  return ctx.trap(ctx.proc().mem().write_u32(fp + off, v, sim::Access::kUser));
}

FileRef resolve_file(CallContext& ctx, Addr fp, bool ce_prevalidates) {
  FileRef ref;
  ref.fp = fp;
  const auto flavor = ctx.os().crt;
  auto& proc = ctx.proc();
  auto& mem = proc.mem();
  const CrtState* crt = crt_state(ctx.proc());
  if (crt == nullptr) {
    ref.status = FileRef::Status::kStopped;
    return ref;
  }
  const CrtState& st = *crt;
  // Marks the stream stopped when an access stopped the call.
  const auto stops = [&](MemStatus s) {
    if (s != MemStatus::kStopped) return false;
    ref.status = FileRef::Status::kStopped;
    return true;
  };
  const auto fault = [&](const sim::MaybeFault& f) {
    return stops(ctx.trap(f));
  };
  const auto field = [&](Addr off, std::uint32_t* v) {
    return stops(file_field_read(ctx, fp, off, v));
  };

  if (flavor == sim::CrtFlavor::kMsvcrt) {
    // MSVC CRT: _iob range check before touching anything (this is why the
    // desktop Windows CRT reports errors where glibc aborts).
    if (fp < st.iob_base || fp + kFileStructSize > st.iob_end ||
        (fp - st.iob_base) % kFileStructSize != 0) {
      proc.set_errno(EINVAL);
      return ref;  // kBadf
    }
    std::uint32_t magic = 0;
    if (fault(mem.read_u32(fp + kFileOffMagic, &magic, sim::Access::kUser)))
      return ref;
    if (magic != kFileMagic) {
      proc.set_errno(EINVAL);
      return ref;
    }
  } else if (flavor == sim::CrtFlavor::kGlibc) {
    // glibc: trust the pointer.  Read the magic in user mode (faults on
    // unmapped garbage = SIGSEGV/Abort); on a mismatch, chase the stream's
    // internal buffer and lock pointers the way the real locking fast path
    // does — garbage pointers fault here.
    std::uint32_t magic = 0;
    if (fault(mem.read_u32(fp + kFileOffMagic, &magic, sim::Access::kUser)))
      return ref;
    if (magic != kFileMagic) {
      std::uint32_t buf = 0, lock = 0;
      std::uint8_t scratch = 0;
      // Touch the lock word, then the buffer.
      if (fault(mem.read_u32(fp + kFileOffBuf, &buf, sim::Access::kUser)) ||
          fault(mem.read_u32(fp + kFileOffLock, &lock, sim::Access::kUser)) ||
          fault(mem.read_u8(lock, &scratch, sim::Access::kUser)) ||
          fault(mem.write_u8(lock, 1, sim::Access::kUser)) ||
          fault(mem.read_u8(buf, &scratch, sim::Access::kUser)))
        return ref;
      // Survived by luck (all garbage happened to be mapped): EBADF.
      proc.set_errno(EBADF);
      return ref;
    }
  } else {  // CeCrt: stdio thunks into the kernel.
    if (ce_prevalidates) {
      // The rewind-style quirk: user-mode pre-check before the thunk.
      if (!mem.check_range(fp, kFileStructSize, false, sim::Access::kUser)) {
        // CE pre-validating wrappers raise into the task (Abort).
        std::uint32_t magic = 0;
        if (fault(mem.read_u32(fp + kFileOffMagic, &magic,
                               sim::Access::kUser)))
          return ref;
      }
    }
    std::uint32_t magic = 0;
    if (field(kFileOffMagic, &magic)) return ref;
    if (magic != kFileMagic) {
      // Kernel-side stream locking with garbage pointers: under CE slot
      // addressing these dereferences land in the shared slot space and
      // corrupt it (panic timing decided by the MuT's hazard style).
      std::uint32_t lock = 0, buf = 0, scratch = 0;
      if (field(kFileOffLock, &lock) || stops(ctx.k_write_u32(lock, 1)) ||
          field(kFileOffBuf, &buf) || stops(ctx.k_read_u32(buf, &scratch)))
        return ref;
      proc.set_errno(EBADF);
      return ref;
    }
  }

  if (field(kFileOffFlags, &ref.flags)) return ref;
  if ((ref.flags & kFOpen) == 0) {
    proc.set_errno(EBADF);
    return ref;
  }
  std::uint32_t h = 0;
  if (field(kFileOffHandle, &h)) return ref;
  auto obj = proc.handles().get(h);
  if (obj == nullptr || obj->kind() != sim::ObjectKind::kFile) {
    proc.set_errno(EBADF);
    return ref;
  }
  ref.obj = std::static_pointer_cast<sim::FileObject>(obj);
  ref.status = FileRef::Status::kOk;
  return ref;
}

sim::MaybeFault CharWidth::get(CallContext& ctx, Addr a, std::uint64_t i,
                               std::uint32_t* c) const {
  auto& mem = ctx.proc().mem();
  if (bytes == 1) {
    std::uint8_t v = 0;
    if (auto f = mem.read_u8(a + i, &v, sim::Access::kUser)) return f;
    *c = v;
    return {};
  }
  std::uint16_t v = 0;
  if (auto f = mem.read_u16(a + 2 * i, &v, sim::Access::kUser)) return f;
  *c = v;
  return {};
}

sim::MaybeFault CharWidth::put(CallContext& ctx, Addr a, std::uint64_t i,
                               std::uint32_t c) const {
  auto& mem = ctx.proc().mem();
  if (bytes == 1)
    return mem.write_u8(a + i, static_cast<std::uint8_t>(c),
                        sim::Access::kUser);
  return mem.write_u16(a + 2 * i, static_cast<std::uint16_t>(c),
                       sim::Access::kUser);
}

sim::MaybeFault gather_bytes(sim::AddressSpace& mem, Addr a, std::uint64_t n,
                             std::vector<std::uint8_t>* out) {
  out->clear();
  while (out->size() < n) {
    const std::size_t done = out->size();
    const Addr at = a + done;
    const std::size_t seg = std::min<std::uint64_t>(
        sim::kPageSize - at % sim::kPageSize, n - done);
    out->resize(done + seg);
    if (auto f = mem.read_bytes(at, {out->data() + done, seg},
                                sim::Access::kUser))
      return f;
  }
  return {};
}

sim::MaybeFault CharScanner::load(std::uint64_t i, std::uint32_t* c) {
  const Addr a = base_ + static_cast<Addr>(i) * static_cast<Addr>(bytes_);
  // Unaligned or page-straddling wide chars keep the plain read_u16 path so
  // strict-alignment personalities still raise their misalignment fault.
  if (bytes_ == 2 && (a % 2 != 0 || a % sim::kPageSize == sim::kPageSize - 1))
    return w_.get(ctx_, base_, i, c);
  auto& mem = ctx_.proc().mem();
  const std::size_t n = sim::kPageSize - (a % sim::kPageSize);
  // Buffer from the first touched byte of the page (not the page start) so
  // an unmapped page faults at the character's own address.
  if (auto f = mem.read_bytes(a, {buf_, n}, sim::Access::kUser)) return f;
  seg_start_ = a;
  seg_end_ = a + n;
  *c = buffered(a);
  return {};
}

std::uint8_t clib_mask_all() { return core::kMaskEverything; }
std::uint8_t clib_mask_no_ce() {
  return static_cast<std::uint8_t>(core::kMaskEverything &
                                   ~core::variant_bit(sim::OsVariant::kWinCE));
}

void register_clib(core::TypeLibrary& lib, core::Registry& reg) {
  register_clib_types(lib);
  register_char_fns(lib, reg);
  register_string_fns(lib, reg);
  register_memory_fns(lib, reg);
  register_stdio_file_fns(lib, reg);
  register_stream_fns(lib, reg);
  register_math_fns(lib, reg);
  register_time_fns(lib, reg);
}

}  // namespace ballista::clib
