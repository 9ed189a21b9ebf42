// The "C file I/O management" group (paper Table 2/3): fopen fclose freopen
// fflush fseek ftell rewind clearerr remove rename — ten functions, of which
// the six taking a FILE* crash Windows CE through its kernel stdio thunks
// (the paper's "traceable to ... an invalid C file pointer").  rewind
// pre-validates on CE (its wrapper checked before thunking), so it aborts
// instead, matching its absence from Table 3.
#include <cerrno>
#include <string>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

sim::MaybeFault read_path(CallContext& ctx, Addr p, CharWidth w,
                          std::string* out) {
  CharScanner sc(ctx, p, w);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return f;
    if (c == 0) break;
    out->push_back(static_cast<char>(c & 0xff));
  }
  return {};
}

/// Writes FILE fields in order, stopping at the first fault or panic.
MemStatus write_fields(
    CallContext& ctx, Addr fp,
    std::initializer_list<std::pair<Addr, std::uint32_t>> fields) {
  for (const auto& [off, v] : fields)
    if (file_field_write(ctx, fp, off, v) == MemStatus::kStopped)
      return MemStatus::kStopped;
  return MemStatus::kOk;
}

struct Mode {
  bool valid = false;
  std::uint32_t flags = 0;
  bool truncate = false;
  bool create = false;
  bool append = false;
};

sim::MaybeFault parse_mode(CallContext& ctx, Addr m, CharWidth w,
                           Mode* mode) {
  Mode& out = *mode;
  // Reads up to three characters, stopping after a NUL.
  char c[3] = {0, 0, 0};
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::uint32_t ch = 0;
    if (auto f = w.get(ctx, m, i, &ch)) return f;
    c[i] = static_cast<char>(ch);
    if (c[i] == 0) break;
  }
  const char c0 = c[0], c1 = c[1], c2 = c[2];
  const bool plus = c1 == '+' || c2 == '+';
  switch (c0) {
    case 'r':
      out.valid = true;
      out.flags = kFRead | (plus ? kFWrite : 0u);
      break;
    case 'w':
      out.valid = true;
      out.flags = kFWrite | (plus ? kFRead : 0u);
      out.truncate = true;
      out.create = true;
      break;
    case 'a':
      out.valid = true;
      out.flags = kFWrite | (plus ? kFRead : 0u);
      out.create = true;
      out.append = true;
      break;
    default:
      break;
  }
  return {};
}

/// Opens a path into a fresh or reused FILE structure.
CallOutcome open_common(CallContext& ctx, Addr path_arg, Addr mode_arg,
                        CharWidth w, Addr reuse_fp) {
  auto& proc = ctx.proc();
  std::string path;
  if (auto f = read_path(ctx, path_arg, w, &path)) return ctx.raise(*f);
  Mode mode;
  if (auto f = parse_mode(ctx, mode_arg, w, &mode)) return ctx.raise(*f);
  if (!mode.valid || path.empty()) {
    if (ctx.os().crt == sim::CrtFlavor::kGlibc && !mode.valid) {
      // Period glibc quirk: fopen with a bogus mode string failed with
      // ENOENT rather than EINVAL — the wrong error code (Hindering).
      proc.set_errno(ENOENT);
      return core::wrong_error(0);
    }
    proc.set_errno(EINVAL);
    return core::error_reported(0);
  }
  auto& fs = ctx.machine().fs();
  const auto parsed = fs.parse(path, proc.cwd());
  auto node = fs.resolve(parsed);
  if (node == nullptr) {
    if (!mode.create) {
      proc.set_errno(ENOENT);
      return core::error_reported(0);
    }
    const auto created = fs.create_file(parsed, false, false);
    if (created.down()) return core::stopped();
    node = created.value;
    if (node == nullptr) {
      proc.set_errno(ENOENT);
      return core::error_reported(0);
    }
  }
  if (node->is_dir()) {
    proc.set_errno(EISDIR);
    return core::error_reported(0);
  }
  if (node->read_only() && (mode.flags & kFWrite) != 0) {
    proc.set_errno(EACCES);
    return core::error_reported(0);
  }
  if (mode.truncate) node->edit_data().clear();

  Addr fp = reuse_fp;
  if (fp == 0) {
    const sim::Survived<Addr> made =
        make_file_struct(proc, node, mode.flags | kFOpen);
    if (made.down()) return core::stopped();
    fp = made.value;
    if (fp == 0) {
      proc.set_errno(EMFILE);
      return core::error_reported(0);
    }
  } else {
    // freopen: rebind the existing structure.
    auto obj = std::make_shared<sim::FileObject>(
        node,
        sim::FileObject::kAccessRead | sim::FileObject::kAccessWrite,
        mode.append);
    const sim::Survived<std::uint64_t> h =
        proc.handles().insert(std::move(obj));
    if (h.down()) return core::stopped();
    if (write_fields(ctx, fp,
                     {{kFileOffHandle, static_cast<std::uint32_t>(h.value)},
                      {kFileOffFlags, mode.flags | kFOpen},
                      {kFileOffMagic, kFileMagic}}) == MemStatus::kStopped)
      return core::stopped();
  }
  return ok(fp);
}

CallOutcome fopen_impl(CallContext& ctx, CharWidth w) {
  return open_common(ctx, ctx.arg_addr(0), ctx.arg_addr(1), w, 0);
}

CallOutcome freopen_impl(CallContext& ctx, CharWidth w) {
  const Addr fp = ctx.arg_addr(2);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk) return ref.fail(0);
  std::uint32_t h = 0;
  if (file_field_read(ctx, fp, kFileOffHandle, &h) == MemStatus::kStopped)
    return core::stopped();
  if (ctx.proc().handles().close(h).down()) return core::stopped();
  return open_common(ctx, ctx.arg_addr(0), ctx.arg_addr(1), w, fp);
}

CallOutcome fclose_impl(CallContext& ctx) {
  const Addr fp = ctx.arg_addr(0);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  std::uint32_t h = 0;
  if (file_field_read(ctx, fp, kFileOffHandle, &h) == MemStatus::kStopped)
    return core::stopped();
  if (ctx.proc().handles().close(h).down()) return core::stopped();
  // Mark the structure closed: cleared magic, cleared pointers — the state
  // the "file_closed" test value reproduces.
  if (write_fields(ctx, fp,
                   {{kFileOffMagic, 0},
                    {kFileOffFlags, 0},
                    {kFileOffBuf, 0},
                    {kFileOffLock, 0}}) == MemStatus::kStopped)
    return core::stopped();
  return ok(0);
}

CallOutcome fflush_impl(CallContext& ctx) {
  const Addr fp = ctx.arg_addr(0);
  // fflush(NULL) flushes all streams — legal.  The desktop CRTs check first;
  // the CE thunk reaches the kernel with the raw pointer (and dies there).
  if (fp == 0 && !ctx.os().crt_in_kernel) return ok(0);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  return ok(0);  // in-memory backing store: nothing buffered
}

CallOutcome fseek_impl(CallContext& ctx) {
  const Addr fp = ctx.arg_addr(0);
  const std::int64_t offset = static_cast<std::int32_t>(ctx.arg32(1));
  const std::int32_t whence = ctx.argi(2);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  std::int64_t base = 0;
  switch (whence) {
    case 0: base = 0; break;                                          // SEEK_SET
    case 1: base = static_cast<std::int64_t>(ref.obj->position()); break;
    case 2: base = static_cast<std::int64_t>(ref.obj->node()->data().size());
      break;
    default:
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  const std::int64_t target = base + offset;
  if (target < 0) {
    ctx.proc().set_errno(EINVAL);
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  ref.obj->set_position(static_cast<std::uint64_t>(target));
  // fseek clears the unget slot and EOF.
  if (write_fields(ctx, fp,
                   {{kFileOffUnget, 0xffffffff},
                    {kFileOffFlags, ref.flags & ~kFEof}}) ==
      MemStatus::kStopped)
    return core::stopped();
  return ok(0);
}

CallOutcome ftell_impl(CallContext& ctx) {
  const FileRef ref = resolve_file(ctx, ctx.arg_addr(0));
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  return ok(ref.obj->position());
}

CallOutcome rewind_impl(CallContext& ctx) {
  // CE's wrapper validated before thunking (the Table 3 absence).
  const FileRef ref = resolve_file(ctx, ctx.arg_addr(0),
                                   /*ce_prevalidates=*/true);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(0);  // void function; observable via errno
  ref.obj->set_position(0);
  if (file_field_write(ctx, ctx.arg_addr(0), kFileOffFlags,
                       ref.flags & ~(kFEof | kFErr)) == MemStatus::kStopped)
    return core::stopped();
  return ok(0);
}

CallOutcome clearerr_impl(CallContext& ctx) {
  const Addr fp = ctx.arg_addr(0);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk) return ref.fail(0);
  if (file_field_write(ctx, fp, kFileOffFlags, ref.flags & ~(kFEof | kFErr)) ==
      MemStatus::kStopped)
    return core::stopped();
  return ok(0);
}

CallOutcome remove_impl(CallContext& ctx, CharWidth w) {
  std::string path;
  if (auto f = read_path(ctx, ctx.arg_addr(0), w, &path)) return ctx.raise(*f);
  auto& fs = ctx.machine().fs();
  const sim::Survived<bool> removed =
      fs.remove_file(fs.parse(path, ctx.proc().cwd()));
  if (removed.down()) return core::stopped();
  if (!removed.value) {
    ctx.proc().set_errno(ENOENT);
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  return ok(0);
}

CallOutcome rename_impl(CallContext& ctx, CharWidth w) {
  std::string from, to;
  if (auto f = read_path(ctx, ctx.arg_addr(0), w, &from)) return ctx.raise(*f);
  if (auto f = read_path(ctx, ctx.arg_addr(1), w, &to)) return ctx.raise(*f);
  auto& fs = ctx.machine().fs();
  const sim::Survived<bool> renamed = fs.rename(
      fs.parse(from, ctx.proc().cwd()), fs.parse(to, ctx.proc().cwd()));
  if (renamed.down()) return core::stopped();
  if (!renamed.value) {
    ctx.proc().set_errno(ENOENT);
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  return ok(0);
}

}  // namespace

void register_stdio_file_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCFileIo;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();
  const auto ce = core::variant_bit(sim::OsVariant::kWinCE);
  const auto kImm = core::CrashStyle::kImmediate;
  const auto CE = sim::OsVariant::kWinCE;

  auto& f_open = d.add(
      "fopen", A, G, {"path", "mode_str"},
      [](CallContext& c) { return fopen_impl(c, kNarrow); }, all);
  f_open.has_unicode_twin = true;
  auto& wf_open = d.add(
      "_wfopen", A, G, {"wpath", "mode_wstr"},
      [](CallContext& c) { return fopen_impl(c, kWide); }, ce);
  wf_open.twin_of = "fopen";

  auto& f_close = d.add("fclose", A, G, {"cfile"}, fclose_impl, all);
  f_close.hazards[CE] = kImm;

  auto& f_reopen = d.add(
      "freopen", A, G, {"path", "mode_str", "cfile"},
      [](CallContext& c) { return freopen_impl(c, kNarrow); }, all);
  f_reopen.has_unicode_twin = true;
  f_reopen.hazards[CE] = kImm;
  auto& wf_reopen = d.add(
      "_wfreopen", A, G, {"wpath", "mode_wstr", "cfile"},
      [](CallContext& c) { return freopen_impl(c, kWide); }, ce);
  wf_reopen.twin_of = "freopen";
  wf_reopen.hazards[CE] = kImm;

  auto& f_flush = d.add("fflush", A, G, {"cfile"}, fflush_impl, all);
  f_flush.hazards[CE] = kImm;

  auto& f_seek =
      d.add("fseek", A, G, {"cfile", "int", "int"}, fseek_impl, all);
  f_seek.hazards[CE] = kImm;

  auto& f_tell = d.add("ftell", A, G, {"cfile"}, ftell_impl, all);
  f_tell.hazards[CE] = kImm;

  d.add("rewind", A, G, {"cfile"}, rewind_impl, all);

  auto& f_clearerr = d.add("clearerr", A, G, {"cfile"}, clearerr_impl, all);
  f_clearerr.hazards[CE] = kImm;

  auto& f_remove = d.add(
      "remove", A, G, {"path"},
      [](CallContext& c) { return remove_impl(c, kNarrow); }, all);
  f_remove.has_unicode_twin = true;
  auto& wf_remove = d.add(
      "_wremove", A, G, {"wpath"},
      [](CallContext& c) { return remove_impl(c, kWide); }, ce);
  wf_remove.twin_of = "remove";

  auto& f_rename = d.add(
      "rename", A, G, {"path", "path"},
      [](CallContext& c) { return rename_impl(c, kNarrow); }, all);
  f_rename.has_unicode_twin = true;
  auto& wf_rename = d.add(
      "_wrename", A, G, {"wpath", "wpath"},
      [](CallContext& c) { return rename_impl(c, kWide); }, ce);
  wf_rename.twin_of = "rename";
}

}  // namespace ballista::clib
