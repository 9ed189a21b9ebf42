// The "C stream I/O" group: fread fwrite fgetc fgets fputc fputs fprintf
// fscanf getc putc ungetc puts sprintf sscanf.
//
// Eleven of the fourteen take a FILE* and crash Windows CE through the kernel
// stdio thunks (paper Table 3); fwrite additionally crashes Windows 98 via
// its staged fast path (the `*fwrite` entry), and fread/fgets crash CE in the
// deferred (`*`) style.
//
// The printf/scanf implementations model the period harness's two-parameter
// testing: conversions that need a variadic argument fetch stack garbage,
// modeled as address 0 — %s and %n therefore fault exactly as they did on
// the real systems.
#include <algorithm>
#include <cerrno>
#include <optional>
#include <string>
#include <vector>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

constexpr std::uint64_t kIoCap = 1 << 20;

/// Reading an exhausted interactive stream blocks forever (Restart): the
/// stopped outcome, with the hang recorded, or nullopt to read on.
std::optional<CallOutcome> block_on_stdin(CallContext& ctx,
                                          const FileRef& ref) {
  if (ref.obj != nullptr && ref.obj->node()->name() == "stdin" &&
      ref.obj->position() >= ref.obj->node()->data().size())
    return ctx.hang("read from interactive stdin");
  return std::nullopt;
}

/// Stores bytes at a task address; hazard-active MuTs (Win98 fwrite, CE
/// fread/fgets) stage through kernel memory.  kOk or kStopped.
MemStatus store_bytes(CallContext& ctx, Addr a,
                      std::span<const std::uint8_t> in) {
  if (ctx.hazard() != core::CrashStyle::kNone) {
    // Corruption is handled inside; only a fault or a panic ends the call.
    const MemStatus s = ctx.k_write(a, in);
    return s == MemStatus::kStopped ? s : MemStatus::kOk;
  }
  return ctx.trap(ctx.proc().mem().write_bytes(a, in, sim::Access::kUser));
}

MemStatus load_bytes(CallContext& ctx, Addr a, std::uint64_t n,
                     std::vector<std::uint8_t>* out) {
  n = std::min(n, kIoCap);
  if (ctx.hazard() != core::CrashStyle::kNone) {
    out->assign(n, 0);
    const MemStatus s = ctx.k_read(a, *out);
    return s == MemStatus::kStopped ? s : MemStatus::kOk;
  }
  return ctx.trap(gather_bytes(ctx.proc().mem(), a, n, out));
}

CallOutcome fread_impl(CallContext& ctx) {
  const Addr ptr = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1), n = ctx.arg(2);
  const FileRef ref = resolve_file(ctx, ctx.arg_addr(3));
  if (ref.status != FileRef::Status::kOk) return ref.fail(0);
  if (size == 0 || n == 0) return ok(0);
  if (auto hung = block_on_stdin(ctx, ref)) return *hung;
  // Size the buffer by what the stream still holds, not by the request.
  const auto& contents = ref.obj->node()->data();
  const std::uint64_t pos = ref.obj->position();
  const std::uint64_t left = pos < contents.size() ? contents.size() - pos : 0;
  std::vector<std::uint8_t> data(std::min({size * n, kIoCap, left}));
  const std::uint64_t got = ref.obj->read_at(data);
  data.resize(got);
  if (store_bytes(ctx, ptr, data) == MemStatus::kStopped)
    return core::stopped();
  return ok(got / size);
}

CallOutcome fwrite_impl(CallContext& ctx) {
  const Addr ptr = ctx.arg_addr(0);
  const std::uint64_t size = ctx.arg(1), n = ctx.arg(2);
  const FileRef ref = resolve_file(ctx, ctx.arg_addr(3));
  if (ref.status != FileRef::Status::kOk) return ref.fail(0);
  if (size == 0 || n == 0) return ok(0);
  if ((ref.flags & kFWrite) == 0) {
    ctx.proc().set_errno(EBADF);
    return core::error_reported(0);
  }
  const std::uint64_t total = std::min(size * n, kIoCap);
  std::vector<std::uint8_t> data;
  if (load_bytes(ctx, ptr, total, &data) == MemStatus::kStopped)
    return core::stopped();
  if (ref.obj->write_at(data).down()) return core::stopped();
  return ok(total / size);
}

CallOutcome fgetc_impl(CallContext& ctx) {
  const Addr fp = ctx.arg_addr(0);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  std::uint32_t unget = 0;
  if (file_field_read(ctx, fp, kFileOffUnget, &unget) == MemStatus::kStopped)
    return core::stopped();
  if (unget != 0xffffffff) {
    if (file_field_write(ctx, fp, kFileOffUnget, 0xffffffff) ==
        MemStatus::kStopped)
      return core::stopped();
    return ok(unget);
  }
  std::uint8_t c = 0;
  if (ref.obj->read_at({&c, 1}) == 0) {
    // Reading past the end of an interactive stream blocks for input that
    // will never come (a Restart failure); a regular file is simply at EOF.
    if (ref.obj->node()->name() == "stdin") return ctx.hang("fgetc(stdin)");
    if (file_field_write(ctx, fp, kFileOffFlags, ref.flags | kFEof) ==
        MemStatus::kStopped)
      return core::stopped();
    return ok(static_cast<std::uint64_t>(-1));  // EOF: normal indication
  }
  return ok(c);
}

CallOutcome fputc_impl(CallContext& ctx) {
  const std::uint8_t c = static_cast<std::uint8_t>(ctx.arg32(0));
  const FileRef ref = resolve_file(ctx, ctx.arg_addr(1));
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  if ((ref.flags & kFWrite) == 0) {
    ctx.proc().set_errno(EBADF);
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  if (ref.obj->write_at({&c, 1}).down()) return core::stopped();
  return ok(c);
}

CallOutcome ungetc_impl(CallContext& ctx) {
  const std::uint32_t c = ctx.arg32(0);
  const Addr fp = ctx.arg_addr(1);
  const FileRef ref = resolve_file(ctx, fp);
  if (ref.status != FileRef::Status::kOk)
    return ref.fail(static_cast<std::uint64_t>(-1));
  if (c == 0xffffffff) return ok(static_cast<std::uint64_t>(-1));  // EOF
  if (file_field_write(ctx, fp, kFileOffUnget, c & 0xff) == MemStatus::kStopped)
    return core::stopped();
  return ok(c & 0xff);
}

core::ApiImpl fgets_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const Addr s = ctx.arg_addr(0);
    const std::int32_t n = ctx.argi(1);
    const FileRef ref = resolve_file(ctx, ctx.arg_addr(2));
    if (ref.status != FileRef::Status::kOk) return ref.fail(0);
    if (n <= 0) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    if (auto hung = block_on_stdin(ctx, ref)) return *hung;
    std::vector<std::uint8_t> line;
    for (std::int32_t i = 0; i + 1 < n && i < static_cast<std::int32_t>(kIoCap);
         ++i) {
      std::uint8_t c = 0;
      if (ref.obj->read_at({&c, 1}) == 0) break;
      line.push_back(c);
      if (c == '\n') break;
    }
    if (line.empty()) return core::error_reported(0);  // EOF
    std::vector<std::uint8_t> bytes;
    if (w.bytes == 1) {
      bytes = std::move(line);
      bytes.push_back(0);
    } else {
      for (std::uint8_t c : line) {
        bytes.push_back(c);
        bytes.push_back(0);
      }
      bytes.push_back(0);
      bytes.push_back(0);
    }
    if (store_bytes(ctx, s, bytes) == MemStatus::kStopped)
      return core::stopped();
    return ok(s);
  };
}

core::ApiImpl fputs_fn(CharWidth w, bool with_file, bool newline) {
  return [w, with_file, newline](CallContext& ctx) -> CallOutcome {
    const Addr s = ctx.arg_addr(0);
    FileRef ref;
    if (with_file) {
      ref = resolve_file(ctx, ctx.arg_addr(1));
    } else {
      // puts writes to stdout.
      const CrtState* st = crt_state(ctx.proc());
      if (st == nullptr) return core::stopped();
      ref = resolve_file(ctx, st->file_stdout);
    }
    if (ref.status != FileRef::Status::kOk)
      return ref.fail(static_cast<std::uint64_t>(-1));
    CharScanner sc(ctx, s, w);
    std::vector<std::uint8_t> data;
    for (std::uint64_t i = 0; i < kIoCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) break;
      data.push_back(static_cast<std::uint8_t>(c & 0xff));
    }
    if (newline) data.push_back('\n');
    if (ref.obj->write_at(data).down()) return core::stopped();
    return ok(data.size());
  };
}

/// printf-core with no variadic arguments: %d-class conversions print a
/// garbage zero; %s reads and %n writes through the garbage pointer slot
/// (address 0).
sim::MaybeFault format_no_args(CallContext& ctx, Addr fmt, CharWidth w,
                               std::string* out_str) {
  auto& mem = ctx.proc().mem();
  CharScanner sc(ctx, fmt, w);
  std::string& out = *out_str;
  for (std::uint64_t i = 0; i < kIoCap; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return f;
    if (c == 0) break;
    if (c != '%') {
      out.push_back(static_cast<char>(c & 0xff));
      continue;
    }
    // parse %[flags][width][.prec]conv
    ++i;
    std::uint64_t width = 0;
    std::uint32_t conv = 0;
    for (; i < kIoCap; ++i) {
      if (auto f = sc.at(i, &conv)) return f;
      if (conv >= '0' && conv <= '9') {
        width = width * 10 + (conv - '0');
        continue;
      }
      if (conv == '-' || conv == '+' || conv == '.' || conv == ' ' ||
          conv == 'l' || conv == 'h')
        continue;
      break;
    }
    switch (conv) {
      case 0:  // trailing '%'
        out.push_back('%');
        return {};
      case '%':
        out.push_back('%');
        break;
      case 'd': case 'i': case 'u': case 'x': case 'o': case 'c':
        out.append(std::string(std::min<std::uint64_t>(width, 1 << 16), '0'));
        if (width == 0) out.push_back('0');
        break;
      case 'f': case 'e': case 'g':
        out.append("0.000000");
        break;
      case 'p':
        out.append("0x0");
        break;
      case 's': {
        // Missing variadic argument: stack garbage, modeled as NULL.
        std::uint8_t garbage = 0;
        if (auto f = mem.read_u8(0, &garbage, sim::Access::kUser)) return f;
        break;
      }
      case 'n': {
        if (auto f = mem.write_u32(0, static_cast<std::uint32_t>(out.size()),
                                   sim::Access::kUser))
          return f;
        break;
      }
      default:
        out.push_back(static_cast<char>(conv & 0xff));
        break;
    }
  }
  return {};
}

core::ApiImpl fprintf_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const FileRef ref = resolve_file(ctx, ctx.arg_addr(0));
    if (ref.status != FileRef::Status::kOk)
      return ref.fail(static_cast<std::uint64_t>(-1));
    std::string s;
    if (auto f = format_no_args(ctx, ctx.arg_addr(1), w, &s))
      return ctx.raise(*f);
    if (ref.obj
            ->write_at({reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size()})
            .down())
      return core::stopped();
    return ok(s.size());
  };
}

core::ApiImpl sprintf_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const Addr buf = ctx.arg_addr(0);
    std::string s;
    if (auto f = format_no_args(ctx, ctx.arg_addr(1), w, &s))
      return ctx.raise(*f);
    std::vector<std::uint8_t> bytes;
    if (w.bytes == 1) {
      bytes.assign(s.begin(), s.end());
      bytes.push_back(0);
    } else {
      for (char c : s) {
        bytes.push_back(static_cast<std::uint8_t>(c));
        bytes.push_back(0);
      }
      bytes.push_back(0);
      bytes.push_back(0);
    }
    if (store_bytes(ctx, buf, bytes) == MemStatus::kStopped)
      return core::stopped();
    return ok(s.size());
  };
}

/// scanf-core: conversions store through the missing-argument slot (NULL).
CallOutcome scan_no_args(CallContext& ctx, const std::string& input, Addr fmt,
                         CharWidth w) {
  auto& mem = ctx.proc().mem();
  CharScanner sc(ctx, fmt, w);
  int converted = 0;
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < kIoCap; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return ctx.raise(*f);
    if (c == 0) break;
    if (c != '%') {
      if (pos < input.size() && input[pos] == static_cast<char>(c)) ++pos;
      continue;
    }
    ++i;
    std::uint32_t conv = 0;
    if (auto f = sc.at(i, &conv)) return ctx.raise(*f);
    while (conv == 'l' || conv == 'h' || (conv >= '0' && conv <= '9')) {
      ++i;
      if (auto f = sc.at(i, &conv)) return ctx.raise(*f);
    }
    while (pos < input.size() && input[pos] == ' ') ++pos;
    switch (conv) {
      case 'd': case 'i': case 'u': case 'x': {
        std::uint32_t v = 0;
        bool any = false;
        while (pos < input.size() && input[pos] >= '0' && input[pos] <= '9') {
          v = v * 10 + static_cast<std::uint32_t>(input[pos] - '0');
          ++pos;
          any = true;
        }
        if (!any) return ok(static_cast<std::uint64_t>(converted));
        // Missing argument: faults.
        if (auto f = mem.write_u32(0, v, sim::Access::kUser))
          return ctx.raise(*f);
        ++converted;
        break;
      }
      case 's': case 'c': {
        if (pos >= input.size()) return ok(static_cast<std::uint64_t>(converted));
        if (auto f = mem.write_u8(0, static_cast<std::uint8_t>(input[pos]),
                                  sim::Access::kUser))  // faults
          return ctx.raise(*f);
        ++converted;
        break;
      }
      case '%':
        if (pos < input.size() && input[pos] == '%') ++pos;
        break;
      default:
        break;
    }
  }
  return ok(static_cast<std::uint64_t>(converted));
}

core::ApiImpl fscanf_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const FileRef ref = resolve_file(ctx, ctx.arg_addr(0));
    if (ref.status != FileRef::Status::kOk)
      return ref.fail(static_cast<std::uint64_t>(-1));
    if (auto hung = block_on_stdin(ctx, ref)) return *hung;
    std::vector<std::uint8_t> data(256);
    const std::uint64_t got = ref.obj->read_at(data);
    const std::string input(data.begin(),
                            data.begin() + static_cast<std::ptrdiff_t>(got));
    return scan_no_args(ctx, input, ctx.arg_addr(1), w);
  };
}

CallOutcome sscanf_impl(CallContext& ctx) {
  CharScanner sc(ctx, ctx.arg_addr(0), kNarrow);
  std::string input;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return ctx.raise(*f);
    if (c == 0) break;
    input.push_back(static_cast<char>(c));
  }
  return scan_no_args(ctx, input, ctx.arg_addr(1), kNarrow);
}

}  // namespace

void register_stream_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCStreamIo;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();
  const auto no_ce = clib_mask_no_ce();
  const auto ce = core::variant_bit(sim::OsVariant::kWinCE);
  const auto CE = sim::OsVariant::kWinCE;
  const auto kImm = core::CrashStyle::kImmediate;
  const auto kDef = core::CrashStyle::kDeferred;

  auto& f_fread =
      d.add("fread", A, G, {"buf", "size", "size", "cfile"}, fread_impl, all);
  f_fread.hazards[CE] = kDef;  // Table 3: "*fread" on CE

  auto& f_fwrite = d.add("fwrite", A, G, {"cbuf", "size", "size", "cfile"},
                         fwrite_impl, all);
  f_fwrite.hazards[sim::OsVariant::kWin98] = kDef;  // Table 3: "*fwrite" on 98
  f_fwrite.hazards[CE] = kImm;

  auto& f_fgetc = d.add("fgetc", A, G, {"cfile"}, fgetc_impl, all);
  f_fgetc.hazards[CE] = kImm;

  auto& f_fgets =
      d.add("fgets", A, G, {"buf", "int", "cfile"}, fgets_fn(kNarrow), all);
  f_fgets.hazards[CE] = kDef;  // Table 3: "*fgets" on CE
  f_fgets.has_unicode_twin = true;
  auto& w_fgets =
      d.add("fgetws", A, G, {"buf", "int", "cfile"}, fgets_fn(kWide), ce);
  w_fgets.twin_of = "fgets";
  w_fgets.hazards[CE] = kDef;

  auto& f_fputc =
      d.add("fputc", A, G, {"char_int", "cfile"}, fputc_impl, all);
  f_fputc.hazards[CE] = kImm;

  auto& f_fputs = d.add("fputs", A, G, {"cstr", "cfile"},
                        fputs_fn(kNarrow, true, false), all);
  f_fputs.hazards[CE] = kImm;
  f_fputs.has_unicode_twin = true;
  auto& w_fputs =
      d.add("fputws", A, G, {"wstr", "cfile"}, fputs_fn(kWide, true, false), ce);
  w_fputs.twin_of = "fputs";
  w_fputs.hazards[CE] = kImm;

  auto& f_fprintf =
      d.add("fprintf", A, G, {"cfile", "fmt"}, fprintf_fn(kNarrow), all);
  f_fprintf.hazards[CE] = kImm;
  f_fprintf.has_unicode_twin = true;
  auto& w_fprintf =
      d.add("fwprintf", A, G, {"cfile", "wstr"}, fprintf_fn(kWide), ce);
  w_fprintf.twin_of = "fprintf";
  w_fprintf.hazards[CE] = kImm;

  auto& f_fscanf =
      d.add("fscanf", A, G, {"cfile", "fmt"}, fscanf_fn(kNarrow), all);
  f_fscanf.hazards[CE] = kImm;
  f_fscanf.has_unicode_twin = true;
  auto& w_fscanf =
      d.add("fwscanf", A, G, {"cfile", "wstr"}, fscanf_fn(kWide), ce);
  w_fscanf.twin_of = "fscanf";
  w_fscanf.hazards[CE] = kImm;

  auto& f_getc = d.add("getc", A, G, {"cfile"}, fgetc_impl, all);
  f_getc.hazards[CE] = kImm;

  auto& f_putc = d.add("putc", A, G, {"char_int", "cfile"}, fputc_impl, all);
  f_putc.hazards[CE] = kImm;

  auto& f_ungetc =
      d.add("ungetc", A, G, {"char_int", "cfile"}, ungetc_impl, all);
  f_ungetc.hazards[CE] = kImm;

  auto& f_puts =
      d.add("puts", A, G, {"cstr"}, fputs_fn(kNarrow, false, true), all);
  f_puts.has_unicode_twin = true;
  auto& w_puts =
      d.add("_putws", A, G, {"wstr"}, fputs_fn(kWide, false, true), ce);
  w_puts.twin_of = "puts";

  auto& f_sprintf =
      d.add("sprintf", A, G, {"buf", "fmt"}, sprintf_fn(kNarrow), all);
  f_sprintf.has_unicode_twin = true;
  auto& w_sprintf =
      d.add("swprintf", A, G, {"buf", "wstr"}, sprintf_fn(kWide), ce);
  w_sprintf.twin_of = "sprintf";

  d.add("sscanf", A, G, {"cstr", "fmt"}, sscanf_impl, no_ce);
}

}  // namespace ballista::clib
