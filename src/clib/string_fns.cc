// The <string.h>/<stdlib.h> string family: 14 str* functions plus the four
// numeric conversions, in ASCII and (for Windows CE) UNICODE variants.
//
// These dereference raw pointers identically under every CRT personality, so
// their Abort behaviour is similar across all seven systems — except for the
// per-variant hazard entries: strncpy's optimized copy path on Windows 98 /
// 98 SE (and _tcsncpy on CE) stages the transfer through kernel memory,
// reproducing the paper's `*strncpy` / `*_tcsncpy` Catastrophic entries.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

constexpr std::uint64_t kScanCap = 1 << 20;  // bound runaway scans

sim::MaybeFault c_strlen(CallContext& ctx, Addr s, CharWidth w,
                         std::uint64_t* len) {
  CharScanner sc(ctx, s, w);
  std::uint64_t i = 0;
  for (; i < kScanCap; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return f;
    if (c == 0) break;
  }
  *len = i;
  return {};
}

/// Reads a bounded host copy of a NUL-terminated simulated string.
sim::MaybeFault c_str_host(CallContext& ctx, Addr s, CharWidth w,
                           std::string* out, std::uint64_t cap = 65536) {
  CharScanner sc(ctx, s, w);
  for (std::uint64_t i = 0; i < cap; ++i) {
    std::uint32_t c = 0;
    if (auto f = sc.at(i, &c)) return f;
    if (c == 0) break;
    out->push_back(static_cast<char>(c & 0xff));
  }
  return {};
}

core::ApiImpl strlen_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    std::uint64_t len = 0;
    if (auto f = c_strlen(ctx, ctx.arg_addr(0), w, &len)) return ctx.raise(*f);
    return ok(len);
  };
}

core::ApiImpl strcpy_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
    CharScanner sc(ctx, src, w);
    CharWriter out(ctx, dst, w);
    for (std::uint64_t i = 0; i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (auto f = out.put(i, c)) return ctx.raise(*f);
      if (c == 0) break;
    }
    return ok(dst);
  };
}

core::ApiImpl strcat_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
    std::uint64_t base = 0;
    if (auto f = c_strlen(ctx, dst, w, &base)) return ctx.raise(*f);
    CharScanner sc(ctx, src, w);
    CharWriter out(ctx, dst, w);
    for (std::uint64_t i = 0; i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (auto f = out.put(base + i, c)) return ctx.raise(*f);
      if (c == 0) break;
    }
    return ok(dst);
  };
}

core::ApiImpl strncat_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
    const std::uint64_t n = ctx.arg(2);
    std::uint64_t base = 0;
    if (auto f = c_strlen(ctx, dst, w, &base)) return ctx.raise(*f);
    CharScanner sc(ctx, src, w);
    CharWriter out(ctx, dst, w);
    std::uint64_t i = 0;
    for (; i < n && i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) break;
      if (auto f = out.put(base + i, c)) return ctx.raise(*f);
    }
    if (auto f = out.put(base + i, 0)) return ctx.raise(*f);
    return ok(dst);
  };
}

/// strncpy: copies then NUL-pads to exactly n.  When a per-variant hazard is
/// active (Win98/98SE ASCII, CE UNICODE), the copy is staged through kernel
/// memory: bad destinations corrupt the shared arena instead of faulting.
core::ApiImpl strncpy_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const Addr dst = ctx.arg_addr(0), src = ctx.arg_addr(1);
    const std::uint64_t n = ctx.arg(2);
    if (ctx.hazard() != core::CrashStyle::kNone) {
      // Optimized block path: gather (bounded) source, then one kernel-side
      // block store of min(n, one page).
      std::string data;
      if (auto f = c_str_host(ctx, src, w, &data, 4096)) return ctx.raise(*f);
      const std::uint64_t total =
          std::min<std::uint64_t>(n, 4096) * w.bytes;
      std::vector<std::uint8_t> block(total, 0);
      for (std::size_t i = 0; i < data.size() && i * w.bytes < total; ++i)
        block[i * w.bytes] = static_cast<std::uint8_t>(data[i]);
      const MemStatus s = ctx.k_write(dst, block);
      if (s == MemStatus::kStopped) return core::stopped();
      if (s == MemStatus::kSilent) return core::silent_success(dst);
      return ok(dst);
    }
    CharScanner sc(ctx, src, w);
    CharWriter out(ctx, dst, w);
    std::uint64_t i = 0;
    for (; i < n && i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (auto f = out.put(i, c)) return ctx.raise(*f);
      if (c == 0) {
        ++i;
        break;
      }
    }
    for (; i < n && i < kScanCap; ++i)
      if (auto f = out.put(i, 0)) return ctx.raise(*f);
    return ok(dst);
  };
}

/// strcmp/strncmp: compares up to `n` characters, reading a before b.
CallOutcome compare_strings(CallContext& ctx, CharWidth w, std::uint64_t n) {
  const Addr a = ctx.arg_addr(0), b = ctx.arg_addr(1);
  CharScanner sa(ctx, a, w), sb(ctx, b, w);
  for (std::uint64_t i = 0; i < n && i < kScanCap; ++i) {
    std::uint32_t ca = 0, cb = 0;
    if (auto f = sa.at(i, &ca)) return ctx.raise(*f);
    if (auto f = sb.at(i, &cb)) return ctx.raise(*f);
    if (ca != cb) return ok(static_cast<std::uint64_t>(ca < cb ? -1 : 1));
    if (ca == 0) break;
  }
  return ok(0);
}

core::ApiImpl strcmp_fn(CharWidth w) {
  return [w](CallContext& ctx) { return compare_strings(ctx, w, kScanCap); };
}

core::ApiImpl strncmp_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    return compare_strings(ctx, w, ctx.arg(2));
  };
}

core::ApiImpl strchr_fn(CharWidth w, bool reverse) {
  return [w, reverse](CallContext& ctx) {
    const Addr s = ctx.arg_addr(0);
    const std::uint32_t target = ctx.arg32(1) & (w.bytes == 1 ? 0xffu : 0xffffu);
    CharScanner sc(ctx, s, w);
    Addr found = 0;
    for (std::uint64_t i = 0; i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == target) {
        found = s + i * w.bytes;
        if (!reverse) return ok(found);
      }
      if (c == 0) break;
    }
    return ok(found);
  };
}

core::ApiImpl strspn_fn(CharWidth w, bool complement) {
  return [w, complement](CallContext& ctx) {
    const Addr s = ctx.arg_addr(0), accept = ctx.arg_addr(1);
    std::string set;
    if (auto f = c_str_host(ctx, accept, w, &set)) return ctx.raise(*f);
    CharScanner sc(ctx, s, w);
    std::uint64_t i = 0;
    for (; i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) break;
      const bool in_set =
          set.find(static_cast<char>(c & 0xff)) != std::string::npos;
      if (in_set == complement) break;
    }
    return ok(i);
  };
}

core::ApiImpl strpbrk_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    const Addr s = ctx.arg_addr(0), set_addr = ctx.arg_addr(1);
    std::string set;
    if (auto f = c_str_host(ctx, set_addr, w, &set)) return ctx.raise(*f);
    CharScanner sc(ctx, s, w);
    for (std::uint64_t i = 0; i < kScanCap; ++i) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) break;
      if (set.find(static_cast<char>(c & 0xff)) != std::string::npos)
        return ok(s + i * w.bytes);
    }
    return ok(0);
  };
}

core::ApiImpl strstr_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    const Addr hay = ctx.arg_addr(0), needle = ctx.arg_addr(1);
    std::string h, n;
    if (auto f = c_str_host(ctx, hay, w, &h)) return ctx.raise(*f);
    if (auto f = c_str_host(ctx, needle, w, &n)) return ctx.raise(*f);
    if (n.empty()) return ok(hay);
    const auto pos = h.find(n);
    return ok(pos == std::string::npos ? 0 : hay + pos * w.bytes);
  };
}

core::ApiImpl strtok_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    CrtState* crt = crt_state(ctx.proc());
    if (crt == nullptr) return core::stopped();
    CrtState& st = *crt;
    Addr s = ctx.arg_addr(0);
    const Addr delim = ctx.arg_addr(1);
    if (s == 0) s = st.strtok_next;  // continue previous scan (0 => deref 0)
    std::string set;
    if (auto f = c_str_host(ctx, delim, w, &set)) return ctx.raise(*f);
    // The single put below is the last access, so buffered reads stay fresh.
    CharScanner sc(ctx, s, w);
    std::uint64_t i = 0;
    // skip leading delimiters
    while (i < kScanCap) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) return ok(0);
      if (set.find(static_cast<char>(c & 0xff)) == std::string::npos) break;
      ++i;
    }
    const std::uint64_t start = i;
    while (i < kScanCap) {
      std::uint32_t c = 0;
      if (auto f = sc.at(i, &c)) return ctx.raise(*f);
      if (c == 0) {
        st.strtok_next = s + i * w.bytes;
        return ok(s + start * w.bytes);
      }
      if (set.find(static_cast<char>(c & 0xff)) != std::string::npos) {
        if (auto f = w.put(ctx, s, i, 0)) return ctx.raise(*f);
        st.strtok_next = s + (i + 1) * w.bytes;
        return ok(s + start * w.bytes);
      }
      ++i;
    }
    return ok(0);
  };
}

/// std::strtod with std::stod's two rejections and no host exception: no
/// conversion gives 0, and so does a value out of double's range (ERANGE).
double parse_double(const std::string& s) {
  const char* begin = s.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || errno == ERANGE) return 0;
  return v;
}

long long parse_int(const std::string& s, int base, bool* any) {
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) neg = s[i++] == '-';
  long long v = 0;
  *any = false;
  for (; i < s.size(); ++i) {
    int d;
    const char c = s[i];
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'z') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'Z') d = c - 'A' + 10;
    else break;
    if (d >= base) break;
    v = v * base + d;
    *any = true;
  }
  return neg ? -v : v;
}

core::ApiImpl atoi_fn(CharWidth w) {
  return [w](CallContext& ctx) {
    bool any = false;
    std::string s;
    if (auto f = c_str_host(ctx, ctx.arg_addr(0), w, &s)) return ctx.raise(*f);
    return ok(static_cast<std::uint64_t>(parse_int(s, 10, &any)));
  };
}

core::ApiImpl strtol_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const Addr nptr = ctx.arg_addr(0), endptr = ctx.arg_addr(1);
    const int base = ctx.argi(2);
    if (base != 0 && (base < 2 || base > 36)) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    bool any = false;
    std::string s;
    if (auto f = c_str_host(ctx, nptr, w, &s)) return ctx.raise(*f);
    const long long v = parse_int(s, base == 0 ? 10 : base, &any);
    if (endptr != 0) {
      if (auto f = ctx.proc().mem().write_u32(
              endptr, static_cast<std::uint32_t>(nptr), sim::Access::kUser))
        return ctx.raise(*f);
    }
    return ok(static_cast<std::uint64_t>(v));
  };
}

core::ApiImpl strtod_fn(CharWidth w) {
  return [w](CallContext& ctx) -> CallOutcome {
    const Addr nptr = ctx.arg_addr(0), endptr = ctx.arg_addr(1);
    std::string s;
    if (auto f = c_str_host(ctx, nptr, w, &s)) return ctx.raise(*f);
    const double v = parse_double(s);
    if (endptr != 0) {
      if (auto f = ctx.proc().mem().write_u32(
              endptr, static_cast<std::uint32_t>(nptr), sim::Access::kUser))
        return ctx.raise(*f);
    }
    return ok(std::bit_cast<std::uint64_t>(v));
  };
}

}  // namespace

void register_string_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCString;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();
  const auto no_ce = clib_mask_no_ce();
  const auto ce = core::variant_bit(sim::OsVariant::kWinCE);

  struct Row {
    const char* name;
    const char* wname;  // CE UNICODE twin ("" = none)
    std::initializer_list<const char*> narrow_params;
    std::initializer_list<const char*> wide_params;
    core::ApiImpl narrow;
    core::ApiImpl wide;
    std::uint8_t mask;
  };

  const Row rows[] = {
      {"strcat", "wcscat", {"buf", "cstr"}, {"buf", "wstr"},
       strcat_fn(kNarrow), strcat_fn(kWide), all},
      {"strchr", "wcschr", {"cstr", "char_int"}, {"wstr", "char_int"},
       strchr_fn(kNarrow, false), strchr_fn(kWide, false), all},
      {"strcmp", "wcscmp", {"cstr", "cstr"}, {"wstr", "wstr"},
       strcmp_fn(kNarrow), strcmp_fn(kWide), all},
      {"strcpy", "wcscpy", {"buf", "cstr"}, {"buf", "wstr"},
       strcpy_fn(kNarrow), strcpy_fn(kWide), all},
      {"strcspn", "wcscspn", {"cstr", "cstr"}, {"wstr", "wstr"},
       strspn_fn(kNarrow, true), strspn_fn(kWide, true), all},
      {"strlen", "wcslen", {"cstr"}, {"wstr"}, strlen_fn(kNarrow),
       strlen_fn(kWide), all},
      {"strncat", "wcsncat", {"buf", "cstr", "size"}, {"buf", "wstr", "size"},
       strncat_fn(kNarrow), strncat_fn(kWide), all},
      {"strncmp", "wcsncmp", {"cstr", "cstr", "size"}, {"wstr", "wstr", "size"},
       strncmp_fn(kNarrow), strncmp_fn(kWide), all},
      {"strncpy", "_tcsncpy", {"buf", "cstr", "size"}, {"buf", "wstr", "size"},
       strncpy_fn(kNarrow), strncpy_fn(kWide), all},
      {"strpbrk", "wcspbrk", {"cstr", "cstr"}, {"wstr", "wstr"},
       strpbrk_fn(kNarrow), strpbrk_fn(kWide), all},
      {"strrchr", "wcsrchr", {"cstr", "char_int"}, {"wstr", "char_int"},
       strchr_fn(kNarrow, true), strchr_fn(kWide, true), all},
      {"strspn", "wcsspn", {"cstr", "cstr"}, {"wstr", "wstr"},
       strspn_fn(kNarrow, false), strspn_fn(kWide, false), all},
      {"strstr", "wcsstr", {"cstr", "cstr"}, {"wstr", "wstr"},
       strstr_fn(kNarrow), strstr_fn(kWide), all},
      {"strtok", "wcstok", {"buf", "cstr"}, {"buf", "wstr"},
       strtok_fn(kNarrow), strtok_fn(kWide), all},
      {"atoi", "_wtoi", {"cstr"}, {"wstr"}, atoi_fn(kNarrow), atoi_fn(kWide),
       all},
      {"atol", "_wtol", {"cstr"}, {"wstr"}, atoi_fn(kNarrow), atoi_fn(kWide),
       no_ce},
      {"strtol", "wcstol", {"cstr", "buf", "int"}, {"wstr", "buf", "int"},
       strtol_fn(kNarrow), strtol_fn(kWide), all},
      {"strtod", "wcstod", {"cstr", "buf"}, {"wstr", "buf"},
       strtod_fn(kNarrow), strtod_fn(kWide), no_ce},
  };

  for (const Row& r : rows) {
    auto& ascii = d.add(r.name, A, G, r.narrow_params, r.narrow, r.mask);
    const bool on_ce = (r.mask & ce) != 0;
    if (std::string_view(r.name) == "strncpy") {
      // Paper Table 3: *strncpy on Windows 98 and 98 SE (not 95).
      ascii.hazards[sim::OsVariant::kWin98] = core::CrashStyle::kDeferred;
      ascii.hazards[sim::OsVariant::kWin98SE] = core::CrashStyle::kDeferred;
    }
    if (on_ce) {
      ascii.has_unicode_twin = true;
      auto& wide = d.add(r.wname, A, G, r.wide_params, r.wide, ce);
      wide.twin_of = r.name;
      if (std::string_view(r.wname) == "_tcsncpy") {
        // Paper Table 3: (UNICODE) *_tcsncpy on Windows CE.
        wide.hazards[sim::OsVariant::kWinCE] = core::CrashStyle::kDeferred;
      }
    }
  }
}

}  // namespace ballista::clib
