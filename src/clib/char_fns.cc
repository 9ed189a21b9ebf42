// The thirteen <ctype.h> functions.
//
// glibc personality: raw table lookup into the simulated classification table
// (allocated flush against a guard page), so out-of-domain ints abort exactly
// as the paper measured (>30% Abort on Linux "C char").  MSVC and CE CRTs
// bounds-check the argument first and return 0 for out-of-domain values —
// zero Aborts, but Silent failures the voting analysis can surface.
#include <cstdint>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;

/// Reads the classification byte the way the active CRT would.
/// Returns {looked_up, bits}; looked_up == false means the CRT rejected the
/// argument (bounds check) and the caller should return 0.
struct CtypeLookup {
  bool looked_up = false;
  std::uint8_t bits = 0;
};

MemStatus ctype_lookup(CallContext& ctx, std::int32_t c,
                       CtypeLookup* out) {
  if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
    const CrtState* st = crt_state(ctx.proc());
    if (st == nullptr) return MemStatus::kStopped;
    // table[c]: the index is the sign-extended int, exactly like
    // __ctype_b[c].  Large or very negative c walks off the table.
    const sim::Addr a =
        st->ctype_table + 128 + static_cast<std::int64_t>(c);
    if (auto f = ctx.proc().mem().read_u8(a, &out->bits, sim::Access::kUser))
      return ctx.record(*f);
    out->looked_up = true;
    return MemStatus::kOk;
  }
  // MSVC / CE CRT: explicit domain check (EOF or unsigned char) before the
  // table; out-of-domain returns 0 with no error indication.
  if (c == -1) {
    out->looked_up = true;
    out->bits = 0;
    return MemStatus::kOk;
  }
  if (c < 0 || c > 255) return MemStatus::kOk;  // rejected
  const CrtState* st = crt_state(ctx.proc());
  if (st == nullptr) return MemStatus::kStopped;
  if (auto f = ctx.proc().mem().read_u8(st->ctype_table + 128 + c, &out->bits,
                                        sim::Access::kUser))
    return ctx.record(*f);
  out->looked_up = true;
  return MemStatus::kOk;
}

core::ApiImpl is_fn(std::uint8_t mask) {
  return [mask](CallContext& ctx) -> CallOutcome {
    const std::int32_t c = ctx.argi(0);
    CtypeLookup l;
    if (ctype_lookup(ctx, c, &l) == MemStatus::kStopped)
      return core::stopped();
    if (!l.looked_up) return core::silent_success(0);
    return core::ok((l.bits & mask) != 0 ? 1 : 0);
  };
}

CallOutcome do_tolower(CallContext& ctx) {
  const std::int32_t c = ctx.argi(0);
  CtypeLookup l;
  if (ctype_lookup(ctx, c, &l) == MemStatus::kStopped)
    return core::stopped();
  if (!l.looked_up) return core::silent_success(static_cast<std::uint32_t>(c));
  if (l.bits & kCtUpper) return core::ok(static_cast<std::uint32_t>(c + 32));
  return core::ok(static_cast<std::uint32_t>(c));
}

CallOutcome do_toupper(CallContext& ctx) {
  const std::int32_t c = ctx.argi(0);
  CtypeLookup l;
  if (ctype_lookup(ctx, c, &l) == MemStatus::kStopped)
    return core::stopped();
  if (!l.looked_up) return core::silent_success(static_cast<std::uint32_t>(c));
  if (l.bits & kCtLower) return core::ok(static_cast<std::uint32_t>(c - 32));
  return core::ok(static_cast<std::uint32_t>(c));
}

}  // namespace

void register_char_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCChar;
  const auto A = core::ApiKind::kCLib;
  const auto mask = clib_mask_all();

  d.add("isalnum", A, G, {"char_int"}, is_fn(kCtUpper | kCtLower | kCtDigit),
        mask);
  d.add("isalpha", A, G, {"char_int"}, is_fn(kCtUpper | kCtLower), mask);
  d.add("iscntrl", A, G, {"char_int"}, is_fn(kCtCntrl), mask);
  d.add("isdigit", A, G, {"char_int"}, is_fn(kCtDigit), mask);
  d.add("isgraph", A, G, {"char_int"},
        is_fn(kCtUpper | kCtLower | kCtDigit | kCtPunct), mask);
  d.add("islower", A, G, {"char_int"}, is_fn(kCtLower), mask);
  d.add("isprint", A, G, {"char_int"}, is_fn(kCtPrint), mask);
  d.add("ispunct", A, G, {"char_int"}, is_fn(kCtPunct), mask);
  d.add("isspace", A, G, {"char_int"}, is_fn(kCtSpace), mask);
  d.add("isupper", A, G, {"char_int"}, is_fn(kCtUpper), mask);
  d.add("isxdigit", A, G, {"char_int"}, is_fn(kCtHex), mask);
  d.add("tolower", A, G, {"char_int"}, do_tolower, mask);
  d.add("toupper", A, G, {"char_int"}, do_toupper, mask);
}

}  // namespace ballista::clib
