// The nine <time.h> functions.  Simulated time comes from the machine tick
// counter.  glibc's asctime indexes its month/day name tables with raw struct
// fields (out-of-range tm members walk off the table and fault); the MSVC CRT
// range-checks and reports EINVAL — another C-library architecture split the
// paper's group rates reflect.  Windows CE does not implement the C time
// group (§4: "no results for that group are reported").
#include <bit>
#include <cerrno>
#include <cstdio>
#include <string>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;
using core::ok;
using sim::Addr;

// tm struct: nine consecutive 32-bit fields.
enum TmField {
  kTmSec, kTmMin, kTmHour, kTmMday, kTmMon, kTmYear, kTmWday, kTmYday, kTmIsdst
};

/// Reads tm fields in the listed order, stopping at the first fault.
sim::MaybeFault tm_read(
    CallContext& ctx, Addr tm,
    std::initializer_list<std::pair<int, std::int32_t*>> fields) {
  for (const auto& [field, out] : fields) {
    std::uint32_t v = 0;
    if (auto f = ctx.proc().mem().read_u32(tm + 4 * field, &v,
                                           sim::Access::kUser))
      return f;
    *out = static_cast<std::int32_t>(v);
  }
  return {};
}

/// Stores all nine fields of `f` into the tm at `tm`.
sim::MaybeFault tm_write(CallContext& ctx, Addr tm, const std::int32_t f[9]) {
  for (int i = 0; i < 9; ++i)
    if (auto fault = ctx.proc().mem().write_u32(
            tm + 4 * i, static_cast<std::uint32_t>(f[i]), sim::Access::kUser))
      return fault;
  return {};
}

std::uint64_t sim_now(CallContext& ctx) {
  // Ticks advance once per kernel entry; anchor in 1999 for flavor.
  return 930'000'000ULL + ctx.machine().ticks() / 1000;
}

/// Breaks epoch seconds into tm fields (civil-time algorithm, UTC).
void epoch_to_tm(std::uint64_t t, std::int32_t out[9]) {
  const std::uint64_t days = t / 86400;
  const std::uint64_t rem = t % 86400;
  out[kTmHour] = static_cast<std::int32_t>(rem / 3600);
  out[kTmMin] = static_cast<std::int32_t>((rem % 3600) / 60);
  out[kTmSec] = static_cast<std::int32_t>(rem % 60);
  out[kTmWday] = static_cast<std::int32_t>((days + 4) % 7);  // epoch was Thu
  // days since 1970-01-01 -> y/m/d
  std::int64_t z = static_cast<std::int64_t>(days) + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const std::int64_t doe = z - era * 146097;
  const std::int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = yoe + era * 400;
  const std::int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::int64_t mp = (5 * doy + 2) / 153;
  const std::int64_t day = doy - (153 * mp + 2) / 5 + 1;
  const std::int64_t month = mp < 10 ? mp + 3 : mp - 9;
  const std::int64_t year = y + (month <= 2 ? 1 : 0);
  out[kTmMday] = static_cast<std::int32_t>(day);
  out[kTmMon] = static_cast<std::int32_t>(month - 1);
  out[kTmYear] = static_cast<std::int32_t>(year - 1900);
  out[kTmYday] = static_cast<std::int32_t>(doy);
  out[kTmIsdst] = 0;
}

constexpr const char* kMonths[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
constexpr const char* kDays[7] = {"Sun", "Mon", "Tue", "Wed",
                                  "Thu", "Fri", "Sat"};

CallOutcome do_time(CallContext& ctx) {
  const Addr out = ctx.arg_addr(0);
  const std::uint64_t now = sim_now(ctx);
  if (out != 0) {
    if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
      // time(2) is a system call on Linux: the kernel probes and returns
      // EFAULT on a bad pointer.
      const MemStatus s = ctx.k_write_u32(out, static_cast<std::uint32_t>(now));
      if (s != MemStatus::kOk) return ctx.posix_mem_fail(s);
    } else {
      // The Windows CRT converts GetSystemTime in user mode.
      if (auto f = ctx.proc().mem().write_u32(
              out, static_cast<std::uint32_t>(now), sim::Access::kUser))
        return ctx.raise(*f);
    }
  }
  return ok(now);
}

CallOutcome do_clock(CallContext& ctx) { return ok(ctx.machine().ticks()); }

CallOutcome do_difftime(CallContext& ctx) {
  const double d = static_cast<double>(ctx.argi(0)) -
                   static_cast<double>(ctx.argi(1));
  return ok(std::bit_cast<std::uint64_t>(d));
}

/// Breaks the time_t at `tp` into the static tm.
MemStatus time_ptr_to_static_tm(CallContext& ctx, Addr tp) {
  std::uint32_t t = 0;
  if (auto f = ctx.proc().mem().read_u32(tp, &t, sim::Access::kUser))
    return ctx.record(*f);
  std::int32_t fields[9];
  epoch_to_tm(t, fields);
  const CrtState* st = crt_state(ctx.proc());
  if (st == nullptr) return MemStatus::kStopped;
  return ctx.trap(tm_write(ctx, st->static_tm, fields));
}

CallOutcome tm_from_time_ptr(CallContext& ctx) {
  if (time_ptr_to_static_tm(ctx, ctx.arg_addr(0)) == MemStatus::kStopped)
    return core::stopped();
  return ok(crt_state(ctx.proc())->static_tm);  // built just above
}

/// Formats a tm into the static 26-char buffer.  glibc indexes its name
/// tables directly (out-of-range wday/mon fault via a simulated table read);
/// MSVC validates first.
CallOutcome asctime_core(CallContext& ctx, Addr tm) {
  std::int32_t sec = 0, min = 0, hour = 0, mday = 0, mon = 0, year = 0,
               wday = 0;
  if (auto f = tm_read(ctx, tm,
                       {{kTmSec, &sec},
                        {kTmMin, &min},
                        {kTmHour, &hour},
                        {kTmMday, &mday},
                        {kTmMon, &mon},
                        {kTmYear, &year},
                        {kTmWday, &wday}}))
    return ctx.raise(*f);
  const CrtState* crt = crt_state(ctx.proc());
  if (crt == nullptr) return core::stopped();
  const CrtState& st = *crt;

  const char* mon_name = "???";
  const char* day_name = "???";
  if (ctx.os().crt == sim::CrtFlavor::kGlibc) {
    // Raw table lookup: model by touching the simulated ctype page at the
    // offset the index would reach — out-of-range indexes fault like walking
    // off __tzname-adjacent tables.
    std::uint8_t entry = 0;
    for (const std::int64_t index : {wday, mon})
      if (auto f = ctx.proc().mem().read_u8(st.ctype_table + index * 4, &entry,
                                            sim::Access::kUser))
        return ctx.raise(*f);
    if (wday >= 0 && wday < 7) day_name = kDays[wday];
    if (mon >= 0 && mon < 12) mon_name = kMonths[mon];
  } else {
    if (wday < 0 || wday > 6 || mon < 0 || mon > 11 || mday < 1 || mday > 31 ||
        hour < 0 || hour > 23 || min < 0 || min > 59 || sec < 0 || sec > 61) {
      ctx.proc().set_errno(EINVAL);
      return core::error_reported(0);
    }
    day_name = kDays[wday];
    mon_name = kMonths[mon];
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %s %2d %02d:%02d:%02d %d\n", day_name,
                mon_name, mday, hour, min, sec, 1900 + year);
  if (auto f = ctx.proc().mem().write_cstr(st.static_str, buf,
                                           sim::Access::kUser))
    return ctx.raise(*f);
  return ok(st.static_str);
}

CallOutcome do_asctime(CallContext& ctx) {
  return asctime_core(ctx, ctx.arg_addr(0));
}

CallOutcome do_ctime(CallContext& ctx) {
  if (time_ptr_to_static_tm(ctx, ctx.arg_addr(0)) == MemStatus::kStopped)
    return core::stopped();
  return asctime_core(ctx, crt_state(ctx.proc())->static_tm);  // built above
}

CallOutcome do_mktime(CallContext& ctx) {
  const Addr tm = ctx.arg_addr(0);
  std::int32_t year = 0, mon = 0, mday = 0, hour = 0, min = 0, sec = 0;
  if (auto f = tm_read(ctx, tm,
                       {{kTmYear, &year}, {kTmMon, &mon}, {kTmMday, &mday}}))
    return ctx.raise(*f);
  if (year < 70 || year > 200 || mon < -12 || mon > 24 || mday < -31 ||
      mday > 62) {
    ctx.proc().set_errno(EINVAL);  // out of representable range
    return core::error_reported(static_cast<std::uint64_t>(-1));
  }
  if (auto f = tm_read(ctx, tm,
                       {{kTmHour, &hour}, {kTmMin, &min}, {kTmSec, &sec}}))
    return ctx.raise(*f);
  const std::int64_t days = (std::int64_t{year} - 70) * 365 +
                            (std::int64_t{year} - 69) / 4 +
                            std::int64_t{mon} * 30 + (std::int64_t{mday} - 1);
  const std::int64_t secs =
      days * 86400 + hour * 3600 + min * 60 + std::int64_t{sec};
  return ok(static_cast<std::uint64_t>(secs));
}

CallOutcome do_strftime(CallContext& ctx) {
  const Addr buf = ctx.arg_addr(0);
  const std::uint64_t maxsize = ctx.arg(1);
  const Addr fmt = ctx.arg_addr(2);
  const Addr tm = ctx.arg_addr(3);
  auto& mem = ctx.proc().mem();

  std::int32_t hour = 0, min = 0, mon = 0, year = 0, mday = 0;
  if (auto f = tm_read(ctx, tm,
                       {{kTmHour, &hour},
                        {kTmMin, &min},
                        {kTmMon, &mon},
                        {kTmYear, &year},
                        {kTmMday, &mday}}))
    return ctx.raise(*f);

  std::string out;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    std::uint8_t c = 0;
    if (auto f = mem.read_u8(fmt + i, &c, sim::Access::kUser))
      return ctx.raise(*f);
    if (c == 0) break;
    if (c != '%') {
      out.push_back(static_cast<char>(c));
      continue;
    }
    std::uint8_t conv = 0;
    if (auto f = mem.read_u8(fmt + ++i, &conv, sim::Access::kUser))
      return ctx.raise(*f);
    char tmp[32];
    switch (conv) {
      case 'Y': std::snprintf(tmp, sizeof tmp, "%d", 1900 + year); break;
      case 'm': std::snprintf(tmp, sizeof tmp, "%02d", mon + 1); break;
      case 'd': std::snprintf(tmp, sizeof tmp, "%02d", mday); break;
      case 'H': std::snprintf(tmp, sizeof tmp, "%02d", hour); break;
      case 'M': std::snprintf(tmp, sizeof tmp, "%02d", min); break;
      case '%': std::snprintf(tmp, sizeof tmp, "%%"); break;
      case 0: tmp[0] = 0; --i; break;
      default: std::snprintf(tmp, sizeof tmp, "%c", conv); break;
    }
    out += tmp;
  }
  if (out.size() + 1 > maxsize) return ok(0);  // didn't fit: returns 0
  if (auto f = mem.write_cstr(buf, out, sim::Access::kUser))
    return ctx.raise(*f);
  return ok(out.size());
}

}  // namespace

void register_time_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCTime;
  const auto A = core::ApiKind::kCLib;
  // Windows CE does not support the C time group.
  const auto mask = clib_mask_no_ce();

  d.add("asctime", A, G, {"tm_ptr"}, do_asctime, mask);
  d.add("clock", A, G, {}, do_clock, mask);
  d.add("ctime", A, G, {"time_ptr"}, do_ctime, mask);
  d.add("difftime", A, G, {"int", "int"}, do_difftime, mask);
  d.add("gmtime", A, G, {"time_ptr"}, tm_from_time_ptr, mask);
  d.add("localtime", A, G, {"time_ptr"}, tm_from_time_ptr, mask);
  d.add("mktime", A, G, {"tm_ptr"}, do_mktime, mask);
  d.add("strftime", A, G, {"buf", "size", "cstr", "tm_ptr"}, do_strftime,
        mask);
  d.add("time", A, G, {"time_ptr_opt"}, do_time, mask);
}

}  // namespace ballista::clib
