// The 21 <math.h> functions.  Pure-value computations with the C89 error
// protocol: domain errors report EDOM, range errors ERANGE; quiet NaN inputs
// propagate silently — the paper's "C math" group accordingly shows near-zero
// Abort rates on every system, with the residue visible only as Silent
// estimates.
#include <bit>
#include <cerrno>
#include <cmath>

#include "clib/crt.h"
#include "clib/defs.h"

namespace ballista::clib {

namespace {

using core::CallContext;
using core::CallOutcome;

CallOutcome ret_d(double v) { return core::ok(std::bit_cast<std::uint64_t>(v)); }

CallOutcome dom_err(CallContext& ctx) {
  ctx.proc().set_errno(EDOM);
  return core::error_reported(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
}

CallOutcome range_err(CallContext& ctx, double v) {
  ctx.proc().set_errno(ERANGE);
  return core::error_reported(std::bit_cast<std::uint64_t>(v));
}

/// Wraps a host unary function with the C89 error protocol.
template <double (*F)(double)>
core::ApiImpl unary(bool (*domain_ok)(double) = nullptr) {
  return [domain_ok](CallContext& ctx) -> CallOutcome {
    const double x = ctx.argf(0);
    if (std::isnan(x)) return ret_d(x);  // quiet propagation
    if (domain_ok != nullptr && !domain_ok(x)) return dom_err(ctx);
    const double v = F(x);
    if (std::isinf(v) && !std::isinf(x)) return range_err(ctx, v);
    return ret_d(v);
  };
}

double host_acos(double x) { return std::acos(x); }
double host_asin(double x) { return std::asin(x); }
double host_atan(double x) { return std::atan(x); }
double host_ceil(double x) { return std::ceil(x); }
double host_cos(double x) { return std::cos(x); }
double host_cosh(double x) { return std::cosh(x); }
double host_exp(double x) { return std::exp(x); }
double host_fabs(double x) { return std::fabs(x); }
double host_floor(double x) { return std::floor(x); }
double host_log(double x) { return std::log(x); }
double host_log10(double x) { return std::log10(x); }
double host_sin(double x) { return std::sin(x); }
double host_sinh(double x) { return std::sinh(x); }
double host_sqrt(double x) { return std::sqrt(x); }
double host_tan(double x) { return std::tan(x); }
double host_tanh(double x) { return std::tanh(x); }

bool dom_unit(double x) { return x >= -1.0 && x <= 1.0; }
bool dom_positive(double x) { return x > 0.0; }
bool dom_nonneg(double x) { return x >= 0.0; }
bool dom_finite(double x) { return std::isfinite(x); }

CallOutcome do_atan2(CallContext& ctx) {
  const double y = ctx.argf(0), x = ctx.argf(1);
  if (std::isnan(x) || std::isnan(y)) return ret_d(x + y);
  if (x == 0.0 && y == 0.0) return dom_err(ctx);
  return ret_d(std::atan2(y, x));
}

CallOutcome do_fmod(CallContext& ctx) {
  const double x = ctx.argf(0), y = ctx.argf(1);
  if (std::isnan(x) || std::isnan(y)) return ret_d(x + y);
  if (y == 0.0 || std::isinf(x)) return dom_err(ctx);
  return ret_d(std::fmod(x, y));
}

CallOutcome do_pow(CallContext& ctx) {
  const double x = ctx.argf(0), y = ctx.argf(1);
  if (std::isnan(x) || std::isnan(y)) return ret_d(x + y);
  if (x == 0.0 && y < 0.0) return dom_err(ctx);
  if (x < 0.0 && std::floor(y) != y && std::isfinite(y)) return dom_err(ctx);
  const double v = std::pow(x, y);
  if (std::isinf(v) && std::isfinite(x) && std::isfinite(y))
    return range_err(ctx, v);
  return ret_d(v);
}

CallOutcome do_ldexp(CallContext& ctx) {
  const double x = ctx.argf(0);
  const std::int32_t e = ctx.argi(1);
  if (std::isnan(x)) return ret_d(x);
  const double v = std::ldexp(x, e);
  if (std::isinf(v) && std::isfinite(x)) return range_err(ctx, v);
  return ret_d(v);
}

CallOutcome do_modf(CallContext& ctx) {
  const double x = ctx.argf(0);
  const sim::Addr iptr = ctx.arg_addr(1);
  double ipart = 0;
  const double frac = std::isnan(x) ? x : std::modf(x, &ipart);
  // The integral part is stored through the user pointer — bad pointers
  // fault in every CRT (there is nothing to validate against).
  if (auto f = ctx.proc().mem().write_u64(
          iptr, std::bit_cast<std::uint64_t>(ipart), sim::Access::kUser))
    return ctx.raise(*f);
  return ret_d(frac);
}

}  // namespace

void register_math_fns(core::TypeLibrary& lib, core::Registry& reg) {
  Defs d{lib, reg};
  const auto G = core::FuncGroup::kCMath;
  const auto A = core::ApiKind::kCLib;
  const auto all = clib_mask_all();

  d.add("acos", A, G, {"double"}, unary<host_acos>(dom_unit), all);
  d.add("asin", A, G, {"double"}, unary<host_asin>(dom_unit), all);
  d.add("atan", A, G, {"double"}, unary<host_atan>(), all);
  d.add("atan2", A, G, {"double", "double"}, do_atan2, all);
  d.add("ceil", A, G, {"double"}, unary<host_ceil>(), all);
  d.add("cos", A, G, {"double"}, unary<host_cos>(dom_finite), all);
  d.add("cosh", A, G, {"double"}, unary<host_cosh>(), all);
  d.add("exp", A, G, {"double"}, unary<host_exp>(), all);
  d.add("fabs", A, G, {"double"}, unary<host_fabs>(), all);
  d.add("floor", A, G, {"double"}, unary<host_floor>(), all);
  d.add("fmod", A, G, {"double", "double"}, do_fmod, all);
  d.add("ldexp", A, G, {"double", "int"}, do_ldexp, all);
  d.add("log", A, G, {"double"}, unary<host_log>(dom_positive), all);
  d.add("log10", A, G, {"double"}, unary<host_log10>(dom_positive), all);
  d.add("modf", A, G, {"double", "buf"}, do_modf, all);
  d.add("pow", A, G, {"double", "double"}, do_pow, all);
  d.add("sin", A, G, {"double"}, unary<host_sin>(dom_finite), all);
  d.add("sinh", A, G, {"double"}, unary<host_sinh>(), all);
  d.add("sqrt", A, G, {"double"}, unary<host_sqrt>(dom_nonneg), all);
  d.add("tan", A, G, {"double"}, unary<host_tan>(dom_finite), all);
  d.add("tanh", A, G, {"double"}, unary<host_tanh>(), all);
}

}  // namespace ballista::clib
