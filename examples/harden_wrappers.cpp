// The paper's closing observation (§5): "developers who wish to use Windows
// CE in their systems would have to generate software wrappers for each of
// the seventeen functions they use to protect against a system crash because
// they only have access to the interface, not the underlying implementation."
//
// This example builds exactly those wrappers — validating FILE* against the
// CRT's own table before forwarding — and shows the CE C-library campaign
// with and without them: the Catastrophic failures disappear.
#include <iostream>

#include "clib/crt.h"
#include "harness/world.h"

using namespace ballista;

namespace {

/// Wraps a stdio MuT with the validation the CE kernel omits: the FILE*
/// argument must point into the CRT's stdio table and carry the live magic.
core::ApiImpl wrap_with_validation(const core::MuT& original,
                                   std::size_t file_param_index) {
  const core::ApiImpl inner = original.impl;
  return [inner, file_param_index](core::CallContext& ctx)
             -> core::CallOutcome {
    const sim::Addr fp = ctx.arg_addr(file_param_index);
    const clib::CrtState* crt = clib::crt_state(ctx.proc());
    if (crt == nullptr) return core::stopped();  // cut in CRT set-up
    const clib::CrtState& st = *crt;
    const bool in_table = fp >= st.iob_base &&
                          fp + clib::kFileStructSize <= st.iob_end &&
                          (fp - st.iob_base) % clib::kFileStructSize == 0;
    std::uint32_t magic = 0;
    if (!in_table ||
        ctx.proc().mem().read_u32(fp + clib::kFileOffMagic, &magic,
                                  sim::Access::kKernel) ||
        magic != clib::kFileMagic) {
      ctx.proc().set_errno(EBADF);
      return core::error_reported(static_cast<std::uint64_t>(-1));
    }
    return inner(ctx);
  };
}

core::CampaignResult run_ce_clib(const core::Registry& reg) {
  core::CampaignOptions opt;
  opt.cap = 400;
  opt.only_api = core::ApiKind::kCLib;
  return core::Campaign::run(sim::OsVariant::kWinCE, reg, opt);
}

void report(const char* label, const core::CampaignResult& r) {
  const auto list = core::catastrophic_list(r);
  const auto s = core::summarize(r);
  std::cout << label << ": " << list.size()
            << " functions with Catastrophic failures, " << r.reboots
            << " reboots, C-library Abort rate "
            << core::percent(s.clib_abort) << "\n";
  for (const auto& e : list) {
    std::cout << "    " << e.name;
    if (const core::MutStats* s = r.find(e.name); s && !s->crash_tuple.empty())
      std::cout << "  crash case " << s->crash_case << " " << s->crash_tuple;
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  auto world = harness::build_world();
  report("Stock Windows CE       ", run_ce_clib(world->registry));

  // Build a registry whose FILE*-taking C functions go through wrappers.
  core::Registry hardened;
  for (const core::MuT& m : world->registry.muts()) {
    core::MuT copy = m;
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      if (m.params[i]->name() == "cfile" &&
          m.hazard_on(sim::OsVariant::kWinCE) != core::CrashStyle::kNone) {
        copy.impl = wrap_with_validation(m, i);
        break;
      }
    }
    hardened.add(std::move(copy));
  }
  report("With FILE* wrappers     ", run_ce_clib(hardened));

  std::cout
      << "\nThe FILE* wrappers remove the \"one bad file pointer\" crashes\n"
         "(seventeen of eighteen, §5).  The deferred-style entries (fread,\n"
         "fgets, _tcsncpy) corrupt through their *buffer* arguments, so a\n"
         "complete wrapper must probe every pointer parameter:\n\n";

  core::Registry fully;
  for (const core::MuT& m : world->registry.muts()) {
    core::MuT copy = m;
    if (core::is_clib_group(m.group) &&
        m.hazard_on(sim::OsVariant::kWinCE) != core::CrashStyle::kNone) {
      const core::ApiImpl inner = m.impl;
      // 0 = not a pointer, 1 = probe readable, 2 = probe writable.
      std::vector<int> pointer_param;
      for (const core::DataType* t : m.params) {
        const std::string& n = t->name();
        if (n == "buf")
          pointer_param.push_back(2);
        else if (n == "cfile" || n == "cbuf" || n == "cstr" || n == "wstr" ||
                 n == "fmt")
          pointer_param.push_back(1);
        else
          pointer_param.push_back(0);
      }
      // A real defensive wrapper knows each function's signature, so it can
      // probe the *full* transfer length, not just the first word.
      const std::string name = m.name;
      copy.impl = [inner, pointer_param, name](core::CallContext& ctx)
          -> core::CallOutcome {
        auto probe_len = [&](std::size_t param) -> std::uint64_t {
          if (name == "fread" || name == "fwrite")
            return std::min<std::uint64_t>(ctx.arg(1) * ctx.arg(2), 1 << 16);
          if (name == "fgets" || name == "fgetws")
            return std::min<std::uint64_t>(
                static_cast<std::uint32_t>(ctx.argi(1) > 0 ? ctx.argi(1) : 1),
                1 << 16);
          if (name == "_tcsncpy" && param == 0)
            return std::min<std::uint64_t>(ctx.arg(2) * 2, 1 << 16);
          return 4;
        };
        for (std::size_t i = 0; i < pointer_param.size(); ++i) {
          if (pointer_param[i] == 0) continue;
          if (!ctx.proc().mem().check_range(
                  ctx.arg_addr(i), std::max<std::uint64_t>(probe_len(i), 4),
                  /*write=*/pointer_param[i] == 2, sim::Access::kUser)) {
            ctx.proc().set_errno(EINVAL);
            return core::error_reported(static_cast<std::uint64_t>(-1));
          }
        }
        return inner(ctx);
      };
      // The probe alone cannot distinguish a mapped string buffer from a
      // real FILE, so stack the FILE* table check on top.
      for (std::size_t i = 0; i < m.params.size(); ++i) {
        if (m.params[i]->name() == "cfile") {
          core::MuT probe_only = copy;
          copy.impl = wrap_with_validation(probe_only, i);
          break;
        }
      }
    }
    fully.add(std::move(copy));
  }
  report("With full wrappers      ", run_ce_clib(fully));
  return 0;
}
