#include "core/analysis.h"

#include <algorithm>
#include <ostream>

#include "core/generator.h"
#include "core/report.h"

namespace ballista::core {

namespace {

bool is_failure(CaseCode c) {
  return c == CaseCode::kAbort || c == CaseCode::kRestart ||
         c == CaseCode::kCatastrophic;
}

}  // namespace

std::vector<const ValueStat*> ValueAnalysis::suspects(
    double factor, std::uint64_t min_cases) const {
  std::vector<const ValueStat*> out;
  // Capped so campaigns with high base rates can still surface outliers.
  const double threshold = std::min(overall_failure_rate * factor, 0.9);
  for (const auto& s : stats) {
    if (s.cases >= min_cases && s.failure_rate() > threshold &&
        s.failures > 0) {
      out.push_back(&s);
    }
  }
  return out;
}

ValueAnalysis analyze_values(const CampaignResult& result, std::uint64_t cap,
                             std::uint64_t seed) {
  // Keyed by the TestValue pointer (stable for the registry's lifetime).
  std::map<const TestValue*, ValueStat> acc;
  std::uint64_t total_cases = 0, total_failures = 0;

  for (const MutStats& s : result.stats) {
    if (s.case_codes.empty()) continue;
    TupleGenerator gen(*s.mut, cap, seed);
    const std::uint64_t n =
        std::min<std::uint64_t>(s.case_codes.size(), gen.count());
    for (std::uint64_t i = 0; i < n; ++i) {
      const bool failed = is_failure(s.case_codes[i]);
      ++total_cases;
      if (failed) ++total_failures;
      const auto tuple = gen.tuple(i);
      for (std::size_t p = 0; p < tuple.size(); ++p) {
        ValueStat& st = acc[tuple[p]];
        if (st.cases == 0) {
          st.type_name = s.mut->params[p]->name();
          st.value_name = tuple[p]->name;
          st.exceptional = tuple[p]->exceptional;
        }
        ++st.cases;
        if (failed) ++st.failures;
      }
    }
  }

  ValueAnalysis out;
  out.overall_failure_rate =
      total_cases == 0 ? 0.0
                       : static_cast<double>(total_failures) / total_cases;
  out.stats.reserve(acc.size());
  for (auto& [ptr, st] : acc) out.stats.push_back(std::move(st));
  std::sort(out.stats.begin(), out.stats.end(),
            [](const ValueStat& a, const ValueStat& b) {
              if (a.failure_rate() != b.failure_rate())
                return a.failure_rate() > b.failure_rate();
              return a.value_name < b.value_name;
            });
  return out;
}

void print_value_analysis(std::ostream& os, const ValueAnalysis& a,
                          std::size_t top_n) {
  os << "Per-test-value failure attribution (overall failure rate "
     << percent(a.overall_failure_rate) << ")\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-14s %-22s %5s %9s %9s %s\n", "type",
                "value", "exc", "cases", "failures", "rate");
  os << line;
  std::size_t shown = 0;
  for (const auto& s : a.stats) {
    if (shown++ >= top_n) break;
    std::snprintf(line, sizeof line, "  %-14s %-22s %5s %9llu %9llu %s\n",
                  s.type_name.c_str(), s.value_name.c_str(),
                  s.exceptional ? "yes" : "no",
                  static_cast<unsigned long long>(s.cases),
                  static_cast<unsigned long long>(s.failures),
                  percent(s.failure_rate()).c_str());
    os << line;
  }
  const auto sus = a.suspects();
  os << "\n  suspects (failure rate > 3x overall): ";
  if (sus.empty()) {
    os << "(none)\n";
    return;
  }
  for (std::size_t i = 0; i < sus.size(); ++i)
    os << (i ? ", " : "") << sus[i]->value_name;
  os << "\n";
}

void write_mut_csv(std::ostream& os, const CampaignResult& result,
                   bool header) {
  if (header)
    os << "os,mut,api,group,planned,executed,passes,aborts,restarts,"
          "silent_candidates,hindering,catastrophic,crash_reproducible\n";
  for (const MutStats& s : result.stats) {
    os << sim::variant_name(result.variant) << ',' << s.mut->name << ','
       << static_cast<int>(s.mut->api) << ',' << group_name(s.mut->group)
       << ',' << s.planned << ',' << s.executed << ',' << s.passes << ','
       << s.aborts << ',' << s.restarts << ',' << s.silent_candidates << ','
       << s.hindering << ',' << (s.catastrophic ? 1 : 0) << ','
       << (s.crash_reproducible_single ? 1 : 0) << '\n';
  }
}

void write_value_csv(std::ostream& os, sim::OsVariant variant,
                     const ValueAnalysis& a, bool header) {
  if (header) os << "os,type,value,exceptional,cases,failures,failure_rate\n";
  for (const auto& s : a.stats) {
    os << sim::variant_name(variant) << ',' << s.type_name << ','
       << s.value_name << ',' << (s.exceptional ? 1 : 0) << ',' << s.cases
       << ',' << s.failures << ',' << s.failure_rate() << '\n';
  }
}

}  // namespace ballista::core
