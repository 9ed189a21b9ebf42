// Post-campaign diagnosis: which test values are actually responsible for
// the failures?
//
// The Ballista project's follow-up analyses attributed failure rates to
// individual parameter values (the paper's §5 traces CE's seventeen crashes
// to "a single bad parameter value, namely an invalid C file pointer").
// This module recomputes per-value statistics from the deterministic
// generator: for every (data type, test value) pair, the fraction of test
// cases containing that value which failed — and flags values whose failure
// share is far above their base rate (the "suspects").
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/registry.h"

namespace ballista::core {

struct ValueStat {
  std::string type_name;
  std::string value_name;
  bool exceptional = false;
  std::uint64_t cases = 0;     // test cases containing this value
  std::uint64_t failures = 0;  // of those, Abort/Restart/Catastrophic
  double failure_rate() const noexcept {
    return cases == 0 ? 0.0 : static_cast<double>(failures) / cases;
  }
};

struct ValueAnalysis {
  std::vector<ValueStat> stats;    // sorted by failure rate, descending
  double overall_failure_rate = 0;

  /// Values whose failure rate exceeds `factor` times the overall rate
  /// (capped at 90% so high-base-rate campaigns still surface outliers) and
  /// that appeared in at least `min_cases` cases.
  std::vector<const ValueStat*> suspects(double factor = 3.0,
                                         std::uint64_t min_cases = 10) const;
};

/// Recomputes per-value attribution for one campaign.  `cap`/`seed` must be
/// the options the campaign ran with (the generator re-derives the same
/// tuples).  Only MuTs with recorded case codes contribute.
ValueAnalysis analyze_values(const CampaignResult& result,
                             std::uint64_t cap = kDefaultCap,
                             std::uint64_t seed = 0x8a11157a);

void print_value_analysis(std::ostream& os, const ValueAnalysis& a,
                          std::size_t top_n = 20);

/// CSV exports for downstream tooling (one row per MuT / per value, led by
/// the OS).  `header` writes the column line first; clear it to append a
/// further campaign's rows under the same header.
void write_mut_csv(std::ostream& os, const CampaignResult& result,
                   bool header = true);
void write_value_csv(std::ostream& os, sim::OsVariant variant,
                     const ValueAnalysis& a, bool header = true);

}  // namespace ballista::core
