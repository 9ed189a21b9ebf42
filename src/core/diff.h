// Cross-run regression diffing: joins two CampaignResults case-by-case and
// classifies drift.
//
// The unit of comparison is the per-case CRASH verdict stream
// (MutStats::case_codes, one code per executed case): two runs over the same
// plan assign case index i of a MuT the same tuple, so an elementwise compare
// pinpoints exactly which tuples changed behaviour — the question a
// regression gate ("did upgrading NT4 -> Win2000 change any verdict?")
// actually asks.  Aggregate counters are compared per MuT as a
// second, weaker signal: equal verdicts with different kernel-event counters
// means the observable behaviour held but the path through the kernel moved.
//
// The join key is the MuT's group and name: the sync group registers some of
// the process group's names again.  Runs over different OS variants are
// deliberately comparable (that is the paper's Table 3 use case); MuTs present
// on one side only are reported as added/removed rather than an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace ballista::core {

enum class DriftKind : std::uint8_t {
  kVerdictChanged,   // some case's CRASH verdict differs
  kCasesAdded,       // next run recorded more cases for this MuT
  kCasesRemoved,     // next run recorded fewer cases for this MuT
  kCountersChanged,  // verdicts equal, kernel-event counters differ
  kCrashChanged,     // catastrophic blame / crash case / repro flag moved
  kMutAdded,         // MuT only in the next run
  kMutRemoved,       // MuT only in the baseline
};

std::string_view drift_kind_name(DriftKind k) noexcept;

/// One case whose verdict flipped.
struct CaseDrift {
  std::uint64_t case_index = 0;
  CaseCode before = CaseCode::kPassWithError;
  CaseCode after = CaseCode::kPassWithError;
};

/// Everything that drifted for one MuT.
struct MutDrift {
  /// The MuT's name, as "group:name" (the repro syntax) when MuTs of two
  /// groups in the compared runs carry that name.
  std::string mut;
  std::vector<DriftKind> kinds;
  /// Flipped verdicts, ascending case index (empty unless kVerdictChanged).
  std::vector<CaseDrift> cases;
  std::uint64_t baseline_executed = 0;
  std::uint64_t executed = 0;

  bool has(DriftKind k) const noexcept {
    for (DriftKind x : kinds)
      if (x == k) return true;
    return false;
  }
};

struct CampaignDiff {
  sim::OsVariant baseline_variant{};
  sim::OsVariant variant{};
  std::size_t muts_compared = 0;
  std::uint64_t cases_compared = 0;
  /// Only MuTs with at least one drift kind appear, in baseline order (added
  /// MuTs follow, in next-run order).
  std::vector<MutDrift> drift;

  bool identical() const noexcept { return drift.empty(); }
  std::uint64_t total_verdict_changes() const noexcept {
    std::uint64_t n = 0;
    for (const MutDrift& d : drift) n += d.cases.size();
    return n;
  }
};

/// Joins `baseline` and `next` by MuT group and name and classifies every
/// difference.
CampaignDiff diff_campaigns(const CampaignResult& baseline,
                            const CampaignResult& next);

/// Human-readable report (the `ballista_cli diff` output).
void print_diff(std::ostream& os, const CampaignDiff& d);

}  // namespace ballista::core
