#include "core/diff.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "sim/personality.h"

namespace ballista::core {

std::string_view drift_kind_name(DriftKind k) noexcept {
  switch (k) {
    case DriftKind::kVerdictChanged: return "verdict_changed";
    case DriftKind::kCasesAdded: return "cases_added";
    case DriftKind::kCasesRemoved: return "cases_removed";
    case DriftKind::kCountersChanged: return "counters_changed";
    case DriftKind::kCrashChanged: return "crash_changed";
    case DriftKind::kMutAdded: return "mut_added";
    case DriftKind::kMutRemoved: return "mut_removed";
  }
  return "?";
}

namespace {

std::string_view code_name(CaseCode c) noexcept {
  switch (c) {
    case CaseCode::kPassWithError: return "pass";
    case CaseCode::kPassNoError: return "pass_no_error";
    case CaseCode::kAbort: return "abort";
    case CaseCode::kRestart: return "restart";
    case CaseCode::kCatastrophic: return "catastrophic";
    case CaseCode::kHindering: return "hindering";
  }
  return "?";
}

/// Drift in the catastrophic-crash bookkeeping, independent of the verdict
/// stream (a `*` flip or a moved blame matters even when case_codes match).
bool crash_fields_differ(const MutStats& a, const MutStats& b) noexcept {
  return a.catastrophic != b.catastrophic || a.crash_case != b.crash_case ||
         a.crash_reproducible_single != b.crash_reproducible_single;
}

}  // namespace

CampaignDiff diff_campaigns(const CampaignResult& baseline,
                            const CampaignResult& next) {
  CampaignDiff out;
  out.baseline_variant = baseline.variant;
  out.variant = next.variant;

  std::map<std::string_view, const MutStats*> next_by_name;
  for (const MutStats& s : next.stats)
    if (s.mut != nullptr) next_by_name.emplace(s.mut->name, &s);

  for (const MutStats& base : baseline.stats) {
    if (base.mut == nullptr) continue;
    const auto it = next_by_name.find(base.mut->name);
    if (it == next_by_name.end()) {
      MutDrift d;
      d.mut = base.mut->name;
      d.kinds.push_back(DriftKind::kMutRemoved);
      d.baseline_executed = base.executed;
      out.drift.push_back(std::move(d));
      continue;
    }
    const MutStats& cur = *it->second;
    next_by_name.erase(it);
    ++out.muts_compared;

    MutDrift d;
    d.mut = base.mut->name;
    d.baseline_executed = base.executed;
    d.executed = cur.executed;

    const std::size_t common =
        std::min(base.case_codes.size(), cur.case_codes.size());
    out.cases_compared += common;
    for (std::size_t i = 0; i < common; ++i)
      if (base.case_codes[i] != cur.case_codes[i])
        d.cases.push_back({i, base.case_codes[i], cur.case_codes[i]});
    if (!d.cases.empty()) d.kinds.push_back(DriftKind::kVerdictChanged);
    if (cur.case_codes.size() > common)
      d.kinds.push_back(DriftKind::kCasesAdded);
    if (base.case_codes.size() > common)
      d.kinds.push_back(DriftKind::kCasesRemoved);
    if (crash_fields_differ(base, cur))
      d.kinds.push_back(DriftKind::kCrashChanged);
    // Counter drift alone is the weak signal; only report it when nothing
    // stronger already explains the difference.
    if (d.kinds.empty() && base.event_counts != cur.event_counts)
      d.kinds.push_back(DriftKind::kCountersChanged);

    if (!d.kinds.empty()) out.drift.push_back(std::move(d));
  }

  for (const MutStats& s : next.stats) {
    if (s.mut == nullptr || next_by_name.count(s.mut->name) == 0) continue;
    MutDrift d;
    d.mut = s.mut->name;
    d.kinds.push_back(DriftKind::kMutAdded);
    d.executed = s.executed;
    out.drift.push_back(std::move(d));
  }
  return out;
}

void print_diff(std::ostream& os, const CampaignDiff& d) {
  os << "compared " << d.muts_compared << " MuTs, " << d.cases_compared
     << " cases (" << sim::variant_name(d.baseline_variant) << " -> "
     << sim::variant_name(d.variant) << ")\n";
  if (d.identical()) {
    os << "no drift: runs are identical\n";
    return;
  }
  for (const MutDrift& m : d.drift) {
    os << m.mut << ":";
    for (DriftKind k : m.kinds) os << " " << drift_kind_name(k);
    os << "\n";
    if (m.has(DriftKind::kCasesAdded) || m.has(DriftKind::kCasesRemoved))
      os << "  recorded cases: " << m.baseline_executed << " -> " << m.executed
         << "\n";
    // Show the first few flipped verdicts; the count says how many more.
    constexpr std::size_t kShow = 8;
    for (std::size_t i = 0; i < m.cases.size() && i < kShow; ++i) {
      const CaseDrift& c = m.cases[i];
      os << "  case " << c.case_index << ": " << code_name(c.before) << " -> "
         << code_name(c.after) << "\n";
    }
    if (m.cases.size() > kShow)
      os << "  ... and " << m.cases.size() - kShow << " more flipped cases\n";
  }
  os << d.drift.size() << " MuT(s) drifted, " << d.total_verdict_changes()
     << " verdict change(s)\n";
}

}  // namespace ballista::core
