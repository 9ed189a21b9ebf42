#include "record.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

namespace benchrec {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- spans -------------------------------------------------------------------

SpanBuf::~SpanBuf() {
  if (log_ != nullptr) log_->absorb(spans_);
}

std::uint32_t SpanBuf::open(const char* name, std::uint64_t group,
                            std::uint32_t parent) {
  Span s;
  s.name = name;
  s.group = group;
  s.parent = parent;
  s.id = log_->next_id();
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

std::uint64_t SpanBuf::close(std::uint32_t id) {
  const std::uint64_t end = now_ns();
  // Spans nest, so the one being closed is almost always the last opened.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = end;
      return end - it->start_ns;
    }
  }
  return 0;
}

void SpanLog::absorb(std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

void SpanLog::end_rep() {
  if (first_rep_ == 0) first_rep_ = spans_.size();
}

std::map<std::string, double> SpanLog::self_ns() const {
  std::unordered_map<std::uint32_t, double> child_ns;
  for (const Span& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_ns.find(s.id);
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) -
                   (it == child_ns.end() ? 0.0 : it->second);
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = first_rep_ == 0 ? spans_.size() : first_rep_;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu32 ",\"parent\":%" PRIu32
                 ",\"group\":%" PRIu64 ",\"start_ns\":%" PRIu64
                 ",\"end_ns\":%" PRIu64 "}\n",
                 s.name, s.id, s.parent, s.group, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

// --- order statistics --------------------------------------------------------

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- digests -----------------------------------------------------------------

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Digest::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Digest::counters(const trace::Counters& c) {
  for (std::uint64_t x : c.n) u64(x);
  for (std::uint64_t x : c.probe) u64(x);
}

void Digest::add(const core::CampaignResult& r) {
  u64(static_cast<std::uint64_t>(r.variant));
  u64(static_cast<std::uint64_t>(r.reboots));
  u64(r.total_cases);
  counters(r.event_counters);
  for (const core::MutStats& s : r.stats) {
    str(s.mut != nullptr ? s.mut->name : std::string());
    for (std::uint64_t x : {s.planned, s.executed, s.passes, s.aborts,
                            s.restarts, s.silent_candidates, s.hindering})
      u64(x);
    u64(s.catastrophic);
    u64(static_cast<std::uint64_t>(s.crash_case));
    str(s.crash_detail);
    str(s.crash_tuple);
    u64(s.crash_reproducible_single);
    u64(s.case_codes.size());
    bytes(s.case_codes.data(), s.case_codes.size());
    counters(s.event_counts);
  }
}

void Digest::add(const core::CrashCampaignResult& r) {
  u64(static_cast<std::uint64_t>(r.variant));
  for (std::uint64_t x : {r.total_points, r.total_cuts, r.consistent,
                          r.inconsistent, r.no_cut})
    u64(x);
  u64(static_cast<std::uint64_t>(r.reboots));
  for (const core::CrashMutStats& s : r.stats) {
    str(s.mut != nullptr ? s.mut->name : std::string());
    for (std::uint64_t x : {s.planned, s.cases_counted, s.points_total,
                            s.cuts_tested, s.consistent, s.inconsistent,
                            s.no_cut})
      u64(x);
    for (std::uint64_t x : s.point_counts) u64(x);
    u64(s.findings.size());
    for (const core::CutRecord& c : s.findings) {
      u64(c.case_index);
      u64(c.cut_at);
      u64(static_cast<std::uint64_t>(c.verdict));
      str(c.detail);
    }
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

// --- conditions --------------------------------------------------------------

namespace {

/// Iterations of a dependent integer chain one thread completes in `ns`.
std::uint64_t spin(std::uint64_t ns) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t iters = 0;
  const std::uint64_t stop = now_ns() + ns;
  while (now_ns() < stop) {
    for (int i = 0; i < 1024; ++i) x = x * 6364136223846793005ull + 1;
    iters += 1024;
  }
  // Folding x in keeps the chain observable to the optimizer.
  return iters + (x == 0 ? 1 : 0);
}

}  // namespace

CoreProbe probe_cores(unsigned threads) {
  constexpr std::uint64_t kWindowNs = 40'000'000;
  CoreProbe p;
  const double one = static_cast<double>(spin(kWindowNs));
  p.single_rate = one / (static_cast<double>(kWindowNs) / 1e9);
  std::vector<std::uint64_t> got(threads, 0);
  run_threads(threads, [&got](unsigned t) { got[t] = spin(kWindowNs); });
  double all = 0.0;
  for (std::uint64_t g : got) all += static_cast<double>(g);
  if (one > 0.0)
    p.usable = std::clamp(all / one, 1.0, static_cast<double>(threads));
  return p;
}

}  // namespace benchrec
