// Measurement plumbing of the benchmark of record: host clocks, in-memory
// spans, order statistics, result digests and the conditions envelope.
//
// Nothing here reaches into src/: spans are opened and closed by the
// benchmark's own code around calls into the layers' public functions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/crashplan.h"

namespace benchrec {

namespace core = ballista::core;
namespace sim = ballista::sim;
namespace trace = ballista::trace;

/// Host nanoseconds on the steady clock, relative to process start.
std::uint64_t now_ns();
/// Process CPU seconds (all threads).
double cpu_seconds();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// One timed call: name, host start/end, the span that caused it and the
/// shard (or session) id every span of one unit of work shares.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t group = 0;
};

/// Spans are buffered per thread (one SpanBuf per worker) and merged into
/// the SpanLog when the worker ends; nothing is written until the run ends.
class SpanLog;

class SpanBuf {
 public:
  explicit SpanBuf(SpanLog* log) : log_(log) {}
  ~SpanBuf();
  SpanBuf(const SpanBuf&) = delete;
  SpanBuf& operator=(const SpanBuf&) = delete;

  /// Opens a span; returns its id for children and for close().
  std::uint32_t open(const char* name, std::uint64_t group,
                     std::uint32_t parent = 0);
  /// Closes span `id`; returns its duration in ns.
  std::uint64_t close(std::uint32_t id);

 private:
  SpanLog* log_;
  std::vector<Span> spans_;
};

class SpanLog {
 public:
  std::uint32_t next_id() { return ++ids_; }
  void absorb(std::vector<Span>& spans);
  /// Marks the end of a repetition (all of its SpanBufs are gone).
  void end_rep();
  std::size_t size() const { return spans_.size(); }
  /// Writes the first repetition's spans, one JSON object per line; false
  /// on I/O failure.
  bool write(const std::string& path) const;
  /// Self time per span name over every repetition: each span's duration
  /// minus the part its children cover.
  std::map<std::string, double> self_ns() const;

 private:
  std::atomic<std::uint32_t> ids_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t first_rep_ = 0;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
/// Mean of the middle half of `v` (ranks in [n/4, 3n/4)); 0 when empty.
double interquartile_mean(std::vector<double> v);
double mean(const std::vector<double>& v);

/// FNV-1a over the merged results: per-MuT counts, case codes, crash
/// payloads, event counters and (crash campaigns) cut verdicts.
class Digest {
 public:
  void add(const core::CampaignResult& r);
  void add(const core::CrashCampaignResult& r);
  std::string hex() const;

 private:
  void u64(std::uint64_t v);
  void bytes(const void* p, std::size_t n);
  void str(const std::string& s);
  void counters(const trace::Counters& c);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Runs fn(0) .. fn(n - 1) on n threads and joins every thread it started,
/// also when starting a later one throws.
template <class Fn>
void run_threads(unsigned n, const Fn& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (unsigned i = 0; i < n; ++i) threads.emplace_back(fn, i);
  } catch (...) {
    for (auto& t : threads) t.join();
    throw;
  }
  for (auto& t : threads) t.join();
}

/// Host speed right now, from spinning a dependent integer chain: the
/// rate of one thread, and the usable parallelism (the aggregate rate of
/// `threads` spinning threads over the rate of one, 1.0 .. threads).
struct CoreProbe {
  double single_rate = 0.0;  // chain steps per second, one thread
  double usable = 1.0;
};
CoreProbe probe_cores(unsigned threads);

}  // namespace benchrec
