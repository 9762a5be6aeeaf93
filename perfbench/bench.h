// Shared pieces of the perfbench harness: run options, sample statistics, the
// metric report printed as the run's last line, and the span tracer.
//
// The harness measures the library and bundlemined only through public calls
// (Engine, the wire protocol, the layer headers). Spans are recorded here,
// around those calls, never inside src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< Length of the timed phase.
  bool trace = false;     ///< Per-layer run (spans + replays) instead of e2e.
  std::string out_dir;    ///< Span file and daemon scratch files go here.
  std::string daemon;     ///< bundlemined binary (serve-tenants).
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The workload's tail latency: the highest order statistic with at least
/// ten samples beyond it (the 11th-largest value), or the maximum when fewer
/// than eleven samples exist. `percentile` receives its rank as a percentile.
double Tail(std::vector<double> values, double* percentile);

/// Seconds per call of `fn`, the median of `reps` timed calls.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return Median(std::move(samples));
}

/// hits / (hits + misses), 0 when nothing was looked up.
double Share(std::int64_t part, std::int64_t whole);

/// The run's outcome: request accounting, metrics in output order, and
/// human-readable lines printed before the result line.
class Report {
 public:
  /// Counts one attempted operation; a failed or wrong one also counts as
  /// failed and clears `correct`.
  void Attempt(bool ok);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(std::int64_t attempted, std::int64_t failed);
  void Add(const std::string& name, double value, const std::string& unit);
  /// A line for the human-readable summary.
  void Note(const std::string& line);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// The result document: {"correct","attempted","failed","metrics"}.
  std::string ResultLine() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// In-memory span recorder. Each span records its name, start, end, parent
/// span and request id; spans are written out once, at exit. Disabled
/// tracers record nothing and cost one branch per call. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, std::int64_t request, int parent = -1)
      EXCLUDES(mu_);
  void End(int id) EXCLUDES(mu_);

  std::size_t size() const EXCLUDES(mu_);

  /// Measured cost of one Begin/End pair, from a burst of throwaway spans
  /// on a scratch tracer.
  static double CostPerSpanSeconds();

  /// Writes every span plus each name's summed self time (a span's duration
  /// minus the part of it its child spans cover) as JSON.
  bool Write(const std::string& path,
             const std::map<std::string, std::string>& header) const
      EXCLUDES(mu_);

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = 0;
  };
  std::int64_t NowNs() const;
  std::vector<double> SelfSecondsPerSpan() const REQUIRES(mu_);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable bundlemine::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t request,
             int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Seconds since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
