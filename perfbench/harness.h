#ifndef RASQL_PERFBENCH_HARNESS_H_
#define RASQL_PERFBENCH_HARNESS_H_

// Statistics and tracing used by the repo benchmark (perfbench/README.md):
// the percentile rule, failure accounting and in-memory spans with their
// self time. Kept free of engine headers so perfbench_test covers it alone.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rasql::perfbench {

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// Cuts [0, `seconds`) into `windows` equal windows and returns each
/// window's rate: the events of `event_s` (seconds since the start) that
/// fall in it, per second. Events at or past `seconds` are dropped.
std::vector<double> WindowRates(const std::vector<double>& event_s,
                                double seconds, int windows);

/// One latency percentile together with how well the sample supports it.
struct Percentile {
  double percentile = 0;  ///< e.g. 99 for p99
  double value = 0;       ///< nearest-rank value; 0 when the sample is empty
  size_t samples = 0;     ///< sample count the value was taken from
  size_t beyond = 0;      ///< samples strictly ranked above the value
  /// At least kMinBeyond samples lie beyond: the rule for reporting a tail.
  bool supported = false;
};

/// A tail percentile is reported only when this many samples lie beyond it.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample: the
/// value at 1-based rank ceil(p/100 * n).
Percentile PercentileOf(const std::vector<double>& sorted, double p);

/// The highest percentile of `ladder` (ascending) that has at least
/// kMinBeyond samples beyond it; the first rung, marked unsupported, when
/// none has.
Percentile HighestSupported(const std::vector<double>& sorted,
                            const std::vector<double>& ladder = {50, 90, 99,
                                                                 99.9});

/// Failure accounting: every attempted operation lands in exactly one
/// bucket, so failed_frac = (errors + wrong + truncated) / attempted.
class Tally {
 public:
  enum class Outcome {
    kOk,
    kError,      ///< the call returned an error status
    kWrong,      ///< the answer differs from the oracle
    kTruncated,  ///< hit_iteration_limit: a result returned unconverged
  };

  void Record(Outcome outcome);
  void Merge(const Tally& other);

  uint64_t attempted() const { return ok_ + errors_ + wrong_ + truncated_; }
  uint64_t failed() const { return errors_ + wrong_ + truncated_; }
  uint64_t errors() const { return errors_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t truncated() const { return truncated_; }
  /// failed / attempted; 0 when nothing was attempted.
  double FailedFrac() const;

 private:
  uint64_t ok_ = 0;
  uint64_t errors_ = 0;
  uint64_t wrong_ = 0;
  uint64_t truncated_ = 0;
};

/// One recorded interval. Times are seconds since the tracer's origin;
/// `parent` indexes the enclosing span (-1 for a root); spans of one
/// request share `request`.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// one another when they ran concurrently).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// In-memory span recorder, safe to use from several threads. A disabled
/// tracer records nothing and Begin() returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its index.
  int64_t Begin(std::string name, int64_t parent, uint64_t request);
  void End(int64_t index);
  std::vector<Span> spans() const;
  /// Writes one JSON object per span (name, start, end, parent, request,
  /// self). False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
             uint64_t request)
      : tracer_(tracer),
        index_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace rasql::perfbench

#endif  // RASQL_PERFBENCH_HARNESS_H_
