#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: run options, the result
// record every workload fills in, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured loop; main() requires it to be positive.
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for colfiles, persisted SIT catalogs and the
  /// server socket; removed by the caller when the run ends.
  std::string work_dir;
  /// Taken first thing in main(): set-up time counts from here.
  Clock::time_point process_start;
};

/// What one run reports: the operations it attempted and failed, whether
/// every check on the operations that did not fail passed, and named
/// metrics with units.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed correctness check (printed to stderr at exit).
  void Fail(const std::string& message) {
    correct_ = false;
    errors_.push_back(message);
  }
  /// Fails the run when `status` is an error; returns status.ok().
  bool Check(const sitstats::Status& status, const std::string& context) {
    if (status.ok()) return true;
    Fail(context + ": " + status.ToString());
    return false;
  }
  void CountOperations(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
};

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// One run's figure from samples taken across the run (batches, passes,
/// load segments): the mean of the middle 80%. On a shared host the CPU
/// speed can switch between two levels about a third apart for seconds at
/// a time; the median of such samples then jumps between the levels as
/// their mix shifts from run to run, while this mean moves in proportion
/// to the mix, and the trimming keeps a stray sample out.
inline double TimeSampled(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  return Mean(std::vector<double>(values.begin() + static_cast<long>(trim),
                                  values.end() - static_cast<long>(trim)));
}

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Workload entry points (build_workload.cc, serve_workload.cc).
void RunBuildWorkload(const RunOptions& options, bool exact,
                      RunResult* result);
void RunServeWorkload(const RunOptions& options, RunResult* result);

/// Self-tests of the benchmark's own checkers (selftest.cc). Returns the
/// number of failed self-tests and prints each failure to stderr.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
