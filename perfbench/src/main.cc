// perfbench_e2e: the end-to-end benchmark of sitstats.
//
//   perfbench_e2e --workload build_sweep|build_exact|serve_mixed
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench_e2e --selftest
//
// Prints one JSON object as its last line of standard output:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with span recording on and reports per-layer ones.
// Check failures and notes go to standard error.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_util.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must agree with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"build_s", "s"},
    {"rel_error", "ratio"},    {"qerror_p90", "ratio"},
    {"peak_rss_mb", "MB"},     {"estimate_rps", "req/s"},
    {"estimate_p50_ms", "ms"}, {"build_p50_ms", "ms"},
};

/// Must agree with BENCHMARK.json. A layer a workload does not exercise
/// reports 0 (no time spent, nothing counted).
constexpr MetricSpec kPerLayer[] = {
    {"storage.load_ms", "ms"},
    {"storage.scans", "count"},
    {"storage.rows_scanned", "count"},
    {"storage.cursor_ms", "ms"},
    {"storage.index_build_ms", "ms"},
    {"storage.index_lookups", "count"},
    {"storage.spill_ms", "ms"},
    {"storage.spill_rows", "count"},
    {"sit.base_stats_ms", "ms"},
    {"sit.sweep_ms", "ms"},
    {"sit.moracle_ms", "ms"},
    {"sit.moracle_calls", "count"},
    {"sampling.reservoir_ms", "ms"},
    {"histogram.build_ms", "ms"},
    {"histogram.builds", "count"},
    {"scheduler.solve_ms", "ms"},
    {"scheduler.exact_nodes", "count"},
    {"scheduler.schedule_cost", "cost"},
    {"scheduler.naive_cost", "cost"},
    {"scheduler.execute_ms", "ms"},
    {"scheduler.step_busy_ms", "ms"},
    {"scheduler.step_wait_ms", "ms"},
    {"sit.persist_ms", "ms"},
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.estimate_service_ms.p50", "ms"},
    {"server.transport_ms.p50", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_lookups", "count"},
    {"server.repeat_share", "ratio"},
    {"server.cache_invalidations", "count"},
    {"server.read_lock_ms", "ms"},
    {"server.write_lock_ms", "ms"},
    {"server.build_service_ms.p50", "ms"},
    {"estimator.estimate_us", "us"},
    {"estimate_p99_ms", "ms"},
    {"traced.build_s", "s"},
    {"traced.estimate_p50_ms", "ms"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "build_sweep|build_exact|serve_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n       perfbench_e2e --selftest\n",
               message);
  return 2;
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  RunOptions options;
  options.process_start = Clock::now();
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      const int failed = RunSelfTests();
      std::printf("selftest: %s\n", failed == 0 ? "ok" : "FAILED");
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      trace_given = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!trace_given || options.work_dir.empty() || !(options.seconds > 0)) {
    return Usage("--trace, --work-dir and a positive --seconds are required");
  }
  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) return Usage(("cannot create " + options.work_dir).c_str());

  RunResult result;
  if (options.workload == "build_sweep" || options.workload == "build_exact") {
    RunBuildWorkload(options, options.workload == "build_exact", &result);
  } else if (options.workload == "serve_mixed") {
    RunServeWorkload(options, &result);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::filesystem::remove_all(options.work_dir, error);

  // The checkers are checked too, after the measured work.
  if (RunSelfTests() != 0) result.Fail("benchmark self-tests failed");
  for (const std::string& message : result.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }

  std::string metrics;
  bool complete = true;
  auto emit = [&](const MetricSpec& spec, bool zero_if_missing) {
    const RunResult::Metric* found = nullptr;
    for (const RunResult::Metric& metric : result.metrics()) {
      if (metric.name == spec.name) found = &metric;
    }
    if (found == nullptr && !zero_if_missing) {
      std::fprintf(stderr, "perfbench: no value for %s\n", spec.name);
      complete = false;
      return;
    }
    const double value = found != nullptr ? found->value : 0.0;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      complete = false;
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, true);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, false);
  }
  if (!complete || result.attempted() == 0) {
    std::fprintf(stderr, "perfbench: run incomplete, no result\n");
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted()),
      static_cast<unsigned long long>(result.failed()), metrics.c_str());
  return 0;
}
