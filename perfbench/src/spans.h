#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Reads the spans the program records (telemetry::Tracer) and turns them
// into per-layer times: a span's self time is its duration minus the time
// its direct child spans on the same thread cover.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint32_t tid = 0;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  uint64_t trace_id = 0;
  /// The "step" attribute of scheduler.execute_step spans, else -1.
  int64_t step = -1;
  /// The "class" attribute of server.queue_wait spans ("estimate" or
  /// "build"), else empty.
  std::string label;
  /// Filled by ComputeSelfTimes.
  uint64_t self_us = 0;

  uint64_t end_us() const { return ts_us + dur_us; }
};

/// Moves every event recorded so far out of the global tracer (snapshot,
/// then clear) and appends the complete spans to `out`.
void DrainTracer(std::vector<SpanRecord>* out);

/// Sets self_us on every span. Spans named in `detached` (reconstructed
/// after the fact, such as server.queue_wait, which overlaps whatever the
/// worker ran before it) neither parent nor nest: their self time is
/// their duration.
void ComputeSelfTimes(std::vector<SpanRecord>* spans,
                      std::initializer_list<const char*> detached);

/// Sum over spans whose name is in `names` and whose start lies in
/// [from_us, to_us), of self time (self = true) or duration, in ms.
double SumMs(const std::vector<SpanRecord>& spans,
             std::initializer_list<const char*> names, bool self,
             uint64_t from_us = 0, uint64_t to_us = UINT64_MAX);

/// Per-span self times (ms) of spans named `name`.
std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans,
                                const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
