#include "spans.h"

#include <algorithm>
#include <cstdlib>

#include "telemetry/trace.h"

namespace perfbench {

namespace {

bool NameIn(const std::string& name,
            std::initializer_list<const char*> names) {
  for (const char* candidate : names) {
    if (name == candidate) return true;
  }
  return false;
}

}  // namespace

void DrainTracer(std::vector<SpanRecord>* out) {
  auto& tracer = sitstats::telemetry::Tracer::Global();
  std::vector<sitstats::telemetry::TraceEvent> events = tracer.Snapshot();
  tracer.Clear();
  for (const auto& event : events) {
    if (event.phase != 'X') continue;
    SpanRecord span;
    span.name = event.name;
    span.tid = event.tid;
    span.ts_us = event.ts_us;
    span.dur_us = event.dur_us;
    span.trace_id = event.trace_id;
    for (const auto& [key, value] : event.args) {
      if (key == "step") span.step = std::strtoll(value.c_str(), nullptr, 10);
      if (key == "class") span.label = value;
    }
    out->push_back(std::move(span));
  }
}

void ComputeSelfTimes(std::vector<SpanRecord>* spans,
                      std::initializer_list<const char*> detached) {
  std::vector<size_t> order;
  order.reserve(spans->size());
  for (size_t i = 0; i < spans->size(); ++i) {
    SpanRecord& span = (*spans)[i];
    span.self_us = span.dur_us;
    if (!NameIn(span.name, detached)) order.push_back(i);
  }
  // Per thread, parents sort before the children they enclose.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SpanRecord& x = (*spans)[a];
    const SpanRecord& y = (*spans)[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<size_t> stack;
  uint32_t tid = 0;
  for (size_t i : order) {
    const SpanRecord& span = (*spans)[i];
    if (stack.empty() || span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    // Timestamps are whole microseconds, so a child may overhang its
    // parent's end by one.
    while (!stack.empty() &&
           span.end_us() > (*spans)[stack.back()].end_us() + 1) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      SpanRecord& parent = (*spans)[stack.back()];
      parent.self_us -= std::min(parent.self_us, span.dur_us);
    }
    stack.push_back(i);
  }
}

double SumMs(const std::vector<SpanRecord>& spans,
             std::initializer_list<const char*> names, bool self,
             uint64_t from_us, uint64_t to_us) {
  uint64_t total = 0;
  for (const SpanRecord& span : spans) {
    if (span.ts_us < from_us || span.ts_us >= to_us) continue;
    if (!NameIn(span.name, names)) continue;
    total += self ? span.self_us : span.dur_us;
  }
  return static_cast<double>(total) / 1000.0;
}

std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.self_us) / 1000.0);
    }
  }
  return out;
}

}  // namespace perfbench
