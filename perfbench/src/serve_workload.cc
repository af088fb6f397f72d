// serve_mixed: an in-process SitStatsServer over TPC-H-lite, driven by a
// closed loop of estimate sessions beside one connection that rebuilds a
// SIT back to back. Every reply is checked against the estimator run by
// the benchmark itself over the SITs the workload built.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "datagen/tpch_lite.h"
#include "estimator/sit_estimator.h"
#include "pipeline.h"
#include "query/spec_parse.h"
#include "server/client.h"
#include "server/server.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "spans.h"
#include "storage/table_io.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "truth.h"

namespace perfbench {

using namespace sitstats;  // NOLINT: benchmark driver, one namespace in use

namespace {

using Provenance = CardinalityEstimator::Provenance;

constexpr double kSamplingRate = 0.1;
constexpr size_t kMinSampleSize = 100;
constexpr int kEstimateConnections = 2;
/// The request mix is a synthetic assumption, not taken from any trace:
/// each ESTIMATE picks a spec uniformly, then with probability kHotShare
/// one of the spec's kHotRanges hot ranges (all specs' hot ranges fit in
/// the server's 256-entry estimate cache), else one of kFreshRanges other
/// ranges, a pool far larger than the cache. The traced run reports the
/// share of ESTIMATEs that repeat an earlier (spec, range) beside the
/// cache's hit ratio.
constexpr double kHotShare = 0.8;
constexpr size_t kHotRanges = 16;
constexpr size_t kFreshRanges = 2048;
/// Every kAccuracyEvery-th ESTIMATE is followed by ACCURACY (also an
/// assumption of the synthetic mix).
constexpr uint64_t kAccuracyEvery = 8;
/// The two bucket counts BUILD alternates between: two distinct SITs for
/// the same spec at the same build cost.
constexpr int kBuildBuckets[2] = {90, 100};
/// Range queries per spec in the final pass.
constexpr size_t kProbeQueries = 500;
/// As in the build workloads, the SITs' sampling streams are fixed;
/// --seed drives the request stream and the final pass's ranges.
constexpr uint64_t kSamplingSeed = 42;
/// The load runs in segments of kSegmentSeconds. After each segment
/// every session is idle while the main thread reruns the ~40 ms preload
/// batch, so the batch is timed with nothing else running and, like the
/// load, samples the whole run (a shared host's speed can shift by a third
/// for seconds at a time). Latency and throughput are taken per segment
/// and summarized over the segments by TimeSampled.
constexpr double kSegmentSeconds = 1.0;
constexpr size_t kSegmentCapacity = 32768;

struct ServeSpec {
  const char* text;
  ChainQuery chain;
  Provenance provenance;
};

/// Index 0 is the spec BUILD rebuilds; 0-2 are preloaded SITs; 3-4 are
/// served from a preloaded SIT over a subexpression; 5 by propagation.
std::vector<ServeSpec> Specs() {
  const ChainHop customer_by_key{"customer", "", "c_custkey"};
  return {
      {"orders.o_totalprice:customer.c_custkey=orders.o_custkey",
       {{customer_by_key, {"orders", "o_custkey", ""}}, 1, "o_totalprice"},
       Provenance::kSit},
      {"lineitem.l_extendedprice:orders.o_orderkey=lineitem.l_orderkey",
       {{{"orders", "", "o_orderkey"}, {"lineitem", "l_orderkey", ""}},
        1,
        "l_extendedprice"},
       Provenance::kSit},
      {"orders.o_orderdate:customer.c_custkey=orders.o_custkey",
       {{customer_by_key, {"orders", "o_custkey", ""}}, 1, "o_orderdate"},
       Provenance::kSit},
      {"orders.o_totalprice:customer.c_custkey=orders.o_custkey;"
       "orders.o_orderkey=lineitem.l_orderkey",
       {{customer_by_key,
         {"orders", "o_custkey", "o_orderkey"},
         {"lineitem", "l_orderkey", ""}},
        1,
        "o_totalprice"},
       Provenance::kPartialSit},
      {"lineitem.l_extendedprice:customer.c_custkey=orders.o_custkey;"
       "orders.o_orderkey=lineitem.l_orderkey",
       {{customer_by_key,
         {"orders", "o_custkey", "o_orderkey"},
         {"lineitem", "l_orderkey", ""}},
        2,
        "l_extendedprice"},
       Provenance::kPartialSit},
      {"customer.c_acctbal:customer.c_nationkey=nation.n_nationkey",
       {{{"customer", "", "c_nationkey"}, {"nation", "n_nationkey", ""}},
        0,
        "c_acctbal"},
       Provenance::kPropagation},
  };
}
constexpr size_t kBuiltSpec = 0;
constexpr size_t kPreloadedSpecs = 3;

/// Everything a session needs to check a reply on the spot: per spec, the
/// hot ranges followed by the fresh pool, with each range's expected
/// answer under either BUILD version and its true cardinality.
struct RangeBook {
  std::vector<RangeQuery> ranges;
  std::vector<double> expected[2];
  std::vector<double> truth;
};

struct SessionLog {
  /// ESTIMATE round trips by load segment.
  std::vector<std::vector<double>> segment_rtt_ms;
  /// (trace id, round trip), traced runs only.
  std::vector<std::pair<uint64_t, double>> traced;
  /// ESTIMATEs sent per (spec, range index): spec * ranges per spec + i.
  std::vector<uint32_t> sent;
  std::vector<double> build_rtt_ms;
  uint64_t estimates = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
};

/// Bit pattern of a double, to compare answers exactly.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Starts and ends the load's segments. The main thread runs each
/// segment; the sessions send requests only inside one.
class SegmentGate {
 public:
  explicit SegmentGate(int sessions) : sessions_(sessions) {}

  /// Main thread: lets the sessions send until `deadline`, then waits
  /// until every one has stopped.
  void RunSegment(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    deadline_ = deadline;
    idle_ = 0;
    ++generation_;
    changed_.notify_all();
    while (idle_ < sessions_) changed_.wait(lock);
  }
  /// Main thread: ends the load.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    ++generation_;
    changed_.notify_all();
  }
  /// Session: waits for the segment after the one it last saw; false once
  /// the load has ended.
  bool Await(uint64_t* seen, Clock::time_point* deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    while (generation_ == *seen) changed_.wait(lock);
    *seen = generation_;
    *deadline = deadline_;
    return !closed_;
  }
  /// Session: has stopped sending in the current segment.
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    ++idle_;
    changed_.notify_all();
  }

 private:
  const int sessions_;
  std::mutex mu_;
  std::condition_variable changed_;
  uint64_t generation_ = 0;
  int idle_ = 0;
  bool closed_ = false;
  Clock::time_point deadline_;
};

/// Runs `send` in every segment of the load. After the first error the
/// session sends nothing more but still takes part in every segment, so
/// the main thread never waits on it.
template <typename Send>
void RunSegments(SegmentGate* gate, SessionLog* log, Send send) {
  uint64_t seen = 0;
  Clock::time_point deadline;
  size_t segment = 0;
  while (gate->Await(&seen, &deadline)) {
    if (log->errors.empty()) send(segment, deadline);
    ++segment;
    gate->Done();
  }
}

void EstimateSession(const std::string& socket, uint64_t seed, int id,
                     const std::vector<ServeSpec>& specs,
                     const std::vector<RangeBook>& books, bool traced,
                     size_t segments, SegmentGate* gate, SessionLog* log) {
  Result<SitStatsClient> client = SitStatsClient::Connect(socket);
  if (!client.ok()) {
    log->errors.push_back("connect: " + client.status().ToString());
  }
  // Segments are sized up front so memory does not step with throughput.
  log->segment_rtt_ms.resize(segments);
  for (std::vector<double>& segment : log->segment_rtt_ms) {
    segment.reserve(kSegmentCapacity);
  }
  Rng rng(DeriveStreamSeed(seed, "estimate-session-" + std::to_string(id)));
  constexpr size_t kRangesPerSpec = kHotRanges + kFreshRanges;
  log->sent.assign(specs.size() * kRangesPerSpec, 0);
  RunSegments(gate, log, [&](size_t segment, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      const auto s = static_cast<size_t>(rng.UniformInt(0, specs.size() - 1));
      const auto i = static_cast<size_t>(
          rng.NextDouble() < kHotShare
              ? rng.UniformInt(0, kHotRanges - 1)
              : rng.UniformInt(kHotRanges, kRangesPerSpec - 1));
      const RangeBook& book = books[s];
      const Clock::time_point t = Clock::now();
      Result<SitStatsClient::EstimateReply> reply =
          client->Estimate(specs[s].text, book.ranges[i].lo, book.ranges[i].hi);
      const double rtt = MillisSince(t);
      if (!reply.ok()) {
        log->errors.push_back("ESTIMATE: " + reply.status().ToString());
        return;
      }
      log->segment_rtt_ms[segment].push_back(rtt);
      ++log->sent[s * kRangesPerSpec + i];
      if (traced) {
        log->traced.emplace_back(
            std::strtoull(reply->trace_id.c_str(), nullptr, 16), rtt);
      }
      if (reply->provenance != ProvenanceToString(specs[s].provenance) ||
          (Bits(reply->cardinality) != Bits(book.expected[0][i]) &&
           Bits(reply->cardinality) != Bits(book.expected[1][i]))) {
        ++log->mismatches;
      }
      if (++log->estimates % kAccuracyEvery == 0) {
        Result<SitStatsClient::AccuracyReply> fed =
            client->Accuracy(reply->estimate_id, book.truth[i]);
        if (!fed.ok()) {
          log->errors.push_back("ACCURACY: " + fed.status().ToString());
          return;
        }
        const double want = QError(reply->cardinality, book.truth[i]);
        if (std::fabs(fed->qerror - want) > 1e-9 * want) {
          log->errors.push_back("ACCURACY q-error " +
                                std::to_string(fed->qerror) + " != " +
                                std::to_string(want));
        }
      }
    }
  });
}

void BuildSession(const std::string& socket, const std::string& spec,
                  SegmentGate* gate, SessionLog* log) {
  Result<SitStatsClient> client = SitStatsClient::Connect(socket);
  if (!client.ok()) {
    log->errors.push_back("connect: " + client.status().ToString());
  }
  // BUILDs come in (90, 100) pairs, so the last one of every segment
  // restores the preloaded bucket count and the state between segments
  // and after the load does not depend on timing.
  RunSegments(gate, log, [&](size_t, Clock::time_point deadline) {
    for (int k = 0; k % 2 == 1 || Clock::now() < deadline; ++k) {
      const Clock::time_point t = Clock::now();
      Result<std::string> reply = client->CallRaw(
          "BUILD " + spec + " buckets=" + std::to_string(kBuildBuckets[k % 2]));
      log->build_rtt_ms.push_back(MillisSince(t));
      if (!reply.ok()) {
        log->errors.push_back("BUILD: " + reply.status().ToString());
        return;
      }
    }
  });
}

/// The process-wide counters a BUILD moves, reported per BUILD by the
/// traced run.
std::map<std::string, uint64_t> BuildCounters() {
  auto& registry = telemetry::MetricsRegistry::Global();
  std::map<std::string, uint64_t> values;
  for (const char* name : {"storage.sequential_scans", "storage.rows_scanned",
                           "sit.moracle_calls", "histogram.builds"}) {
    values[name] = registry.GetCounter(name).value();
  }
  return values;
}

}  // namespace

void RunServeWorkload(const RunOptions& options, RunResult* result) {
  const std::string data_dir = options.work_dir + "/tpch";
  const std::string sit_path = options.work_dir + "/preload.txt";
  const std::string socket = options.work_dir + "/server.sock";
  const std::vector<ServeSpec> specs = Specs();
  std::vector<SitDescriptor> descriptors;
  for (const ServeSpec& spec : specs) {
    Result<SitDescriptor> parsed = ParseSitSpec(spec.text);
    if (!result->Check(parsed.status(), "parse spec")) return;
    descriptors.push_back(*parsed);
  }
  const std::vector<SitDescriptor> preload(
      descriptors.begin(), descriptors.begin() + kPreloadedSpecs);

  // ---- Set-up: generate, import, load, preload SITs, start the server.
  // TPC-H-lite at its default spec, seed included.
  Result<std::unique_ptr<Catalog>> generated =
      MakeTpchLiteDatabase(TpchLiteSpec{});
  if (!result->Check(generated.status(), "generate TPC-H-lite")) return;
  ::mkdir(data_dir.c_str(), 0755);
  if (!result->Check(SaveCatalogBinary(**generated, data_dir), "import")) {
    return;
  }
  generated->reset();
  Clock::time_point t = Clock::now();
  Result<std::unique_ptr<Catalog>> server_catalog = LoadCatalog(data_dir);
  const double load_ms = MillisSince(t);
  if (!result->Check(server_catalog.status(), "load")) return;

  auto& tracer = telemetry::Tracer::Global();
  tracer.SetEnabled(options.trace);
  ScheduleExecutionOptions exec_options;
  exec_options.variant = SweepVariant::kSweep;
  exec_options.sampling_rate = kSamplingRate;
  exec_options.min_sample_size = kMinSampleSize;
  exec_options.seed = kSamplingSeed;
  exec_options.num_threads = 1;
  BaseStatsCache preload_stats;
  Result<PipelineRun> preloaded =
      RunOfflinePipeline(server_catalog->get(), &preload_stats, preload,
                         exec_options, sit_path);
  if (!result->Check(preloaded.status(), "preload batch")) return;
  Result<SitCatalog> persisted = LoadSitCatalog(sit_path);
  if (!result->Check(persisted.status(), "load preloaded SITs")) return;

  ServerOptions server_options;
  server_options.socket_path = socket;
  server_options.build_defaults.variant = SweepVariant::kSweep;
  server_options.build_defaults.sampling_rate = kSamplingRate;
  server_options.build_defaults.min_sample_size = kMinSampleSize;
  server_options.build_defaults.seed = kSamplingSeed;
  SitStatsServer server(std::move(*server_catalog), server_options);
  server.PreloadSits(*persisted);
  if (!result->Check(server.Start(), "server start")) return;
  const double setup_s = SecondsSince(options.process_start);

  // ---- Untimed: a second load of the same colfiles for the benchmark's
  // own view.
  Result<std::unique_ptr<Catalog>> local = LoadCatalog(data_dir);
  if (!result->Check(local.status(), "local load")) return;

  // The two catalog states BUILD alternates between: the preloaded SITs
  // with the rebuilt SIT at 90 or at 100 buckets. The 100-bucket solo
  // build must be byte-identical to the preloaded batch build.
  BaseStatsCache local_stats;
  std::vector<SitCatalog> states(2);
  for (int version = 0; version < 2; ++version) {
    SitBuildOptions build = server_options.build_defaults;
    build.histogram_spec.num_buckets = kBuildBuckets[version];
    Result<Sit> rebuilt =
        CreateSit(local->get(), &local_stats, descriptors[kBuiltSpec], build);
    if (!result->Check(rebuilt.status(), "local rebuild")) return;
    const Sit* preloaded_sit = persisted->Find(descriptors[kBuiltSpec]);
    if (kBuildBuckets[version] == HistogramSpec{}.num_buckets &&
        (preloaded_sit == nullptr ||
         SerializeSit(*rebuilt) != SerializeSit(*preloaded_sit))) {
      result->Fail("solo CreateSit differs from the preloaded batch build");
    }
    states[static_cast<size_t>(version)] = *persisted;
    states[static_cast<size_t>(version)].Add(std::move(*rebuilt));
  }

  // Every range the load and the final pass can send, with its expected
  // answers (the benchmark's own estimator over each state) and its truth.
  std::vector<double> estimator_us;
  auto fill = [&](size_t s, const ChainTruth& truth, RangeBook* book) {
    for (const RangeQuery& q : book->ranges) {
      for (int version = 0; version < 2; ++version) {
        CardinalityEstimator estimator(local->get(), &local_stats,
                                       &states[static_cast<size_t>(version)]);
        const Clock::time_point start = Clock::now();
        Result<CardinalityEstimator::Estimate> estimate =
            estimator.EstimateRangeQuery(descriptors[s].query(),
                                         descriptors[s].attribute(), q.lo,
                                         q.hi);
        estimator_us.push_back(MillisSince(start) * 1e3);
        if (!estimate.ok() || estimate->provenance != specs[s].provenance) {
          result->Fail(std::string("local estimate of ") + specs[s].text);
          return false;
        }
        book->expected[version].push_back(estimate->cardinality);
      }
      book->truth.push_back(
          ToDouble(truth.distribution.RangeWeight(q.lo, q.hi)));
    }
    return true;
  };
  std::vector<RangeBook> books(specs.size()), probes(specs.size());
  Rng range_rng(DeriveStreamSeed(options.seed, "serve-ranges"));
  for (size_t s = 0; s < specs.size(); ++s) {
    Result<ChainTruth> truth = ComputeChainTruth(**local, specs[s].chain);
    if (!result->Check(truth.status(), std::string("truth ") + specs[s].text)) {
      return;
    }
    books[s].ranges = MakeRangeQueries(truth->distribution,
                                       kHotRanges + kFreshRanges, 0.0,
                                       &range_rng);
    probes[s].ranges = MakeRangeQueries(truth->distribution, kProbeQueries,
                                        kFig7MinFraction, &range_rng);
    if (!fill(s, *truth, &books[s]) || !fill(s, *truth, &probes[s])) return;
  }

  // ---- Load: estimate sessions plus one back-to-back BUILD connection.
  std::map<std::string, uint64_t> counters = BuildCounters();
  std::vector<SpanRecord> spans;
  DrainTracer(&spans);  // the preload batches' spans: not part of the load
  spans.clear();
  std::atomic<bool> draining{options.trace};
  std::thread drainer;
  if (options.trace) {
    // Keep the tracer's buffer small: move events out as they arrive.
    drainer = std::thread([&] {
      while (draining.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        DrainTracer(&spans);
      }
    });
  }
  const size_t segments = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.seconds / kSegmentSeconds)));
  const auto segment_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSegmentSeconds));
  SegmentGate gate(kEstimateConnections + 1);
  std::vector<SessionLog> logs(kEstimateConnections + 1);
  std::vector<std::thread> sessions;
  for (int c = 0; c < kEstimateConnections; ++c) {
    sessions.emplace_back(EstimateSession, socket, options.seed, c,
                          std::cref(specs), std::cref(books), options.trace,
                          segments, &gate, &logs[static_cast<size_t>(c)]);
  }
  sessions.emplace_back(BuildSession, socket, specs[kBuiltSpec].text, &gate,
                        &logs.back());
  // After each segment the preload batch runs again, from fresh base
  // statistics on the benchmark's own catalog, untraced; the counters it
  // moves are kept apart from the load's.
  std::vector<double> preload_ms = {preloaded->total_ms};
  std::map<std::string, uint64_t> rerun_counters;
  for (size_t segment = 0; segment < segments; ++segment) {
    gate.RunSegment(Clock::now() + segment_length);
    tracer.SetEnabled(false);
    const std::map<std::string, uint64_t> before = BuildCounters();
    BaseStatsCache stats;
    Result<PipelineRun> again = RunOfflinePipeline(
        local->get(), &stats, preload, exec_options, sit_path + ".again");
    for (const auto& [name, value] : BuildCounters()) {
      rerun_counters[name] += value - before.at(name);
    }
    tracer.SetEnabled(options.trace);
    if (!result->Check(again.status(), "repeated preload batch")) break;
    preload_ms.push_back(again->total_ms);
  }
  gate.Close();
  for (std::thread& session : sessions) session.join();
  if (options.trace) {
    draining.store(false);
    drainer.join();
    tracer.SetEnabled(false);
    DrainTracer(&spans);
  }
  const std::map<std::string, uint64_t> after_load = BuildCounters();
  for (auto& [name, value] : counters) {
    value = after_load.at(name) - value - rerun_counters[name];
  }
  const EstimateCache::Stats cache = server.cache_stats();

  uint64_t estimates = 0, mismatches = 0;
  std::vector<std::vector<double>> segment_rtt(segments);
  std::vector<uint32_t> sent;
  for (const SessionLog& log : logs) {
    for (const std::string& error : log.errors) result->Fail(error);
    estimates += log.estimates;
    mismatches += log.mismatches;
    sent.resize(std::max(sent.size(), log.sent.size()), 0);
    for (size_t k = 0; k < log.sent.size(); ++k) sent[k] += log.sent[k];
    for (size_t g = 0; g < log.segment_rtt_ms.size(); ++g) {
      segment_rtt[g].insert(segment_rtt[g].end(),
                            log.segment_rtt_ms[g].begin(),
                            log.segment_rtt_ms[g].end());
    }
  }
  const std::vector<double>& build_rtt = logs.back().build_rtt_ms;
  if (estimates == 0 || build_rtt.empty()) {
    result->Fail("load phase completed no ESTIMATE or no BUILD");
    return;
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                 " ESTIMATE replies match no SIT the workload built");
  }
  std::vector<double> segment_rps, segment_p50, segment_p99;
  for (const std::vector<double>& rtt : segment_rtt) {
    segment_rps.push_back(static_cast<double>(rtt.size()) / kSegmentSeconds);
    segment_p50.push_back(Percentile(rtt, 50));
    segment_p99.push_back(Percentile(rtt, 99));
  }

  // ---- Final pass after the load: answers must come from the last
  // BUILD's SIT (the 100-bucket one); the probe ranges also give the
  // accuracy metrics, per spec and then averaged.
  std::vector<double> spec_rel_errors, spec_qerror_p90;
  {
    Result<SitStatsClient> client = SitStatsClient::Connect(socket);
    if (!result->Check(client.status(), "final-pass connect")) return;
    uint64_t stale = 0;
    for (size_t s = 0; s < specs.size(); ++s) {
      std::vector<double> rel_errors, qerrors;
      for (size_t i = 0; i < probes[s].ranges.size(); ++i) {
        const RangeQuery& q = probes[s].ranges[i];
        Result<SitStatsClient::EstimateReply> reply =
            client->Estimate(specs[s].text, q.lo, q.hi);
        if (!result->Check(reply.status(), "final-pass ESTIMATE")) return;
        if (Bits(reply->cardinality) != Bits(probes[s].expected[1][i])) {
          ++stale;
        }
        rel_errors.push_back(
            RelativeError(reply->cardinality, probes[s].truth[i]));
        qerrors.push_back(QError(reply->cardinality, probes[s].truth[i]));
      }
      spec_rel_errors.push_back(Mean(rel_errors));
      spec_qerror_p90.push_back(Percentile(qerrors, 90));
    }
    if (stale > 0) {
      result->Fail("final pass: answers differ from the last BUILD's SIT");
    }
  }
  server.Stop();
  result->CountOperations(estimates + build_rtt.size(), 0);

  const double estimate_p50_ms = TimeSampled(segment_p50);
  // The round-trip tail swings with the host's load from run to run (its
  // spread over ten runs exceeds any bound), so the traced run reports it.
  result->Add("estimate_p99_ms", TimeSampled(segment_p99), "ms");
  if (!options.trace) {
    result->Add("setup_s", setup_s, "s");
    result->Add("build_s", TimeSampled(preload_ms) / 1e3, "s");
    result->Add("rel_error", Mean(spec_rel_errors), "ratio");
    result->Add("qerror_p90", Median(spec_qerror_p90), "ratio");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    result->Add("estimate_rps", TimeSampled(segment_rps), "req/s");
    result->Add("estimate_p50_ms", estimate_p50_ms, "ms");
    result->Add("build_p50_ms", Median(build_rtt), "ms");
    return;
  }

  // ---- Traced run: per-layer attribution.
  ComputeSelfTimes(&spans, {"server.queue_wait"});
  std::vector<double> queue_wait_ms;
  std::unordered_map<uint64_t, uint64_t> request_start, request_end;
  for (const SpanRecord& span : spans) {
    if (span.name == "server.queue_wait" && span.label == "estimate") {
      queue_wait_ms.push_back(static_cast<double>(span.dur_us) / 1e3);
      request_start[span.trace_id] = span.ts_us;
    } else if (span.name == "server.estimate_class") {
      request_end[span.trace_id] = span.end_us();
    }
  }
  std::vector<double> transport_ms;
  for (const SessionLog& log : logs) {
    for (const auto& [trace_id, rtt] : log.traced) {
      auto s = request_start.find(trace_id);
      auto e = request_end.find(trace_id);
      if (s == request_start.end() || e == request_end.end()) continue;
      transport_ms.push_back(rtt -
                             static_cast<double>(e->second - s->second) / 1e3);
    }
  }
  const double builds_done = static_cast<double>(build_rtt.size());
  auto per_build = [&](const char* counter) {
    return static_cast<double>(counters[counter]) / builds_done;
  };
  const uint64_t lookups = cache.hits + cache.misses;
  const auto distinct = static_cast<double>(
      std::count_if(sent.begin(), sent.end(), [](uint32_t n) { return n > 0; }));
  result->Add("storage.load_ms", load_ms, "ms");
  result->Add("storage.scans", per_build("storage.sequential_scans"), "count");
  result->Add("storage.rows_scanned", per_build("storage.rows_scanned"),
              "count");
  result->Add("sit.base_stats_ms", preloaded->base_stats_ms, "ms");
  result->Add("sit.sweep_ms",
              SumMs(spans, {"sweep.scan", "sweep.build_outputs"}, true) /
                  builds_done,
              "ms");
  result->Add("sit.moracle_calls", per_build("sit.moracle_calls"), "count");
  result->Add("histogram.build_ms",
              SumMs(spans,
                    {"histogram.build", "histogram.sort_dedup",
                     "histogram.partition"},
                    true) /
                  builds_done,
              "ms");
  result->Add("histogram.builds", per_build("histogram.builds"), "count");
  result->Add("scheduler.solve_ms", preloaded->solve_ms, "ms");
  result->Add("scheduler.execute_ms", preloaded->execute_ms, "ms");
  result->Add("sit.persist_ms", preloaded->persist_ms, "ms");
  result->Add("server.queue_wait_ms.p50", Percentile(queue_wait_ms, 50), "ms");
  result->Add("server.queue_wait_ms.p99", Percentile(queue_wait_ms, 99), "ms");
  result->Add("server.estimate_service_ms.p50",
              Median(SelfTimesMs(spans, "server.estimate_class")), "ms");
  result->Add("server.transport_ms.p50", Median(transport_ms), "ms");
  result->Add("server.cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups),
              "ratio");
  result->Add("server.cache_lookups", static_cast<double>(lookups), "count");
  result->Add("server.repeat_share",
              1.0 - distinct / static_cast<double>(estimates), "ratio");
  result->Add("server.cache_invalidations",
              static_cast<double>(cache.invalidations), "count");
  result->Add("server.read_lock_ms",
              Mean(SelfTimesMs(spans, "server.catalog.read_lock")), "ms");
  result->Add("server.write_lock_ms",
              Mean(SelfTimesMs(spans, "server.catalog.write_lock")), "ms");
  result->Add("server.build_service_ms.p50",
              Median(SelfTimesMs(spans, "server.build_class")), "ms");
  result->Add("estimator.estimate_us", Median(estimator_us), "us");
  result->Add("traced.build_s", TimeSampled(preload_ms) / 1e3, "s");
  result->Add("traced.estimate_p50_ms", estimate_p50_ms, "ms");
}

}  // namespace perfbench
