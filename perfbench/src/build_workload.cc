// build_sweep / build_exact: the offline path of the paper's synthetic
// chain database. Every batch goes data -> base stats -> schedule ->
// shared-scan builds -> persisted SIT catalog, and its SITs are checked
// against the benchmark's own ground truth.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/synthetic_db.h"
#include "estimator/sit_estimator.h"
#include "histogram/builder.h"
#include "query/join_tree.h"
#include "sampling/reservoir.h"
#include "scheduler/executor.h"
#include "scheduler/sit_problem.h"
#include "scheduler/solver.h"
#include "sit/base_stats.h"
#include "sit/creator.h"
#include "sit/oracle_factory.h"
#include "sit/serialization.h"
#include "sit/sit_catalog.h"
#include "pipeline.h"
#include "spans.h"
#include "storage/scan.h"
#include "storage/table_io.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "truth.h"

namespace perfbench {

using namespace sitstats;  // NOLINT: benchmark driver, one namespace in use

namespace {

constexpr int kTables = 6;
constexpr size_t kRowsPerTable = 50'000;
/// Neither the database nor the builds' sampling streams depend on
/// --seed: where the 6-way SIT's reservoir counter wraps depends on the
/// draws, and on some draw sequences its CDF check passes by luck. With
/// both fixed, that SIT fails on every run for the same input. --seed
/// drives the range queries the persisted catalog answers.
constexpr uint64_t kDataSeed = 20030305;
constexpr uint64_t kSamplingSeed = 42;
constexpr double kSamplingRate = 0.1;
constexpr size_t kMinSampleSize = 100;
constexpr size_t kQueriesPerSit = 1'000;
/// Relative tolerance of the SweepExact bucket check (floating-point
/// accumulation of up to ~1e22 tuples in doubles).
constexpr double kExactTolerance = 1e-9;

std::string Rt(int i) { return "R" + std::to_string(i); }

struct BatchSit {
  std::string label;
  SitDescriptor descriptor;
  ChainQuery chain;
};

/// SIT(a | R_first ⋈ ... ⋈ R_last), rooted at R_last or at R_first.
Result<BatchSit> ChainSit(int first, int last, bool root_at_last) {
  std::vector<std::string> tables;
  std::vector<JoinPredicate> joins;
  ChainQuery chain;
  for (int i = first; i <= last; ++i) {
    tables.push_back(Rt(i));
    chain.hops.push_back(
        {Rt(i), i > first ? "jp" : "", i < last ? "jn" : ""});
    if (i < last) {
      joins.push_back(JoinPredicate{{Rt(i), "jn"}, {Rt(i + 1), "jp"}});
    }
  }
  chain.root = root_at_last ? static_cast<size_t>(last - first) : 0;
  chain.attribute = "a";
  const int root_table = root_at_last ? last : first;
  SITSTATS_ASSIGN_OR_RETURN(
      GeneratingQuery query,
      GeneratingQuery::Create(std::move(tables), std::move(joins)));
  const std::string label = Rt(root_table) + ".a|R" + std::to_string(first) +
                            "..R" + std::to_string(last);
  return BatchSit{label, SitDescriptor({Rt(root_table), "a"}, query), chain};
}

/// The batch: twelve chain SITs, 2- to 6-way, rooted at either end. The
/// 6-way SIT R6.a|R1..R6 is the one whose Sweep stream passes 2^64 tuples.
/// kSoloSit is rebuilt alone by CreateSit in every optimizer pass.
constexpr size_t kSoloSit = 2;
/// Timed optimizer passes after each batch (after one untimed warm-up).
constexpr int kOptimizerPasses = 2;
Result<std::vector<BatchSit>> MakeBatch() {
  const struct {
    int first, last;
    bool root_at_last;
  } shapes[] = {
      {1, 2, true}, {1, 3, true}, {1, 4, true}, {2, 5, true},
      {1, 6, true}, {4, 6, true}, {1, 2, false}, {2, 4, false},
      {1, 4, false}, {3, 6, false}, {5, 6, false}, {3, 5, true},
  };
  std::vector<BatchSit> batch;
  for (const auto& shape : shapes) {
    SITSTATS_ASSIGN_OR_RETURN(
        BatchSit sit, ChainSit(shape.first, shape.last, shape.root_at_last));
    batch.push_back(std::move(sit));
  }
  return batch;
}

ChainDbSpec DatabaseSpec() {
  ChainDbSpec spec;
  spec.num_tables = kTables;
  spec.table_rows.assign(kTables, kRowsPerTable);
  spec.join_domain = 1'000;
  spec.zipf_z = 1.0;
  spec.correlation = AttributeCorrelation::kCorrelated;
  spec.seed = kDataSeed;
  return spec;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

/// Everything one batch measured and produced.
struct Batch {
  double load_ms = 0;
  uint64_t trace_from_us = 0, trace_to_us = 0;
  uint64_t moracle_calls = 0, histogram_builds = 0, exact_nodes = 0;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<BaseStatsCache> base_stats;
  PipelineRun run;
  std::string serialized;

  const std::vector<Sit>& sits() const { return run.executed.sits; }
  const IoStats& io() const { return run.executed.total_stats; }
};

Status RunBatch(const std::string& data_dir, const std::string& sit_path,
                const std::vector<BatchSit>& batch,
                const ScheduleExecutionOptions& exec_options, Batch* out) {
  auto& tracer = telemetry::Tracer::Global();
  out->trace_from_us = tracer.NowMicros();
  const uint64_t moracle_before = CounterValue("sit.moracle_calls");
  const uint64_t builds_before = CounterValue("histogram.builds");
  const uint64_t nodes_before = CounterValue("scheduler.exact.nodes");

  // Each batch starts from a fresh load, so every batch pays for its own
  // base statistics and (SweepExact) indexes.
  const Clock::time_point t = Clock::now();
  SITSTATS_ASSIGN_OR_RETURN(out->catalog, LoadCatalog(data_dir));
  out->load_ms = MillisSince(t);
  out->base_stats = std::make_unique<BaseStatsCache>();

  std::vector<SitDescriptor> descriptors;
  for (const BatchSit& sit : batch) descriptors.push_back(sit.descriptor);
  SITSTATS_ASSIGN_OR_RETURN(
      out->run, RunOfflinePipeline(out->catalog.get(), out->base_stats.get(),
                                   descriptors, exec_options, sit_path));
  out->serialized = SerializeSitCatalog(out->run.persisted);
  out->moracle_calls = CounterValue("sit.moracle_calls") - moracle_before;
  out->histogram_builds = CounterValue("histogram.builds") - builds_before;
  out->exact_nodes = CounterValue("scheduler.exact.nodes") - nodes_before;
  out->trace_to_us = tracer.NowMicros();
  return Status::OK();
}

/// Figures of the optimizer passes, one entry per timed pass.
struct OptimizerLog {
  std::vector<double> rps, p50_ms, p99_ms, solo_ms;
};

/// One optimizer pass over a finished batch: every range query through
/// the estimator over the persisted catalog (timed per call; each answer
/// must equal the built histogram's), then, when `solo`, one SIT rebuilt
/// alone through CreateSit, the path a server BUILD takes, which must be
/// byte-identical to its batched build. Figures go to `log` when it is
/// not null.
Status OptimizerPass(const Batch& batch, const SitCatalog& persisted,
                     const std::vector<BatchSit>& sits,
                     const std::vector<std::vector<RangeQuery>>& queries,
                     const SitBuildOptions& solo_options, bool solo,
                     OptimizerLog* log) {
  CardinalityEstimator estimator(batch.catalog.get(), batch.base_stats.get(),
                                 &persisted);
  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < sits.size(); ++i) {
    const SitDescriptor& descriptor = sits[i].descriptor;
    for (const RangeQuery& q : queries[i]) {
      const Clock::time_point t = Clock::now();
      Result<CardinalityEstimator::Estimate> estimate =
          estimator.EstimateRangeQuery(descriptor.query(),
                                       descriptor.attribute(), q.lo, q.hi);
      latency_ms.push_back(MillisSince(t));
      SITSTATS_RETURN_IF_ERROR(estimate.status());
      if (estimate->provenance != CardinalityEstimator::Provenance::kSit ||
          estimate->cardinality !=
              batch.sits()[i].histogram.EstimateRange(q.lo, q.hi)) {
        return Status::Internal("persisted " + sits[i].label +
                                " answers differently from the built SIT");
      }
    }
  }
  if (log != nullptr) {
    log->rps.push_back(static_cast<double>(latency_ms.size()) /
                       SecondsSince(start));
    log->p50_ms.push_back(Percentile(latency_ms, 50));
    log->p99_ms.push_back(Percentile(latency_ms, 99));
  }
  if (!solo) return Status::OK();
  const Clock::time_point t = Clock::now();
  SITSTATS_ASSIGN_OR_RETURN(
      Sit rebuilt, CreateSit(batch.catalog.get(), batch.base_stats.get(),
                             sits[kSoloSit].descriptor, solo_options));
  if (log != nullptr) log->solo_ms.push_back(MillisSince(t));
  if (SerializeSit(rebuilt) != SerializeSit(batch.sits()[kSoloSit])) {
    return Status::Internal("solo CreateSit of " + sits[kSoloSit].label +
                            " differs from its batched build");
  }
  return Status::OK();
}

/// The optimizer side of a finished batch, on the main thread so that
/// nothing of the benchmark's own runs beside a batch or a pass: the
/// persisted catalog is loaded back, one estimate pass warms it untimed,
/// then kOptimizerPasses timed passes follow.
Status RunOptimizerPasses(const Batch& batch, const std::string& sit_path,
                          const std::vector<BatchSit>& sits,
                          const std::vector<std::vector<RangeQuery>>& queries,
                          const SitBuildOptions& solo_options,
                          OptimizerLog* log) {
  SITSTATS_ASSIGN_OR_RETURN(SitCatalog persisted, LoadSitCatalog(sit_path));
  SITSTATS_RETURN_IF_ERROR(OptimizerPass(batch, persisted, sits, queries,
                                         solo_options, false, nullptr));
  for (int pass = 0; pass < kOptimizerPasses; ++pass) {
    SITSTATS_RETURN_IF_ERROR(OptimizerPass(batch, persisted, sits, queries,
                                           solo_options, true, log));
  }
  return Status::OK();
}

/// One schedule step's targets resolved the way the executor resolves
/// them: the SIT, its join tree and the node the step scans.
struct StepTarget {
  size_t sit;
  const JoinTree* tree;
  int node;
};

Result<std::vector<std::vector<StepTarget>>> ResolveSteps(
    const Batch& batch, const std::vector<BatchSit>& sits,
    std::vector<JoinTree>* trees) {
  trees->clear();
  std::vector<std::vector<int>> scan_nodes;
  for (const BatchSit& sit : sits) {
    SITSTATS_ASSIGN_OR_RETURN(
        JoinTree tree, JoinTree::Build(sit.descriptor.query(),
                                       sit.descriptor.attribute().table));
    std::vector<int> nodes;
    for (int node : tree.PostOrder()) {
      if (!tree.IsLeaf(node)) nodes.push_back(node);
    }
    trees->push_back(std::move(tree));
    scan_nodes.push_back(std::move(nodes));
  }
  std::vector<size_t> next_scan(sits.size(), 0);
  std::vector<std::vector<StepTarget>> steps;
  for (const ScheduleStep& step : batch.run.schedule.steps) {
    std::vector<StepTarget> targets;
    for (size_t seq : step.advanced) {
      const size_t s = batch.run.mapping.sequence_sit[seq];
      targets.push_back(
          StepTarget{s, &(*trees)[s], scan_nodes[s][next_scan[s]++]});
    }
    steps.push_back(std::move(targets));
  }
  return steps;
}

size_t HopOf(const ChainQuery& chain, const std::string& table) {
  for (size_t j = 0; j < chain.hops.size(); ++j) {
    if (chain.hops[j].table == table) return j;
  }
  return 0;
}

/// Direct timings of the layers one sweep-scan span covers together: the
/// scan cursor, the m-Oracle lookups and the reservoir. Each is run over
/// exactly the rows and columns the batch's steps scan.
struct DirectLayerTimes {
  double cursor_ms = 0, moracle_ms = 0, reservoir_ms = 0;
};

Result<DirectLayerTimes> TimeDirectLayers(
    Batch* batch, const std::vector<BatchSit>& sits,
    const std::vector<ChainTruth>& truths, bool exact, uint64_t seed) {
  std::vector<JoinTree> trees;
  SITSTATS_ASSIGN_OR_RETURN(auto steps, ResolveSteps(*batch, sits, &trees));
  DirectLayerTimes times;
  Rng rng(seed);
  for (size_t s = 0; s < steps.size(); ++s) {
    const std::string& table =
        batch->run.mapping.problem.table_name(batch->run.schedule.steps[s].table);
    // Projection: every target's join column towards its child and its
    // output attribute.
    std::vector<std::string> projection;
    auto project = [&](const std::string& column) {
      if (std::find(projection.begin(), projection.end(), column) ==
          projection.end()) {
        projection.push_back(column);
      }
    };
    for (const StepTarget& target : steps[s]) {
      const JoinTree::Node& node = target.tree->node(target.node);
      project(target.tree->node(node.children[0]).parent_column());
      project(target.node == target.tree->root()
                  ? sits[target.sit].descriptor.attribute().column
                  : node.column_to_parent());
    }
    Clock::time_point t = Clock::now();
    SITSTATS_ASSIGN_OR_RETURN(
        SequentialScan scan,
        SequentialScan::Open(batch->catalog.get(), table, projection));
    ScanBatch rows;
    double checksum = 0;
    while (scan.NextBatch(&rows)) checksum += rows.column(0)[0];
    times.cursor_ms += MillisSince(t);
    if (std::isnan(checksum)) return Status::Internal("scan read NaN");

    SITSTATS_ASSIGN_OR_RETURN(const Table* scanned,
                              batch->catalog->GetTable(table));
    const size_t capacity = std::max(
        kMinSampleSize,
        static_cast<size_t>(std::ceil(
            static_cast<double>(scanned->num_rows()) * kSamplingRate)));
    for (const StepTarget& target : steps[s]) {
      const JoinTree& tree = *target.tree;
      const JoinTree::Node& node = tree.node(target.node);
      const int child = node.children[0];
      // An internal child hands over its intermediate result: the exact
      // multiplicity map (SweepExact) or a 100-bucket SIT over it (Sweep).
      // The benchmark's truth supplies both, so the oracle is the same
      // kind and size as the one the executor builds.
      SweepOutput child_output;
      SweepOutput* child_ptr = nullptr;
      if (!tree.IsLeaf(child)) {
        const ChainQuery& chain = sits[target.sit].chain;
        const auto& weights =
            truths[target.sit].toward_root[HopOf(chain, tree.node(child).table)];
        std::vector<std::pair<double, double>> weighted;
        for (const auto& [key, weight] : weights) {
          child_output.exact_map[key] = ToDouble(weight);
          weighted.emplace_back(key, ToDouble(weight));
        }
        SITSTATS_ASSIGN_OR_RETURN(
            child_output.histogram,
            BuildHistogramWeighted(std::move(weighted), HistogramSpec{}));
        child_ptr = &child_output;
      }
      SITSTATS_ASSIGN_OR_RETURN(
          std::unique_ptr<MultiplicityOracle> oracle,
          MakeChildOracle(batch->catalog.get(), batch->base_stats.get(), tree,
                          target.node, child, child_ptr, exact, &rng));
      SITSTATS_ASSIGN_OR_RETURN(const Column* join_column,
                                scanned->GetColumn(tree.node(child)
                                                       .parent_column()));
      const std::vector<double> keys = join_column->ToNumericVector();
      std::vector<double> multiplicity(keys.size());
      t = Clock::now();
      for (size_t r = 0; r < keys.size(); r += kScanBatchRows) {
        const double* column = keys.data() + r;
        oracle->MultiplicityBatch(&column, 1,
                                  std::min(kScanBatchRows, keys.size() - r),
                                  multiplicity.data() + r);
      }
      times.moracle_ms += MillisSince(t);
      if (exact) continue;  // SweepExact keeps no reservoir

      // The Sweep stream: randomized rounding of each row's multiplicity,
      // then AddRepeated of (value, copies) into the step's reservoir.
      const std::string attribute =
          target.node == tree.root()
              ? sits[target.sit].descriptor.attribute().column
              : node.column_to_parent();
      SITSTATS_ASSIGN_OR_RETURN(const Column* values_column,
                                scanned->GetColumn(attribute));
      const std::vector<double> values = values_column->ToNumericVector();
      std::vector<uint64_t> copies(values.size());
      for (size_t r = 0; r < values.size(); ++r) {
        const double floor_m = std::floor(multiplicity[r]);
        copies[r] = static_cast<uint64_t>(floor_m) +
                    (rng.Bernoulli(multiplicity[r] - floor_m) ? 1 : 0);
      }
      ReservoirSampler reservoir(capacity, &rng);
      t = Clock::now();
      for (size_t r = 0; r < values.size(); ++r) {
        if (copies[r] > 0) reservoir.AddRepeated(values[r], copies[r]);
      }
      times.reservoir_ms += MillisSince(t);
    }
  }
  return times;
}

/// Ready-to-start wait of every execute_step span in a batch window, by
/// the executor's documented DAG rule: step j waits on every earlier step
/// that advances one of its SITs.
double StepWaitMs(const Batch& batch, const std::vector<SpanRecord>& spans) {
  std::map<int64_t, const SpanRecord*> by_step;
  const SpanRecord* execute = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.ts_us < batch.trace_from_us || span.ts_us >= batch.trace_to_us) {
      continue;
    }
    if (span.name == "scheduler.execute_step") by_step[span.step] = &span;
    if (span.name == "scheduler.execute_schedule") execute = &span;
  }
  if (execute == nullptr) return 0.0;
  std::vector<std::set<size_t>> sits_of_step;
  for (const ScheduleStep& step : batch.run.schedule.steps) {
    std::set<size_t> sits;
    for (size_t seq : step.advanced) {
      sits.insert(batch.run.mapping.sequence_sit[seq]);
    }
    sits_of_step.push_back(std::move(sits));
  }
  uint64_t wait_us = 0;
  for (size_t j = 0; j < sits_of_step.size(); ++j) {
    auto it = by_step.find(static_cast<int64_t>(j));
    if (it == by_step.end()) continue;
    uint64_t ready = execute->ts_us;
    for (size_t i = 0; i < j; ++i) {
      bool shared = false;
      for (size_t sit : sits_of_step[i]) shared |= sits_of_step[j].count(sit) > 0;
      auto dep = by_step.find(static_cast<int64_t>(i));
      if (shared && dep != by_step.end()) {
        ready = std::max(ready, dep->second->end_us());
      }
    }
    if (it->second->ts_us > ready) wait_us += it->second->ts_us - ready;
  }
  return static_cast<double>(wait_us) / 1000.0;
}

template <typename F>
double MedianOver(const std::vector<Batch>& batches, F field) {
  std::vector<double> values;
  for (const Batch& batch : batches) values.push_back(field(batch));
  return Median(std::move(values));
}

}  // namespace

void RunBuildWorkload(const RunOptions& options, bool exact,
                      RunResult* result) {
  const std::string data_dir = options.work_dir + "/chain";
  const std::string sit_path = options.work_dir + "/sits.txt";

  // ---- Set-up: generate, import to colfiles, load mapped.
  Result<ChainDatabase> db = MakeChainJoinDatabase(DatabaseSpec());
  if (!result->Check(db.status(), "generate chain database")) return;
  ::mkdir(data_dir.c_str(), 0755);
  if (!result->Check(SaveCatalogBinary(*db->catalog, data_dir),
                     "import colfiles")) {
    return;
  }
  db->catalog.reset();
  Result<std::unique_ptr<Catalog>> loaded = LoadCatalog(data_dir);
  if (!result->Check(loaded.status(), "load colfiles")) return;
  const double setup_s = SecondsSince(options.process_start);

  Result<std::vector<BatchSit>> batch_sits = MakeBatch();
  if (!result->Check(batch_sits.status(), "batch")) return;
  const std::vector<BatchSit>& sits = *batch_sits;

  // ---- Ground truth and the range queries (untimed).
  std::vector<ChainTruth> truths;
  std::vector<std::vector<RangeQuery>> queries;
  Rng query_rng(DeriveStreamSeed(options.seed, "range-queries"));
  for (const BatchSit& sit : sits) {
    Result<ChainTruth> truth = ComputeChainTruth(**loaded, sit.chain);
    if (!result->Check(truth.status(), "truth " + sit.label)) return;
    if (truth->distribution.empty()) {
      result->Fail("empty join result for " + sit.label);
      return;
    }
    queries.push_back(MakeRangeQueries(truth->distribution, kQueriesPerSit,
                                       kFig7MinFraction, &query_rng));
    truths.push_back(std::move(*truth));
  }
  loaded->reset();

  ScheduleExecutionOptions exec_options;
  exec_options.variant = exact ? SweepVariant::kSweepExact
                               : SweepVariant::kSweep;
  exec_options.sampling_rate = kSamplingRate;
  exec_options.min_sample_size = kMinSampleSize;
  exec_options.seed = kSamplingSeed;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  exec_options.num_threads = static_cast<int>(std::min(2u, cores));

  SitBuildOptions solo_options;
  solo_options.variant = exec_options.variant;
  solo_options.sampling_rate = kSamplingRate;
  solo_options.min_sample_size = kMinSampleSize;
  solo_options.seed = kSamplingSeed;

  auto& tracer = telemetry::Tracer::Global();
  tracer.SetEnabled(options.trace);

  // ---- Measured loop: whole rounds of one batch and its optimizer
  // passes until --seconds have passed, one after the other, so each is
  // timed with nothing else of the benchmark running and both sample the
  // whole run.
  std::vector<Batch> batches;
  OptimizerLog optimizer_log;
  const Clock::time_point loop_start = Clock::now();
  do {
    Batch batch;
    if (!result->Check(RunBatch(data_dir, sit_path, sits, exec_options,
                                &batch),
                       "batch")) {
      return;
    }
    if (!result->Check(RunOptimizerPasses(batch, sit_path, sits, queries,
                                          solo_options, &optimizer_log),
                       "optimizer pass")) {
      return;
    }
    // Only the newest batch's catalog stays alive, for the checks and the
    // traced run's direct layer timings.
    if (!batches.empty()) {
      batches.back().catalog.reset();
      batches.back().base_stats.reset();
    }
    std::fprintf(stderr, "perfbench: batch %zu build_s=%.4f\n",
                 batches.size(), batch.run.total_ms / 1e3);
    batches.push_back(std::move(batch));
  } while (SecondsSince(loop_start) < options.seconds);
  tracer.SetEnabled(false);

  // ---- Checks.
  const Batch& last = batches.back();
  for (const Batch& batch : batches) {
    if (batch.serialized != batches.front().serialized) {
      result->Fail("batches with the same seed built different SITs");
    }
    uint64_t expected_rows = 0;
    for (const ScheduleStep& step : batch.run.schedule.steps) {
      Result<const Table*> table = last.catalog->GetTable(
          batch.run.mapping.problem.table_name(step.table));
      if (table.ok()) expected_rows += (*table)->num_rows();
    }
    if (batch.io().sequential_scans != batch.run.schedule.steps.size() ||
        batch.io().rows_scanned != expected_rows) {
      result->Fail("storage counted " +
                   std::to_string(batch.io().sequential_scans) + " scans / " +
                   std::to_string(batch.io().rows_scanned) + " rows for " +
                   std::to_string(batch.run.schedule.steps.size()) +
                   " steps / " + std::to_string(expected_rows) + " rows");
    }
  }
  double greedy_cost = 0, naive_cost = 0;
  for (SolverKind kind : {SolverKind::kGreedy, SolverKind::kNaive}) {
    SolverOptions solver;
    solver.kind = kind;
    Result<SolverResult> solved = SolveSchedule(last.run.mapping.problem, solver);
    if (!result->Check(solved.status(), "reference solve")) return;
    (kind == SolverKind::kGreedy ? greedy_cost : naive_cost) =
        solved->schedule.cost;
  }
  const double exact_cost = last.run.schedule.cost;
  if (!(exact_cost <= greedy_cost * (1 + 1e-12) &&
        greedy_cost <= naive_cost * (1 + 1e-12))) {
    result->Fail("schedule costs out of order: exact " +
                 std::to_string(exact_cost) + ", greedy " +
                 std::to_string(greedy_cost) + ", naive " +
                 std::to_string(naive_cost));
  }

  // Per-SIT checks: a SIT that fails its own check is a failed operation.
  uint64_t failed_sits = 0;
  // Accuracy per SIT, averaged over the batch.
  std::vector<double> sit_rel_errors, sit_qerror_p90;
  for (size_t i = 0; i < sits.size(); ++i) {
    const Sit& sit = last.sits()[i];
    const WeightedDistribution& truth = truths[i].distribution;
    bool ok = true;
    std::string detail;
    if (exact) {
      const double total = ToDouble(truth.total());
      ok = std::fabs(sit.estimated_cardinality - total) <=
           kExactTolerance * total;
      for (const Bucket& bucket : sit.histogram.buckets()) {
        const double want = ToDouble(truth.RangeWeight(bucket.lo, bucket.hi));
        if (std::fabs(bucket.frequency - want) >
            kExactTolerance * std::max(want, 1.0)) {
          ok = false;
        }
      }
      detail = "bucket weights differ from the truth";
    } else {
      const double distance = CdfDistance(sit.histogram, truth);
      Result<const Table*> root_table =
          last.catalog->GetTable(sit.descriptor.attribute().table);
      const double capacity = std::max(
          static_cast<double>(kMinSampleSize),
          std::ceil(static_cast<double>(root_table.ok()
                                            ? (*root_table)->num_rows()
                                            : 0) *
                    kSamplingRate));
      const double bound = SweepCdfBound(capacity);
      ok = distance <= bound;
      detail = "CDF distance " + std::to_string(distance) + " > bound " +
               std::to_string(bound);
      std::fprintf(stderr, "perfbench: %-14s cdf_distance=%.4f\n",
                   sits[i].label.c_str(), distance);
    }
    if (!ok) {
      ++failed_sits;
      std::fprintf(stderr, "perfbench: failed operation %s: %s\n",
                   sits[i].label.c_str(), detail.c_str());
    }
    std::vector<double> rel_errors, qerrors;
    for (size_t q = 0; q < queries[i].size(); ++q) {
      const double want =
          ToDouble(truth.RangeWeight(queries[i][q].lo, queries[i][q].hi));
      // The persisted catalog answers exactly this (checked every pass).
      const double estimate =
          sit.histogram.EstimateRange(queries[i][q].lo, queries[i][q].hi);
      rel_errors.push_back(RelativeError(estimate, want));
      qerrors.push_back(QError(estimate, want));
    }
    sit_rel_errors.push_back(Mean(rel_errors));
    sit_qerror_p90.push_back(Percentile(qerrors, 90));
  }
  result->CountOperations(sits.size() * batches.size(),
                          failed_sits * batches.size());

  std::vector<double> batch_ms;
  for (const Batch& batch : batches) batch_ms.push_back(batch.run.total_ms);
  const double build_s = TimeSampled(batch_ms) / 1e3;
  const double estimate_p50_ms = TimeSampled(optimizer_log.p50_ms);

  // A tail latency of ~4 us calls on a shared host: too noisy to gate, so
  // reported by the traced run.
  result->Add("estimate_p99_ms", TimeSampled(optimizer_log.p99_ms), "ms");
  if (!options.trace) {
    result->Add("setup_s", setup_s, "s");
    result->Add("build_s", build_s, "s");
    result->Add("rel_error", Mean(sit_rel_errors), "ratio");
    result->Add("qerror_p90", Median(sit_qerror_p90), "ratio");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    result->Add("estimate_rps", TimeSampled(optimizer_log.rps), "req/s");
    result->Add("estimate_p50_ms", estimate_p50_ms, "ms");
    result->Add("build_p50_ms", TimeSampled(optimizer_log.solo_ms), "ms");
    return;
  }

  // ---- Traced run: per-layer attribution.
  std::vector<SpanRecord> spans;
  DrainTracer(&spans);
  ComputeSelfTimes(&spans, {});
  Batch& probe = batches.back();
  Result<DirectLayerTimes> direct =
      TimeDirectLayers(&probe, sits, truths, exact, options.seed);
  if (!result->Check(direct.status(), "direct layer timing")) return;
  auto per_batch = [&](std::initializer_list<const char*> names, bool self) {
    return MedianOver(batches, [&](const Batch& b) {
      return SumMs(spans, names, self, b.trace_from_us, b.trace_to_us);
    });
  };
  auto io = [&](auto field) {
    return MedianOver(batches, [&](const Batch& b) {
      return static_cast<double>(field(b.io()));
    });
  };
  result->Add("storage.load_ms",
              MedianOver(batches, [](const Batch& b) { return b.load_ms; }),
              "ms");
  result->Add("storage.scans",
              io([](const IoStats& s) { return s.sequential_scans; }),
              "count");
  result->Add("storage.rows_scanned",
              io([](const IoStats& s) { return s.rows_scanned; }), "count");
  result->Add("storage.cursor_ms", direct->cursor_ms, "ms");
  result->Add("storage.index_build_ms", per_batch({"storage.build_index"}, true),
              "ms");
  result->Add("storage.index_lookups",
              io([](const IoStats& s) { return s.index_lookups; }), "count");
  result->Add("storage.spill_ms", per_batch({"storage.spill"}, true), "ms");
  result->Add("storage.spill_rows",
              io([](const IoStats& s) { return s.temp_rows_spilled; }),
              "count");
  result->Add("sit.base_stats_ms",
              MedianOver(batches,
                         [](const Batch& b) { return b.run.base_stats_ms; }),
              "ms");
  result->Add("sit.sweep_ms",
              per_batch({"sweep.scan", "sweep.build_outputs"}, true), "ms");
  result->Add("sit.moracle_ms", direct->moracle_ms, "ms");
  result->Add("sit.moracle_calls",
              MedianOver(batches,
                         [](const Batch& b) {
                           return static_cast<double>(b.moracle_calls);
                         }),
              "count");
  result->Add("sampling.reservoir_ms", direct->reservoir_ms, "ms");
  result->Add("histogram.build_ms",
              per_batch({"histogram.build", "histogram.sort_dedup",
                         "histogram.partition"},
                        true),
              "ms");
  result->Add("histogram.builds",
              MedianOver(batches,
                         [](const Batch& b) {
                           return static_cast<double>(b.histogram_builds);
                         }),
              "count");
  result->Add("scheduler.solve_ms", per_batch({"scheduler.solve"}, false),
              "ms");
  result->Add("scheduler.exact_nodes",
              MedianOver(batches,
                         [](const Batch& b) {
                           return static_cast<double>(b.exact_nodes);
                         }),
              "count");
  result->Add("scheduler.schedule_cost", exact_cost, "cost");
  result->Add("scheduler.naive_cost", naive_cost, "cost");
  result->Add("scheduler.execute_ms",
              per_batch({"scheduler.execute_schedule"}, false), "ms");
  result->Add("scheduler.step_busy_ms",
              per_batch({"scheduler.execute_step"}, false), "ms");
  result->Add("scheduler.step_wait_ms",
              MedianOver(batches,
                         [&](const Batch& b) { return StepWaitMs(b, spans); }),
              "ms");
  result->Add("sit.persist_ms",
              MedianOver(batches, [](const Batch& b) { return b.run.persist_ms; }),
              "ms");
  result->Add("estimator.estimate_us", estimate_p50_ms * 1e3, "us");
  result->Add("traced.build_s", build_s, "s");
  result->Add("traced.estimate_p50_ms", estimate_p50_ms, "ms");
}

}  // namespace perfbench
