#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// The offline statistics job both workload families run: base statistics,
// schedule, shared-scan execution, persisted SIT catalog.

#include <string>
#include <vector>

#include "common/result.h"
#include "scheduler/executor.h"
#include "scheduler/sit_problem.h"
#include "sit/base_stats.h"
#include "sit/sit.h"
#include "sit/sit_catalog.h"
#include "storage/catalog.h"

namespace perfbench {

struct PipelineRun {
  double base_stats_ms = 0, solve_ms = 0, execute_ms = 0, persist_ms = 0;
  /// All four phases.
  double total_ms = 0;
  sitstats::SitSchedulingProblem mapping;
  sitstats::Schedule schedule;
  sitstats::ScheduleExecutionResult executed;
  sitstats::SitCatalog persisted;
};

/// Builds base histograms over every join column of `sits`, solves the
/// schedule with the Exact solver, executes it, and saves the SITs to
/// `sit_path`.
sitstats::Result<PipelineRun> RunOfflinePipeline(
    sitstats::Catalog* catalog, sitstats::BaseStatsCache* base_stats,
    const std::vector<sitstats::SitDescriptor>& sits,
    const sitstats::ScheduleExecutionOptions& options,
    const std::string& sit_path);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
