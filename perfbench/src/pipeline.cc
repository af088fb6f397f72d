#include "pipeline.h"

#include "bench_util.h"
#include "scheduler/solver.h"
#include "sit/serialization.h"

namespace perfbench {

using namespace sitstats;  // NOLINT: benchmark driver, one namespace in use

Result<PipelineRun> RunOfflinePipeline(Catalog* catalog,
                                       BaseStatsCache* base_stats,
                                       const std::vector<SitDescriptor>& sits,
                                       const ScheduleExecutionOptions& options,
                                       const std::string& sit_path) {
  PipelineRun run;
  const Clock::time_point start = Clock::now();
  Rng stats_rng(options.seed);
  for (const SitDescriptor& sit : sits) {
    for (const JoinPredicate& join : sit.query().joins()) {
      for (const ColumnRef* side : {&join.left, &join.right}) {
        SITSTATS_RETURN_IF_ERROR(
            base_stats
                ->GetOrBuild(*catalog, side->table, side->column, &stats_rng)
                .status());
      }
    }
  }
  run.base_stats_ms = MillisSince(start);

  Clock::time_point t = Clock::now();
  SitProblemOptions problem_options;
  problem_options.sampling_rate = options.sampling_rate;
  SITSTATS_ASSIGN_OR_RETURN(
      run.mapping, BuildSitSchedulingProblem(*catalog, sits, problem_options));
  SolverOptions solver;
  solver.kind = SolverKind::kExact;
  SITSTATS_ASSIGN_OR_RETURN(SolverResult solved,
                            SolveSchedule(run.mapping.problem, solver));
  run.schedule = std::move(solved.schedule);
  run.solve_ms = MillisSince(t);

  t = Clock::now();
  SITSTATS_ASSIGN_OR_RETURN(
      run.executed, ExecuteSitSchedule(catalog, base_stats, sits, run.mapping,
                                       run.schedule, options));
  run.execute_ms = MillisSince(t);

  t = Clock::now();
  for (const Sit& sit : run.executed.sits) run.persisted.Add(sit);
  SITSTATS_RETURN_IF_ERROR(SaveSitCatalog(run.persisted, sit_path));
  run.persist_ms = MillisSince(t);
  run.total_ms = MillisSince(start);
  return run;
}

}  // namespace perfbench
