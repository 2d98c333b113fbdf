#ifndef RASQL_FIXPOINT_STAGE_PLAN_H_
#define RASQL_FIXPOINT_STAGE_PLAN_H_

#include "analysis/analyzed_query.h"
#include "common/status.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/fixpoint_options.h"
#include "verify/stage_graph.h"

namespace rasql::fixpoint {

/// Offline stage planners behind `EXPLAIN STAGES` (DESIGN.md §11): they
/// build the declared verify::StageGraph an evaluation WOULD submit —
/// prologue, seed, and the iteration template unrolled far enough to
/// exercise every channel-lifecycle transition (publish, consume,
/// Reset-then-republish) — without executing anything. Both planners run
/// the same orchestration analysis as the evaluators (AnalyzeOrchestration
/// / ResolveLocalMode), so the rendered template cannot drift from the
/// stages a real run submits.

/// Plans the distributed evaluation of `clique` (must satisfy
/// EligibleForDistributed) on `num_partitions` partitions: co-partitioning
/// prologue, the seed map and merge stages, then the iteration body of
/// whichever mode the orchestration settles on — decomposed local
/// fixpoint, combined reduce+map stages ping-ponging two channels, or
/// plain DSN map and reduce stages (the map split into morsel sub-tasks
/// when `runtime.morsel_rows > 0` and the delta is splittable).
common::Result<verify::StageGraph> PlanDistributedStages(
    const analysis::RecursiveClique& clique,
    const DistFixpointOptions& options,
    const runtime::RuntimeOptions& runtime, int num_partitions);

/// Plans the local evaluation of `clique`: the thread-pool phases of the
/// mode ResolveLocalMode picks (semi-naive seed/map/merge/reduce, naive
/// branch/canonicalize, or the one-shot non-recursive evaluation) as
/// kLocal stages with their concurrency claims. EvaluateCliqueLocal
/// verifies this graph before running when stage verification is enabled.
common::Result<verify::StageGraph> PlanLocalStages(
    const analysis::RecursiveClique& clique, const FixpointOptions& options);

}  // namespace rasql::fixpoint

#endif  // RASQL_FIXPOINT_STAGE_PLAN_H_
