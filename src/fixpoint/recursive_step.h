#ifndef RASQL_FIXPOINT_RECURSIVE_STEP_H_
#define RASQL_FIXPOINT_RECURSIVE_STEP_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "fixpoint/fixpoint_options.h"
#include "physical/executor.h"
#include "physical/pipeline.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"
#include "storage/row_range.h"

namespace rasql::fixpoint {

/// One recursive term of a fixpoint (a recursive plan with one reference
/// bound to the delta) and the single decision of how it evaluates
/// (DESIGN.md §10), shared by the local and distributed drivers and by the
/// stage planner's `delta_splittable`. The term runs as a fused
/// physical::PipelineProgram driven by `driver` when the plan compiles,
/// `use_codegen` is on, and the join algorithm is hash or the pipeline has
/// no probe steps; otherwise it runs through the physical::Execute tree
/// walk, which stays the oracle (and owns sort-merge).
class RecursiveStep {
 public:
  /// `driver` is the leaf bound to the delta; null = the leftmost leaf
  /// (naive evaluation, which has no delta).
  RecursiveStep(const plan::LogicalPlan& plan,
                const plan::LogicalPlan* driver,
                const CommonFixpointOptions& options);

  /// True when the term runs as a pipeline — exactly the terms whose
  /// driver may be cut into independently evaluated morsels.
  bool pipelined() const { return program_.has_value(); }
  const plan::LogicalPlan& plan() const { return *plan_; }
  /// The pipeline's driver leaf. Pipelined steps only.
  const plan::LogicalPlan& driver() const { return program_->driver(); }

  /// Binds the pipeline's build sides against `ctx`. Pipelined steps only.
  /// When no build side reads a recursive reference, the result is
  /// loop-invariant and may be reused across iterations.
  common::Result<physical::BoundPipeline> Bind(
      const physical::ExecContext& ctx) const;

  /// The driver ranges to evaluate as independent tasks: morsels of at
  /// most `morsel_rows` rows when pipelined, else one whole-driver range.
  std::vector<storage::RowRange> Morsels(size_t driver_rows,
                                         size_t morsel_rows) const;

  /// Appends the term's rows for driver rows `range` to `*out`. Pipelined:
  /// runs `bound` over `*driver`. Otherwise: the tree walk over the
  /// context `make_context()` returns, whose recursive resolver binds the
  /// driver; `range` is then the single whole-driver range.
  common::Status Run(
      const physical::BoundPipeline* bound, const storage::Relation* driver,
      storage::RowRange range,
      const std::function<physical::ExecContext()>& make_context,
      std::vector<storage::Row>* out) const;

 private:
  const plan::LogicalPlan* plan_;
  std::optional<physical::PipelineProgram> program_;
};

}  // namespace rasql::fixpoint

#endif  // RASQL_FIXPOINT_RECURSIVE_STEP_H_
