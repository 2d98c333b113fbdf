#ifndef RASQL_PHYSICAL_PIPELINE_H_
#define RASQL_PHYSICAL_PIPELINE_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "expr/vec_program.h"
#include "physical/executor.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"
#include "storage/row_range.h"

namespace rasql::physical {

class BoundPipeline;

/// A fused operator pipeline compiled from one spine of a logical plan: a
/// driving leaf (table scan / recursive ref / VALUES) followed by filter,
/// hash-join-probe and project steps that push each driver row through to
/// a sink — the whole-stage-codegen analogue (paper Sec. 7.3). At each join
/// the spine follows the child holding the driver; the other child becomes
/// a materialized build side. The default driver is the leftmost leaf, the
/// executor's fusion; the fixpoint layer drives a recursive term from its
/// delta reference wherever it sits (`FROM edge, tc`, SG's `rel a, sg`).
///
/// Compilation is context-free (plan shape only) and cheap; do it once per
/// plan, Bind() the build sides per evaluation context, and Run() any
/// number of driver relations through the bound pipeline. The interpreted
/// tree walk in executor.cc remains the oracle: for the default driver the
/// pipeline produces the same rows in the same order (probe-major driver
/// order, build matches in JoinHashTable::Probe order — the tree walk's
/// hash-join order). A driver on the right of a join yields the same bag
/// in driver-major order instead.
class PipelineProgram {
 public:
  /// Returns the compiled pipeline driven by `driver` (a leaf of `plan`;
  /// null = the leftmost leaf), or nullopt when the spine is not a fusable
  /// chain (cross joins, aggregates/sorts/limits on the spine, or a bare
  /// leaf with no steps to fuse).
  static std::optional<PipelineProgram> Compile(
      const plan::LogicalPlan& plan,
      const plan::LogicalPlan* driver = nullptr);

  /// Evaluates the build sides against `ctx` and builds their join hash
  /// tables and batch filters. The returned pipeline borrows relations
  /// owned by `ctx` (and the plan), so both must outlive it; it does not
  /// retain `ctx` itself, and it never resolves the driver leaf.
  common::Result<BoundPipeline> Bind(const ExecContext& ctx) const;

  /// True when the pipeline contains at least one join probe. Probe steps
  /// replicate the tree walk's *hash* join order; callers running under
  /// sort-merge must fall back to the tree walk when this is set.
  bool has_probe_steps() const { return num_probe_steps_ > 0; }
  const plan::LogicalPlan& driver() const { return *driver_; }
  size_t num_steps() const { return steps_.size(); }

 private:
  friend class BoundPipeline;
  struct Step {
    enum class Kind { kFilter, kProject, kHashProbe };
    Kind kind;
    const plan::FilterNode* filter = nullptr;
    const plan::ProjectNode* project = nullptr;
    const plan::JoinNode* join = nullptr;  ///< probe
    /// kHashProbe: the spine is the join's left child (build = right).
    bool spine_left = true;
  };
  const plan::LogicalPlan* driver_ = nullptr;
  std::vector<Step> steps_;  ///< driver-to-root order
  int num_probe_steps_ = 0;
};

/// A PipelineProgram with its build sides bound to one evaluation context:
/// hash tables built, batch filters compiled. The driver is an argument of
/// Run(), so one bound pipeline serves every iteration of a fixpoint whose
/// build sides are loop-invariant (the cached hash join of paper App. D).
/// Run() is const and carries its working state on the caller's stack, so
/// one BoundPipeline may be shared by concurrent tasks running disjoint
/// RowRanges of one driver, or different drivers.
///
/// Two execution modes share the Run() entry point (DESIGN.md §13, §15).
/// The interpreted mode pushes driver rows through the steps; a leading
/// hash probe hashes the key cells straight out of the driver's chunks and
/// copies the driver row only on a match. Batch mode
/// (ExecContext::batch_rows > 0) walks the driver's column chunks
/// directly: leading filters run arbitrary predicates — conjunctions,
/// col-vs-col, arithmetic subexpressions, dictionary-aware string
/// equality — as expr::VecProgram selection-vector kernels (a chunk the
/// kernels cannot mirror exactly falls back to the row interpreter
/// mid-pipeline) before the column-wise probe. Both modes emit identical
/// rows in identical order — the interpreter is the row-for-row oracle.
class BoundPipeline {
 public:
  BoundPipeline() = default;
  BoundPipeline(BoundPipeline&&) = default;
  BoundPipeline& operator=(BoundPipeline&&) = default;

  /// Pushes rows [range.begin, min(range.end, driver.size())) of `driver`
  /// (which must have the driver leaf's schema) through every step,
  /// appending produced rows to `*sink`. Output order is the driver order
  /// restricted to the range: concatenating the sinks of a morsel split in
  /// morsel order equals one whole-driver Run.
  common::Status Run(const storage::Relation& driver, storage::RowRange range,
                     std::vector<storage::Row>* sink) const;

  /// Whole-driver evaluation.
  common::Status RunAll(const storage::Relation& driver,
                        std::vector<storage::Row>* sink) const {
    return Run(driver, storage::RowRange{0, driver.size()}, sink);
  }

 private:
  friend class PipelineProgram;
  struct BoundStep {
    PipelineProgram::Step::Kind kind;
    const expr::Expr* predicate = nullptr;  // kFilter
    /// kFilter batch kernel: the predicate compiled to expr::VecProgram,
    /// which reproduces `predicate->Eval` bit for bit.
    std::optional<expr::VecProgram> vec_filter;
    const std::vector<expr::ExprPtr>* exprs = nullptr;  // kProject
    // kHashProbe: materialized build side + its hash table. The table
    // points into `build.rel`, which is stable under moves (borrowed
    // context relation or heap-owned intermediate).
    BorrowedRelation build;
    std::optional<JoinHashTable> table;
    std::vector<int> probe_keys;  ///< key columns of the spine row
    size_t spine_at = 0;          ///< spine row offset in the joined row
    size_t build_at = 0;          ///< build row offset in the joined row
    size_t width = 0;             ///< joined row width
  };
  /// Per-Run scratch, allocated on the caller's stack (thread safety).
  struct ProbeScratch {
    storage::Row combined;
    std::vector<int> matches;
  };

  std::vector<ProbeScratch> MakeScratch() const;
  void PushRow(const storage::Row& row, size_t step,
               std::vector<ProbeScratch>* scratch,
               std::vector<storage::Row>* sink) const;
  /// Column-wise probe of hash-probe step `step` with spine row `r` of
  /// `chunk`: the key cells hash straight out of the chunk, and the row is
  /// copied into the joined row only when the build side matches.
  void ProbeChunkRow(const storage::ColumnChunk& chunk, size_t r, size_t step,
                     std::vector<ProbeScratch>* scratch,
                     std::vector<storage::Row>* sink) const;

  common::Status RunBatch(const storage::Relation& driver,
                          storage::RowRange range,
                          std::vector<storage::Row>* sink) const;

  std::vector<BoundStep> steps_;
  size_t batch_rows_ = 0;
};

}  // namespace rasql::physical

#endif  // RASQL_PHYSICAL_PIPELINE_H_
