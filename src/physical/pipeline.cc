#include "physical/pipeline.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "expr/expr.h"
#include "storage/column_chunk.h"

namespace rasql::physical {

using common::Result;
using common::Status;
using plan::LogicalPlan;
using plan::PlanKind;
using storage::Relation;
using storage::Row;
using storage::RowRange;

namespace {

bool Contains(const LogicalPlan& node, const LogicalPlan* target) {
  if (&node == target) return true;
  for (const plan::PlanPtr& child : node.children()) {
    if (Contains(*child, target)) return true;
  }
  return false;
}

/// Calls `fn(chunk, local_begin, local_end)` for the part of every chunk of
/// `rel` that lies in global rows [begin, end), in row order.
template <typename Fn>
void ForEachChunkSpan(const Relation& rel, size_t begin, size_t end, Fn&& fn) {
  end = std::min(end, rel.size());
  if (begin >= end) return;
  size_t c;
  size_t local;
  rel.Locate(begin, &c, &local);
  for (size_t i = begin; i < end; ++c, local = 0) {
    const storage::ColumnChunk& chunk = rel.chunk(c);
    const size_t local_end =
        std::min(end - rel.chunk_begin(c), chunk.num_rows());
    fn(chunk, local, local_end);
    i += local_end - local;
  }
}

}  // namespace

std::optional<PipelineProgram> PipelineProgram::Compile(
    const LogicalPlan& plan, const LogicalPlan* driver) {
  PipelineProgram program;
  // Walk the spine root-to-leaf, collecting steps in reverse.
  std::vector<Step> reversed;
  const LogicalPlan* node = &plan;
  while (true) {
    switch (node->kind()) {
      case PlanKind::kProject: {
        Step step;
        step.kind = Step::Kind::kProject;
        step.project = static_cast<const plan::ProjectNode*>(node);
        reversed.push_back(step);
        node = &node->child(0);
        break;
      }
      case PlanKind::kFilter: {
        Step step;
        step.kind = Step::Kind::kFilter;
        step.filter = static_cast<const plan::FilterNode*>(node);
        reversed.push_back(step);
        node = &node->child(0);
        break;
      }
      case PlanKind::kJoin: {
        const auto& join = static_cast<const plan::JoinNode&>(*node);
        if (join.is_cross()) return std::nullopt;
        Step step;
        step.kind = Step::Kind::kHashProbe;
        step.join = &join;
        step.spine_left = driver == nullptr || !Contains(join.child(1), driver);
        reversed.push_back(step);
        ++program.num_probe_steps_;
        node = &node->child(step.spine_left ? 0 : 1);
        break;
      }
      case PlanKind::kTableScan:
      case PlanKind::kRecursiveRef:
      case PlanKind::kValues:
        // A bare leaf has nothing to fuse; let the tree walk resolve it.
        if (reversed.empty()) return std::nullopt;
        if (driver != nullptr && node != driver) return std::nullopt;
        program.driver_ = node;
        std::reverse(reversed.begin(), reversed.end());
        program.steps_ = std::move(reversed);
        return program;
      default:
        // Aggregate / Sort / Limit are pipeline breakers.
        return std::nullopt;
    }
  }
}

Result<BoundPipeline> PipelineProgram::Bind(const ExecContext& ctx) const {
  RASQL_CHECK(driver_ != nullptr);
  BoundPipeline bound;
  bound.batch_rows_ = ctx.batch_rows;
  bound.steps_.reserve(steps_.size());
  for (const Step& step : steps_) {
    BoundPipeline::BoundStep bs;
    bs.kind = step.kind;
    switch (step.kind) {
      case Step::Kind::kFilter:
        bs.predicate = &step.filter->predicate();
        // Compile the whole predicate for the batch path; VecProgram
        // reproduces Expr::Eval, so both modes agree bit for bit.
        if (ctx.batch_rows > 0) {
          bs.vec_filter = expr::VecProgram::Compile(*bs.predicate);
        }
        break;
      case Step::Kind::kProject:
        bs.exprs = &step.project->exprs();
        break;
      case Step::Kind::kHashProbe: {
        const plan::JoinNode& join = *step.join;
        const size_t left_width = join.child(0).schema().num_columns();
        RASQL_ASSIGN_OR_RETURN(
            bs.build, ExecuteBorrowed(join.child(step.spine_left ? 1 : 0), ctx));
        bs.table.emplace(*bs.build.rel, step.spine_left ? join.right_keys()
                                                        : join.left_keys());
        bs.probe_keys = step.spine_left ? join.left_keys() : join.right_keys();
        bs.spine_at = step.spine_left ? 0 : left_width;
        bs.build_at = step.spine_left ? left_width : 0;
        bs.width = left_width + join.child(1).schema().num_columns();
        break;
      }
    }
    bound.steps_.push_back(std::move(bs));
  }
  return bound;
}

std::vector<BoundPipeline::ProbeScratch> BoundPipeline::MakeScratch() const {
  std::vector<ProbeScratch> scratch(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].kind == PipelineProgram::Step::Kind::kHashProbe) {
      scratch[s].combined.resize(steps_[s].width);
    }
  }
  return scratch;
}

void BoundPipeline::PushRow(const Row& row, size_t step,
                            std::vector<ProbeScratch>* scratch,
                            std::vector<Row>* sink) const {
  if (step == steps_.size()) {
    sink->push_back(row);
    return;
  }
  const BoundStep& bs = steps_[step];
  switch (bs.kind) {
    case PipelineProgram::Step::Kind::kFilter:
      if (expr::IsTruthy(bs.predicate->Eval(row))) {
        PushRow(row, step + 1, scratch, sink);
      }
      return;
    case PipelineProgram::Step::Kind::kProject: {
      Row projected = expr::EvalProjection(*bs.exprs, row);
      if (step + 1 == steps_.size()) {
        sink->push_back(std::move(projected));
      } else {
        PushRow(projected, step + 1, scratch, sink);
      }
      return;
    }
    case PipelineProgram::Step::Kind::kHashProbe: {
      ProbeScratch& ps = (*scratch)[step];
      ps.matches.clear();
      bs.table->Probe(row, bs.probe_keys, &ps.matches);
      if (ps.matches.empty()) return;
      // Fill the spine part once per input row, the build part per match.
      // Deeper steps never retain a reference to the scratch row, so it is
      // safe to reuse it across matches.
      std::copy(row.begin(), row.end(), ps.combined.begin() + bs.spine_at);
      for (int m : ps.matches) {
        bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ps.combined,
                                bs.build_at);
        PushRow(ps.combined, step + 1, scratch, sink);
      }
      return;
    }
  }
}

void BoundPipeline::ProbeChunkRow(const storage::ColumnChunk& chunk, size_t r,
                                  size_t step,
                                  std::vector<ProbeScratch>* scratch,
                                  std::vector<Row>* sink) const {
  const BoundStep& bs = steps_[step];
  ProbeScratch& ps = (*scratch)[step];
  ps.matches.clear();
  bs.table->ProbeChunk(chunk, r, bs.probe_keys, &ps.matches);
  if (ps.matches.empty()) return;
  chunk.CopyRowTo(r, &ps.combined, bs.spine_at);
  for (int m : ps.matches) {
    bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ps.combined,
                            bs.build_at);
    PushRow(ps.combined, step + 1, scratch, sink);
  }
}

Status BoundPipeline::Run(const Relation& driver, RowRange range,
                          std::vector<Row>* sink) const {
  if (batch_rows_ > 0) return RunBatch(driver, range, sink);
  std::vector<ProbeScratch> scratch = MakeScratch();
  if (!steps_.empty() &&
      steps_[0].kind == PipelineProgram::Step::Kind::kHashProbe) {
    // Column-wise leading probe: the key cells hash straight out of the
    // driver's chunks; a driver row is copied only when it matches.
    ForEachChunkSpan(driver, range.begin, range.end,
                     [&](const storage::ColumnChunk& chunk, size_t begin,
                         size_t end) {
                       for (size_t r = begin; r < end; ++r) {
                         ProbeChunkRow(chunk, r, 0, &scratch, sink);
                       }
                     });
    return Status::OK();
  }
  driver.ForEachRow(range,
                    [&](const Row& row) { PushRow(row, 0, &scratch, sink); });
  return Status::OK();
}

Status BoundPipeline::RunBatch(const Relation& driver, RowRange range,
                               std::vector<Row>* sink) const {
  std::vector<ProbeScratch> scratch = MakeScratch();
  Row row_scratch;
  std::vector<uint32_t> sel;
  sel.reserve(batch_rows_);
  expr::VecProgram::Scratch vec_scratch;

  ForEachChunkSpan(driver, range.begin, range.end, [&](
                       const storage::ColumnChunk& chunk, size_t local,
                       size_t local_end) {
    while (local < local_end) {
      const size_t batch_end = std::min(local_end, local + batch_rows_);
      sel.clear();
      for (size_t r = local; r < batch_end; ++r) {
        sel.push_back(static_cast<uint32_t>(r));
      }
      local = batch_end;

      // Leading filters run as compiled selection-vector kernels over the
      // chunk's typed arrays — any predicate shape, through the vectorized
      // expression layer. A chunk the kernels cannot mirror exactly drops
      // to the row interpreter for the remaining steps — same result,
      // different engine.
      size_t s = 0;
      for (; s < steps_.size() && !sel.empty(); ++s) {
        const BoundStep& bs = steps_[s];
        if (bs.kind != PipelineProgram::Step::Kind::kFilter ||
            !bs.vec_filter) {
          break;
        }
        if (!bs.vec_filter->FilterChunk(chunk, &sel, &vec_scratch)) break;
      }
      if (sel.empty()) continue;

      if (s < steps_.size() &&
          steps_[s].kind == PipelineProgram::Step::Kind::kHashProbe) {
        for (const uint32_t r : sel) ProbeChunkRow(chunk, r, s, &scratch, sink);
      } else if (s == steps_.size()) {
        for (const uint32_t r : sel) {
          chunk.MaterializeRow(r, &row_scratch);
          sink->push_back(row_scratch);
        }
      } else {
        for (const uint32_t r : sel) {
          chunk.MaterializeRow(r, &row_scratch);
          PushRow(row_scratch, s, &scratch, sink);
        }
      }
    }
  });
  return Status::OK();
}

}  // namespace rasql::physical
