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

std::optional<PipelineProgram> PipelineProgram::Compile(
    const LogicalPlan& plan) {
  PipelineProgram program;
  // Walk the left spine root-to-leaf, collecting steps in reverse.
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
        reversed.push_back(step);
        ++program.num_probe_steps_;
        node = &node->child(0);
        break;
      }
      case PlanKind::kTableScan:
      case PlanKind::kRecursiveRef:
      case PlanKind::kValues:
        // A bare leaf has nothing to fuse; let the tree walk resolve it.
        if (reversed.empty()) return std::nullopt;
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

  // Resolve the driver. VALUES drivers own a materialized copy; scans and
  // recursive refs borrow from the context.
  if (driver_->kind() == PlanKind::kValues) {
    const auto& values = static_cast<const plan::ValuesNode&>(*driver_);
    bound.driver_.owned =
        std::make_unique<Relation>(values.schema(), values.rows());
    bound.driver_.rel = bound.driver_.owned.get();
  } else {
    RASQL_ASSIGN_OR_RETURN(bound.driver_, ExecuteBorrowed(*driver_, ctx));
  }

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
        RASQL_ASSIGN_OR_RETURN(bs.build,
                               ExecuteBorrowed(step.join->child(1), ctx));
        bs.table.emplace(*bs.build.rel, step.join->right_keys());
        bs.probe_keys = step.join->left_keys();
        bs.left_width = step.join->child(0).schema().num_columns();
        bs.right_width = step.join->child(1).schema().num_columns();
        break;
      }
    }
    bound.steps_.push_back(std::move(bs));
  }
  return bound;
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
      // Fill the left half once per input row, the right half per match.
      // Deeper steps never retain a reference to the scratch row, so it is
      // safe to reuse it across matches.
      std::copy(row.begin(), row.end(), ps.combined.begin());
      for (int m : ps.matches) {
        bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ps.combined,
                                bs.left_width);
        PushRow(ps.combined, step + 1, scratch, sink);
      }
      return;
    }
  }
}

Status BoundPipeline::Run(RowRange range, std::vector<Row>* sink) const {
  if (batch_rows_ > 0) return RunBatch(range, sink);
  const size_t end = std::min(range.end, driver_.rel->size());

  std::vector<ProbeScratch> scratch(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].kind == PipelineProgram::Step::Kind::kHashProbe) {
      scratch[s].combined.resize(steps_[s].left_width +
                                 steps_[s].right_width);
    }
  }
  driver_.rel->ForEachRow(
      RowRange{range.begin, end},
      [&](const Row& row) { PushRow(row, 0, &scratch, sink); });
  return Status::OK();
}

Status BoundPipeline::RunBatch(RowRange range, std::vector<Row>* sink) const {
  const Relation& driver = *driver_.rel;
  const size_t end = std::min(range.end, driver.size());
  if (range.begin >= end) return Status::OK();

  std::vector<ProbeScratch> scratch(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].kind == PipelineProgram::Step::Kind::kHashProbe) {
      scratch[s].combined.resize(steps_[s].left_width +
                                 steps_[s].right_width);
    }
  }

  Row row_scratch;
  std::vector<uint32_t> sel;
  sel.reserve(batch_rows_);
  expr::VecProgram::Scratch vec_scratch;

  size_t i = range.begin;
  size_t c;
  size_t local;
  driver.Locate(i, &c, &local);
  for (; i < end; ++c, local = 0) {
    const storage::ColumnChunk& chunk = driver.chunk(c);
    const size_t chunk_begin = driver.chunk_begin(c);
    const size_t local_end = std::min(end - chunk_begin, chunk.num_rows());
    while (local < local_end) {
      const size_t batch_end = std::min(local_end, local + batch_rows_);
      sel.clear();
      for (size_t r = local; r < batch_end; ++r) {
        sel.push_back(static_cast<uint32_t>(r));
      }
      i += batch_end - local;
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
        // Column-wise probe: hash the key cells straight out of the chunk;
        // materialize the combined row only for surviving matches.
        const BoundStep& bs = steps_[s];
        ProbeScratch& ps = scratch[s];
        for (const uint32_t r : sel) {
          ps.matches.clear();
          bs.table->ProbeChunk(chunk, r, bs.probe_keys, &ps.matches);
          if (ps.matches.empty()) continue;
          chunk.CopyRowTo(r, &ps.combined, 0);
          for (int m : ps.matches) {
            bs.build.rel->CopyRowTo(static_cast<size_t>(m), &ps.combined,
                                    bs.left_width);
            PushRow(ps.combined, s + 1, &scratch, sink);
          }
        }
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
  }
  return Status::OK();
}

}  // namespace rasql::physical
