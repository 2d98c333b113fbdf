#include "fixpoint/recursive_step.h"

#include <utility>

#include "common/check.h"

namespace rasql::fixpoint {

using common::Result;
using common::Status;
using storage::Row;

RecursiveStep::RecursiveStep(const plan::LogicalPlan& plan,
                             const plan::LogicalPlan* driver,
                             const CommonFixpointOptions& options)
    : plan_(&plan) {
  if (!options.use_codegen) return;
  program_ = physical::PipelineProgram::Compile(plan, driver);
  // Probe steps reproduce the hash join; sort-merge stays in the executor.
  if (program_.has_value() && program_->has_probe_steps() &&
      options.join_algorithm != physical::JoinAlgorithm::kHash) {
    program_.reset();
  }
}

Result<physical::BoundPipeline> RecursiveStep::Bind(
    const physical::ExecContext& ctx) const {
  RASQL_CHECK(pipelined());
  return program_->Bind(ctx);
}

std::vector<storage::RowRange> RecursiveStep::Morsels(
    size_t driver_rows, size_t morsel_rows) const {
  if (!pipelined()) return {storage::RowRange{0, driver_rows}};
  return storage::SplitIntoMorsels(driver_rows, morsel_rows);
}

Status RecursiveStep::Run(
    const physical::BoundPipeline* bound, const storage::Relation* driver,
    storage::RowRange range,
    const std::function<physical::ExecContext()>& make_context,
    std::vector<Row>* out) const {
  if (pipelined()) return bound->Run(*driver, range, out);
  RASQL_ASSIGN_OR_RETURN(storage::Relation rel,
                         physical::Execute(*plan_, make_context()));
  for (Row& row : rel.TakeRows()) out->push_back(std::move(row));
  return Status::OK();
}

}  // namespace rasql::fixpoint
