#include "fixpoint/local_fixpoint.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "dist/aggregates.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "fixpoint/recursive_step.h"
#include "fixpoint/stage_plan.h"
#include "fixpoint/warm_state.h"
#include "lint/diagnostic.h"
#include "physical/pipeline.h"
#include "runtime/stage_accumulators.h"
#include "runtime/thread_pool.h"
#include "storage/row_range.h"
#include "verify/verifier.h"

namespace rasql::fixpoint {

using analysis::RecursiveClique;
using analysis::RecursiveView;
using common::Result;
using common::Status;
using dist::AggSpec;
using dist::GatherShuffle;
using dist::Partitioning;
using dist::ShuffleWrite;
using physical::ExecContext;
using plan::LogicalPlan;
using plan::PlanKind;
using plan::RecursiveRefNode;
using runtime::StageStatus;
using runtime::ThreadPool;
using storage::Relation;
using storage::Row;

std::vector<const RecursiveRefNode*> CollectRecursiveRefs(
    const LogicalPlan& node) {
  std::vector<const RecursiveRefNode*> out;
  if (node.kind() == PlanKind::kRecursiveRef) {
    out.push_back(static_cast<const RecursiveRefNode*>(&node));
  }
  for (const plan::PlanPtr& child : node.children()) {
    std::vector<const RecursiveRefNode*> sub = CollectRecursiveRefs(*child);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

namespace {

AggSpec SpecFor(const RecursiveView& view) {
  return AggSpec::For(view.schema.num_columns(), view.agg_column,
                      view.aggregate);
}

/// Canonical aggregated + sorted form for state comparison.
Relation Canonicalize(const Relation& rel, const AggSpec& spec) {
  Relation out(rel.schema(), dist::PartialAggregate(rel, spec));
  out.SortRows();
  return out;
}

/// State partition key: the group-by columns under an aggregate (so every
/// contribution to a key meets its accumulator in one partition), every
/// column under set semantics.
std::vector<int> StateKey(const RecursiveView& view, const AggSpec& spec) {
  if (spec.has_aggregate()) return spec.key_columns;
  std::vector<int> key(view.schema.num_columns());
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<int>(i);
  return key;
}

ExecContext BaseContext(const std::map<std::string, const Relation*>& tables,
                        const FixpointOptions& options) {
  ExecContext ctx;
  ctx.tables = tables;
  ctx.use_codegen = options.use_codegen;
  ctx.batch_rows = options.runtime.batch_rows;
  ctx.join_algorithm = options.join_algorithm;
  return ctx;
}

/// One term evaluation, morsel-splittable when its RecursiveStep runs as a
/// pipeline (DESIGN.md §10). `pipeline` (borrowed, bound by the caller)
/// runs over `driver`; a tree-walk step evaluates `make_context()` instead,
/// so the relations it resolves must outlive the phase. After
/// RunMorselUnits, `slots[m]` holds morsel m's output rows; concatenating
/// the slots in order reproduces the whole-term evaluation.
struct MorselUnit {
  const RecursiveStep* step = nullptr;
  const physical::BoundPipeline* pipeline = nullptr;
  const Relation* driver = nullptr;
  std::function<ExecContext()> make_context;
  std::vector<storage::RowRange> morsels;
  std::vector<std::vector<Row>> slots;
};

/// Evaluates every (unit, morsel) as an independent pool task writing its
/// own slot (ParallelFor must not nest, so morsels are flattened into one
/// task list rather than scheduled from inside a per-unit task). The
/// morsel decomposition depends only on driver sizes, so slots (and any
/// ordered merge of them) are bit-identical for every thread count and
/// morsel size.
Status RunMorselUnits(std::vector<MorselUnit>* units, ThreadPool* pool) {
  std::vector<std::pair<int, int>> task_of;
  for (int u = 0; u < static_cast<int>(units->size()); ++u) {
    MorselUnit& unit = (*units)[u];
    unit.slots.resize(unit.morsels.size());
    for (size_t m = 0; m < unit.morsels.size(); ++m) {
      task_of.emplace_back(u, static_cast<int>(m));
    }
  }
  const int total = static_cast<int>(task_of.size());
  StageStatus failure(std::max(total, 1));
  pool->ParallelFor(total, [&](int i) {
    if (failure.aborted()) return;
    const auto [u, m] = task_of[i];
    MorselUnit& unit = (*units)[u];
    Status s = unit.step->Run(unit.pipeline, unit.driver, unit.morsels[m],
                              unit.make_context, &unit.slots[m]);
    if (!s.ok()) failure.Fail(i, std::move(s));
  });
  return failure.First();
}

/// Binds the pipelined steps among `steps[i]` for every i with
/// `wanted[i]`, in parallel on the pool, into `(*bound)[i]`.
Status BindSteps(const std::vector<RecursiveStep>& steps,
                 const std::vector<bool>& wanted, const ExecContext& ctx,
                 std::vector<std::optional<physical::BoundPipeline>>* bound,
                 ThreadPool* pool) {
  const int n = static_cast<int>(steps.size());
  StageStatus failure(std::max(n, 1));
  pool->ParallelFor(n, [&](int i) {
    if (!wanted[i] || !steps[i].pipelined()) return;
    Result<physical::BoundPipeline> b = steps[i].Bind(ctx);
    if (!b.ok()) {
      failure.Fail(i, b.status());
      return;
    }
    (*bound)[i] = std::move(*b);
  });
  return failure.First();
}

/// Semi-naive evaluation of a single-view clique (paper Alg. 3 extended
/// with the Alg. 5 aggregate delta rules), hash-partitioned into
/// `options.local_partitions` SetRdd slices and evaluated per partition on
/// the thread pool. The partition count is fixed independently of the
/// thread count and every cross-partition merge happens in ascending
/// partition order, so results and stats are bit-identical at any
/// --threads (DESIGN.md §9).
Result<std::map<std::string, Relation>> EvaluateSemiNaive(
    const RecursiveView& view,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats, ThreadPool* pool) {
  const AggSpec spec = SpecFor(view);
  const int P = std::max(1, options.local_partitions);
  const Partitioning partitioning{StateKey(view, spec), P};
  stats->partition_key = partitioning.key_columns;
  dist::SetRdd state(view.schema, spec, partitioning);

  const ExecContext base_ctx = BaseContext(tables, options);

  // Base case: evaluate on the driver, pre-aggregate, scatter each row to
  // its state partition, merge per partition to form the initial delta. A
  // warm start (DESIGN.md §14) instead absorbs the prior converged state
  // into the partitions without emitting a delta, and seeds the loop with
  // the plans' output over the appended base rows — MergeDelta against the
  // absorbed state then keeps exactly the rows that are new or improving.
  const WarmStartInput* warm = options.warm_start;
  std::vector<Row> base_rows;
  if (warm == nullptr) {
    for (const plan::PlanPtr& base : view.base_plans) {
      RASQL_ASSIGN_OR_RETURN(Relation rel,
                             physical::Execute(*base, base_ctx));
      ++stats->plan_executions;
      for (Row& row : rel.TakeRows()) base_rows.push_back(std::move(row));
    }
  } else {
    {
      ShuffleWrite absorb(P);
      warm->converged->ForEachRow(
          [&](const Row& row) { absorb.Add(row, partitioning); });
      pool->ParallelFor(P, [&](int p) {
        state.partition(p)->Absorb(absorb.slice_per_dest[p]);
      });
    }
    RASQL_ASSIGN_OR_RETURN(
        base_rows, EvaluateWarmSeed(view, *warm, base_ctx, stats));
    stats->warm_starts = 1;
  }
  base_rows = dist::PartialAggregate(std::move(base_rows), spec);

  std::vector<std::vector<Row>> delta(P);
  {
    ShuffleWrite scatter(P);
    for (Row& row : base_rows) scatter.Add(std::move(row), partitioning);
    pool->ParallelFor(P, [&](int p) {
      state.partition(p)->MergeDelta(scatter.slice_per_dest[p], &delta[p]);
    });
  }
  for (const auto& d : delta) stats->total_delta_rows += d.size();
  if (warm != nullptr) {
    for (const auto& d : delta) stats->seed_delta_rows += d.size();
  }

  // One semi-naive term per (plan, recursive-ref ordinal): that reference
  // is the delta-bound driver, the others read the current `all` state,
  // which we materialize per iteration when any plan has more than one.
  // Binding the delta ref to one partition's slice at a time is an exact
  // split of the term — the term is linear in that reference.
  std::vector<RecursiveStep> steps;
  std::vector<int> ordinals;
  std::vector<bool> single_ref;
  std::vector<bool> multi_ref;
  for (const plan::PlanPtr& p : view.recursive_plans) {
    const std::vector<const RecursiveRefNode*> refs = CollectRecursiveRefs(*p);
    for (int t = 0; t < static_cast<int>(refs.size()); ++t) {
      const RecursiveRefNode* driver = nullptr;
      for (const RecursiveRefNode* ref : refs) {
        if (ref->ordinal() == t) driver = ref;
      }
      steps.emplace_back(*p, driver, options);
      ordinals.push_back(t);
      single_ref.push_back(refs.size() == 1);
      multi_ref.push_back(refs.size() > 1);
    }
  }
  const bool needs_all =
      std::find(multi_ref.begin(), multi_ref.end(), true) != multi_ref.end();
  // Bound pipelines per term. A single-ref term's build sides read only
  // base tables: it binds once per evaluation, before the first iteration,
  // and every partition's tasks share it read-only (the cached hash join
  // of App. D). A multi-ref term's build sides read `all`, so it rebinds
  // every iteration.
  std::vector<std::optional<physical::BoundPipeline>> bound(steps.size());

  auto deltas_empty = [&]() {
    for (const auto& d : delta) {
      if (!d.empty()) return false;
    }
    return true;
  };

  while (!deltas_empty()) {
    if (stats->iterations >= options.max_iterations) {
      stats->hit_iteration_limit = true;
      break;
    }
    ++stats->iterations;
    if (stats->iterations == 1) {
      RASQL_RETURN_IF_ERROR(
          BindSteps(steps, single_ref, base_ctx, &bound, pool));
    }

    // Freeze the iteration's inputs: the per-partition delta slices and
    // (for multi-ref plans) the materialized `all` state. Collect() walks
    // partitions in ascending order, so the materialization is
    // deterministic; like the seed path it already includes this
    // iteration's delta, which is what makes the δ×δ pairs of non-linear
    // plans visited exactly once across the two terms — safe only for
    // idempotent aggregates, which is what semi_naive_safe guarantees.
    std::vector<Relation> delta_rel(P);
    for (int p = 0; p < P; ++p) {
      delta_rel[p] = Relation(view.schema, std::move(delta[p]));
      delta[p] = std::vector<Row>();
    }
    Relation all_rel;
    if (needs_all) {
      all_rel = state.Collect();
      ExecContext all_ctx = base_ctx;
      all_ctx.recursive_resolver =
          [&all_rel](const RecursiveRefNode&) -> const Relation* {
        return &all_rel;
      };
      RASQL_RETURN_IF_ERROR(BindSteps(steps, multi_ref, all_ctx, &bound, pool));
    }

    // Map phase: one morsel unit per (non-empty partition, semi-naive
    // term), with read-only sharing of `all_rel`, the base tables and the
    // bound pipelines. Each unit's driver morsels run as independent
    // tasks, so a skewed partition's work spreads across threads instead
    // of serializing the iteration.
    std::vector<ShuffleWrite> writes(P, ShuffleWrite(P));
    std::vector<MorselUnit> units;
    std::vector<size_t> unit_begin(P + 1, 0);
    for (int p = 0; p < P; ++p) {
      unit_begin[p] = units.size();
      if (delta_rel[p].empty()) continue;
      for (size_t t = 0; t < steps.size(); ++t) {
        MorselUnit unit;
        unit.step = &steps[t];
        unit.pipeline = bound[t] ? &*bound[t] : nullptr;
        unit.driver = &delta_rel[p];
        unit.make_context = [&base_ctx, &delta_rel_p = delta_rel[p],
                             &all_rel, ordinal = ordinals[t]]() {
          ExecContext ctx = base_ctx;
          ctx.recursive_resolver =
              [&delta_rel_p, &all_rel,
               ordinal](const RecursiveRefNode& ref) -> const Relation* {
            return ref.ordinal() == ordinal ? &delta_rel_p : &all_rel;
          };
          return ctx;
        };
        unit.morsels = steps[t].Morsels(delta_rel[p].size(),
                                        options.runtime.morsel_rows);
        units.push_back(std::move(unit));
      }
    }
    unit_begin[P] = units.size();
    RASQL_RETURN_IF_ERROR(RunMorselUnits(&units, pool));
    stats->plan_executions += units.size();

    // Merge phase: partition p routes its units' slots in (term, morsel)
    // order — exactly the order the unsplit evaluation produced rows, so
    // ShuffleWrite contents (and everything downstream) are bit-identical
    // at any morsel size.
    pool->ParallelFor(P, [&](int p) {
      for (size_t u = unit_begin[p]; u < unit_begin[p + 1]; ++u) {
        for (std::vector<Row>& slot : units[u].slots) {
          for (Row& row : slot) {
            writes[p].Add(std::move(row), partitioning);
          }
        }
      }
    });

    // Reduce phase: partition p gathers the slices addressed to it in
    // ascending producer order, pre-aggregates (one candidate per key, so
    // delta row counts and float accumulation order don't depend on how
    // work was split), and merges into its own state slice.
    pool->ParallelFor(P, [&](int p) {
      std::vector<Row> candidates = GatherShuffle(writes, p);
      candidates = dist::PartialAggregate(std::move(candidates), spec);
      state.partition(p)->MergeDelta(candidates, &delta[p]);
    });
    for (const auto& d : delta) stats->total_delta_rows += d.size();
  }

  if (warm != nullptr) {
    stats->iterations_saved =
        std::max(0, warm->prior_iterations - stats->iterations);
  }

  // Canonical (sorted) output: hash-state iteration order depends on
  // insertion history, which a warm start legitimately changes; sorting
  // here is what makes warm results bit-identical to cold ones. Each
  // partition sorts and releases its own state on the pool.
  Relation result = state.TakeSorted(pool);
  std::map<std::string, Relation> out;
  out.emplace(view.name, std::move(result));
  stats->used_semi_naive = true;
  return out;
}

/// Naive evaluation of a (possibly mutual-recursive) clique:
/// X_{n+1}[v] = γ_v(base_v ∪ T_branch(X_n)) until X stabilizes. The base
/// branches contain no recursive reference, so their result is
/// loop-invariant: it is evaluated once up front and the materialized rows
/// are reused every round (re-executing them per iteration was a silent
/// asymptotic regression vs. paper Alg. 2, which only recomputes T(X_n)).
/// Each iteration evaluates all recursive branches in parallel against the
/// frozen X_n, then canonicalizes per view; candidate slots are assembled
/// in fixed branch order so the result is thread-count-independent.
Result<std::map<std::string, Relation>> EvaluateNaive(
    const RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats, ThreadPool* pool) {
  std::map<std::string, Relation> state;
  std::map<std::string, AggSpec> specs;
  for (const RecursiveView& view : clique.views) {
    state.emplace(view.name, Relation(view.schema));
    specs.emplace(view.name, SpecFor(view));
  }

  const ExecContext base_ctx = BaseContext(tables, options);

  // Loop-invariant base case, evaluated once.
  std::vector<std::vector<Row>> base_rows(clique.views.size());
  for (size_t vi = 0; vi < clique.views.size(); ++vi) {
    for (const plan::PlanPtr& p : clique.views[vi].base_plans) {
      RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*p, base_ctx));
      ++stats->plan_executions;
      for (Row& row : rel.TakeRows()) {
        base_rows[vi].push_back(std::move(row));
      }
    }
  }

  // One step per recursive branch, across all views in the clique, each
  // driven from its leftmost leaf.
  std::vector<RecursiveStep> steps;
  std::vector<size_t> view_of;
  for (size_t vi = 0; vi < clique.views.size(); ++vi) {
    for (const plan::PlanPtr& p : clique.views[vi].recursive_plans) {
      steps.emplace_back(*p, nullptr, options);
      view_of.push_back(vi);
    }
  }
  const int T = static_cast<int>(steps.size());

  ExecContext naive_ctx = base_ctx;
  naive_ctx.recursive_resolver =
      [&state](const RecursiveRefNode& ref) -> const Relation* {
    auto it = state.find(ref.view_name());
    return it == state.end() ? nullptr : &it->second;
  };

  while (true) {
    if (stats->iterations >= options.max_iterations) {
      stats->hit_iteration_limit = true;
      break;
    }
    ++stats->iterations;

    // All branches read the same frozen X_n, so every pipeline rebinds
    // (its build sides may read the state); each unit writes only its
    // slots. Branches whose driver is large split into morsels, so one
    // heavy branch no longer pins the iteration to a single thread.
    std::vector<std::optional<physical::BoundPipeline>> bound(T);
    RASQL_RETURN_IF_ERROR(BindSteps(steps, std::vector<bool>(T, true),
                                    naive_ctx, &bound, pool));
    std::vector<physical::BorrowedRelation> drivers(T);
    std::vector<MorselUnit> units(T);
    for (int t = 0; t < T; ++t) {
      MorselUnit& unit = units[t];
      unit.step = &steps[t];
      unit.make_context = [&naive_ctx]() { return naive_ctx; };
      if (steps[t].pipelined()) {
        RASQL_ASSIGN_OR_RETURN(
            drivers[t], physical::ExecuteBorrowed(steps[t].driver(), naive_ctx));
        unit.pipeline = &*bound[t];
        unit.driver = drivers[t].rel;
      }
      unit.morsels = steps[t].Morsels(
          unit.driver != nullptr ? unit.driver->size() : 0,
          options.runtime.morsel_rows);
    }
    RASQL_RETURN_IF_ERROR(RunMorselUnits(&units, pool));
    stats->plan_executions += steps.size();

    // Per view: base rows + branch slots in declaration order (morsels in
    // order within a branch), then the canonical aggregated+sorted form —
    // independent views in parallel.
    std::vector<Relation> next(clique.views.size());
    pool->ParallelFor(static_cast<int>(clique.views.size()), [&](int vi) {
      std::vector<Row> candidates = base_rows[vi];
      for (int t = 0; t < T; ++t) {
        if (view_of[t] != static_cast<size_t>(vi)) continue;
        for (std::vector<Row>& slot : units[t].slots) {
          for (Row& row : slot) candidates.push_back(std::move(row));
        }
      }
      Relation rel(clique.views[vi].schema, candidates);
      next[vi] = Canonicalize(rel, specs.at(clique.views[vi].name));
    });

    bool changed = false;
    for (size_t vi = 0; vi < clique.views.size(); ++vi) {
      const std::string& name = clique.views[vi].name;
      if (!storage::SameBag(next[vi], state.at(name))) changed = true;
      stats->total_delta_rows += next[vi].size();
      state.at(name) = std::move(next[vi]);
    }
    if (!changed) break;
  }
  return state;
}

}  // namespace

Result<FixpointMode> ResolveLocalMode(const RecursiveClique& clique,
                                      const FixpointOptions& options) {
  const bool semi_naive_eligible =
      clique.views.size() == 1 && clique.views[0].semi_naive_safe;
  switch (options.mode) {
    case FixpointMode::kAuto:
      return semi_naive_eligible ? FixpointMode::kSemiNaive
                                 : FixpointMode::kNaive;
    case FixpointMode::kSemiNaive:
      if (!semi_naive_eligible) {
        return Status::ExecutionError(
            "semi-naive evaluation requested but the clique containing '" +
            clique.views[0].name +
            "' requires naive evaluation (mutual recursion or non-linear "
            "aggregate use)");
      }
      return FixpointMode::kSemiNaive;
    case FixpointMode::kNaive:
      return FixpointMode::kNaive;
  }
  return Status::Internal("unknown fixpoint mode");
}

Result<std::map<std::string, Relation>> EvaluateCliqueLocal(
    const RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats) {
  FixpointStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Contract check first (DESIGN.md §11): build the declared stage graph
  // of the phases this run will submit and verify it before any task runs
  // — the local counterpart of the Cluster's live submission hook.
  if (options.runtime.VerifyStagesEnabled()) {
    RASQL_ASSIGN_OR_RETURN(verify::StageGraph graph,
                           PlanLocalStages(clique, options));
    lint::DiagnosticEngine diag;
    verify::VerifyStageGraph(graph, &diag);
    if (diag.HasErrors()) {
      return Status::ExecutionError(
          "local stage-graph verification failed:\n" + diag.ToString());
    }
  }

  // Run on the externally-owned shared pool when one is configured (the
  // query server's partitioned compute slots, DESIGN.md §12); otherwise
  // own a per-evaluation pool as before.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool_ptr = options.runtime.shared_pool;
  if (pool_ptr == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(options.runtime.ResolvedThreads());
    pool_ptr = owned_pool.get();
  }
  ThreadPool& pool = *pool_ptr;

  // Non-recursive clique: single evaluation of the base plans, views in
  // parallel (they are independent — each task owns its slot).
  if (!clique.IsRecursive()) {
    const ExecContext ctx = BaseContext(tables, options);
    const int V = static_cast<int>(clique.views.size());
    std::vector<Relation> results(V);
    StageStatus failure(std::max(V, 1));
    pool.ParallelFor(V, [&](int vi) {
      const RecursiveView& view = clique.views[vi];
      std::vector<Row> rows;
      for (const plan::PlanPtr& p : view.base_plans) {
        Result<Relation> rel = physical::Execute(*p, ctx);
        if (!rel.ok()) {
          failure.Fail(vi, rel.status());
          return;
        }
        for (Row& row : rel->TakeRows()) rows.push_back(std::move(row));
      }
      Relation rel(view.schema, rows);
      // Multi-branch non-recursive views still union with set/aggregate
      // semantics per the head declaration.
      results[vi] = Canonicalize(rel, SpecFor(view));
    });
    RASQL_RETURN_IF_ERROR(failure.First());
    std::map<std::string, Relation> out;
    for (int vi = 0; vi < V; ++vi) {
      stats->plan_executions += clique.views[vi].base_plans.size();
      stats->total_delta_rows += results[vi].size();
      out.emplace(clique.views[vi].name, std::move(results[vi]));
    }
    stats->iterations = 1;
    return out;
  }

  RASQL_ASSIGN_OR_RETURN(const FixpointMode mode,
                         ResolveLocalMode(clique, options));

  if (mode == FixpointMode::kSemiNaive) {
    return EvaluateSemiNaive(clique.views[0], tables, options, stats, &pool);
  }
  return EvaluateNaive(clique, tables, options, stats, &pool);
}

}  // namespace rasql::fixpoint
