// rasql_perfbench — the repo benchmark's workloads (perfbench/README.md).
//
//   rasql_perfbench --workload sssp-rmat|tc-er|serve-mixed --seed N
//                   --seconds S --trace 0|1 [--trace-dir DIR]
//
// Generates the workload's graph from the seed, runs it through the
// engine's public API, checks every answer against an oracle and prints
// metric lines followed, as the last line, by one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. Exits 1 when an answer
// is wrong or an operation failed, 2 on a usage or environment error.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/catalog.h"
#include "baselines/serial/serial_graph.h"
#include "common/hash.h"
#include "common/rng.h"
#include "datagen/graph_gen.h"
#include "dist/cluster.h"
#include "engine/rasql_context.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/local_fixpoint.h"
#include "harness.h"
#include "lint/linter.h"
#include "physical/executor.h"
#include "runtime/thread_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/result_format.h"

namespace rasql::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Outcome = Tally::Outcome;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow allocation does not decide setup_s.
constexpr int kSetupReps = 3;
/// Each batch run times at least this many queries (and replays).
constexpr size_t kMinQueries = 3;
/// Cold rounds of the serve-mixed read set after the timed phase: the
/// first is the oracle run; a traced run times them all as the untraced
/// reference of its replays.
constexpr int kColdRounds = 3;
/// The serve-mixed timed phase is cut into this many equal windows and
/// ops_per_s is the median window's rate, so a slow spell of the host
/// inside one window does not decide it.
constexpr int kServeWindows = 5;
/// Uncontended INSERTs timed for engine.insert_ms.
constexpr int kInserts = 20;

// ---- The paper's queries (Sec. 4 / Sec. 8) ----

std::string SsspQuery(int64_t source) {
  return "WITH recursive path (Dst, min() AS Cost) AS (SELECT " +
         std::to_string(source) +
         ", 0.0) UNION (SELECT edge.Dst, path.Cost + edge.Cost FROM path, "
         "edge WHERE path.Dst = edge.Src) SELECT Dst, Cost FROM path";
}

std::string ReachQuery(int64_t source) {
  return "WITH recursive reach (Dst) AS (SELECT " + std::to_string(source) +
         ") UNION (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = "
         "edge.Src) SELECT Dst FROM reach";
}

constexpr char kCcQuery[] =
    "WITH recursive cc (Src, min() AS CmpId) AS (SELECT Src, Src FROM edge) "
    "UNION (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = "
    "edge.Src) SELECT count(distinct CmpId) FROM cc";

constexpr char kTcQuery[] =
    "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM edge) UNION "
    "(SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src) "
    "SELECT count(*) FROM tc";

/// Engine settings of every workload: the defaults plus one runtime thread
/// per hardware thread, so a later change of a default shows up here.
engine::EngineConfig BenchConfig() {
  engine::EngineConfig config;
  config.runtime.num_threads = runtime::ThreadPool::HardwareThreads();
  return config;
}

/// The paper's cluster shape (Sec. 8): 15 workers, 30 partitions.
engine::EngineConfig DistributedConfig() {
  engine::EngineConfig config = BenchConfig();
  config.distributed = true;
  config.cluster.num_workers = 15;
  config.cluster.num_partitions = 30;
  return config;
}

/// Order-independent checksum of a relation's CSV rows.
uint64_t Checksum(const storage::Relation& relation) {
  const std::string csv =
      storage::FormatRelation(relation, storage::ResultFormat::kCsv);
  uint64_t sum = 0;
  size_t begin = csv.find('\n');  // skip the header row
  while (begin != std::string::npos && begin + 1 < csv.size()) {
    const size_t end = csv.find('\n', begin + 1);
    const size_t stop = end == std::string::npos ? csv.size() : end;
    sum += common::HashBytes(
        std::string_view(csv).substr(begin + 1, stop - begin - 1));
    begin = end;
  }
  return sum ^ relation.size();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics of one run, in print order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;  ///< what the JSON line carries
  std::vector<Metric> extra;    ///< printed only, not in the JSON line

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void AddExtra(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- Layer replay ----

/// Counts of one replayed query, keyed by per-layer metric name.
using Sample = std::map<std::string, double>;

/// Replays RaSqlContext::Execute's call sequence for one query statement
/// (engine/rasql_context.cc ExecuteQuery) through the layers' public
/// functions, each call in its own span under a root "query" span: parse
/// -> analyze -> optimize -> one evaluation per clique -> body Execute.
struct Replay {
  common::Status status;
  storage::Relation relation;
  fixpoint::FixpointStats stats;
  dist::JobMetrics metrics;
  Sample counts;
};

Replay ReplayQuery(const engine::EngineConfig& config,
                   const analysis::Catalog& catalog,
                   const std::map<std::string, const storage::Relation*>&
                       tables,
                   const std::string& sql, Tracer* tracer, uint64_t request) {
  Replay out;
  ScopedSpan root(tracer, "query", -1, request);
  const int64_t parent = root.index();

  common::Result<std::vector<sql::Statement>> statements = [&] {
    ScopedSpan span(tracer, "sql.parse", parent, request);
    return sql::Parser::ParseScript(sql);
  }();
  if (!statements.ok() || statements->size() != 1 ||
      (*statements)[0].kind != sql::Statement::Kind::kQuery) {
    out.status = common::Status::InvalidArgument("replay needs one query");
    return out;
  }
  analysis::Analyzer analyzer(&catalog);
  common::Result<analysis::AnalyzedQuery> analyzed = [&] {
    ScopedSpan span(tracer, "analysis.analyze", parent, request);
    return analyzer.Analyze(*(*statements)[0].query);
  }();
  if (!analyzed.ok()) {
    out.status = analyzed.status();
    return out;
  }
  {
    ScopedSpan span(tracer, "plan.optimize", parent, request);
    analyzed->Optimize(config.optimizer);
  }

  std::map<std::string, storage::Relation> views;
  dist::Cluster cluster(config.cluster, config.runtime);
  size_t state_rows = 0;
  size_t state_bytes = 0;
  for (const analysis::RecursiveClique& clique : analyzed->cliques) {
    std::map<std::string, const storage::Relation*> bindings = tables;
    for (const auto& [name, rel] : views) bindings[name] = &rel;
    fixpoint::FixpointStats clique_stats;
    common::Result<std::map<std::string, storage::Relation>> results = [&] {
      ScopedSpan span(tracer, "fixpoint.eval", parent, request);
      if (config.distributed && clique.IsRecursive() &&
          fixpoint::EligibleForDistributed(clique)) {
        fixpoint::DistFixpointOptions options = config.dist_fixpoint;
        static_cast<fixpoint::CommonFixpointOptions&>(options) =
            config.fixpoint;
        return fixpoint::EvaluateCliqueDistributed(clique, bindings, &cluster,
                                                   options, &clique_stats);
      }
      fixpoint::FixpointOptions options = config.fixpoint;
      options.runtime = config.runtime;
      return fixpoint::EvaluateCliqueLocal(clique, bindings, options,
                                           &clique_stats);
    }();
    if (!results.ok()) {
      out.status = results.status();
      return out;
    }
    out.stats.MergeFrom(clique_stats);
    for (auto& [name, rel] : *results) {
      state_rows += rel.size();
      state_bytes += rel.ByteSize();
      views[name] = std::move(rel);
    }
  }
  out.metrics = cluster.metrics();

  common::Result<storage::Relation> body = [&] {
    ScopedSpan span(tracer, "physical.body", parent, request);
    physical::ExecContext ctx;
    ctx.tables = tables;
    for (const auto& [name, rel] : views) ctx.tables[name] = &rel;
    ctx.use_codegen = config.fixpoint.use_codegen;
    ctx.batch_rows = config.runtime.batch_rows;
    ctx.join_algorithm = config.fixpoint.join_algorithm;
    return physical::Execute(*analyzed->body, ctx);
  }();
  if (!body.ok()) {
    out.status = body.status();
    return out;
  }
  out.relation = std::move(*body);

  double compute = 0;
  int exec_tasks = 0;
  for (const dist::StageMetrics& stage : out.metrics.stages) {
    compute += stage.total_compute_sec;
    exec_tasks += stage.num_exec_tasks;
  }
  out.counts = {
      {"fixpoint.iterations", out.stats.iterations},
      {"fixpoint.delta_rows", static_cast<double>(out.stats.total_delta_rows)},
      {"fixpoint.plan_executions",
       static_cast<double>(out.stats.plan_executions)},
      {"dist.stages", out.metrics.num_stages()},
      {"dist.shuffle_bytes",
       static_cast<double>(out.metrics.TotalShuffleBytes())},
      {"dist.remote_bytes",
       static_cast<double>(out.metrics.TotalRemoteBytes())},
      {"dist.exec_tasks", exec_tasks},
      {"dist.stage_compute_s", compute},
      {"storage.result_rows", static_cast<double>(state_rows)},
      {"storage.state_bytes", static_cast<double>(state_bytes)},
  };
  return out;
}

/// Per-layer measurements of one workload's query set in a traced run.
/// Every query is replayed several times; a metric is the median over one
/// query's replays, averaged over the set's queries.
class LayerProfile {
 public:
  void AddSample(const std::string& query, uint64_t request, Sample sample) {
    requests_[query].push_back(request);
    samples_[request] = std::move(sample);
  }

  /// Folds the span self times of each sampled request into its sample.
  void AddSpans(const std::vector<Span>& spans) {
    const std::vector<double> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      auto it = samples_.find(spans[i].request);
      if (it == samples_.end()) continue;
      const std::string& name = spans[i].name;
      if (name == "query") {
        it->second["replay_s"] += spans[i].end - spans[i].start;
      } else if (name == "fixpoint.eval" || name == "physical.body") {
        it->second[name + "_s"] += self[i];
      } else {
        it->second[name + "_ms"] += self[i] * 1e3;
      }
    }
  }

  double Get(const std::string& name) const {
    if (requests_.empty()) return 0;
    double sum = 0;
    for (const auto& [query, requests] : requests_) {
      std::vector<double> values;
      for (uint64_t request : requests) {
        const Sample& sample = samples_.at(request);
        auto it = sample.find(name);
        values.push_back(it == sample.end() ? 0 : it->second);
      }
      sum += Median(values);
    }
    return sum / static_cast<double>(requests_.size());
  }

 private:
  std::map<std::string, std::vector<uint64_t>> requests_;
  std::map<uint64_t, Sample> samples_;
};

/// Server-layer counts with their units, in report order. The batch
/// workloads run no server and report them as 0.
constexpr const char* kServerCounts[][2] = {
    {"fixpoint.refresh_iterations", "count"},
    {"server.result_hit_frac", "ratio"},
    {"server.refresh_frac", "ratio"},
    {"server.plan_hit_frac", "ratio"},
    {"server.invalidations", "count"},
    {"server.admission_rejects", "count"},
};

/// Adds the per-layer metrics every workload reports.
void AddLayerMetrics(const LayerProfile& profile, double untraced_query_s,
                     double insert_ms, const Sample& server_counts,
                     Report* report) {
  const double threads = runtime::ThreadPool::HardwareThreads();
  const double eval_s = profile.Get("fixpoint.eval_s");
  const double compute_s = profile.Get("dist.stage_compute_s");
  const double rows = profile.Get("storage.result_rows");
  const double bytes = profile.Get("storage.state_bytes");
  report->Add("sql.parse_ms", profile.Get("sql.parse_ms"), "ms");
  report->Add("analysis.analyze_ms", profile.Get("analysis.analyze_ms"), "ms");
  report->Add("plan.optimize_ms", profile.Get("plan.optimize_ms"), "ms");
  report->Add("plan.key_ms", profile.Get("plan.key_ms"), "ms");
  report->Add("lint.lint_ms", profile.Get("lint.lint_ms"), "ms");
  report->Add("fixpoint.eval_s", eval_s, "s");
  report->Add("fixpoint.iterations", profile.Get("fixpoint.iterations"),
              "count");
  report->Add("fixpoint.delta_rows", profile.Get("fixpoint.delta_rows"),
              "count");
  report->Add("fixpoint.plan_executions",
              profile.Get("fixpoint.plan_executions"), "count");
  report->Add("dist.stages", profile.Get("dist.stages"), "count");
  report->Add("dist.shuffle_bytes", profile.Get("dist.shuffle_bytes"),
              "bytes");
  report->Add("dist.remote_bytes", profile.Get("dist.remote_bytes"), "bytes");
  report->Add("dist.exec_tasks", profile.Get("dist.exec_tasks"), "count");
  report->Add("dist.pool_busy_frac",
              eval_s > 0 ? compute_s / (threads * eval_s) : 0, "ratio");
  report->AddExtra("dist.stage_compute_s", compute_s, "s");
  report->Add("physical.body_s", profile.Get("physical.body_s"), "s");
  report->Add("storage.result_rows", rows, "count");
  report->Add("storage.state_bytes", bytes, "bytes");
  report->Add("storage.bytes_per_row", rows > 0 ? bytes / rows : 0, "bytes");
  report->Add("engine.insert_ms", insert_ms, "ms");
  report->AddExtra("trace.replay_s", profile.Get("replay_s"), "s");
  report->Add("trace.overhead_s", profile.Get("replay_s") - untraced_query_s,
              "s");
  for (const auto& [name, unit] : kServerCounts) {
    auto it = server_counts.find(name);
    report->Add(name, it == server_counts.end() ? 0 : it->second, unit);
  }
}

/// Times one uncontended INSERT of a random edge per call on `ctx`.
double MedianInsertMs(engine::RaSqlContext* ctx, int64_t num_vertices,
                      bool weighted, uint64_t seed, Tracer* tracer,
                      std::atomic<uint64_t>* next_request, Tally* tally) {
  common::Rng rng(seed);
  std::vector<double> times;
  for (int i = 0; i < kInserts; ++i) {
    const int64_t src = rng.NextInRange(0, num_vertices - 1);
    const int64_t dst = rng.NextInRange(0, num_vertices - 1);
    std::string sql = "INSERT INTO edge VALUES (" + std::to_string(src) +
                      ", " + std::to_string(dst);
    if (weighted) sql += ", " + std::to_string(rng.NextInRange(0, 99)) + ".0";
    sql += ")";
    const auto start = Clock::now();
    bool ok = false;
    {
      ScopedSpan span(tracer, "engine.insert", -1, (*next_request)++);
      ok = ctx->Execute(sql).ok();
    }
    times.push_back(SecondsSince(start) * 1e3);
    tally->Record(ok ? Outcome::kOk : Outcome::kError);
  }
  return Median(times);
}

/// Times the key and lint layers for one query in their own spans.
void TraceCompileLayers(const engine::RaSqlContext& ctx,
                        const analysis::Catalog& catalog,
                        const std::string& sql, Tracer* tracer,
                        uint64_t request, Tally* tally) {
  bool ok = true;
  {
    ScopedSpan span(tracer, "plan.key", -1, request);
    ok = ctx.NormalizedPlanKey(sql).ok();
  }
  common::Result<sql::Query> query = sql::Parser::ParseQuery(sql);
  bool clean = false;
  if (query.ok()) {
    ScopedSpan span(tracer, "lint.lint", -1, request);
    lint::Linter linter(&catalog);
    clean = !linter.LintQuery(*query).HasErrors();
  }
  tally->Record(ok && clean ? Outcome::kOk : Outcome::kError);
}

analysis::Catalog CatalogOf(
    const std::map<std::string, const storage::Relation*>& tables) {
  analysis::Catalog catalog;
  for (const auto& [name, rel] : tables) catalog.PutTable(name, rel->schema());
  return catalog;
}

// ---- Options ----

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir = ".";
};

struct RunResult {
  Tally tally;
  bool checks_passed = true;  ///< oracle and trace-consistency checks
  Report report;
};

/// Records one engine result against the oracle.
Outcome Classify(const common::Result<engine::ExecutionResult>& result,
                 const std::function<bool(const storage::Relation&)>& oracle) {
  if (!result.ok()) return Outcome::kError;
  if (result->fixpoint_stats.hit_iteration_limit) return Outcome::kTruncated;
  return oracle(result->relation) ? Outcome::kOk : Outcome::kWrong;
}

// ---- Batch workloads: sssp-rmat and tc-er ----

struct BatchSpec {
  std::string name;
  std::string sql;
  engine::EngineConfig config;
  std::function<datagen::Graph(uint64_t seed)> generate;
  /// Builds the oracle for a generated graph.
  std::function<std::function<bool(const storage::Relation&)>(
      const datagen::Graph&)>
      make_oracle;
};

/// sssp-rmat oracle: the full (Dst, Cost) set equals SerialSssp from 0.
/// Weights are integers, so path sums are exact in double.
std::function<bool(const storage::Relation&)> SsspOracle(
    const datagen::Graph& graph) {
  auto dist = std::make_shared<std::vector<double>>(baselines::SerialSssp(
      baselines::Csr::Build(graph), 0));
  size_t reachable = 0;
  for (double d : *dist) reachable += std::isfinite(d) ? 1 : 0;
  return [dist, reachable](const storage::Relation& rel) {
    if (rel.size() != reachable || rel.schema().num_columns() != 2) {
      return false;
    }
    std::vector<bool> seen(dist->size(), false);
    for (size_t i = 0; i < rel.size(); ++i) {
      const storage::Value dst = rel.ValueAt(i, 0);
      const storage::Value cost = rel.ValueAt(i, 1);
      if (dst.type() != storage::ValueType::kInt64 || cost.is_null()) {
        return false;
      }
      const int64_t v = dst.AsInt();
      if (v < 0 || static_cast<size_t>(v) >= dist->size() || seen[v] ||
          cost.AsNumeric() != (*dist)[v]) {
        return false;
      }
      seen[v] = true;
    }
    return true;
  };
}

/// tc-er oracle: count(*) equals the number of (v, u) pairs with a path of
/// at least one edge from v to u, from one SerialBfs per vertex.
std::function<bool(const storage::Relation&)> TcOracle(
    const datagen::Graph& graph) {
  const baselines::Csr csr = baselines::Csr::Build(graph);
  std::vector<std::vector<int64_t>> preds(graph.num_vertices);
  for (const auto& [src, dst] : graph.edges) preds[dst].push_back(src);
  int64_t expected = 0;
  for (int64_t v = 0; v < graph.num_vertices; ++v) {
    const std::vector<int64_t> depth = baselines::SerialBfs(csr, v);
    for (int64_t u = 0; u < graph.num_vertices; ++u) {
      if (u != v && depth[u] >= 0) ++expected;
    }
    // v reaches itself through a cycle when one of its predecessors is
    // reachable from v.
    for (int64_t w : preds[v]) {
      if (depth[w] >= 0) {
        ++expected;
        break;
      }
    }
  }
  return [expected](const storage::Relation& rel) {
    return rel.size() == 1 && rel.schema().num_columns() == 1 &&
           rel.ValueAt(0, 0).type() == storage::ValueType::kInt64 &&
           rel.ValueAt(0, 0).AsInt() == expected;
  };
}

BatchSpec SsspRmatSpec() {
  BatchSpec spec;
  spec.name = "sssp-rmat";
  spec.sql = SsspQuery(0);
  spec.config = DistributedConfig();
  spec.generate = [](uint64_t seed) {
    datagen::RmatOptions options;
    options.num_vertices = 1 << 17;
    options.edges_per_vertex = 10;
    options.weighted = true;
    options.seed = seed;
    return datagen::GenerateRmat(options);
  };
  spec.make_oracle = SsspOracle;
  return spec;
}

BatchSpec TcErSpec() {
  BatchSpec spec;
  spec.name = "tc-er";
  spec.sql = kTcQuery;
  spec.config = DistributedConfig();
  spec.generate = [](uint64_t seed) {
    datagen::ErdosRenyiOptions options;
    options.num_vertices = 1000;
    options.edge_probability = 3e-3;
    options.seed = seed;
    return datagen::GenerateErdosRenyi(options);
  };
  spec.make_oracle = TcOracle;
  return spec;
}

RunResult RunBatch(const BatchSpec& spec, const Options& options,
                   Tracer* tracer) {
  RunResult run;
  Report& report = run.report;

  // Set-up: generate, convert, register and run the query once (the
  // warm-up, excluded from query_s), kSetupReps times. The warm-up answer
  // is checked like any other.
  std::vector<double> setup_times;
  datagen::Graph graph;
  std::unique_ptr<engine::RaSqlContext> ctx;
  std::function<bool(const storage::Relation&)> oracle;
  common::Result<engine::ExecutionResult> reference =
      common::Status::Internal("no set-up ran");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.reset();
    const auto start = Clock::now();
    graph = spec.generate(options.seed);
    ctx = std::make_unique<engine::RaSqlContext>(spec.config);
    if (ctx->RegisterTable("edge", datagen::ToEdgeRelation(graph)).ok()) {
      reference = ctx->Execute(spec.sql);
    } else {
      reference = common::Status::Internal("cannot register edge");
    }
    setup_times.push_back(SecondsSince(start));
    if (!oracle) oracle = spec.make_oracle(graph);
    run.tally.Record(Classify(reference, oracle));
    if (!reference.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   reference.status().ToString().c_str());
      run.checks_passed = false;
      return run;
    }
  }
  std::printf("input workload=%s seed=%llu vertices=%lld edges=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<long long>(graph.num_vertices), graph.num_edges());
  std::printf("result iterations=%d stages=%d shuffle_bytes=%zu rows=%zu "
              "first=%s\n",
              reference->fixpoint_stats.iterations,
              reference->job_metrics.num_stages(),
              reference->job_metrics.TotalShuffleBytes(),
              reference->relation.size(),
              reference->relation.empty()
                  ? "-"
                  : reference->relation.ValueAt(0, 0).ToString().c_str());

  // Untraced queries: the whole budget, or half of it in a traced run.
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> times;
  double peak_rss_mb = 0;
  const auto phase_start = Clock::now();
  while (times.size() < kMinQueries ||
         SecondsSince(phase_start) < untraced_budget) {
    const auto start = Clock::now();
    common::Result<engine::ExecutionResult> result = ctx->Execute(spec.sql);
    times.push_back(SecondsSince(start));
    run.tally.Record(Classify(result, oracle));
    // Read after a fixed amount of work: the allocator's footprint keeps
    // growing with the number of queries, which the run length decides.
    if (times.size() == kMinQueries) peak_rss_mb = PeakRssMb();
  }
  const double query_s = Median(times);
  std::printf("samples query_s=");
  for (double t : times) std::printf("%.4f ", t);
  std::printf("\n");

  if (!options.trace) {
    double total = 0;
    for (double t : times) total += t;
    report.Add("setup_s", Median(setup_times), "s");
    report.Add("query_s", query_s, "s");
    report.Add("ops_per_s", static_cast<double>(times.size()) / total, "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    return run;
  }

  // Traced replays, checked against the untraced reference run.
  const uint64_t want_checksum = Checksum(reference->relation);
  const int want_iterations = reference->fixpoint_stats.iterations;
  const int want_stages = reference->job_metrics.num_stages();
  std::map<std::string, const storage::Relation*> tables = {
      {"edge", ctx->FindTable("edge")}};
  const analysis::Catalog catalog = CatalogOf(tables);
  LayerProfile profile;
  std::atomic<uint64_t> next_request{1};
  const auto replay_start = Clock::now();
  for (size_t n = 0;
       n < kMinQueries || SecondsSince(replay_start) < options.seconds / 2;
       ++n) {
    const uint64_t request = next_request++;
    Replay replay =
        ReplayQuery(spec.config, catalog, tables, spec.sql, tracer, request);
    if (!replay.status.ok()) {
      run.tally.Record(Outcome::kError);
      run.checks_passed = false;
      break;
    }
    if (Checksum(replay.relation) != want_checksum ||
        replay.stats.iterations != want_iterations ||
        replay.metrics.num_stages() != want_stages) {
      std::fprintf(stderr,
                   "perfbench: traced replay drifted from Execute "
                   "(iterations %d vs %d, stages %d vs %d)\n",
                   replay.stats.iterations, want_iterations,
                   replay.metrics.num_stages(), want_stages);
      run.checks_passed = false;
    }
    run.tally.Record(replay.stats.hit_iteration_limit ? Outcome::kTruncated
                     : oracle(replay.relation)        ? Outcome::kOk
                                                      : Outcome::kWrong);
    TraceCompileLayers(*ctx, catalog, spec.sql, tracer, request, &run.tally);
    profile.AddSample(spec.name, request, std::move(replay.counts));
  }
  profile.AddSpans(tracer->spans());
  // INSERTs last: they change the table the checks above read.
  tables.clear();
  const double insert_ms =
      MedianInsertMs(ctx.get(), graph.num_vertices, graph.weighted(),
                     options.seed, tracer, &next_request, &run.tally);
  AddLayerMetrics(profile, query_s, insert_ms, Sample(), &report);
  report.AddExtra("trace.untraced_query_s", query_s, "s");
  return run;
}

// ---- serve-mixed ----

constexpr int kServeClients = 3;
constexpr double kWriteShare = 0.10;
constexpr int64_t kServeVertices = 1 << 14;

std::vector<std::string> ServeReads() {
  return {SsspQuery(0),  SsspQuery(1),  SsspQuery(2),
          ReachQuery(3), ReachQuery(4), kCcQuery};
}

/// One client session's log of the timed phase.
struct SessionLog {
  Tally tally;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> done_s;  ///< completion of each op since phase start
  double miss_iterations = 0;
};

void RunSession(uint16_t port, uint64_t seed, int client,
                Clock::time_point phase_start, double seconds, Tracer* tracer,
                std::atomic<uint64_t>* next_request, SessionLog* log) {
  const std::vector<std::string> reads = ServeReads();
  common::Rng rng(seed * 1000003 + static_cast<uint64_t>(client) + 1);
  server::Client connection;
  if (!connection.Connect(port).ok()) {
    log->tally.Record(Outcome::kError);
    return;
  }
  while (SecondsSince(phase_start) < seconds) {
    const bool write = rng.NextDouble() < kWriteShare;
    std::string sql;
    if (write) {
      sql = "INSERT INTO edge VALUES (" +
            std::to_string(rng.NextInRange(0, kServeVertices - 1)) + ", " +
            std::to_string(rng.NextInRange(0, kServeVertices - 1)) + ", " +
            std::to_string(rng.NextInRange(0, 99)) + ".0)";
    } else {
      sql = reads[rng.NextBounded(reads.size())];
    }
    const auto start = Clock::now();
    common::Result<server::ClientResult> result = [&] {
      ScopedSpan span(tracer, write ? "server.write" : "server.read", -1,
                      (*next_request)++);
      return connection.Query(sql);
    }();
    const double ms = SecondsSince(start) * 1e3;
    if (!result.ok()) {
      log->tally.Record(Outcome::kError);
      continue;
    }
    log->tally.Record(Outcome::kOk);
    log->done_s.push_back(SecondsSince(phase_start));
    if (write) {
      log->write_ms.push_back(ms);
      continue;
    }
    log->read_ms.push_back(ms);
    if (result->cache_hit) {
      log->hit_ms.push_back(ms);
    } else {
      log->miss_ms.push_back(ms);
      log->miss_iterations += result->iterations;
    }
  }
}

/// Checksums and iteration counts of a cold round's answers.
struct ColdAnswers {
  std::vector<uint64_t> checksums;
  std::vector<int> iterations;
};

/// Runs `rounds` rounds of a cold Execute of every read on `context`,
/// appending each wall time to `times[q]`. First-round answers must pass
/// `first_ok`; later rounds must repeat them.
ColdAnswers RunColdRounds(
    engine::RaSqlContext* context, const std::vector<std::string>& reads,
    int rounds,
    const std::function<bool(size_t, const storage::Relation&)>& first_ok,
    std::vector<std::vector<double>>* times, RunResult* run) {
  ColdAnswers answers;
  answers.checksums.resize(reads.size());
  answers.iterations.resize(reads.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t q = 0; q < reads.size(); ++q) {
      const auto start = Clock::now();
      common::Result<engine::ExecutionResult> result =
          context->Execute(reads[q]);
      (*times)[q].push_back(SecondsSince(start));
      const Outcome outcome =
          Classify(result, [&](const storage::Relation& r) {
            return round == 0 ? first_ok(q, r)
                              : Checksum(r) == answers.checksums[q];
          });
      run->tally.Record(outcome);
      if (outcome != Outcome::kOk) {
        std::fprintf(stderr, "perfbench: serve-mixed read %zu %s\n", q,
                     round == 0 ? "failed its check"
                                : "changed between cold rounds");
        run->checks_passed = false;
      }
      if (round == 0 && result.ok()) {
        answers.checksums[q] = Checksum(result->relation);
        answers.iterations[q] = result->fixpoint_stats.iterations;
      }
    }
  }
  return answers;
}

RunResult RunServe(const Options& options, Tracer* tracer) {
  RunResult run;
  Report& report = run.report;
  const std::vector<std::string> reads = ServeReads();
  engine::EngineConfig config = BenchConfig();
  config.incremental = true;
  // One thread per query; the concurrent sessions are the parallelism.
  // The time of a 4-thread fixpoint on this small graph follows the host's
  // scheduling far more than a 1-thread one's (README: Noise and bounds).
  config.runtime.num_threads = 1;

  // Set-up: generate, register, start the server and pre-fill its caches
  // with one run of every read, kSetupReps times.
  std::vector<double> setup_times;
  std::unique_ptr<engine::RaSqlContext> ctx;
  std::unique_ptr<server::Server> server;
  size_t num_edges = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    ctx.reset();
    const auto start = Clock::now();
    datagen::RmatOptions graph_options;
    graph_options.num_vertices = kServeVertices;
    graph_options.weighted = true;
    graph_options.seed = options.seed;
    const datagen::Graph graph = datagen::GenerateRmat(graph_options);
    num_edges = graph.num_edges();
    ctx = std::make_unique<engine::RaSqlContext>(config);
    server = std::make_unique<server::Server>(ctx.get(),
                                              server::ServerOptions{});
    server::Client client;
    bool ok = ctx->RegisterTable("edge", datagen::ToEdgeRelation(graph)).ok() &&
              server->Start().ok() && client.Connect(server->port()).ok();
    for (size_t q = 0; ok && q < reads.size(); ++q) {
      ok = client.Query(reads[q]).ok();
    }
    setup_times.push_back(SecondsSince(start));
    if (!ok) {
      std::fprintf(stderr, "perfbench: serve-mixed set-up failed\n");
      run.tally.Record(Outcome::kError);
      run.checks_passed = false;
      return run;
    }
  }
  std::printf("input workload=serve-mixed seed=%llu vertices=%lld edges=%zu "
              "clients=%d write_share=%.2f server_num_threads=%d\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<long long>(kServeVertices), num_edges, kServeClients,
              kWriteShare, config.runtime.num_threads);

  // Timed phase: closed-loop sessions.
  std::atomic<uint64_t> next_request{1};
  std::vector<SessionLog> logs(kServeClients);
  const auto phase_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back(RunSession, server->port(), options.seed, c,
                           phase_start, options.seconds, tracer,
                           &next_request, &logs[c]);
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double peak_rss_mb = PeakRssMb();
  const server::ServerStats stats = server->stats();
  SessionLog all;
  for (const SessionLog& log : logs) {
    all.tally.Merge(log.tally);
    all.read_ms.insert(all.read_ms.end(), log.read_ms.begin(),
                       log.read_ms.end());
    all.write_ms.insert(all.write_ms.end(), log.write_ms.begin(),
                        log.write_ms.end());
    all.hit_ms.insert(all.hit_ms.end(), log.hit_ms.begin(), log.hit_ms.end());
    all.miss_ms.insert(all.miss_ms.end(), log.miss_ms.begin(),
                       log.miss_ms.end());
    all.done_s.insert(all.done_s.end(), log.done_s.begin(),
                      log.done_s.end());
    all.miss_iterations += log.miss_iterations;
  }
  run.tally.Merge(all.tally);
  const std::vector<double> window_ops =
      WindowRates(all.done_s, options.seconds, kServeWindows);

  // Oracle: each read through the server equals, byte for byte, a cold run
  // on a fresh non-incremental context over the final edge table.
  engine::RaSqlContext cold(BenchConfig());
  if (!cold.RegisterTable("edge", *ctx->FindTable("edge")).ok()) {
    run.tally.Record(Outcome::kError);
    run.checks_passed = false;
    return run;
  }
  std::vector<std::string> served(reads.size());
  {
    server::Client client;
    const bool connected = client.Connect(server->port()).ok();
    for (size_t q = 0; q < reads.size(); ++q) {
      common::Result<server::ClientResult> result =
          connected ? client.Query(reads[q])
                    : common::Result<server::ClientResult>(
                          common::Status::Internal("connect failed"));
      run.tally.Record(result.ok() ? Outcome::kOk : Outcome::kError);
      if (result.ok()) served[q] = result->body;
    }
  }
  server->Stop();

  // Cold rounds on the final table; the first is the oracle run, and only
  // a traced run needs the others.
  std::vector<std::vector<double>> cold_times(reads.size());
  const ColdAnswers answers = RunColdRounds(
      &cold, reads, options.trace ? kColdRounds : 1,
      [&](size_t q, const storage::Relation& r) {
        return storage::FormatRelation(r, storage::ResultFormat::kCsv) ==
               served[q];
      },
      &cold_times, &run);
  // Per read, the median over the cold rounds; their mean is the untraced
  // reference of the traced replays.
  double cold_sum = 0;
  for (const std::vector<double>& read_times : cold_times) {
    cold_sum += Median(read_times);
  }
  const double cold_query_s = cold_sum / static_cast<double>(reads.size());

  std::sort(all.read_ms.begin(), all.read_ms.end());
  std::sort(all.write_ms.begin(), all.write_ms.end());
  std::sort(all.hit_ms.begin(), all.hit_ms.end());
  std::sort(all.miss_ms.begin(), all.miss_ms.end());
  const Percentile read_p50 = PercentileOf(all.read_ms, 50);
  const Percentile read_p99 = PercentileOf(all.read_ms, 99);
  const Percentile write_p90 = PercentileOf(all.write_ms, 90);
  std::printf("samples reads=%zu (hits %zu) writes=%zu read_p99_beyond=%zu "
              "write_p90_beyond=%zu read_tail=p%g write_tail=p%g\n",
              all.read_ms.size(), all.hit_ms.size(), all.write_ms.size(),
              read_p99.beyond,
              write_p90.beyond, HighestSupported(all.read_ms).percentile,
              HighestSupported(all.write_ms).percentile);
  std::printf("samples window_ops_per_s=");
  for (double rate : window_ops) std::printf("%.2f ", rate);
  std::printf("\n");
  if (!read_p99.supported || !write_p90.supported) {
    std::printf("warning: fewer than %zu samples beyond read p99 or write "
                "p90; lengthen --seconds\n",
                kMinBeyond);
  }

  if (!options.trace) {
    report.Add("setup_s", Median(setup_times), "s");
    report.Add("query_s", Median(all.miss_ms) / 1e3, "s");
    report.Add("ops_per_s", Median(window_ops), "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.AddExtra("read_ms_p50", read_p50.value, "ms");
    report.AddExtra("read_ms_p99", read_p99.value, "ms");
    report.AddExtra("write_ms_p90", write_p90.value, "ms");
    return run;
  }

  // Traced replays of the read set on the final table.
  std::map<std::string, const storage::Relation*> tables = {
      {"edge", cold.FindTable("edge")}};
  const analysis::Catalog catalog = CatalogOf(tables);
  LayerProfile profile;
  for (int round = 0; round < kColdRounds; ++round) {
    for (size_t q = 0; q < reads.size(); ++q) {
      const uint64_t request = next_request++;
      Replay replay = ReplayQuery(cold.config(), catalog, tables, reads[q],
                                  tracer, request);
      const bool ok = replay.status.ok();
      if (!ok || Checksum(replay.relation) != answers.checksums[q] ||
          replay.stats.iterations != answers.iterations[q]) {
        std::fprintf(stderr,
                     "perfbench: traced replay of read %zu drifted from "
                     "Execute\n",
                     q);
        run.checks_passed = false;
      }
      run.tally.Record(!ok ? Outcome::kError
                       : replay.stats.hit_iteration_limit ? Outcome::kTruncated
                                                          : Outcome::kOk);
      TraceCompileLayers(cold, catalog, reads[q], tracer, request, &run.tally);
      profile.AddSample(reads[q], request, std::move(replay.counts));
    }
  }
  profile.AddSpans(tracer->spans());
  tables.clear();
  const double insert_ms =
      MedianInsertMs(&cold, kServeVertices, true, options.seed, tracer,
                     &next_request, &run.tally);
  const double cache_reads = static_cast<double>(stats.result_cache.hits +
                                                 stats.result_cache.misses);
  const double plan_lookups =
      static_cast<double>(stats.plan_cache.hits + stats.plan_cache.misses);
  const Sample server_counts = {
      {"fixpoint.refresh_iterations",
       all.miss_ms.empty() ? 0
                           : all.miss_iterations /
                                 static_cast<double>(all.miss_ms.size())},
      {"server.result_hit_frac",
       cache_reads > 0 ? stats.result_cache.hits / cache_reads : 0},
      {"server.refresh_frac",
       cache_reads > 0 ? stats.result_cache.refreshes / cache_reads : 0},
      {"server.plan_hit_frac",
       plan_lookups > 0 ? stats.plan_cache.hits / plan_lookups : 0},
      {"server.invalidations",
       static_cast<double>(stats.result_cache.invalidations)},
      {"server.admission_rejects",
       static_cast<double>(stats.admission_rejects)},
  };
  AddLayerMetrics(profile, cold_query_s, insert_ms, server_counts, &report);
  report.AddExtra("server.hit_ms_p50", PercentileOf(all.hit_ms, 50).value,
                  "ms");
  report.AddExtra("server.miss_ms_p50", PercentileOf(all.miss_ms, 50).value,
                  "ms");
  report.AddExtra("trace.untraced_query_s", cold_query_s, "s");
  return run;
}

// ---- Output ----

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options->seconds > 0 && options->seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

void PrintJson(const RunResult& run, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted()),
              static_cast<unsigned long long>(run.tally.failed()));
  const char* sep = "";
  for (const Report::Metric& m : run.report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: rasql_perfbench --workload sssp-rmat|tc-er|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  // A debug build or RASQL_VERIFY_STAGES runs the stage verifier on every
  // submission: a different program from the one this benchmark measures.
  if (runtime::RuntimeOptions{}.VerifyStagesEnabled()) {
    std::fprintf(stderr,
                 "perfbench: stage verification is forced on (debug build or "
                 "RASQL_VERIFY_STAGES set); refusing to measure\n");
    return 2;
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("context hardware_threads=%d num_threads=%d ndebug=%d trace=%d\n",
              runtime::ThreadPool::HardwareThreads(),
              BenchConfig().runtime.num_threads, ndebug ? 1 : 0,
              options.trace ? 1 : 0);

  Tracer tracer(options.trace);
  RunResult run;
  if (options.workload == "sssp-rmat") {
    run = RunBatch(SsspRmatSpec(), options, &tracer);
  } else if (options.workload == "tc-er") {
    run = RunBatch(TcErSpec(), options, &tracer);
  } else if (options.workload == "serve-mixed") {
    run = RunServe(options, &tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  if (options.trace) {
    const std::string path = options.trace_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::printf("trace %s spans=%zu\n", path.c_str(), tracer.spans().size());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  for (const Report::Metric& m : run.report.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Report::Metric& m : run.report.extra) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-28s %.6g ratio (attempted %llu, errors %llu, wrong "
              "%llu, truncated %llu)\n",
              "failed_frac", run.tally.FailedFrac(),
              static_cast<unsigned long long>(run.tally.attempted()),
              static_cast<unsigned long long>(run.tally.errors()),
              static_cast<unsigned long long>(run.tally.wrong()),
              static_cast<unsigned long long>(run.tally.truncated()));
  const bool correct = run.checks_passed && run.tally.failed() == 0 &&
                       run.tally.attempted() > 0;
  PrintJson(run, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rasql::perfbench

int main(int argc, char** argv) { return rasql::perfbench::Main(argc, argv); }
