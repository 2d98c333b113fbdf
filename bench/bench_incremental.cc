// bench_incremental — warm-start fixpoint maintenance under insert-heavy
// load (DESIGN.md §14): the same sequence of small INSERTs is applied to
// an `--incremental` context (which resumes each converged clique from
// its retained state) and to a cold context (which recomputes the full
// fixpoint), on TC and SSSP workloads. Every warm result is byte-compared
// against its cold twin; the harness fails unless warm re-evaluation is
// at least 2x faster overall on each workload.
//
//   bench_incremental [--tc-vertices=288] [--sssp-vertices=4096]
//                     [--inserts=8] [--threads=1] [--json=PATH]
//
// Writes BENCH_incremental.json (always; --json overrides the path).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "runtime/thread_pool.h"
#include "storage/result_format.h"

namespace rasql::bench {
namespace {

// Full-relation heads (not count(*)) so the byte comparison covers every
// tuple the fixpoint derived, not just a scalar summary.
constexpr char kTcRows[] = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc)";

constexpr char kSsspRows[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

/// Each INSERT reaches a vertex outside the base graph (IDs from 100000)
/// and chains back into it, so every write genuinely extends the fixpoint
/// (a non-empty warm seed) while staying small relative to the base data —
/// the regime incremental maintenance is for.
std::string InsertStatement(int round) {
  const int64_t fresh = 100000 + 2 * round;
  return "INSERT INTO edge VALUES (1, " + std::to_string(fresh) +
         ", 1.5), (" + std::to_string(fresh) + ", " +
         std::to_string(fresh + 1) + ", 0.5)";
}

struct WorkloadResult {
  std::string name;
  double cold_total_sec = 0;
  double warm_total_sec = 0;
  int warm_starts = 0;
  int iterations_saved = 0;
  size_t seed_delta_rows = 0;
  bool identical = true;
  double Speedup() const {
    return warm_total_sec > 0 ? cold_total_sec / warm_total_sec : 0;
  }
};

WorkloadResult RunWorkload(const std::string& name, const std::string& query,
                           int64_t vertices, int inserts, int threads) {
  datagen::RmatOptions opt;
  opt.num_vertices = vertices;
  opt.edges_per_vertex = 4;
  opt.weighted = true;
  opt.min_weight = 0.5;
  opt.seed = 7;
  const storage::Relation edges =
      datagen::ToEdgeRelation(datagen::GenerateRmat(opt));

  engine::EngineConfig warm_config;
  warm_config.incremental = true;
  warm_config.runtime.num_threads = threads;
  engine::EngineConfig cold_config = warm_config;
  cold_config.incremental = false;

  engine::RaSqlContext warm(warm_config);
  engine::RaSqlContext cold(cold_config);
  if (!warm.RegisterTable("edge", edges).ok() ||
      !cold.RegisterTable("edge", edges).ok()) {
    std::fprintf(stderr, "register edge failed\n");
    std::abort();
  }

  // Converge once on both so the warm context has state to retain; this
  // first (cold) evaluation is not part of the measured totals.
  if (!warm.Execute(query).ok() || !cold.Execute(query).ok()) {
    std::fprintf(stderr, "%s: initial run failed\n", name.c_str());
    std::abort();
  }

  WorkloadResult result;
  result.name = name;
  for (int round = 0; round < inserts; ++round) {
    const std::string insert = InsertStatement(round);
    if (!warm.Execute(insert).ok() || !cold.Execute(insert).ok()) {
      std::fprintf(stderr, "%s: insert failed\n", name.c_str());
      std::abort();
    }

    common::Timer timer;
    auto w = warm.Execute(query);
    const double warm_sec = timer.ElapsedSeconds();
    timer = common::Timer();
    auto c = cold.Execute(query);
    const double cold_sec = timer.ElapsedSeconds();
    if (!w.ok() || !c.ok()) {
      std::fprintf(stderr, "%s: round %d failed\n", name.c_str(), round);
      std::abort();
    }

    result.warm_total_sec += warm_sec;
    result.cold_total_sec += cold_sec;
    result.warm_starts += w->fixpoint_stats.warm_starts;
    result.iterations_saved += w->fixpoint_stats.iterations_saved;
    result.seed_delta_rows += w->fixpoint_stats.seed_delta_rows;
    if (storage::FormatRelation(w->relation, storage::ResultFormat::kCsv) !=
        storage::FormatRelation(c->relation, storage::ResultFormat::kCsv)) {
      result.identical = false;
    }
  }
  return result;
}

int Main(int argc, char** argv) {
  int64_t tc_vertices = 288;
  int64_t sssp_vertices = 4096;
  int inserts = 8;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tc-vertices=", 0) == 0) {
      tc_vertices = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--sssp-vertices=", 0) == 0) {
      sssp_vertices = std::atoll(arg.c_str() + 16);
    } else if (arg.rfind("--inserts=", 0) == 0) {
      inserts = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    }
  }
  std::string json_path =
      JsonPathFromArgs(argc, argv, "BENCH_incremental.json");
  if (json_path.empty()) json_path = "BENCH_incremental.json";

  PrintHeader("Incremental warm-start vs cold recompute (insert-heavy)",
              "DESIGN.md S14 warm-start maintenance");
  std::vector<WorkloadResult> results = {
      RunWorkload("tc", kTcRows, tc_vertices, inserts, threads),
      RunWorkload("sssp", kSsspRows, sssp_vertices, inserts, threads),
  };

  PrintRow({"workload", "cold-total", "warm-total", "speedup", "warm-starts",
            "iters-saved"});
  bool ok = true;
  std::vector<std::string> records;
  for (const WorkloadResult& r : results) {
    PrintRow({r.name, Fmt(r.cold_total_sec), Fmt(r.warm_total_sec),
              std::to_string(r.Speedup()).substr(0, 5) + "x",
              std::to_string(r.warm_starts),
              std::to_string(r.iterations_saved)});
    if (!r.identical) {
      std::fprintf(stderr, "FAIL: %s warm bytes diverged from cold\n",
                   r.name.c_str());
      ok = false;
    }
    if (r.warm_starts != inserts) {
      std::fprintf(stderr, "FAIL: %s warm-started %d/%d rounds\n",
                   r.name.c_str(), r.warm_starts, inserts);
      ok = false;
    }
    if (r.Speedup() < 2.0) {
      std::fprintf(stderr, "FAIL: %s warm speedup %.2fx below 2x\n",
                   r.name.c_str(), r.Speedup());
      ok = false;
    }
    JsonEmitter rec;
    rec.Text("workload", r.name);
    rec.Integer("inserts", inserts);
    rec.Number("cold_total_ms", r.cold_total_sec * 1e3);
    rec.Number("warm_total_ms", r.warm_total_sec * 1e3);
    rec.Number("speedup", r.Speedup());
    rec.Integer("warm_starts", r.warm_starts);
    rec.Integer("iterations_saved", r.iterations_saved);
    rec.Integer("seed_delta_rows", static_cast<int64_t>(r.seed_delta_rows));
    rec.Integer("identical", r.identical ? 1 : 0);
    records.push_back(rec.ToString());
  }

  JsonEmitter doc;
  doc.Text("bench", "incremental");
  doc.Integer("tc_vertices", tc_vertices);
  doc.Integer("sssp_vertices", sssp_vertices);
  doc.Integer("inserts_per_workload", inserts);
  doc.Integer("threads", threads);
  doc.Integer("hardware_threads", runtime::ThreadPool::HardwareThreads());
  doc.Raw("workloads", JsonEmitter::Array(records));
  if (!doc.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rasql::bench

int main(int argc, char** argv) { return rasql::bench::Main(argc, argv); }
