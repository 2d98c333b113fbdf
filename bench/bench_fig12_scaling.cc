// Reproduces paper Figure 12 (Appendix F): scaling the cluster from 1 to
// 15 workers on TC and SG over synthetic graphs. The simulated makespan
// shrinks as workers are added; the 15-worker/2-worker speedup mirrors the
// paper's 7x (TC) / 10x (SG).
//
// A second sweep scales *real threads* under the simulated cluster: the
// same workloads on the work-stealing runtime with 1/2/4/8 threads, fixed
// cluster shape. Results must be identical for every thread count; wall
// times show the actual speedup on this machine. `--json[=path]` records
// the sweep (default BENCH_parallel_runtime.json) including
// hardware_threads, without which the wall numbers can't be interpreted —
// on a single-core container every thread count costs the same.
//
// A third sweep scales the *local* (non-distributed) fixpoint path on the
// same pool: TC and SSSP at 1/2/4/8 threads in both naive and semi-naive
// modes. The partitioned local evaluator (DESIGN.md §9) must produce
// identical results and iteration counts at every thread count; `--json`
// writes the sweep to BENCH_local_parallel.json.

#include "bench/bench_util.h"
#include "runtime/thread_pool.h"

namespace rasql::bench {
namespace {

struct Workload {
  std::string name;
  std::string table;  // "edge" or "rel"
  std::string sql;
  storage::Relation data;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    datagen::GridOptions g;
    g.side = 45;
    out.push_back({"TC-Grid45", "edge", kTcQuery,
                   datagen::ToEdgeRelation(GenerateGrid(g))});
  }
  {
    datagen::ErdosRenyiOptions e;
    e.num_vertices = 2000;
    e.edge_probability = 1e-3;
    e.seed = 12;
    out.push_back({"TC-G2K-3", "edge", kTcQuery,
                   datagen::ToEdgeRelation(GenerateErdosRenyi(e))});
  }
  {
    datagen::TreeOptions t;
    t.height = 5;
    t.min_children = 4;
    t.max_children = 5;
    t.max_nodes = 1000;
    t.leaf_probability = 0.0;
    storage::Relation rel{storage::Schema::Of(
        {{"Parent", storage::ValueType::kInt64},
         {"Child", storage::ValueType::kInt64}})};
    datagen::Graph tree = datagen::GenerateTree(t);
    for (const auto& [p, c] : tree.edges) {
      rel.Add({storage::Value::Int(p), storage::Value::Int(c)});
    }
    out.push_back({"SG-Tree5", "rel", kSgQuery, std::move(rel)});
  }
  return out;
}

void RunWorkerScaling(std::vector<Workload>* workloads) {
  PrintHeader("Figure 12: Scaling-out cluster size (TC, SG)",
              "paper Fig. 12 (Appendix F)");
  PrintRow({"workload", "1w", "2w", "4w", "8w", "15w", "2w/15w"});

  for (Workload& w : *workloads) {
    std::map<std::string, storage::Relation> tables;
    tables.emplace(w.table, w.data);
    std::vector<std::string> cells = {w.name};
    double two_workers = 0;
    double fifteen_workers = 0;
    for (int workers : {1, 2, 4, 8, 15}) {
      engine::EngineConfig config = RaSqlConfig();
      config.cluster.num_workers = workers;
      config.cluster.num_partitions = workers * 2;
      RunTiming t = RunEngine(config, tables, w.sql);
      cells.push_back(Fmt(t.sim_time));
      if (workers == 2) two_workers = t.sim_time;
      if (workers == 15) fifteen_workers = t.sim_time;
    }
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  two_workers / fifteen_workers);
    cells.push_back(speedup);
    PrintRow(cells);
  }
}

void RunThreadScaling(std::vector<Workload>* workloads,
                      const std::string& json_path) {
  PrintHeader("Parallel runtime: real threads under the simulated cluster",
              "runtime scaling, DESIGN.md §7");
  std::printf("hardware threads on this machine: %d\n",
              runtime::ThreadPool::HardwareThreads());
  PrintRow({"workload", "1t", "2t", "4t", "8t", "1t/8t", "identical"});

  std::vector<std::string> records;
  for (Workload& w : *workloads) {
    std::map<std::string, storage::Relation> tables;
    tables.emplace(w.table, w.data);
    std::vector<std::string> cells = {w.name};
    double one_thread = 0;
    double eight_threads = 0;
    int64_t reference_result = 0;
    bool identical = true;
    for (int threads : {1, 2, 4, 8}) {
      engine::EngineConfig config = RaSqlConfig();
      config.runtime.num_threads = threads;
      // Best of two runs: the first may pay allocator warm-up; the sweep
      // measures the runtime, not the heap.
      RunTiming t = RunEngine(config, tables, w.sql);
      RunTiming second = RunEngine(config, tables, w.sql);
      if (second.wall_time < t.wall_time) t = second;
      cells.push_back(Fmt(t.wall_time));
      if (threads == 1) {
        one_thread = t.wall_time;
        reference_result = t.result;
      }
      if (threads == 8) eight_threads = t.wall_time;
      identical = identical && t.result == reference_result;

      JsonEmitter rec;
      rec.Text("workload", w.name);
      rec.Integer("threads", threads);
      rec.Number("wall_time_sec", t.wall_time);
      rec.Number("sim_time_sec", t.sim_time);
      rec.Integer("stages", t.stages);
      rec.Integer("result", t.result);
      records.push_back(rec.ToString());
    }
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  one_thread / eight_threads);
    cells.push_back(speedup);
    cells.push_back(identical ? "yes" : "NO");
    PrintRow(cells);

    JsonEmitter summary;
    summary.Text("workload", w.name);
    summary.Number("speedup_8t_vs_1t", one_thread / eight_threads);
    summary.Text("identical_results", identical ? "yes" : "no");
    records.push_back(summary.ToString());
  }

  if (!json_path.empty()) {
    JsonEmitter doc;
    doc.Text("bench", "bench_fig12_scaling");
    doc.Text("section", "parallel_runtime_thread_scaling");
    doc.Integer("hardware_threads", runtime::ThreadPool::HardwareThreads());
    doc.Raw("runs", JsonEmitter::Array(records));
    if (doc.WriteFile(json_path)) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }
}

// The local fixpoint path (no simulated cluster) on the work-stealing
// pool: threads 1/2/4/8 × {naive, semi-naive}. Smaller graphs than the
// distributed sweeps — the naive mode recomputes the full state every
// iteration, which is exactly the cost profile this sweep documents.
void RunLocalParallelSweep(bool write_json) {
  PrintHeader("Local fixpoint: partitioned evaluation on real threads",
              "local-path parallelization, DESIGN.md §9");
  std::printf("hardware threads on this machine: %d\n",
              runtime::ThreadPool::HardwareThreads());
  PrintRow({"workload", "mode", "1t", "2t", "4t", "8t", "1t/8t",
            "identical"});

  struct LocalWorkload {
    std::string name;
    std::string sql;
    storage::Relation data;
  };
  std::vector<LocalWorkload> workloads;
  {
    datagen::GridOptions g;
    g.side = 20;
    workloads.push_back({"TC-Grid20", kTcQuery,
                         datagen::ToEdgeRelation(GenerateGrid(g))});
  }
  {
    datagen::RmatOptions r;
    r.num_vertices = 2000;
    r.edges_per_vertex = 4;
    r.weighted = true;
    r.min_weight = 1.0;
    r.seed = 7;
    workloads.push_back(
        {"SSSP-RMAT2K",
         R"(WITH recursive path (Dst, min() AS Cost) AS
             (SELECT 1, 0.0) UNION
             (SELECT edge.Dst, path.Cost + edge.Cost
              FROM path, edge WHERE path.Dst = edge.Src)
           SELECT count(*) FROM path)",
         datagen::ToEdgeRelation(GenerateRmat(r))});
  }

  std::vector<std::string> records;
  bool all_identical = true;
  for (LocalWorkload& w : workloads) {
    std::map<std::string, storage::Relation> tables;
    tables.emplace("edge", w.data);
    for (fixpoint::FixpointMode mode :
         {fixpoint::FixpointMode::kSemiNaive, fixpoint::FixpointMode::kNaive}) {
      const std::string mode_name =
          mode == fixpoint::FixpointMode::kSemiNaive ? "semi-naive" : "naive";
      std::vector<std::string> cells = {w.name, mode_name};
      double one_thread = 0;
      double eight_threads = 0;
      int64_t reference_result = 0;
      int reference_iterations = 0;
      bool identical = true;
      for (int threads : {1, 2, 4, 8}) {
        engine::EngineConfig config;  // local: distributed stays off
        config.fixpoint.mode = mode;
        config.runtime.num_threads = threads;
        // Best of two runs, as in the distributed thread sweep: the first
        // may pay allocator warm-up.
        RunTiming t = RunEngine(config, tables, w.sql);
        RunTiming second = RunEngine(config, tables, w.sql);
        if (second.wall_time < t.wall_time) t = second;
        cells.push_back(Fmt(t.wall_time));
        if (threads == 1) {
          one_thread = t.wall_time;
          reference_result = t.result;
          reference_iterations = t.iterations;
        }
        if (threads == 8) eight_threads = t.wall_time;
        identical = identical && t.result == reference_result &&
                    t.iterations == reference_iterations;

        JsonEmitter rec;
        rec.Text("workload", w.name);
        rec.Text("mode", mode_name);
        rec.Integer("threads", threads);
        rec.Number("wall_time_sec", t.wall_time);
        rec.Integer("iterations", t.iterations);
        rec.Integer("result", t.result);
        records.push_back(rec.ToString());
      }
      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    one_thread / eight_threads);
      cells.push_back(speedup);
      cells.push_back(identical ? "yes" : "NO");
      all_identical = all_identical && identical;
      PrintRow(cells);

      JsonEmitter summary;
      summary.Text("workload", w.name);
      summary.Text("mode", mode_name);
      summary.Number("speedup_8t_vs_1t", one_thread / eight_threads);
      summary.Text("identical_results", identical ? "yes" : "no");
      records.push_back(summary.ToString());
    }
  }
  std::printf("local results identical across thread counts: %s\n",
              all_identical ? "yes" : "NO");

  if (write_json) {
    const std::string path = "BENCH_local_parallel.json";
    JsonEmitter doc;
    doc.Text("bench", "bench_fig12_scaling");
    doc.Text("section", "local_fixpoint_thread_scaling");
    doc.Integer("hardware_threads", runtime::ThreadPool::HardwareThreads());
    doc.Text("identical_results", all_identical ? "yes" : "no");
    doc.Raw("runs", JsonEmitter::Array(records));
    if (doc.WriteFile(path)) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
}

}  // namespace
}  // namespace rasql::bench

int main(int argc, char** argv) {
  const std::string json_path = rasql::bench::JsonPathFromArgs(
      argc, argv, "BENCH_parallel_runtime.json");
  std::vector<rasql::bench::Workload> workloads = rasql::bench::Workloads();
  rasql::bench::RunWorkerScaling(&workloads);
  rasql::bench::RunThreadScaling(&workloads, json_path);
  rasql::bench::RunLocalParallelSweep(!json_path.empty());
  return 0;
}
