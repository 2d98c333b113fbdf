#include "datagen/graph_gen.h"

#include <cmath>
#include <deque>

#include "common/check.h"
#include "common/rng.h"

namespace rasql::datagen {

using common::Rng;
using storage::Relation;
using storage::Row;
using storage::Value;

namespace {

void AssignWeights(Graph* graph, Rng* rng, double min_w, double max_w) {
  graph->weights.reserve(graph->edges.size());
  for (size_t i = 0; i < graph->edges.size(); ++i) {
    // Uniform integer weights as in the paper ("uniform integer weights
    // ranging from [0, 100)"), stored as double costs.
    graph->weights.push_back(
        std::floor(min_w + rng->NextDouble() * (max_w - min_w)));
  }
}

}  // namespace

Graph GenerateRmat(const RmatOptions& options) {
  RASQL_CHECK(options.num_vertices > 1);
  RASQL_CHECK(options.a + options.b + options.c < 1.0);
  Rng rng(options.seed);
  Graph graph;
  graph.num_vertices = options.num_vertices;
  const int64_t num_edges = options.num_vertices * options.edges_per_vertex;
  graph.edges.reserve(num_edges);

  // Number of recursion levels = ceil(log2(n)).
  int levels = 0;
  while ((int64_t{1} << levels) < options.num_vertices) ++levels;

  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  for (int64_t e = 0; e < num_edges; ++e) {
    int64_t src = 0;
    int64_t dst = 0;
    for (int l = 0; l < levels; ++l) {
      const double r = rng.NextDouble();
      if (r < options.a) {
        // top-left: nothing to add
      } else if (r < ab) {
        dst |= int64_t{1} << l;
      } else if (r < abc) {
        src |= int64_t{1} << l;
      } else {
        src |= int64_t{1} << l;
        dst |= int64_t{1} << l;
      }
    }
    if (src >= options.num_vertices || dst >= options.num_vertices) {
      --e;  // Rejected (non-power-of-two vertex counts); retry.
      continue;
    }
    graph.edges.emplace_back(src, dst);
  }
  if (options.weighted) {
    AssignWeights(&graph, &rng, options.min_weight, options.max_weight);
  }
  return graph;
}

Graph GenerateErdosRenyi(const ErdosRenyiOptions& options) {
  RASQL_CHECK(options.num_vertices > 1);
  RASQL_CHECK(options.edge_probability > 0.0 &&
              options.edge_probability <= 1.0);
  Rng rng(options.seed);
  Graph graph;
  graph.num_vertices = options.num_vertices;

  // Geometric skipping: instead of testing all n^2 pairs, jump directly to
  // the next edge. Pair index k maps to (k / n, k % n).
  const double log1mp = std::log1p(-options.edge_probability);
  const unsigned __int128 total =
      static_cast<unsigned __int128>(options.num_vertices) *
      static_cast<unsigned __int128>(options.num_vertices);
  unsigned __int128 k = 0;
  while (true) {
    const double u = rng.NextDouble();
    const int64_t skip =
        options.edge_probability >= 1.0
            ? 1
            : 1 + static_cast<int64_t>(std::log(1.0 - u) / log1mp);
    k += skip;
    if (k > total) break;
    const int64_t idx = static_cast<int64_t>(k - 1);
    const int64_t src = idx / options.num_vertices;
    const int64_t dst = idx % options.num_vertices;
    if (src == dst) continue;  // no self loops
    graph.edges.emplace_back(src, dst);
  }
  if (options.weighted) {
    AssignWeights(&graph, &rng, options.min_weight, options.max_weight);
  }
  return graph;
}

Graph GenerateGrid(const GridOptions& options) {
  RASQL_CHECK(options.side >= 1);
  Rng rng(options.seed);
  Graph graph;
  const int64_t n = options.side + 1;  // Grid150 is a 151x151 grid.
  graph.num_vertices = n * n;
  graph.edges.reserve(2 * n * (n - 1));
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      const int64_t v = r * n + c;
      if (c + 1 < n) graph.edges.emplace_back(v, v + 1);  // right
      if (r + 1 < n) graph.edges.emplace_back(v, v + n);  // down
    }
  }
  if (options.weighted) {
    AssignWeights(&graph, &rng, options.min_weight, options.max_weight);
  }
  return graph;
}

Graph GenerateTree(const TreeOptions& options) {
  RASQL_CHECK(options.height >= 1);
  RASQL_CHECK(options.min_children >= 1);
  RASQL_CHECK(options.min_children <= options.max_children);
  Rng rng(options.seed);
  Graph graph;

  // BFS expansion: node 0 is the root. `frontier` holds internal nodes of
  // the current level.
  std::deque<int64_t> frontier = {0};
  int64_t next_id = 1;
  for (int64_t level = 0; level < options.height && !frontier.empty();
       ++level) {
    std::deque<int64_t> next_frontier;
    for (int64_t parent : frontier) {
      const int64_t num_children =
          rng.NextInRange(options.min_children, options.max_children);
      for (int64_t c = 0; c < num_children; ++c) {
        if (next_id >= options.max_nodes) break;
        const int64_t child = next_id++;
        graph.edges.emplace_back(parent, child);
        const bool leaf = level + 1 >= options.height ||
                          rng.NextDouble() < options.leaf_probability;
        if (!leaf) next_frontier.push_back(child);
      }
      if (next_id >= options.max_nodes) break;
    }
    frontier = std::move(next_frontier);
  }
  graph.num_vertices = next_id;
  return graph;
}

Relation ToEdgeRelation(const Graph& graph) {
  std::vector<storage::Column> cols = {
      {"Src", storage::ValueType::kInt64},
      {"Dst", storage::ValueType::kInt64},
  };
  if (graph.weighted()) {
    cols.push_back({"Cost", storage::ValueType::kDouble});
  }
  Relation rel{storage::Schema(cols)};
  for (size_t i = 0; i < graph.edges.size(); ++i) {
    Row row;
    row.reserve(cols.size());
    row.push_back(Value::Int(graph.edges[i].first));
    row.push_back(Value::Int(graph.edges[i].second));
    if (graph.weighted()) row.push_back(Value::Double(graph.weights[i]));
    rel.Add(std::move(row));
  }
  return rel;
}

Relation ToReportRelation(const Graph& tree) {
  Relation rel{storage::Schema::Of({{"Emp", storage::ValueType::kInt64},
                                    {"Mgr", storage::ValueType::kInt64}})};
  for (const auto& [parent, child] : tree.edges) {
    rel.Add({Value::Int(child), Value::Int(parent)});
  }
  return rel;
}

void ToBomRelations(const Graph& tree, uint64_t seed, Relation* assbl,
                    Relation* basic) {
  Rng rng(seed);
  *assbl = Relation{storage::Schema::Of(
      {{"Part", storage::ValueType::kInt64},
       {"SPart", storage::ValueType::kInt64}})};
  *basic = Relation{storage::Schema::Of(
      {{"Part", storage::ValueType::kInt64},
       {"Days", storage::ValueType::kInt64}})};

  std::vector<bool> has_children(tree.num_vertices, false);
  for (const auto& [parent, child] : tree.edges) has_children[parent] = true;

  for (const auto& [parent, child] : tree.edges) {
    assbl->Add({Value::Int(parent), Value::Int(child)});
  }
  for (int64_t v = 0; v < tree.num_vertices; ++v) {
    if (!has_children[v]) {
      basic->Add({Value::Int(v), Value::Int(rng.NextInRange(1, 30))});
    }
  }
}

void ToMlmRelations(const Graph& tree, uint64_t seed, Relation* sponsor,
                    Relation* sales) {
  Rng rng(seed);
  *sponsor = Relation{storage::Schema::Of(
      {{"M1", storage::ValueType::kInt64},
       {"M2", storage::ValueType::kInt64}})};
  *sales = Relation{storage::Schema::Of(
      {{"M", storage::ValueType::kInt64},
       {"P", storage::ValueType::kDouble}})};

  for (const auto& [parent, child] : tree.edges) {
    sponsor->Add({Value::Int(parent), Value::Int(child)});
  }
  for (int64_t v = 0; v < tree.num_vertices; ++v) {
    sales->Add({Value::Int(v),
                Value::Double(std::floor(rng.NextDouble() * 1000.0))});
  }
}

}  // namespace rasql::datagen
