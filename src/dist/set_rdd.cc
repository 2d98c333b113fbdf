#include "dist/set_rdd.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace rasql::dist {

using storage::Relation;
using storage::Row;
using storage::Value;
using storage::ValueType;

/// One partition's state drained into RowLess order. A `packed` run held
/// only two-column rows of non-null int64 cells and keeps each row as one
/// key in `keys`; any other run keeps its rows in `rows`.
struct SortedRun {
  bool packed = false;
  std::vector<unsigned __int128> keys;
  std::vector<Row> rows;

  size_t size() const { return packed ? keys.size() : rows.size(); }
};

namespace {

// Flipping the sign bits makes unsigned key order equal the signed,
// lexicographic (RowLess) order of the two cells.
constexpr uint64_t kSignBit = uint64_t{1} << 63;

unsigned __int128 PackPair(int64_t a, int64_t b) {
  return static_cast<unsigned __int128>(static_cast<uint64_t>(a) ^ kSignBit)
             << 64 |
         (static_cast<uint64_t>(b) ^ kSignBit);
}
int64_t High(unsigned __int128 key) {
  return static_cast<int64_t>(static_cast<uint64_t>(key >> 64) ^ kSignBit);
}
int64_t Low(unsigned __int128 key) {
  return static_cast<int64_t>(static_cast<uint64_t>(key) ^ kSignBit);
}

/// K-way merge of sorted runs: calls emit(r, i) for row i of run r in
/// ascending order of `less(ra, ia, rb, ib)`. Equal heads leave the
/// lower-numbered run first.
template <class Less, class Emit>
void MergeRuns(const std::vector<size_t>& sizes, Less less, Emit emit) {
  std::vector<size_t> pos(sizes.size(), 0);
  std::vector<int> heap;
  for (size_t r = 0; r < sizes.size(); ++r) {
    if (sizes[r] > 0) heap.push_back(static_cast<int>(r));
  }
  // Heap order: `after(a, b)` puts run a's head below run b's.
  auto after = [&](int a, int b) {
    if (less(b, pos[b], a, pos[a])) return true;
    if (less(a, pos[a], b, pos[b])) return false;
    return a > b;
  };
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const int r = heap.back();
    emit(r, pos[r]);
    if (++pos[r] < sizes[r]) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
}

}  // namespace

void SetRddPartition::MergeOne(const Row& row, bool accumulates,
                               std::vector<Row>* delta) {
  if (!spec_.has_aggregate()) {
    // Plain semi-naive set difference + union (paper Alg. 4 ReduceStage).
    auto [it, inserted] = set_state_.insert(row);
    if (inserted) {
      byte_size_ += storage::RowByteSize(row);
      delta->push_back(row);
    }
    return;
  }

  // Aggregate semantics (paper Alg. 5 ReduceStage, extended to sum/count).
  Row key = storage::ProjectKey(row, spec_.key_columns);
  const Value& v = row[spec_.agg_column];
  auto [it, inserted] = agg_state_.emplace(std::move(key), v);
  if (inserted) {
    byte_size_ += storage::RowByteSize(row);
    delta->push_back(row);
    return;
  }
  if (accumulates) {
    // The delta carries the *increment*: downstream joins propagate only
    // the newly discovered contribution, never re-counting old ones.
    it->second = CombineAgg(spec_.function, it->second, v);
    delta->push_back(row);
  } else if (ImprovesAgg(spec_.function, it->second, v)) {
    it->second = v;
    delta->push_back(row);
  }
  // Otherwise: dominated tuple, discarded (paper Sec. 6.2: "(b, 3) will
  // be ignored and discarded due to the property of monotonic
  // aggregates").
}

void SetRddPartition::MergeDelta(const std::vector<Row>& candidates,
                                 std::vector<Row>* delta) {
  const bool accumulates =
      spec_.function == expr::AggregateFunction::kSum ||
      spec_.function == expr::AggregateFunction::kCount;
  for (const Row& row : candidates) MergeOne(row, accumulates, delta);
}

void SetRddPartition::MergeDelta(const Relation& candidates,
                                 std::vector<Row>* delta) {
  const bool accumulates =
      spec_.function == expr::AggregateFunction::kSum ||
      spec_.function == expr::AggregateFunction::kCount;
  candidates.ForEachRow(
      [&](const Row& row) { MergeOne(row, accumulates, delta); });
}

void SetRddPartition::Absorb(const Relation& converged) {
  converged.ForEachRow([&](const Row& row) {
    if (!spec_.has_aggregate()) {
      auto [it, inserted] = set_state_.insert(row);
      if (inserted) byte_size_ += storage::RowByteSize(row);
      return;
    }
    Row key = storage::ProjectKey(row, spec_.key_columns);
    const Value& v = row[spec_.agg_column];
    auto [it, inserted] = agg_state_.emplace(std::move(key), v);
    if (inserted) {
      byte_size_ += storage::RowByteSize(row);
    } else {
      it->second = v;
    }
  });
}

Relation SetRddPartition::ToRelation() const {
  Relation out(schema_);
  if (!spec_.has_aggregate()) {
    for (const Row& row : set_state_) out.Add(row);
    return out;
  }
  const int num_columns = schema_.num_columns();
  for (const auto& [key, value] : agg_state_) {
    Row row(num_columns);
    for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
      row[spec_.key_columns[i]] = key[i];
    }
    row[spec_.agg_column] = value;
    out.Add(std::move(row));
  }
  return out;
}

bool SetRddPartition::PackInt64Pairs(
    std::vector<unsigned __int128>* keys) const {
  auto push = [keys](const Value& a, const Value& b) {
    if (a.type() != ValueType::kInt64 || b.type() != ValueType::kInt64) {
      return false;
    }
    keys->push_back(PackPair(a.AsInt(), b.AsInt()));
    return true;
  };
  if (schema_.num_columns() != 2) return false;
  keys->reserve(size());
  if (!spec_.has_aggregate()) {
    for (const Row& row : set_state_) {
      if (row.size() != 2 || !push(row[0], row[1])) return false;
    }
    return true;
  }
  if (spec_.key_columns.size() != 1) return false;
  const bool agg_last = spec_.agg_column == 1;
  for (const auto& [key, value] : agg_state_) {
    if (!(agg_last ? push(key[0], value) : push(value, key[0]))) return false;
  }
  return true;
}

SortedRun SetRddPartition::TakeSortedRun() {
  SortedRun run;
  run.packed = size() > 0 && PackInt64Pairs(&run.keys);
  if (!run.packed) {
    run.keys = {};
    // Move every row out of its hash node: no cell is copied, and each
    // node is freed as it goes.
    run.rows.reserve(size());
    while (!set_state_.empty()) {
      run.rows.push_back(
          std::move(set_state_.extract(set_state_.begin()).value()));
    }
    const int num_columns = schema_.num_columns();
    while (!agg_state_.empty()) {
      auto node = agg_state_.extract(agg_state_.begin());
      Row row(num_columns);
      for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
        row[spec_.key_columns[i]] = std::move(node.key()[i]);
      }
      row[spec_.agg_column] = std::move(node.mapped());
      run.rows.push_back(std::move(row));
    }
  }
  // Release the state (nodes and bucket arrays) before sorting, so the
  // sort's buffers never coexist with it.
  decltype(set_state_)().swap(set_state_);
  decltype(agg_state_)().swap(agg_state_);
  byte_size_ = 0;
  if (run.packed) {
    std::sort(run.keys.begin(), run.keys.end());
  } else {
    std::sort(run.rows.begin(), run.rows.end(), storage::RowLess());
  }
  return run;
}

SetRdd::SetRdd(storage::Schema schema, AggSpec spec, Partitioning partitioning)
    : partitioning_(std::move(partitioning)) {
  RASQL_CHECK(partitioning_.num_partitions > 0);
  partitions_.reserve(partitioning_.num_partitions);
  for (int p = 0; p < partitioning_.num_partitions; ++p) {
    partitions_.emplace_back(schema, spec);
  }
}

size_t SetRdd::TotalRows() const {
  size_t n = 0;
  for (const SetRddPartition& p : partitions_) n += p.size();
  return n;
}

size_t SetRdd::TotalBytes() const {
  size_t n = 0;
  for (const SetRddPartition& p : partitions_) n += p.byte_size();
  return n;
}

Relation SetRdd::Collect() const {
  Relation out;
  bool first = true;
  for (const SetRddPartition& p : partitions_) {
    Relation part = p.ToRelation();
    if (first) {
      out = std::move(part);
      first = false;
    } else {
      part.ForEachRow([&](const Row& row) { out.Add(row); });
    }
  }
  return out;
}

Relation SetRdd::TakeSorted(runtime::ThreadPool* pool) {
  const int P = num_partitions();
  std::vector<SortedRun> runs(P);
  auto drain = [&](int p) { runs[p] = partitions_[p].TakeSortedRun(); };
  if (pool != nullptr) {
    pool->ParallelFor(P, drain);
  } else {
    for (int p = 0; p < P; ++p) drain(p);
  }

  packed_runs_ = 0;
  bool all_packed = true;
  for (const SortedRun& run : runs) {
    if (run.size() == 0) continue;
    packed_runs_ += run.packed ? 1 : 0;
    all_packed = all_packed && run.packed;
  }
  std::vector<size_t> sizes(P);
  for (int p = 0; p < P; ++p) sizes[p] = runs[p].size();

  Relation out(partitions_[0].schema_);
  if (all_packed) {
    Row row(2);
    MergeRuns(
        sizes,
        [&](int a, size_t ia, int b, size_t ib) {
          return runs[a].keys[ia] < runs[b].keys[ib];
        },
        [&](int r, size_t i) {
          row[0] = Value::Int(High(runs[r].keys[i]));
          row[1] = Value::Int(Low(runs[r].keys[i]));
          out.AppendRow(row);
        });
    return out;
  }
  // Mixed runs: unpack the packed ones and merge Rows.
  for (SortedRun& run : runs) {
    if (!run.packed) continue;
    for (unsigned __int128 key : run.keys) {
      run.rows.push_back({Value::Int(High(key)), Value::Int(Low(key))});
    }
    run.keys = {};
    run.packed = false;
  }
  MergeRuns(
      sizes,
      [&](int a, size_t ia, int b, size_t ib) {
        return storage::RowLess()(runs[a].rows[ia], runs[b].rows[ib]);
      },
      [&](int r, size_t i) {
        out.AppendRow(runs[r].rows[i]);
        runs[r].rows[i] = Row();  // release as the merge goes
      });
  return out;
}

}  // namespace rasql::dist
