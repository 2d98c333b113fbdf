#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "common/rng.h"
#include "dist/aggregates.h"
#include "dist/broadcast.h"
#include "dist/cluster.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "dist/shuffle.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "storage/result_format.h"

namespace rasql::dist {

/// Reads which sort path SetRdd::TakeSorted took.
class SetRddTestPeer {
 public:
  static int packed_runs(const SetRdd& rdd) { return rdd.packed_runs_; }
};

namespace {

using expr::AggregateFunction;
using storage::MakeIntRelation;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

TEST(PartitionTest, RowsLandInOwnPartition) {
  Relation r = MakeIntRelation({"K", "V"},
                               {{1, 10}, {2, 20}, {3, 30}, {1, 11}, {2, 21}});
  PartitionedRelation pr = Partition(r, {0}, 4);
  EXPECT_EQ(pr.TotalRows(), 5u);
  for (int p = 0; p < 4; ++p) {
    pr.partition(p).ForEachRow([&](const Row& row) {
      EXPECT_EQ(pr.partitioning().PartitionOf(row), p);
    });
  }
}

TEST(PartitionTest, SameKeySamePartition) {
  Relation r = MakeIntRelation({"K", "V"}, {{7, 1}, {7, 2}, {7, 3}});
  PartitionedRelation pr = Partition(r, {0}, 8);
  int non_empty = 0;
  for (int p = 0; p < 8; ++p) non_empty += !pr.partition(p).empty();
  EXPECT_EQ(non_empty, 1);
}

TEST(PartitionTest, CollectRoundTrips) {
  Relation r = MakeIntRelation({"K", "V"}, {{1, 2}, {3, 4}, {5, 6}});
  PartitionedRelation pr = Partition(r, {0}, 3);
  EXPECT_TRUE(SameBag(r, pr.Collect()));
}

TEST(ShuffleWriteTest, RoutesByPartitioning) {
  Partitioning spec{{0}, 4};
  ShuffleWrite w(4);
  for (int64_t k = 0; k < 100; ++k) {
    w.Add({Value::Int(k), Value::Int(k * 2)}, spec);
  }
  size_t total_rows = 0;
  size_t total_bytes = 0;
  for (int p = 0; p < 4; ++p) {
    total_rows += w.slice_per_dest[p].size();
    total_bytes += w.bytes_per_dest[p];
    w.slice_per_dest[p].ForEachRow([&](const Row& row) {
      EXPECT_EQ(spec.PartitionOf(row), p);
    });
  }
  EXPECT_EQ(total_rows, 100u);
  EXPECT_EQ(total_bytes, 1600u);
}

TEST(ShuffleWriteTest, GatherCollectsFromAllWriters) {
  Partitioning spec{{0}, 2};
  std::vector<ShuffleWrite> writes(3, ShuffleWrite(2));
  for (int src = 0; src < 3; ++src) {
    writes[src].Add({Value::Int(src)}, spec);
  }
  size_t total = GatherShuffle(writes, 0).size() +
                 GatherShuffle(writes, 1).size();
  EXPECT_EQ(total, 3u);
}

StageSpec LocalStage(const std::string& name) {
  StageSpec spec;
  spec.name = name;
  return spec;
}

TEST(ClusterTest, StageAccounting) {
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 4;
  config.per_stage_overhead_sec = 0.5;
  config.per_task_overhead_sec = 0.0;
  Cluster cluster(config);
  cluster.RunStage(LocalStage("s1"), [](TaskContext&) {});
  EXPECT_EQ(cluster.metrics().num_stages(), 1);
  EXPECT_GE(cluster.metrics().TotalSimTime(), 0.5);
}

TEST(ClusterTest, PartitionAwareAvoidsStateFetch) {
  // With partition-aware scheduling the cached state is always local; with
  // the hybrid policy tasks move around and fetch it remotely.
  for (bool aware : {true, false}) {
    ClusterConfig config;
    config.num_workers = 4;
    config.num_partitions = 8;
    config.partition_aware_scheduling = aware;
    Cluster cluster(config);
    for (int stage = 0; stage < 3; ++stage) {
      cluster.RunStage(LocalStage("iter"), [](TaskContext& ctx) {
        ctx.ReportCachedState(1000);
      });
    }
    if (aware) {
      EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 0u);
    } else {
      EXPECT_GT(cluster.metrics().TotalRemoteBytes(), 0u);
    }
  }
}

TEST(ClusterTest, ShuffleBytesCrossWorkersOnly) {
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 2;
  Cluster cluster(config);
  // Map stage: partition 0 (worker 0) sends 100B to partition 1 and 50B to
  // itself; partition 1 (worker 1) sends nothing.
  StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = StageSpec::Kind::kShuffleMap;
  cluster.RunStage(map_spec, [](TaskContext& ctx) {
    ctx.ReportShuffleBytes(ctx.partition() == 0
                               ? std::vector<size_t>{50, 100}
                               : std::vector<size_t>{0, 0});
  });
  // Reduce stage: each partition consumes its shuffle slice.
  StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
  cluster.RunStage(reduce_spec, [](TaskContext&) {});
  // Only the 100B slice 0 -> 1 crosses workers.
  EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 100u);
  EXPECT_EQ(cluster.metrics().TotalShuffleBytes(), 150u);
}

TEST(ClusterTest, ResetMetricsRestartsStagePlacement) {
  // Regression: ResetMetrics used to leave stage_counter_ stale, so the
  // hybrid policy's (partition + stage) % workers rotation resumed mid-cycle
  // on a reused cluster and placed tasks differently from a fresh one.
  // Per-stage remote bytes expose this: at stage index 0 the rotation puts
  // every task on its owner worker (p % 3 == (p + 0) % 3), so cached-state
  // fetches are free; at a stale index 2 every fetch would cross the network.
  ClusterConfig config;
  config.num_workers = 3;
  config.num_partitions = 6;
  config.partition_aware_scheduling = false;  // hybrid rotation
  auto state_task = [](TaskContext& ctx) { ctx.ReportCachedState(1000); };
  Cluster cluster(config);
  cluster.RunStage(LocalStage("s"), state_task);
  cluster.RunStage(LocalStage("s"), state_task);
  const size_t fresh_stage0_remote = cluster.metrics().stages[0].remote_bytes;
  EXPECT_EQ(fresh_stage0_remote, 0u);

  cluster.ResetMetrics();
  cluster.RunStage(LocalStage("s"), state_task);
  EXPECT_EQ(cluster.metrics().num_stages(), 1);
  EXPECT_EQ(cluster.metrics().stages[0].remote_bytes, fresh_stage0_remote);
}

TEST(ClusterTest, ResetMetricsDropsPendingShuffle) {
  // A reset must also forget the previous job's map output: a consuming
  // stage on the reused cluster would otherwise pull stale shuffle slices
  // and charge phantom network traffic.
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 2;
  Cluster cluster(config);
  StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = StageSpec::Kind::kShuffleMap;
  cluster.RunStage(map_spec, [](TaskContext& ctx) {
    ctx.ReportShuffleBytes({50, 100});
  });
  cluster.ResetMetrics();
  StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
  cluster.RunStage(reduce_spec, [](TaskContext&) {});
  EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 0u);
}

TEST(ClusterTest, BroadcastChargesAllWorkers) {
  ClusterConfig config;
  config.num_workers = 4;
  config.network_bytes_per_sec = 1000.0;
  Cluster cluster(config);
  cluster.Broadcast(500);
  EXPECT_EQ(cluster.metrics().broadcast_bytes, 500u);
  EXPECT_DOUBLE_EQ(cluster.metrics().broadcast_time_sec, 2.0);
}

TEST(ClusterTest, MoreWorkersShrinkMakespan) {
  // Same measured work split over more workers => smaller simulated stage
  // time (this drives the Fig. 12 scaling bench).
  auto run = [](int workers) {
    ClusterConfig config;
    config.num_workers = workers;
    config.num_partitions = 16;
    config.per_stage_overhead_sec = 0.0;
    config.per_task_overhead_sec = 0.010;
    Cluster cluster(config);
    cluster.RunStage(LocalStage("s"), [](TaskContext&) {});
    return cluster.metrics().TotalSimTime();
  };
  EXPECT_GT(run(1), run(4));
  EXPECT_GT(run(4), run(16));
}

// ---- Slice readiness and the shuffle channel ----

TEST(SliceReadinessTest, PublishConsumeLifecycle) {
  SliceReadiness readiness(3);
  EXPECT_EQ(readiness.num_partitions(), 3);
  EXPECT_EQ(readiness.NumPublished(), 0);

  readiness.Publish(1);
  EXPECT_TRUE(readiness.Published(1));
  EXPECT_FALSE(readiness.Published(0));
  EXPECT_EQ(readiness.NumPublished(), 1);

  readiness.Publish(0);
  readiness.Publish(2);
  EXPECT_EQ(readiness.NumPublished(), 3);

  readiness.Reset(3);
  EXPECT_EQ(readiness.NumPublished(), 0);
  EXPECT_FALSE(readiness.Published(1));
}

TEST(ShuffleChannelTest, GatherSeesOnlyPublishedSlices) {
  // Producers 0 and 2 publish; producer 1 has deposited but not published.
  // A consumer must observe exactly the published rows — never a slice
  // whose producing task has not completed.
  const Partitioning spec{{0}, 2};
  ShuffleChannel channel(3);
  for (int src = 0; src < 3; ++src) {
    ShuffleWrite write(2);
    write.Add({Value::Int(src * 2)}, spec);      // even -> partition of 0
    write.Add({Value::Int(src * 2 + 1)}, spec);  // odd
    channel.Put(src, std::move(write));
  }
  channel.Publish(0);
  channel.Publish(2);

  std::set<int64_t> seen;
  for (const Row& row : channel.Gather(0)) seen.insert(row[0].AsInt());
  for (const Row& row : channel.Gather(1)) seen.insert(row[0].AsInt());
  // Producer 1's rows {2, 3} stay invisible.
  EXPECT_EQ(seen, (std::set<int64_t>{0, 1, 4, 5}));

  channel.Publish(1);
  EXPECT_EQ(channel.TotalRows(), 6u);

  channel.Reset();
  EXPECT_EQ(channel.TotalRows(), 0u);
  EXPECT_EQ(channel.readiness().NumPublished(), 0);
}

TEST(ShuffleChannelTest, RowsRouteThroughChannel) {
  // End to end through a map stage and the reduce stage after it: map
  // tasks route real rows, reduce tasks gather exactly the rows addressed
  // to their partition.
  for (int threads : {1, 4}) {
    runtime::RuntimeOptions opts;
    opts.num_threads = threads;
    ClusterConfig config;
    config.num_workers = 2;
    config.num_partitions = 4;
    Cluster cluster(config, opts);
    const Partitioning spec{{0}, 4};

    ShuffleChannel channel(4);
    StageSpec map_spec;
    map_spec.name = "map";
    map_spec.kind = StageSpec::Kind::kShuffleMap;
    map_spec.output_slices = &channel;
    StageSpec reduce_spec;
    reduce_spec.name = "reduce";
    reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
    reduce_spec.input_slices = &channel;

    std::vector<std::vector<int64_t>> received(4);
    cluster.RunStage(map_spec, [&](TaskContext& ctx) {
      // Task p emits the keys p*10 .. p*10+9.
      ShuffleWrite write(4);
      for (int64_t k = 0; k < 10; ++k) {
        write.Add({Value::Int(ctx.partition() * 10 + k)}, spec);
      }
      ctx.WriteShuffle(std::move(write));
    });
    cluster.RunStage(reduce_spec, [&](TaskContext& ctx) {
      for (const Row& row : ctx.ReadShuffle()) {
        received[ctx.partition()].push_back(row[0].AsInt());
      }
    });

    size_t total = 0;
    for (int p = 0; p < 4; ++p) {
      for (int64_t k : received[p]) {
        EXPECT_EQ(spec.PartitionOf({Value::Int(k)}), p)
            << "threads=" << threads;
      }
      total += received[p].size();
    }
    EXPECT_EQ(total, 40u) << "threads=" << threads;
    EXPECT_EQ(cluster.metrics().num_stages(), 2);
  }
}

TEST(ClusterTest, SplitStageMatchesUnsplitStage) {
  // Partitions 0 and 3 ask for no split; the others are cut into 1 to 5
  // sub-tasks. Sub-task (p, j) fills slot (p, j); partition p's finalize
  // task routes one row per slot. The unsplit stage computes the same rows
  // in one task per partition. Every finalize must see all of its slots in
  // split order, and the modeled metrics must equal the unsplit stage's.
  const std::vector<int> nsplits = {0, 3, 1, 0, 5, 2};
  const int P = static_cast<int>(nsplits.size());
  const int S = 11;
  const Partitioning spec{{0}, P};
  auto slot_value = [](int p, int j) { return int64_t{p} * 100 + j; };

  struct Run {
    JobMetrics metrics;
    std::vector<std::vector<int64_t>> seen;  ///< slots each finalize saw
  };
  auto run = [&](bool split, int threads) {
    runtime::RuntimeOptions opts;
    opts.num_threads = threads;
    ClusterConfig config;
    config.num_workers = 3;
    config.num_partitions = P;
    // Hybrid placement, so cached state and shuffle slices cross workers.
    config.partition_aware_scheduling = false;
    Cluster cluster(config, opts);
    ShuffleChannel channel(P);
    StageSpec map_spec;
    map_spec.name = "map";
    map_spec.kind = StageSpec::Kind::kShuffleMap;
    map_spec.output_slices = &channel;

    std::vector<std::vector<int64_t>> slots(P);
    for (int p = 0; p < P; ++p) slots[p].assign(nsplits[p], -1);
    Run out;
    out.seen.resize(P);
    auto finalize = [&](TaskContext& ctx) {
      const int p = ctx.partition();
      EXPECT_FALSE(ctx.is_split_task());
      if (!split) {
        for (int j = 0; j < nsplits[p]; ++j) slots[p][j] = slot_value(p, j);
      }
      out.seen[p] = slots[p];
      ctx.ReportCachedState(64 * (p + 1));
      ShuffleWrite write(P);
      for (int64_t v : slots[p]) write.Add({Value::Int(v)}, spec);
      ctx.WriteShuffle(std::move(write));
    };
    if (split) {
      map_spec.split_tasks = [&](int p) { return nsplits[p]; };
      cluster.RunStage(
          map_spec,
          [&](TaskContext& ctx) {
            const int p = ctx.partition();
            EXPECT_EQ(ctx.num_splits(), nsplits[p]);
            slots[p][ctx.split_index()] = slot_value(p, ctx.split_index());
          },
          finalize);
    } else {
      cluster.RunStage(map_spec, finalize);
    }
    StageSpec reduce_spec;
    reduce_spec.name = "reduce";
    reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
    reduce_spec.input_slices = &channel;
    cluster.RunStage(reduce_spec,
                     [](TaskContext& ctx) { (void)ctx.ReadShuffle(); });
    out.metrics = cluster.metrics();
    return out;
  };

  const Run base = run(/*split=*/false, 1);
  EXPECT_EQ(base.metrics.stages[0].num_exec_tasks, P);
  EXPECT_EQ(base.metrics.stages[0].max_partition_splits, 1);
  for (int threads : {1, 8}) {
    const Run got = run(/*split=*/true, threads);
    for (int p = 0; p < P; ++p) {
      std::vector<int64_t> expected;
      for (int j = 0; j < nsplits[p]; ++j) expected.push_back(slot_value(p, j));
      EXPECT_EQ(got.seen[p], expected)
          << "partition " << p << " threads=" << threads;
    }
    ASSERT_EQ(got.metrics.num_stages(), 2);
    for (int s = 0; s < 2; ++s) {
      const StageMetrics& a = base.metrics.stages[s];
      const StageMetrics& b = got.metrics.stages[s];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.num_tasks, b.num_tasks);
      EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes)
          << "stage " << s << " threads=" << threads;
      EXPECT_EQ(a.remote_bytes, b.remote_bytes)
          << "stage " << s << " threads=" << threads;
    }
    EXPECT_GT(got.metrics.stages[1].remote_bytes, 0u);
    EXPECT_EQ(got.metrics.stages[0].num_exec_tasks, S + P);
    EXPECT_EQ(got.metrics.stages[0].max_partition_splits, 5);
    EXPECT_EQ(got.metrics.stages[1].num_exec_tasks, P);
  }
}

TEST(BroadcastTest, EncodeDecodeRoundTrip) {
  Relation r = MakeIntRelation({"Src", "Dst"},
                               {{1, 2}, {2, 3}, {100000, 5}, {-7, 8}});
  auto decoded = DecodeRelation(EncodeRelation(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(SameBag(r, *decoded));
  EXPECT_TRUE(r.schema() == decoded->schema());
}

TEST(BroadcastTest, RoundTripMixedTypes) {
  Relation r{Schema::Of({{"Name", ValueType::kString},
                         {"Score", ValueType::kDouble}})};
  r.Add({Value::String("alpha"), Value::Double(1.5)});
  r.Add({Value::String(""), Value::Double(-2.25)});
  auto decoded = DecodeRelation(EncodeRelation(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(SameBag(r, *decoded));
}

TEST(BroadcastTest, CompressionShrinksIntRelations) {
  // Sequential-ish ids delta-encode to ~1-2 bytes instead of 8.
  Relation r{Schema::Of({{"Src", ValueType::kInt64},
                         {"Dst", ValueType::kInt64}})};
  for (int64_t i = 0; i < 10000; ++i) {
    r.Add({Value::Int(i), Value::Int(i + 3)});
  }
  const size_t compressed = EncodeRelation(r).size();
  const size_t raw = UncompressedWireSize(r);
  EXPECT_LT(compressed * 3, raw);  // at least 3x smaller
}

TEST(BroadcastTest, CorruptPayloadFailsGracefully) {
  Relation r = MakeIntRelation({"A"}, {{1}, {2}});
  std::vector<uint8_t> bytes = EncodeRelation(r);
  bytes.resize(bytes.size() / 2);  // truncate
  EXPECT_FALSE(DecodeRelation(bytes).ok());
  EXPECT_FALSE(DecodeRelation({0xff, 0xff, 0xff}).ok());
}

TEST(BroadcastTest, HashedRelationLargerThanRaw) {
  Relation r = MakeIntRelation({"A", "B"}, {{1, 2}, {3, 4}});
  EXPECT_GT(HashedRelationSize(r), UncompressedWireSize(r));
}

TEST(AggregatesTest, CombineSemantics) {
  EXPECT_EQ(CombineAgg(AggregateFunction::kMin, Value::Int(3), Value::Int(5))
                .AsInt(),
            3);
  EXPECT_EQ(CombineAgg(AggregateFunction::kMax, Value::Int(3), Value::Int(5))
                .AsInt(),
            5);
  EXPECT_EQ(CombineAgg(AggregateFunction::kSum, Value::Int(3), Value::Int(5))
                .AsInt(),
            8);
  EXPECT_DOUBLE_EQ(CombineAgg(AggregateFunction::kSum, Value::Double(1.5),
                              Value::Int(2))
                       .AsNumeric(),
                   3.5);
}

TEST(AggregatesTest, ImprovesOnlyStrictly) {
  EXPECT_TRUE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                          Value::Int(4)));
  EXPECT_FALSE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                           Value::Int(5)));
  EXPECT_FALSE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                           Value::Int(6)));
  EXPECT_TRUE(ImprovesAgg(AggregateFunction::kMax, Value::Int(5),
                          Value::Int(6)));
}

TEST(AggregatesTest, PartialAggregateGroups) {
  AggSpec spec = AggSpec::For(2, 1, AggregateFunction::kMin);
  std::vector<Row> rows = {{Value::Int(1), Value::Int(9)},
                           {Value::Int(1), Value::Int(4)},
                           {Value::Int(2), Value::Int(7)}};
  std::vector<Row> out = PartialAggregate(rows, spec);
  ASSERT_EQ(out.size(), 2u);
  std::set<std::pair<int64_t, int64_t>> got;
  for (const Row& r : out) got.insert({r[0].AsInt(), r[1].AsInt()});
  EXPECT_TRUE(got.count({1, 4}));
  EXPECT_TRUE(got.count({2, 7}));
}

TEST(AggregatesTest, PartialAggregateSetDedups) {
  AggSpec spec = AggSpec::For(1, -1, AggregateFunction::kNone);
  std::vector<Row> rows = {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}};
  EXPECT_EQ(PartialAggregate(rows, spec).size(), 2u);
}

TEST(SetRddTest, SetSemanticsDelta) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(1, -1, AggregateFunction::kNone));
  std::vector<Row> delta;
  part.MergeDelta({{Value::Int(1)}, {Value::Int(2)}}, &delta);
  EXPECT_EQ(delta.size(), 2u);
  delta.clear();
  part.MergeDelta({{Value::Int(2)}, {Value::Int(3)}}, &delta);
  EXPECT_EQ(delta.size(), 1u);  // only the new 3
  EXPECT_EQ(part.size(), 3u);
}

TEST(SetRddTest, MinAggregateDelta) {
  Schema schema = Schema::Of({{"Dst", ValueType::kInt64},
                              {"Cost", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(2, 1, AggregateFunction::kMin));
  std::vector<Row> delta;
  part.MergeDelta({{Value::Int(7), Value::Int(10)}}, &delta);
  ASSERT_EQ(delta.size(), 1u);
  delta.clear();
  // Worse value: discarded.
  part.MergeDelta({{Value::Int(7), Value::Int(12)}}, &delta);
  EXPECT_TRUE(delta.empty());
  // Better value: becomes the new state and enters the delta.
  part.MergeDelta({{Value::Int(7), Value::Int(5)}}, &delta);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0][1].AsInt(), 5);
  Relation state = part.ToRelation();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state.row(0)[1].AsInt(), 5);
}

TEST(SetRddTest, SumAggregateAccumulatesIncrements) {
  Schema schema = Schema::Of({{"Dst", ValueType::kInt64},
                              {"Cnt", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(2, 1, AggregateFunction::kSum));
  std::vector<Row> delta;
  part.MergeDelta({{Value::Int(1), Value::Int(2)}}, &delta);
  part.MergeDelta({{Value::Int(1), Value::Int(3)}}, &delta);
  // State accumulates 2+3; deltas carry the increments 2 then 3.
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0][1].AsInt(), 2);
  EXPECT_EQ(delta[1][1].AsInt(), 3);
  Relation state = part.ToRelation();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state.row(0)[1].AsInt(), 5);
}

TEST(SetRddTest, ByteSizeGrowsWithState) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(1, -1, AggregateFunction::kNone));
  std::vector<Row> delta;
  EXPECT_EQ(part.byte_size(), 0u);
  part.MergeDelta({{Value::Int(1)}}, &delta);
  EXPECT_GT(part.byte_size(), 0u);
}

TEST(SetRddTest, CollectAcrossPartitions) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRdd rdd(schema, AggSpec::For(1, -1, AggregateFunction::kNone),
             Partitioning{{0}, 4});
  std::vector<Row> delta;
  for (int64_t x = 0; x < 20; ++x) {
    Row row = {Value::Int(x)};
    const int p = rdd.partitioning().PartitionOf(row);
    rdd.partition(p)->MergeDelta({row}, &delta);
  }
  EXPECT_EQ(rdd.TotalRows(), 20u);
  EXPECT_EQ(rdd.Collect().size(), 20u);
}

// ---- SetRdd::TakeSorted: the canonical parallel collect. ----

/// Which cells a random state holds: only non-null int64s (two-column
/// states take the packed sort), or a mix of int64, double, string and
/// NULL drawn from a small domain so that int 1 and double 1.0 meet in one
/// column.
enum class CellMix { kInt64, kMixed };

Value RandomCell(common::Rng* rng, CellMix mix) {
  if (mix == CellMix::kInt64) {
    // Mostly small values (duplicates, neighbours), sometimes the extremes
    // that a signed/unsigned packing mistake would misorder.
    switch (rng->NextBounded(8)) {
      case 0:
        return Value::Int(std::numeric_limits<int64_t>::min());
      case 1:
        return Value::Int(std::numeric_limits<int64_t>::max());
      default:
        return Value::Int(rng->NextInRange(-6, 6));
    }
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return Value::Int(rng->NextInRange(0, 3));
    case 1:
      return Value::Double(0.5 * static_cast<double>(rng->NextInRange(0, 6)));
    case 2:
      return Value::String(std::string(1, static_cast<char>(
                                              'a' + rng->NextBounded(3))));
    default:
      return Value::Null();
  }
}

/// Aggregate values the spec can combine: sum/count need numbers.
Value RandomAggValue(common::Rng* rng, AggregateFunction fn, CellMix mix) {
  if (fn == AggregateFunction::kCount) return Value::Int(rng->NextInRange(1, 3));
  if (fn == AggregateFunction::kSum) {
    if (mix == CellMix::kMixed && rng->NextBounded(2) == 0) {
      return Value::Double(0.5 * static_cast<double>(rng->NextInRange(-4, 4)));
    }
    return Value::Int(rng->NextInRange(-4, 4));
  }
  return RandomCell(rng, mix);
}

/// A state built by merging `rows` into each row's home partition, in
/// order — two calls with the same rows give identical states.
std::unique_ptr<SetRdd> BuildRdd(const Schema& schema, const AggSpec& spec,
                                 int num_partitions,
                                 const std::vector<Row>& rows) {
  auto rdd = std::make_unique<SetRdd>(
      schema, spec, Partitioning{spec.key_columns, num_partitions});
  std::vector<Row> delta;
  for (const Row& row : rows) {
    rdd->partition(rdd->partitioning().PartitionOf(row))
        ->MergeDelta(std::vector<Row>{row}, &delta);
  }
  return rdd;
}

/// True when the partition's state is two-column rows of non-null int64s.
bool PackableInt64Pairs(const SetRddPartition& part) {
  bool all = true;
  part.ToRelation().ForEachRow([&](const Row& row) {
    all = all && row.size() == 2;
    for (const Value& v : row) all = all && v.type() == ValueType::kInt64;
  });
  return all;
}

/// Checks TakeSorted against Collect() + SortRows() on a twin state:
/// byte-identical CSV and footprint, the packed sort taken by exactly the
/// non-empty two-column all-int64 partitions, and the drained state left
/// empty.
void ExpectSortedCollectMatches(const Schema& schema, const AggSpec& spec,
                                int num_partitions,
                                const std::vector<Row>& rows,
                                runtime::ThreadPool* pool) {
  std::unique_ptr<SetRdd> oracle = BuildRdd(schema, spec, num_partitions, rows);
  std::unique_ptr<SetRdd> rdd = BuildRdd(schema, spec, num_partitions, rows);
  int want_packed = 0;
  for (int p = 0; p < num_partitions; ++p) {
    const SetRddPartition& part = *oracle->partition(p);
    if (part.size() > 0 && PackableInt64Pairs(part)) ++want_packed;
  }
  Relation want = oracle->Collect();
  want.SortRows();

  Relation got = rdd->TakeSorted(pool);
  EXPECT_EQ(storage::FormatRelation(got, storage::ResultFormat::kCsv),
            storage::FormatRelation(want, storage::ResultFormat::kCsv));
  EXPECT_TRUE(SameRows(got, want));
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  EXPECT_EQ(SetRddTestPeer::packed_runs(*rdd), want_packed);
  EXPECT_EQ(rdd->TotalRows(), 0u);
  EXPECT_EQ(rdd->TotalBytes(), 0u);
}

Schema SortedCollectSchema(int width) {
  std::vector<storage::Column> cols;
  for (int c = 0; c < width; ++c) {
    cols.push_back({"C" + std::to_string(c), ValueType::kInt64});
  }
  return Schema(std::move(cols));
}

TEST(SetRddTest, SortedCollectMatchesCollectThenSort) {
  const AggregateFunction kFns[] = {
      AggregateFunction::kNone, AggregateFunction::kMin,
      AggregateFunction::kMax, AggregateFunction::kSum,
      AggregateFunction::kCount};
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools;
  for (int threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<runtime::ThreadPool>(threads));
  }
  uint64_t seed = 1;
  for (AggregateFunction fn : kFns) {
    for (int width : {1, 2, 3}) {
      if (fn != AggregateFunction::kNone && width == 1) continue;
      const AggSpec spec = AggSpec::For(
          width, fn == AggregateFunction::kNone ? -1 : width - 1, fn);
      const Schema schema = SortedCollectSchema(width);
      for (CellMix mix : {CellMix::kInt64, CellMix::kMixed}) {
        for (int num_partitions : {1, 3, 30}) {
          for (const auto& pool : pools) {
            common::Rng rng(seed++);
            // Few rows against 30 partitions leaves most of them empty.
            const size_t num_rows = 1 + rng.NextBounded(
                                            num_partitions == 30 ? 40 : 400);
            std::vector<Row> rows;
            for (size_t i = 0; i < num_rows; ++i) {
              Row row;
              for (int c = 0; c < width; ++c) {
                row.push_back(c == spec.agg_column
                                  ? RandomAggValue(&rng, fn, mix)
                                  : RandomCell(&rng, mix));
              }
              rows.push_back(std::move(row));
            }
            SCOPED_TRACE("fn=" + std::to_string(static_cast<int>(fn)) +
                         " width=" + std::to_string(width) + " mixed=" +
                         std::to_string(mix == CellMix::kMixed) +
                         " P=" + std::to_string(num_partitions) +
                         " threads=" + std::to_string(pool->num_threads()));
            ExpectSortedCollectMatches(schema, spec, num_partitions, rows,
                                       pool.get());
          }
        }
      }
    }
  }
}

TEST(SetRddTest, SortedCollectPackedExactlyWhenAllInt64Pairs) {
  const Schema schema = SortedCollectSchema(2);
  const AggSpec set_spec = AggSpec::For(2, -1, AggregateFunction::kNone);
  runtime::ThreadPool pool(2);
  std::vector<Row> ints;
  for (int64_t i = 0; i < 64; ++i) {
    ints.push_back({Value::Int(i % 7), Value::Int(-i)});
  }
  // All int64: every non-empty partition sorts packed keys.
  ExpectSortedCollectMatches(schema, set_spec, 3, ints, &pool);
  auto rdd = BuildRdd(schema, set_spec, 1, ints);
  rdd->TakeSorted(&pool);
  EXPECT_EQ(SetRddTestPeer::packed_runs(*rdd), 1);

  // One NULL, one double 1.0 next to int 1, one string: only the
  // partitions holding them fall back to RowLess.
  for (const Value& odd : {Value::Null(), Value::Double(1.0),
                           Value::String("x")}) {
    std::vector<Row> rows = ints;
    rows.push_back({Value::Int(1), odd});
    ExpectSortedCollectMatches(schema, set_spec, 3, rows, &pool);
    rdd = BuildRdd(schema, set_spec, 1, rows);
    rdd->TakeSorted(&pool);
    EXPECT_EQ(SetRddTestPeer::packed_runs(*rdd), 0);
  }

  // Aggregates: an int64 min value stays packed, a double one does not.
  const AggSpec min_spec = AggSpec::For(2, 1, AggregateFunction::kMin);
  rdd = BuildRdd(schema, min_spec, 1, ints);
  rdd->TakeSorted(nullptr);
  EXPECT_EQ(SetRddTestPeer::packed_runs(*rdd), 1);
  std::vector<Row> costs = {{Value::Int(1), Value::Double(2.5)},
                            {Value::Int(2), Value::Int(3)}};
  ExpectSortedCollectMatches(schema, min_spec, 1, costs, nullptr);

  // Other widths always sort Rows.
  for (int width : {1, 3}) {
    std::vector<Row> wide;
    for (int64_t i = 0; i < 16; ++i) wide.push_back(Row(width, Value::Int(i)));
    rdd = BuildRdd(SortedCollectSchema(width),
                   AggSpec::For(width, -1, AggregateFunction::kNone), 1, wide);
    rdd->TakeSorted(nullptr);
    EXPECT_EQ(SetRddTestPeer::packed_runs(*rdd), 0);
  }
}

TEST(SetRddTest, SortedCollectOfEmptyStateKeepsSchema) {
  const Schema schema = SortedCollectSchema(2);
  for (int num_partitions : {1, 3, 30}) {
    SetRdd rdd(schema, AggSpec::For(2, -1, AggregateFunction::kNone),
               Partitioning{{0, 1}, num_partitions});
    Relation got = rdd.TakeSorted(nullptr);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(got.schema().num_columns(), 2);
  }
}

}  // namespace
}  // namespace rasql::dist
