#include "dist/cluster.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace rasql::dist {

// StageSpec::Kind maps onto verify::StageKind by value; keep the two enums
// in lockstep.
static_assert(static_cast<int>(StageSpec::Kind::kLocal) ==
              static_cast<int>(verify::StageKind::kLocal));
static_assert(static_cast<int>(StageSpec::Kind::kShuffleMap) ==
              static_cast<int>(verify::StageKind::kShuffleMap));
static_assert(static_cast<int>(StageSpec::Kind::kShuffleReduce) ==
              static_cast<int>(verify::StageKind::kShuffleReduce));
static_assert(static_cast<int>(StageSpec::Kind::kCombined) ==
              static_cast<int>(verify::StageKind::kCombined));

double JobMetrics::TotalSimTime() const {
  double t = broadcast_time_sec;
  for (const StageMetrics& s : stages) t += s.sim_time_sec;
  return t;
}

double JobMetrics::TotalComputeTime() const {
  double t = 0;
  for (const StageMetrics& s : stages) t += s.total_compute_sec;
  return t;
}

size_t JobMetrics::TotalShuffleBytes() const {
  size_t n = 0;
  for (const StageMetrics& s : stages) n += s.shuffle_bytes;
  return n;
}

size_t JobMetrics::TotalRemoteBytes() const {
  size_t n = 0;
  for (const StageMetrics& s : stages) n += s.remote_bytes;
  return n;
}

std::string JobMetrics::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stages=%d sim_time=%.3fs compute=%.3fs shuffle=%.1fMB "
                "remote=%.1fMB broadcast=%.1fMB",
                num_stages(), TotalSimTime(), TotalComputeTime(),
                TotalShuffleBytes() / 1e6, TotalRemoteBytes() / 1e6,
                broadcast_bytes / 1e6);
  return buf;
}

std::vector<storage::Row> TaskContext::ReadShuffle() {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->input_slices != nullptr);
  return spec_->input_slices->Gather(partition_);
}

void TaskContext::WriteShuffle(ShuffleWrite write) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->output_slices != nullptr);
  io_.shuffle_out_bytes = write.bytes_per_dest;
  spec_->output_slices->Put(partition_, std::move(write));
}

void TaskContext::ReportShuffleBytes(std::vector<size_t> bytes_per_dest) {
  RASQL_CHECK(!is_split_task());
  io_.shuffle_out_bytes = std::move(bytes_per_dest);
}

void TaskContext::ReportCachedState(size_t bytes) {
  RASQL_CHECK(!is_split_task());
  io_.cached_state_bytes += bytes;
}

void TaskContext::Count(size_t n) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->counter != nullptr);
  spec_->counter->Add(partition_, n);
}

void TaskContext::Fail(common::Status status) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->status != nullptr);
  spec_->status->Fail(partition_, std::move(status));
}

bool TaskContext::aborted() const {
  return spec_->status != nullptr && spec_->status->aborted();
}

int Cluster::PlaceTask(int partition, int stage_index) const {
  if (config_.partition_aware_scheduling) {
    return config_.OwnerOf(partition);
  }
  // Hybrid policy: the driver balances load over workers without regard to
  // cached-state locality; the deterministic stage-dependent rotation
  // reproduces Spark's behaviour of re-placing tasks differently in each
  // stage (paper Sec. 6.1, "unnecessary remote data fetches").
  return (partition + stage_index) % config_.num_workers;
}

StageMetrics& Cluster::AccountStage(
    const std::string& name, std::vector<TaskIo>* ios,
    const std::vector<double>& task_seconds) {
  const int stage_index = stage_counter_++;
  StageMetrics stage;
  stage.name = name;
  stage.num_tasks = config_.num_partitions;
  stage.num_exec_tasks = config_.num_partitions;

  // Cost-model pass, after the barrier, in ascending partition order: the
  // simulated placement and network charges depend only on the per-task
  // reports, never on execution order, so the modeled stage is identical
  // for every thread count.
  std::vector<double> worker_busy(config_.num_workers, 0.0);
  std::vector<int> producer_worker(config_.num_partitions, 0);
  std::vector<std::vector<size_t>> shuffle_bytes(config_.num_partitions);
  bool stage_shuffles = false;

  for (int p = 0; p < config_.num_partitions; ++p) {
    const int worker = PlaceTask(p, stage_index);
    producer_worker[p] = worker;

    TaskIo& io = (*ios)[p];
    const double compute = task_seconds[p] * config_.compute_scale;

    // Remote bytes this task must pull before/while computing.
    size_t remote = 0;
    if (worker != config_.OwnerOf(p)) remote += io.cached_state_bytes;
    if (io.consumes_shuffle && !last_shuffle_bytes_.empty()) {
      // Pull this partition's slice of every producer's map output; slices
      // produced on another worker cross the network.
      for (size_t src = 0; src < last_shuffle_bytes_.size(); ++src) {
        const auto& out = last_shuffle_bytes_[src];
        if (p < static_cast<int>(out.size()) &&
            last_shuffle_producer_worker_[src] != worker) {
          remote += out[p];
        }
      }
    }
    if (!io.shuffle_out_bytes.empty()) {
      stage_shuffles = true;
      size_t out_total = 0;
      for (size_t b : io.shuffle_out_bytes) out_total += b;
      stage.shuffle_bytes += out_total;
      shuffle_bytes[p] = std::move(io.shuffle_out_bytes);
    }

    const double task_time = compute + config_.per_task_overhead_sec +
                             static_cast<double>(remote) /
                                 config_.network_bytes_per_sec;
    worker_busy[worker] += task_time;
    stage.total_compute_sec += compute;
    stage.remote_bytes += remote;
  }

  stage.max_worker_compute_sec =
      *std::max_element(worker_busy.begin(), worker_busy.end());
  stage.sim_time_sec =
      config_.per_stage_overhead_sec + stage.max_worker_compute_sec;

  if (stage_shuffles) {
    last_shuffle_producer_worker_ = std::move(producer_worker);
    last_shuffle_bytes_ = std::move(shuffle_bytes);
  } else {
    last_shuffle_producer_worker_.clear();
    last_shuffle_bytes_.clear();
  }

  metrics_.stages.push_back(std::move(stage));
  return metrics_.stages.back();
}

int Cluster::VerifyChannelId(const ShuffleChannel* channel,
                             const std::string& hint) {
  auto [it, inserted] = verify_channel_ids_.emplace(
      channel, static_cast<int>(verify_graph_.channels.size()));
  if (inserted) verify_graph_.AddChannel(hint);
  return it->second;
}

void Cluster::VerifySubmission(const StageSpec& spec) {
  verify::StageNode& node = verify_graph_.AddStage(
      spec.name, static_cast<verify::StageKind>(spec.kind));
  node.split = static_cast<bool>(spec.split_tasks);
  if (spec.input_slices != nullptr) {
    node.input_channel =
        VerifyChannelId(spec.input_slices, spec.name + ".in");
  }
  if (spec.output_slices != nullptr) {
    node.output_channel =
        VerifyChannelId(spec.output_slices, spec.name + ".out");
  }
  if (spec.counter != nullptr) {
    auto [it, inserted] = verify_counter_ids_.emplace(
        spec.counter, static_cast<int>(verify_graph_.counters.size()));
    if (inserted) verify_graph_.AddCounter(spec.name + ".counter");
    node.counter = it->second;
  }
  if (spec.status != nullptr) {
    auto [it, inserted] = verify_status_ids_.emplace(
        spec.status, static_cast<int>(verify_graph_.statuses.size()));
    if (inserted) verify_graph_.AddStatus(spec.name + ".status");
    node.status = it->second;
  }
  for (const StageSpec::ResourceClaim& claim : spec.claims) {
    auto [it, inserted] = verify_resource_ids_.emplace(
        claim.resource, static_cast<int>(verify_graph_.resources.size()));
    if (inserted) verify_graph_.AddResource(claim.name);
    node.claims.push_back({it->second, claim.mode});
  }
  // The simulation cannot see driver-side ShuffleChannel::Reset() calls
  // (or channels recycled across jobs); the real readiness flags can.
  // Snapshot them so the lifecycle checks run against reality.
  if (spec.input_slices != nullptr) {
    verifier_->SetLivePublished(
        node.input_channel, spec.input_slices->readiness().NumPublished());
  }
  if (spec.output_slices != nullptr) {
    verifier_->SetLivePublished(
        node.output_channel, spec.output_slices->readiness().NumPublished());
  }
  const size_t before = verify_diagnostics_.diagnostics().size();
  verifier_->VerifyPending(&verify_diagnostics_);
  bool stage_graph_contracts_hold = true;
  for (size_t i = before; i < verify_diagnostics_.diagnostics().size(); ++i) {
    const lint::Diagnostic& d = verify_diagnostics_.diagnostics()[i];
    if (d.severity == lint::Severity::kError) {
      stage_graph_contracts_hold = false;
      std::fprintf(stderr, "%s\n", d.ToString().c_str());
    }
  }
  // Malformed orchestration is a programmer error, caught before any task
  // of the stage has run.
  RASQL_CHECK(stage_graph_contracts_hold);
}

const StageMetrics& Cluster::RunStage(const StageSpec& spec,
                                      const StageTask& task) {
  if (verify_enabled_) VerifySubmission(spec);
  std::vector<TaskIo> ios;
  std::vector<double> task_seconds;
  RunPartitionTasks(spec, task, &ios, &task_seconds);
  return AccountStage(spec.name, &ios, task_seconds);
}

void Cluster::RunPartitionTasks(const StageSpec& spec, const StageTask& task,
                                std::vector<TaskIo>* ios,
                                std::vector<double>* task_seconds) {
  const std::function<TaskIo(int)> run = [&](int p) {
    TaskContext ctx(&spec, p, config_.num_partitions);
    task(ctx);
    // Publish after the body so a consumer that sees the slice also sees
    // its rows (release/acquire pair in SliceReadiness).
    if (spec.output_slices != nullptr) spec.output_slices->Publish(p);
    return std::move(ctx.io_);
  };
  executor_.Map<TaskIo>(config_.num_partitions, run, ios, task_seconds);
}

const StageMetrics& Cluster::RunStage(const StageSpec& spec,
                                      const StageTask& split_task,
                                      const StageTask& main_task) {
  const int P = config_.num_partitions;
  // Flatten the requested sub-tasks: partition p owns the contiguous id
  // range [split_begin[p], split_begin[p + 1]) of split tasks.
  std::vector<int> nsplits(P, 0);
  std::vector<int> split_begin(P + 1, 0);
  std::vector<int> split_partition;
  int max_splits = 1;
  for (int p = 0; p < P; ++p) {
    split_begin[p] = static_cast<int>(split_partition.size());
    if (spec.split_tasks) nsplits[p] = std::max(0, spec.split_tasks(p));
    split_partition.insert(split_partition.end(), nsplits[p], p);
    max_splits = std::max(max_splits, nsplits[p]);
  }
  const int S = static_cast<int>(split_partition.size());
  split_begin[P] = S;
  if (S == 0) return RunStage(spec, main_task);
  if (verify_enabled_) VerifySubmission(spec);

  // Wave 1: every partition's sub-tasks, stolen freely across partitions.
  // Their reports stay empty (sub-tasks may not report); only their
  // measured seconds are kept.
  std::vector<TaskIo> split_ios;
  std::vector<double> split_seconds;
  const std::function<TaskIo(int)> run_split = [&](int i) {
    const int p = split_partition[i];
    TaskContext ctx(&spec, p, P, /*split_index=*/i - split_begin[p],
                    /*num_splits=*/nsplits[p]);
    split_task(ctx);
    return std::move(ctx.io_);
  };
  executor_.Map<TaskIo>(S, run_split, &split_ios, &split_seconds);

  // Wave 2: one finalize task per partition, the only reporting task. The
  // cost model therefore sees exactly what an unsplit stage would report,
  // with the partition's sub-task seconds folded into its measured time —
  // modeled byte counts and task counts are split-invariant.
  std::vector<TaskIo> ios;
  std::vector<double> task_seconds;
  RunPartitionTasks(spec, main_task, &ios, &task_seconds);
  for (int i = 0; i < S; ++i) {
    task_seconds[split_partition[i]] += split_seconds[i];
  }
  StageMetrics& stage = AccountStage(spec.name, &ios, task_seconds);
  stage.num_exec_tasks = S + P;
  stage.max_partition_splits = max_splits;
  return stage;
}

void Cluster::Broadcast(size_t bytes) {
  metrics_.broadcast_bytes += bytes;
  // The driver streams the payload to every worker (Spark's torrent
  // broadcast amortizes this; we charge the simple star topology, which is
  // what the paper's "broadcasting a large relation takes time" refers to).
  metrics_.broadcast_time_sec += static_cast<double>(bytes) *
                                 config_.num_workers /
                                 config_.network_bytes_per_sec;
}

void Cluster::ChargeDriverCompute(double seconds) {
  metrics_.broadcast_time_sec += seconds;
}

}  // namespace rasql::dist
