#ifndef RASQL_VERIFY_STAGE_GRAPH_H_
#define RASQL_VERIFY_STAGE_GRAPH_H_

#include <string>
#include <vector>

namespace rasql::verify {

/// How a stage's concurrently-running tasks are allowed to touch one
/// shared resource (a vector of per-partition slots, a SetRDD, a table).
/// These are the concurrency contracts DESIGN.md §7/§10 state in prose;
/// declaring them on the StageSpec is what lets the verifier reject a
/// submission whose task closures could race — before any task runs.
enum class AccessMode {
  /// Every task may read; nothing writes while the stage is in flight.
  kReadShared,
  /// Task p writes only slot p of a partition-indexed container.
  kPartitionOwned,
  /// Split sub-task (p, j) writes only its own (partition, split) slot;
  /// partition p's finalize task then consumes p's slots. Requires the
  /// stage to actually declare split tasks.
  kSplitSlotOwned,
  /// Exactly one designated task writes the whole object (the driver-like
  /// single-writer stages of the SQL-loop baseline).
  kSingleTask,
};

/// "read-shared", "partition-owned", "split-slot-owned", "single-task".
const char* AccessModeName(AccessMode mode);

/// True for the modes that write (everything except kReadShared).
bool IsWriteMode(AccessMode mode);

/// Stage kinds, mirroring dist::StageSpec::Kind. Duplicated here so the
/// verifier depends only on lint/ and common/ — dist/cluster.cc calls into
/// the verifier, not the other way around.
enum class StageKind { kLocal, kShuffleMap, kShuffleReduce, kCombined };

const char* StageKindName(StageKind kind);

/// True when the kind consumes the previous map output.
bool KindConsumesShuffle(StageKind kind);
/// True when the kind produces map output.
bool KindProducesShuffle(StageKind kind);

/// One declared access to a shared resource by a stage's tasks.
struct ClaimDecl {
  int resource = -1;  ///< index into StageGraph::resources
  AccessMode mode = AccessMode::kReadShared;
};

/// One declared stage. Channels, accumulators and resources are indices
/// into the owning StageGraph's registries; -1 = not used.
struct StageNode {
  std::string name;
  StageKind kind = StageKind::kLocal;
  /// Channel this stage Gathers routed rows from (-1 = none; the stage may
  /// still *model* consumption via its kind).
  int input_channel = -1;
  /// Channel this stage publishes slices into (-1 = none).
  int output_channel = -1;
  /// Shared accumulators the tasks may update (-1 = none).
  int counter = -1;
  int status = -1;
  /// True when the stage declares split sub-tasks (morsel split, §10).
  bool split = false;
  /// Channels whose exchange is cleared (ShuffleChannel::Reset) by the
  /// driver immediately before this stage is submitted.
  std::vector<int> resets;
  /// Declared resource accesses of this stage's task closures.
  std::vector<ClaimDecl> claims;
};

/// The abstract, pointer-free model of a job's stage submissions that the
/// StageGraphVerifier reasons about. Built incrementally by the live
/// Cluster hook (one node per RunStage) or in one shot by the offline
/// planners behind EXPLAIN STAGES.
struct StageGraph {
  /// Registry names, for diagnostics and rendering. Indices are the ids
  /// StageNode fields refer to.
  std::vector<std::string> channels;
  std::vector<std::string> resources;
  std::vector<std::string> counters;
  std::vector<std::string> statuses;
  /// Stages in submission order.
  std::vector<StageNode> nodes;
  /// Partitions per stage (= slices per channel).
  int num_partitions = 0;
  /// Free-form annotation appended to the rendering (e.g. the offline
  /// planners' "iteration body repeats until fixpoint" note).
  std::string note;

  int AddChannel(std::string name);
  int AddResource(std::string name);
  int AddCounter(std::string name);
  int AddStatus(std::string name);
  /// Appends a stage and returns it for field assignment.
  StageNode& AddStage(std::string name, StageKind kind);

  /// Convenience for builders: appends a claim to the last added stage.
  void Claim(int resource, AccessMode mode);

  /// Human-readable rendering of the declared DAG — the body of the
  /// shell's EXPLAIN STAGES output.
  std::string ToString() const;
};

}  // namespace rasql::verify

#endif  // RASQL_VERIFY_STAGE_GRAPH_H_
