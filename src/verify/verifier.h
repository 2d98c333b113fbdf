#ifndef RASQL_VERIFY_VERIFIER_H_
#define RASQL_VERIFY_VERIFIER_H_

#include <vector>

#include "lint/diagnostic.h"
#include "verify/stage_graph.h"

namespace rasql::verify {

/// Static checker of declared stage graphs: walks the StageNodes in
/// submission order, simulates the slice lifecycle of every channel
/// (unarmed → published → cleared-by-reset) and checks the contracts the
/// runtime relies on, *before any task runs*. Every stage is barriered, so
/// the only tasks in flight together are one stage's. Findings go through
/// lint::DiagnosticEngine under the RASQL-G rule family (DESIGN.md §11):
///
///   RASQL-G001  dangling input: stage consumes a channel no stage ever
///               published into
///   RASQL-G002  double-publish: stage publishes into a channel whose
///               previous exchange was never cleared (missing Reset)
///   RASQL-G003  consume-before-publish: the input exchange was armed but
///               is not fully published at submission time (cleared by a
///               premature Reset)
///   RASQL-G004  a stage consuming its own output channel
///   RASQL-G006  kind/channel mismatch: declared channels contradict the
///               stage kind (e.g. a kLocal stage with an output channel)
///   RASQL-G007  ownership conflict inside one stage: contradictory claims
///               on one resource, or split-slot claims on an unsplit stage
///
/// G005 (accumulator aliasing) and G008 (unordered writes) checked stages
/// submitted together as one concurrency group; with barriered stages no
/// such group exists, and those codes are retired.
///
/// Two modes share this class. *Offline* (EXPLAIN STAGES, unit tests): the
/// whole graph is built first and Verify() simulates every lifecycle.
/// *Live* (Cluster::RunStage hooks): nodes are appended per submission and
/// VerifyPending() checks just the new ones; the caller overrides the
/// simulated publish counts with the real SliceReadiness observations,
/// which reflect driver-side Reset() calls the simulation cannot see.
class StageGraphVerifier {
 public:
  /// `graph` must outlive the verifier; nodes may be appended between
  /// VerifyPending() calls, registries must only grow.
  explicit StageGraphVerifier(const StageGraph* graph) : graph_(graph) {}

  /// Overrides the simulated published-slice count of `channel` with a
  /// live observation. Takes effect for the next VerifyPending() call.
  void SetLivePublished(int channel, int published);

  /// Verifies every node not yet verified, advancing the simulated
  /// lifecycle state. Reports findings through `diag`.
  void VerifyPending(lint::DiagnosticEngine* diag);

  /// Index of the first unverified node.
  size_t next_node() const { return next_node_; }

 private:
  struct ChannelState {
    /// True once any verified stage declared this channel as its output.
    bool armed = false;
    /// Simulated count of published slices (0 or num_partitions; live
    /// observations may land in between).
    int published = 0;
  };

  void EnsureChannelStates();
  /// Checks one submitted stage and advances the simulated lifecycle.
  void VerifyNode(const StageNode& node, lint::DiagnosticEngine* diag);

  const StageGraph* graph_;
  size_t next_node_ = 0;
  std::vector<ChannelState> channel_states_;
};

/// One-shot whole-graph verification (offline planners, tests). Emits an
/// all-clear RASQL-G000 note when no errors were found.
void VerifyStageGraph(const StageGraph& graph, lint::DiagnosticEngine* diag);

}  // namespace rasql::verify

#endif  // RASQL_VERIFY_VERIFIER_H_
