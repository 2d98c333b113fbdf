#include "verify/verifier.h"

#include <map>
#include <sstream>

#include "common/check.h"

namespace rasql::verify {
namespace {

using lint::DiagnosticEngine;
using lint::Severity;

std::string Quote(const std::string& s) { return "'" + s + "'"; }

}  // namespace

void StageGraphVerifier::EnsureChannelStates() {
  if (channel_states_.size() < graph_->channels.size()) {
    channel_states_.resize(graph_->channels.size());
  }
}

void StageGraphVerifier::SetLivePublished(int channel, int published) {
  EnsureChannelStates();
  RASQL_CHECK(channel >= 0 &&
              channel < static_cast<int>(channel_states_.size()));
  channel_states_[channel].published = published;
}

void StageGraphVerifier::VerifyNode(const StageNode& node,
                                    DiagnosticEngine* diag) {
  const StageGraph& g = *graph_;
  const int P = g.num_partitions;
  // RASQL-G006: the declared channels must be coherent with the stage
  // kind — the runtime derives scheduling and cost-model behaviour from
  // the kind, so a contradiction means one of the two lies.
  if (node.input_channel >= 0 && !KindConsumesShuffle(node.kind)) {
    diag->Report(Severity::kError, "RASQL-G006",
                 "stage kind '" + std::string(StageKindName(node.kind)) +
                     "' does not consume a shuffle but declares input "
                     "channel " +
                     Quote(g.channels[node.input_channel]),
                 node.name);
  }
  if (node.output_channel >= 0 && !KindProducesShuffle(node.kind)) {
    diag->Report(Severity::kError, "RASQL-G006",
                 "stage kind '" + std::string(StageKindName(node.kind)) +
                     "' does not produce a shuffle but declares output "
                     "channel " +
                     Quote(g.channels[node.output_channel]),
                 node.name);
  }
  // RASQL-G004: consuming the channel the stage itself publishes reads an
  // exchange its own tasks are still writing.
  if (node.input_channel >= 0 && node.input_channel == node.output_channel) {
    diag->Report(Severity::kError, "RASQL-G004",
                 "stage consumes its own output channel " +
                     Quote(g.channels[node.input_channel]),
                 node.name);
  }
  // RASQL-G007: claim-set consistency within the stage.
  std::map<int, AccessMode> first_mode;
  for (const ClaimDecl& claim : node.claims) {
    RASQL_CHECK(claim.resource >= 0 &&
                claim.resource < static_cast<int>(g.resources.size()));
    if (claim.mode == AccessMode::kSplitSlotOwned && !node.split) {
      diag->Report(Severity::kError, "RASQL-G007",
                   "split-slot claim on resource " +
                       Quote(g.resources[claim.resource]) +
                       " but the stage declares no split tasks",
                   node.name);
    }
    auto [it, inserted] = first_mode.emplace(claim.resource, claim.mode);
    if (!inserted && it->second != claim.mode) {
      diag->Report(Severity::kError, "RASQL-G007",
                   "conflicting claims on resource " +
                       Quote(g.resources[claim.resource]) + ": " +
                       AccessModeName(it->second) + " vs " +
                       AccessModeName(claim.mode),
                   node.name);
    }
  }

  // Driver-side Reset() calls precede the submission.
  for (int ch : node.resets) {
    RASQL_CHECK(ch >= 0 && ch < static_cast<int>(channel_states_.size()));
    channel_states_[ch].published = 0;
  }

  // Input lifecycle: a consumer must find its exchange armed by an earlier
  // stage and fully published at submission time.
  const int in = node.input_channel;
  if (in >= 0) {
    RASQL_CHECK(in < static_cast<int>(channel_states_.size()));
    const ChannelState& state = channel_states_[in];
    if (!state.armed) {
      diag->Report(Severity::kError, "RASQL-G001",
                   "stage consumes channel " + Quote(g.channels[in]) +
                       " but no stage publishes into it",
                   node.name);
    } else if (state.published < P) {
      std::ostringstream msg;
      msg << "stage consumes channel " << Quote(g.channels[in])
          << " before its exchange is fully published (" << state.published
          << " of " << P << " slices at submission)";
      diag->Report(Severity::kError, "RASQL-G003", msg.str(), node.name);
    }
  }

  // Output lifecycle: publishing over a still-published exchange corrupts
  // the previous iteration's slices.
  const int out = node.output_channel;
  if (out >= 0) {
    RASQL_CHECK(out < static_cast<int>(channel_states_.size()));
    if (channel_states_[out].published > 0) {
      diag->Report(Severity::kError, "RASQL-G002",
                   "stage publishes into channel " + Quote(g.channels[out]) +
                       " whose previous exchange was never cleared; Reset() "
                       "the channel before resubmitting",
                   node.name);
    }
    // Advance the simulated lifecycle: the stage is barriered, so once it
    // completes its output exchange is armed and fully published.
    channel_states_[out].armed = true;
    channel_states_[out].published = P;
  }
}

void StageGraphVerifier::VerifyPending(DiagnosticEngine* diag) {
  EnsureChannelStates();
  for (; next_node_ < graph_->nodes.size(); ++next_node_) {
    VerifyNode(graph_->nodes[next_node_], diag);
  }
}

void VerifyStageGraph(const StageGraph& graph, DiagnosticEngine* diag) {
  StageGraphVerifier verifier(&graph);
  verifier.VerifyPending(diag);
  if (!diag->HasErrors()) {
    std::ostringstream msg;
    msg << "stage graph verified: " << graph.nodes.size()
        << (graph.nodes.size() == 1 ? " stage, " : " stages, ")
        << graph.channels.size()
        << (graph.channels.size() == 1 ? " channel, " : " channels, ")
        << "contracts hold";
    diag->Report(Severity::kNote, "RASQL-G000", msg.str());
  }
}

}  // namespace rasql::verify
