#include "verify/stage_graph.h"

#include <sstream>

#include "common/check.h"

namespace rasql::verify {

const char* AccessModeName(AccessMode mode) {
  switch (mode) {
    case AccessMode::kReadShared:
      return "read-shared";
    case AccessMode::kPartitionOwned:
      return "partition-owned";
    case AccessMode::kSplitSlotOwned:
      return "split-slot-owned";
    case AccessMode::kSingleTask:
      return "single-task";
  }
  return "?";
}

bool IsWriteMode(AccessMode mode) { return mode != AccessMode::kReadShared; }

const char* StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kLocal:
      return "local";
    case StageKind::kShuffleMap:
      return "map";
    case StageKind::kShuffleReduce:
      return "reduce";
    case StageKind::kCombined:
      return "combined";
  }
  return "?";
}

bool KindConsumesShuffle(StageKind kind) {
  return kind == StageKind::kShuffleReduce || kind == StageKind::kCombined;
}

bool KindProducesShuffle(StageKind kind) {
  return kind == StageKind::kShuffleMap || kind == StageKind::kCombined;
}

int StageGraph::AddChannel(std::string name) {
  channels.push_back(std::move(name));
  return static_cast<int>(channels.size()) - 1;
}

int StageGraph::AddResource(std::string name) {
  resources.push_back(std::move(name));
  return static_cast<int>(resources.size()) - 1;
}

int StageGraph::AddCounter(std::string name) {
  counters.push_back(std::move(name));
  return static_cast<int>(counters.size()) - 1;
}

int StageGraph::AddStatus(std::string name) {
  statuses.push_back(std::move(name));
  return static_cast<int>(statuses.size()) - 1;
}

StageNode& StageGraph::AddStage(std::string name, StageKind kind) {
  StageNode node;
  node.name = std::move(name);
  node.kind = kind;
  nodes.push_back(std::move(node));
  return nodes.back();
}

void StageGraph::Claim(int resource, AccessMode mode) {
  RASQL_CHECK(!nodes.empty());  // Claim() requires a prior AddStage()
  nodes.back().claims.push_back({resource, mode});
}

std::string StageGraph::ToString() const {
  std::ostringstream out;
  out << "stage graph: " << nodes.size() << " stage"
      << (nodes.size() == 1 ? "" : "s") << ", " << channels.size()
      << " channel" << (channels.size() == 1 ? "" : "s") << ", "
      << num_partitions << " partitions\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const StageNode& n = nodes[i];
    out << "  [" << i << "] " << n.name << "  (" << StageKindName(n.kind);
    if (n.split) out << ", split";
    out << ")";
    if (n.input_channel >= 0) out << "  in: " << channels[n.input_channel];
    if (n.output_channel >= 0) out << "  out: " << channels[n.output_channel];
    if (n.counter >= 0) out << "  counter: " << counters[n.counter];
    if (n.status >= 0) out << "  status: " << statuses[n.status];
    if (!n.resets.empty()) {
      out << "  resets:";
      for (int c : n.resets) out << " " << channels[c];
    }
    out << "\n";
    if (!n.claims.empty()) {
      out << "        claims:";
      for (const ClaimDecl& c : n.claims) {
        out << " " << resources[c.resource] << "(" << AccessModeName(c.mode)
            << ")";
      }
      out << "\n";
    }
  }
  if (!note.empty()) out << "  note: " << note << "\n";
  return out.str();
}

}  // namespace rasql::verify
