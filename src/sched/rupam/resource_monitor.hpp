// RUPAM's Resource Monitor (RM, paper §III-B1).
//
// A central Monitor records the per-node metrics that the distributed
// Collectors piggy-back on heartbeats (our HeartbeatService). For each
// scheduling round it materializes one priority queue per resource type,
// ordered by capacity/capability descending, then utilization ascending —
// "most powerful first, least used first" — with a node-id tie-break.
//
// Each queue is sorted lazily, at most once between writes: any record,
// forget, clear or liveness change invalidates every kind. RUPAM seeds the
// monitor once at the start of a dispatch round and writes nothing more
// until the round ends, so each kind is sorted at most once per round and
// then only read — the paper's "build per round, empty between rounds".
// Admission filters apply on top of the sorted order; because the order is
// total, filtering it equals sorting the filtered rows.
//
// With liveness configured, the heartbeat-path record() overload also
// stamps last-seen times so the RM can declare silent nodes dead and drop
// them from every queue (RUPAM's own view of node failure, independent of
// the base scheduler's blacklist).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/liveness.hpp"
#include "cluster/node.hpp"

namespace rupam {

class ResourceMonitor {
 public:
  /// Ingest one metrics snapshot (the paper's executordataMap analogue).
  /// Does not touch liveness — used by dispatch-round refreshes.
  void record(const NodeMetrics& metrics);
  /// Heartbeat-path ingest: also stamps the node's last-seen time.
  void record(const NodeMetrics& metrics, SimTime now);

  /// Enable missed-heartbeat detection (disabled until configured).
  void configure_liveness(const LivenessConfig& cfg);
  bool liveness_enabled() const { return liveness_enabled_; }
  /// Declare silent nodes dead; returns the newly-dead ones.
  std::vector<NodeId> sweep_dead(SimTime now);
  bool dead(NodeId node) const { return liveness_enabled_ && liveness_.dead(node); }

  const NodeMetrics* latest(NodeId node) const;
  bool has(NodeId node) const { return latest(node) != nullptr; }
  std::size_t tracked_nodes() const { return latest_.size(); }
  void clear() {
    latest_.clear();
    liveness_.clear();
    ++version_;
  }
  /// Drop one node's row entirely (decommissioned: no metrics, no liveness
  /// state, never ranked again).
  void forget(NodeId node) {
    latest_.erase(node);
    liveness_.forget(node);
    ++version_;
  }

  /// The per-resource priority queue: every live row, best first. Sorted
  /// on first use after a write and reused until the next one; the
  /// reference and the row pointers stay valid until the next write.
  const std::vector<const NodeMetrics*>& queue(ResourceKind kind);

  /// queue(kind) restricted to rows passing `admit` (all rows when null).
  std::vector<NodeId> ranked(ResourceKind kind,
                             const std::function<bool(const NodeMetrics&)>& admit);

 private:
  std::unordered_map<NodeId, NodeMetrics> latest_;
  NodeLivenessTracker liveness_;
  bool liveness_enabled_ = false;
  /// Bumped by every write; a queue is current when its stamp matches.
  std::uint64_t version_ = 1;
  std::array<std::uint64_t, kNumResourceKinds> sorted_version_{};
  std::array<std::vector<const NodeMetrics*>, kNumResourceKinds> queues_;
};

}  // namespace rupam
