#include "sched/rupam/resource_monitor.hpp"

#include <algorithm>

namespace rupam {

void ResourceMonitor::record(const NodeMetrics& metrics) {
  latest_[metrics.node] = metrics;
  ++version_;
}

void ResourceMonitor::record(const NodeMetrics& metrics, SimTime now) {
  latest_[metrics.node] = metrics;
  if (liveness_enabled_) liveness_.heartbeat(metrics.node, now);
  ++version_;
}

void ResourceMonitor::configure_liveness(const LivenessConfig& cfg) {
  liveness_.configure(cfg);
  liveness_enabled_ = true;
  ++version_;
}

std::vector<NodeId> ResourceMonitor::sweep_dead(SimTime now) {
  if (!liveness_enabled_) return {};
  std::vector<NodeId> newly_dead = liveness_.sweep(now);
  if (!newly_dead.empty()) ++version_;
  return newly_dead;
}

const NodeMetrics* ResourceMonitor::latest(NodeId node) const {
  auto it = latest_.find(node);
  return it == latest_.end() ? nullptr : &it->second;
}

const std::vector<const NodeMetrics*>& ResourceMonitor::queue(ResourceKind kind) {
  std::size_t k = static_cast<std::size_t>(kind);
  std::vector<const NodeMetrics*>& rows = queues_[k];
  if (sorted_version_[k] == version_) return rows;
  sorted_version_[k] = version_;
  rows.clear();
  for (const auto& [id, m] : latest_) {
    if (!dead(id)) rows.push_back(&m);
  }
  std::sort(rows.begin(), rows.end(), [kind](const NodeMetrics* a, const NodeMetrics* b) {
    double ca = a->capability(kind), cb = b->capability(kind);
    if (ca != cb) return ca > cb;
    double ua = a->utilization(kind), ub = b->utilization(kind);
    if (ua != ub) return ua < ub;
    return a->node < b->node;  // deterministic tie-break: a total order
  });
  return rows;
}

std::vector<NodeId> ResourceMonitor::ranked(
    ResourceKind kind, const std::function<bool(const NodeMetrics&)>& admit) {
  std::vector<NodeId> out;
  for (const NodeMetrics* m : queue(kind)) {
    if (!admit || admit(*m)) out.push_back(m->node);
  }
  return out;
}

}  // namespace rupam
