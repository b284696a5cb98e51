#include "sched/rupam/dispatcher.hpp"

#include <algorithm>

namespace rupam {

std::optional<std::size_t> algorithm2_select(const std::vector<DispatchTaskView>& tasks,
                                             NodeId node, Bytes node_free_memory,
                                             const DispatcherPolicy& policy) {
  // Selection tiers:
  //   1. task locked to this node (immediately),
  //   2. PROCESS_LOCAL task (immediately),
  //   3. best-locality task that is not locked to another node,
  //   4. best-locality task locked elsewhere (only when nothing else fits,
  //      so locks steer placement without starving idle nodes).
  const DispatchTaskView* best_locked_here = nullptr;
  const DispatchTaskView* best_free = nullptr;  // PROCESS_LOCAL ranks first here
  const DispatchTaskView* best_locked_elsewhere = nullptr;
  for (const auto& task : tasks) {
    bool locked_here = policy.opt_executor_lock && task.opt_executor == node;
    bool locked_elsewhere = policy.opt_executor_lock && task.opt_executor != kInvalidNode &&
                            task.opt_executor != node;
    if (policy.memory_guard &&
        task.peak_memory + policy.memory_headroom > node_free_memory) {
      // Memory guard, with the paper's single exception: a fully
      // characterized task locked to this node runs here regardless.
      if (locked_here && task.history_size >= kNumResourceKinds) return task.index;
      continue;
    }
    if (locked_here) {
      if (best_locked_here == nullptr || task.expected_cost > best_locked_here->expected_cost) {
        best_locked_here = &task;
      }
      continue;
    }
    const DispatchTaskView*& slot = locked_elsewhere ? best_locked_elsewhere : best_free;
    if (slot == nullptr || static_cast<int>(task.locality) < static_cast<int>(slot->locality)) {
      slot = &task;
    }
  }
  if (best_locked_here != nullptr) return best_locked_here->index;
  if (best_free != nullptr) return best_free->index;
  if (best_locked_elsewhere != nullptr) return best_locked_elsewhere->index;
  return std::nullopt;
}

void CandidateSegment::clear() {
  rows_.clear();
  locked_.clear();
  by_lock_node_.clear();
  by_lock_node_sorted_ = true;
  cached_ = 0;
  multi_pool_ = false;
}

void CandidateSegment::push(const CandidateRow& row) {
  if (!rows_.empty() && row.pool != rows_.front().pool) multi_pool_ = true;
  if (row.cached_input) ++cached_;
  if (row.opt_executor != kInvalidNode) {
    locked_.push_back(rows_.size());
    by_lock_node_.emplace_back(row.opt_executor, rows_.size());
    by_lock_node_sorted_ = false;
  }
  rows_.push_back(row);
}

std::size_t CandidateSegment::find(std::uint64_t seq) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), seq,
                             [](const CandidateRow& r, std::uint64_t s) { return r.seq < s; });
  if (it == rows_.end() || it->seq != seq) return npos;
  return static_cast<std::size_t>(it - rows_.begin());
}

std::span<const std::pair<NodeId, std::size_t>> CandidateSegment::locked_to(NodeId node) {
  if (!by_lock_node_sorted_) {
    std::sort(by_lock_node_.begin(), by_lock_node_.end());
    by_lock_node_sorted_ = true;
  }
  auto lo = std::lower_bound(by_lock_node_.begin(), by_lock_node_.end(),
                             std::pair<NodeId, std::size_t>{node, 0});
  auto hi = std::lower_bound(lo, by_lock_node_.end(), std::pair<NodeId, std::size_t>{node + 1, 0});
  return {lo, hi};
}

bool spans_pools(std::span<const SegmentUse> uses) {
  const CandidateSegment* first = nullptr;
  for (const SegmentUse& use : uses) {
    const CandidateSegment& seg = *use.segment;
    if (seg.size() == 0) continue;
    if (seg.multi_pool() || (first != nullptr && seg.first_pool() != first->first_pool())) {
      return true;
    }
    if (first == nullptr) first = &seg;
  }
  return false;
}

ResourceKind ResourceRoundRobin::next() {
  auto kind = static_cast<ResourceKind>(cursor_);
  cursor_ = (cursor_ + 1) % kNumResourceKinds;
  return kind;
}

}  // namespace rupam
