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

void CandidateSegment::account(std::size_t i, bool add) {
  const CandidateRow& row = rows_[i];
  if (row.cached_input) add ? ++cached_ : --cached_;
  if (pool_rows_.size() <= row.pool) pool_rows_.resize(row.pool + 1, 0);
  std::size_t& in_pool = pool_rows_[row.pool];
  if (add && in_pool++ == 0) ++pools_;
  if (!add && --in_pool == 0) --pools_;
  if (row.opt_executor == kInvalidNode) return;
  std::pair<NodeId, std::size_t> key{row.opt_executor, i};
  auto at = std::lower_bound(locked_.begin(), locked_.end(), i);
  if (add) {
    // Appends land at the end; a patched row goes back to its place.
    locked_.insert(at, i);
    by_lock_node_.push_back(key);
    by_lock_node_sorted_ = false;
    return;
  }
  locked_.erase(at);
  by_lock_node_.erase(by_lock_node_sorted_
                          ? std::lower_bound(by_lock_node_.begin(), by_lock_node_.end(), key)
                          : std::find(by_lock_node_.begin(), by_lock_node_.end(), key));
}

void CandidateSegment::push(const CandidateRow& row) {
  rows_.push_back(row);
  account(rows_.size() - 1, true);
}

void CandidateSegment::erase(std::size_t i) {
  account(i, false);
  rows_[i].gone = true;
  ++tombstones_;
}

void CandidateSegment::replace(std::size_t i, const CandidateRow& row) {
  if (rows_[i].gone) {
    --tombstones_;
  } else {
    account(i, false);
  }
  rows_[i] = row;
  account(i, true);
}

std::size_t CandidateSegment::insert(const CandidateRow& row) {
  auto at = std::lower_bound(rows_.begin(), rows_.end(), row.seq,
                             [](const CandidateRow& r, std::uint64_t s) { return r.seq < s; });
  std::size_t i = static_cast<std::size_t>(at - rows_.begin());
  rows_.insert(at, row);
  reindex();
  return i;
}

void CandidateSegment::compact() {
  std::erase_if(rows_, [](const CandidateRow& r) { return r.gone; });
  tombstones_ = 0;
  reindex();
}

void CandidateSegment::reindex() {
  locked_.clear();
  by_lock_node_.clear();
  by_lock_node_sorted_ = true;
  cached_ = 0;
  std::fill(pool_rows_.begin(), pool_rows_.end(), 0);
  pools_ = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].gone) account(i, true);
  }
}

std::uint32_t CandidateSegment::first_pool() const {
  for (std::size_t p = 0; p < pool_rows_.size(); ++p) {
    if (pool_rows_[p] > 0) return static_cast<std::uint32_t>(p);
  }
  return 0;
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
    if (seg.live() == 0) continue;
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
