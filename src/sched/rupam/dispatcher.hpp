// RUPAM's Dispatcher selection rule (paper Algorithm 2), factored as pure
// logic over task views so it is unit-testable in isolation.
//
// Given the tasks of one resource queue and one candidate node (the head
// of that resource's priority queue), pick:
//   1. a task whose history covers all five resources and whose
//      best-observed executor is this node — even past the memory guard
//      (the "optexecutor lock", §III-C1);
//   2. otherwise, skip tasks whose peak memory exceeds the node's free
//      memory (the OOM guard, §III-C);
//   3. among the rest: a task locked to this node, then a PROCESS_LOCAL
//      task, then the task with the best locality.
//
// select_candidate() feeds that rule from a queue's candidate rows without
// viewing every row for every offered node. When no valid row is locked to
// the node and no row has a cached input, neither the lock tiers nor
// PROCESS_LOCAL can occur, so the rule reduces to "first unlocked
// NODE_LOCAL row passing the guard, else first unlocked row passing the
// guard" — found through the node's local-ref list and a stale-skipping
// walk — and algorithm2_select sees just that row (or, if there is none,
// only the locked rows). Otherwise it sees every valid row the guard would
// not skip, per pool in fair order when several pools queue. Either way
// the pick is the one algorithm2_select would make over every valid row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rupam {

struct DispatchTaskView {
  std::size_t index = 0;  // caller-side handle
  Bytes peak_memory = 0.0;
  NodeId opt_executor = kInvalidNode;
  std::size_t history_size = 0;  // distinct bottleneck resources observed
  Locality locality = Locality::kAny;
  /// Expected cost from DB_task_char (recorded compute time); 0 when
  /// unknown. Among tasks locked to the offered node the most expensive
  /// runs first (LPT) — the whole point of locking a hot task to the
  /// fastest node is to start it before the wave fills.
  double expected_cost = 0.0;
};

struct DispatcherPolicy {
  bool opt_executor_lock = true;
  bool memory_guard = true;
  /// Safety margin the guard keeps free on top of the task's footprint.
  Bytes memory_headroom = 0.0;
};

/// Returns the chosen task's `index`, or nullopt if nothing fits.
std::optional<std::size_t> algorithm2_select(const std::vector<DispatchTaskView>& tasks,
                                             NodeId node, Bytes node_free_memory,
                                             const DispatcherPolicy& policy = {});

/// The node-independent Algorithm 2 inputs of one queued task.
struct CandidateRow {
  /// TaskManager sequence number: queue order.
  std::uint64_t seq = 0;
  Bytes peak_memory = 0.0;
  double expected_cost = 0.0;
  /// DB_task_char's best executor; kInvalidNode without a record.
  NodeId opt_executor = kInvalidNode;
  /// Dense pool index of the task's stage.
  std::uint32_t pool = 0;
  std::uint8_t history_size = 0;
  /// The record ran on a GPU: its lock holds only on a node with an idle
  /// device (its best runtime came from the device).
  bool gpu_record = false;
  /// The task reads a cached block, so it may be PROCESS_LOCAL somewhere.
  bool cached_input = false;
  /// Tombstone: the row's task launched or finished. It keeps its index
  /// until the segment compacts, and no aggregate counts it.
  bool gone = false;
};

/// One resource queue's candidate rows, in queue (seq) order, with the
/// indexes select_candidate() prunes by. The rows are the queue: they are
/// appended at enqueue, tombstoned when their task launches or finishes,
/// revived (or, once compacted away, re-inserted at their seq) when it
/// waits again and patched when DB_task_char learns about their task.
/// Whether a row may launch is asked at use. Every aggregate
/// (cached-input count, pools, lock indexes) covers exactly the live rows,
/// as if the segment had been built from them alone.
class CandidateSegment {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Append a row; seqs must ascend.
  void push(const CandidateRow& row);
  /// Tombstone live row `i`.
  void erase(std::size_t i);
  /// Replace row `i` with `row` (same seq); a tombstone comes back live.
  void replace(std::size_t i, const CandidateRow& row);
  /// Insert live `row` at its seq's position (no row holds that seq);
  /// returns its index. Later rows' indexes shift up.
  std::size_t insert(const CandidateRow& row);
  /// Drop the tombstones: live rows keep their order, indexes shift down.
  void compact();

  /// Live rows and tombstones, in queue order.
  const std::vector<CandidateRow>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  std::size_t live() const { return rows_.size() - tombstones_; }
  std::size_t tombstones() const { return tombstones_; }
  /// Row index holding `seq` (live or tombstone), or npos.
  std::size_t find(std::uint64_t seq) const;
  bool has_cached_input() const { return cached_ > 0; }
  /// True when the live rows span more than one pool.
  bool multi_pool() const { return pools_ > 1; }
  /// The live rows' pool when they share one (0 with no live row).
  std::uint32_t first_pool() const;
  /// Live rows carrying an opt_executor, ascending.
  const std::vector<std::size_t>& locked_rows() const { return locked_; }
  /// Live rows whose opt_executor is `node`, ascending.
  std::span<const std::pair<NodeId, std::size_t>> locked_to(NodeId node);

 private:
  /// Count row `i` into (`add`) or out of the aggregates.
  void account(std::size_t i, bool add);
  /// Re-derive the aggregates over the live rows after indexes shifted.
  void reindex();

  std::vector<CandidateRow> rows_;
  std::vector<std::size_t> locked_;
  /// locked_ keyed by opt_executor; sorted on first locked_to() after a push.
  std::vector<std::pair<NodeId, std::size_t>> by_lock_node_;
  bool by_lock_node_sorted_ = true;
  std::size_t cached_ = 0;
  std::size_t tombstones_ = 0;
  /// Live rows per dense pool index, and how many pools have any.
  std::vector<std::size_t> pool_rows_;
  std::size_t pools_ = 0;
};

/// One segment as a kind-visit reads it. A visit reads one or two: the
/// CPU queue appends the GPU queue's launchable rows when no device is
/// idle, after its own.
struct SegmentUse {
  CandidateSegment* segment = nullptr;
  /// Rows before this index are stale for the rest of the round (see
  /// any_valid_candidate). Per use: two uses may judge a row differently.
  std::size_t* head = nullptr;
};

/// The node being matched.
struct NodeOffer {
  NodeId node = kInvalidNode;
  Bytes free_memory = 0.0;
  bool idle_gpu = false;
};

/// A selected row: index into the `uses` span, and row in that segment.
struct CandidateRef {
  std::size_t use = 0;
  std::size_t row = 0;
};

/// The valid rows of one kind-visit, collected the first time a node needs
/// them all and reused for the visit's later nodes: nothing turns stale
/// before the visit's launch. Reset `filled` when a visit starts.
struct VisitRows {
  bool filled = false;
  std::vector<CandidateRef> valid;
};

/// Algorithm 2 for `offer` over the valid rows of `uses`, concatenated in
/// order. With a non-empty `pool_order` it runs within one pool at a time,
/// in that order, and the first pool yielding a pick wins. `source`
/// answers for the caller's task state:
///   bool valid(use, row)       — may this row launch now? Within a round a
///                                row never turns valid again once invalid;
///   Locality locality(use, row) — its locality on offer.node;
///   std::span<const std::uint64_t> local(use) — ascending seqs of the
///                                use's queue whose task prefers offer.node
///                                (entries that are not rows are skipped).
/// `visit` memoizes validity for the rest of the kind-visit; `views` is
/// caller-owned scratch.
template <class Source>
std::optional<CandidateRef> select_candidate(std::span<const SegmentUse> uses,
                                             const NodeOffer& offer,
                                             const DispatcherPolicy& policy,
                                             std::span<const std::uint32_t> pool_order,
                                             Source& source, VisitRows& visit,
                                             std::vector<DispatchTaskView>& views);

/// True when the rows of `uses` belong to more than one pool.
bool spans_pools(std::span<const SegmentUse> uses);

/// True when some row of `uses` is valid. Advances each head past its
/// stale prefix, so call it once per kind-visit before the node walk:
/// nothing turns stale until the visit's launch.
template <class Source>
bool any_valid_candidate(std::span<const SegmentUse> uses, Source& source) {
  for (std::size_t u = 0; u < uses.size(); ++u) {
    std::size_t& head = *uses[u].head;
    for (; head < uses[u].segment->size(); ++head) {
      if (source.valid(u, head)) return true;
    }
  }
  return false;
}

namespace detail {

/// Does `row`'s lock apply on the offered node at all (before asking
/// whether it points here or elsewhere)?
inline bool lock_applies(const CandidateRow& row, const NodeOffer& offer,
                         const DispatcherPolicy& policy) {
  return policy.opt_executor_lock && row.opt_executor != kInvalidNode &&
         (!row.gpu_record || offer.idle_gpu);
}

inline bool passes_guard(const CandidateRow& row, const NodeOffer& offer,
                         const DispatcherPolicy& policy) {
  return !policy.memory_guard || row.peak_memory + policy.memory_headroom <= offer.free_memory;
}

}  // namespace detail

template <class Source>
std::optional<CandidateRef> select_candidate(std::span<const SegmentUse> uses,
                                             const NodeOffer& offer,
                                             const DispatcherPolicy& policy,
                                             std::span<const std::uint32_t> pool_order,
                                             Source& source, VisitRows& visit,
                                             std::vector<DispatchTaskView>& views) {
  constexpr std::uint32_t kAnyPool = static_cast<std::uint32_t>(-1);
  // Global view index = row + the sizes of the segments before its use.
  auto base_of = [&](std::size_t use) {
    std::size_t base = 0;
    for (std::size_t u = 0; u < use; ++u) base += uses[u].segment->size();
    return base;
  };
  auto push_view = [&](std::size_t use, std::size_t row) {
    const CandidateRow& r = uses[use].segment->rows()[row];
    DispatchTaskView v;
    v.index = base_of(use) + row;
    v.peak_memory = r.peak_memory;
    v.locality = source.locality(use, row);
    if (r.opt_executor != kInvalidNode && (!r.gpu_record || offer.idle_gpu)) {
      v.opt_executor = r.opt_executor;
      v.history_size = r.history_size;
    }
    v.expected_cost = r.expected_cost;
    views.push_back(v);
  };
  auto decode = [&](std::size_t index) {
    std::size_t use = 0;
    while (index >= uses[use].segment->size()) index -= uses[use++].segment->size();
    return CandidateRef{use, index};
  };
  auto run_rule = [&]() -> std::optional<CandidateRef> {
    std::optional<std::size_t> chosen =
        algorithm2_select(views, offer.node, offer.free_memory, policy);
    if (!chosen) return std::nullopt;
    return decode(*chosen);
  };

  // Early stop needs: no row can be PROCESS_LOCAL, and no valid row is
  // locked to this node (the tiers that outrank plain locality).
  bool early = true;
  for (const SegmentUse& use : uses) early = early && !use.segment->has_cached_input();
  if (early && policy.opt_executor_lock) {
    for (std::size_t u = 0; u < uses.size() && early; ++u) {
      for (const auto& [node, row] : uses[u].segment->locked_to(offer.node)) {
        const CandidateRow& r = uses[u].segment->rows()[row];
        if (detail::lock_applies(r, offer, policy) && source.valid(u, row)) {
          early = false;
          break;
        }
      }
    }
  }
  auto unlocked_fit = [&](const CandidateRow& r) {
    return !detail::lock_applies(r, offer, policy) && detail::passes_guard(r, offer, policy);
  };
  // Algorithm 2 skips a row failing the guard unless it is the fully
  // characterized lock to this node, so only those rows need a view.
  auto may_win = [&](const CandidateRow& r) {
    return detail::passes_guard(r, offer, policy) ||
           (detail::lock_applies(r, offer, policy) && r.opt_executor == offer.node &&
            r.history_size >= static_cast<std::size_t>(kNumResourceKinds));
  };

  auto select_in = [&](std::uint32_t pool) -> std::optional<CandidateRef> {
    auto in_pool = [&](const CandidateRow& r) { return pool == kAnyPool || r.pool == pool; };
    views.clear();
    if (!early) {
      if (!visit.filled) {
        visit.valid.clear();
        for (std::size_t u = 0; u < uses.size(); ++u) {
          for (std::size_t i = *uses[u].head; i < uses[u].segment->size(); ++i) {
            if (source.valid(u, i)) visit.valid.push_back(CandidateRef{u, i});
          }
        }
        visit.filled = true;
      }
      for (const CandidateRef& ref : visit.valid) {
        const CandidateRow& r = uses[ref.use].segment->rows()[ref.row];
        if (in_pool(r) && may_win(r)) push_view(ref.use, ref.row);
      }
      return run_rule();
    }
    // 1. The first unlocked NODE_LOCAL row that passes the guard.
    for (std::size_t u = 0; u < uses.size(); ++u) {
      const CandidateSegment& seg = *uses[u].segment;
      for (std::uint64_t seq : source.local(u)) {
        std::size_t i = seg.find(seq);
        if (i == CandidateSegment::npos || i < *uses[u].head) continue;
        const CandidateRow& r = seg.rows()[i];
        if (in_pool(r) && unlocked_fit(r) && source.valid(u, i)) {
          push_view(u, i);
          return run_rule();
        }
      }
    }
    // 2. Else the first unlocked row that passes the guard.
    for (std::size_t u = 0; u < uses.size(); ++u) {
      const CandidateSegment& seg = *uses[u].segment;
      for (std::size_t i = *uses[u].head; i < seg.size(); ++i) {
        const CandidateRow& r = seg.rows()[i];
        if (in_pool(r) && unlocked_fit(r) && source.valid(u, i)) {
          push_view(u, i);
          return run_rule();
        }
      }
    }
    // 3. Every unlocked row fails the guard here: only a row locked
    //    elsewhere can still win.
    for (std::size_t u = 0; u < uses.size(); ++u) {
      for (std::size_t i : uses[u].segment->locked_rows()) {
        const CandidateRow& r = uses[u].segment->rows()[i];
        if (i >= *uses[u].head && in_pool(r) && may_win(r) && source.valid(u, i)) {
          push_view(u, i);
        }
      }
    }
    return run_rule();
  };

  if (pool_order.empty()) return select_in(kAnyPool);
  for (std::uint32_t pool : pool_order) {
    if (std::optional<CandidateRef> pick = select_in(pool)) return pick;
  }
  return std::nullopt;
}

/// Round-robin cursor over resource kinds ("dequeue one node from each
/// resource queue at a time ... so no task with a single resource type is
/// starved").
class ResourceRoundRobin {
 public:
  ResourceKind next();
  ResourceKind peek() const { return static_cast<ResourceKind>(cursor_); }

 private:
  std::size_t cursor_ = 0;
};

}  // namespace rupam
