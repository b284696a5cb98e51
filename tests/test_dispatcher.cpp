// Algorithm 2 selection logic (paper) — pure-logic tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sched/rupam/dispatcher.hpp"

namespace rupam {
namespace {

DispatchTaskView view(std::size_t index, Locality loc, Bytes mem = 0.0,
                      NodeId opt = kInvalidNode, std::size_t history = 0,
                      double cost = 0.0) {
  DispatchTaskView v;
  v.index = index;
  v.locality = loc;
  v.peak_memory = mem;
  v.opt_executor = opt;
  v.history_size = history;
  v.expected_cost = cost;
  return v;
}

TEST(Algorithm2, EmptyQueueSelectsNothing) {
  EXPECT_FALSE(algorithm2_select({}, 0, 1e12).has_value());
}

TEST(Algorithm2, PrefersBestLocality) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kAny),
      view(1, Locality::kNodeLocal),
      view(2, Locality::kAny),
  };
  EXPECT_EQ(algorithm2_select(tasks, 0, 1e12).value(), 1u);
}

TEST(Algorithm2, ProcessLocalShortCircuits) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kNodeLocal),
      view(1, Locality::kProcessLocal),
      view(2, Locality::kProcessLocal),
  };
  EXPECT_EQ(algorithm2_select(tasks, 0, 1e12).value(), 1u);
}

TEST(Algorithm2, MemoryGuardSkipsOversizedTasks) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kProcessLocal, 10.0 * kGiB),
      view(1, Locality::kAny, 1.0 * kGiB),
  };
  EXPECT_EQ(algorithm2_select(tasks, 0, 2.0 * kGiB).value(), 1u);
}

TEST(Algorithm2, MemoryGuardHeadroom) {
  std::vector<DispatchTaskView> tasks{view(0, Locality::kAny, 1.5 * kGiB)};
  DispatcherPolicy policy;
  policy.memory_headroom = 1.0 * kGiB;
  EXPECT_FALSE(algorithm2_select(tasks, 0, 2.0 * kGiB, policy).has_value());
  policy.memory_headroom = 0.0;
  EXPECT_TRUE(algorithm2_select(tasks, 0, 2.0 * kGiB, policy).has_value());
}

TEST(Algorithm2, FullyCharacterizedLockBypassesMemoryGuard) {
  // The paper's exception: history covers all 5 resources and this node is
  // the best observed executor.
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kAny, 10.0 * kGiB, /*opt=*/3, /*history=*/5),
  };
  EXPECT_EQ(algorithm2_select(tasks, 3, 1.0 * kGiB).value(), 0u);
  // On a different node the guard still applies.
  EXPECT_FALSE(algorithm2_select(tasks, 4, 1.0 * kGiB).has_value());
}

TEST(Algorithm2, PartialHistoryDoesNotBypassGuard) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kAny, 10.0 * kGiB, /*opt=*/3, /*history=*/3),
  };
  EXPECT_FALSE(algorithm2_select(tasks, 3, 1.0 * kGiB).has_value());
}

TEST(Algorithm2, LockedTaskWinsOverLocality) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kProcessLocal),
      view(1, Locality::kAny, 0.0, /*opt=*/7, /*history=*/1),
  };
  EXPECT_EQ(algorithm2_select(tasks, 7, 1e12).value(), 1u);
}

TEST(Algorithm2, LptAmongLockedTasks) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kAny, 0.0, 7, 1, /*cost=*/5.0),
      view(1, Locality::kAny, 0.0, 7, 1, /*cost=*/50.0),
      view(2, Locality::kAny, 0.0, 7, 1, /*cost=*/20.0),
  };
  EXPECT_EQ(algorithm2_select(tasks, 7, 1e12).value(), 1u);
}

TEST(Algorithm2, TasksLockedElsewhereAreLastResort) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kProcessLocal, 0.0, /*opt=*/9, 1),  // locked to node 9
      view(1, Locality::kAny),                              // free
  };
  // On node 2 the free ANY task beats the locked-elsewhere PROCESS task.
  EXPECT_EQ(algorithm2_select(tasks, 2, 1e12).value(), 1u);
  // With only locked-elsewhere tasks left, they still run (no starvation).
  std::vector<DispatchTaskView> only_locked{view(0, Locality::kAny, 0.0, 9, 1)};
  EXPECT_EQ(algorithm2_select(only_locked, 2, 1e12).value(), 0u);
}

TEST(Algorithm2, LockDisabledByPolicy) {
  std::vector<DispatchTaskView> tasks{
      view(0, Locality::kProcessLocal),
      view(1, Locality::kAny, 0.0, 7, 1),
  };
  DispatcherPolicy policy;
  policy.opt_executor_lock = false;
  EXPECT_EQ(algorithm2_select(tasks, 7, 1e12, policy).value(), 0u);
}

TEST(Algorithm2, GuardDisabledByPolicy) {
  std::vector<DispatchTaskView> tasks{view(0, Locality::kAny, 100.0 * kGiB)};
  DispatcherPolicy policy;
  policy.memory_guard = false;
  EXPECT_TRUE(algorithm2_select(tasks, 0, 1.0, policy).has_value());
}

// ------------------------------------------------ pruned Algorithm 2

/// A kind-visit for select_candidate(): one segment, or two when the CPU
/// queue borrows the GPU queue's rows. Row validity, preferred nodes and
/// cache residency are fixed per visit; `local` lists hold each node's
/// preferring seqs plus seqs that are not rows (parked or finished refs).
struct Visit {
  static constexpr int kNodes = 6;
  std::size_t count = 1;
  std::array<CandidateSegment, 2> segments;
  std::array<std::size_t, 2> heads{};
  std::array<std::vector<bool>, 2> is_valid;
  std::array<std::vector<std::set<NodeId>>, 2> preferred;
  std::array<std::vector<std::set<NodeId>>, 2> cached_on;
  std::array<std::array<std::vector<std::uint64_t>, kNodes>, 2> local_seqs;
  NodeId node = 0;
  std::size_t checks = 0;

  bool valid(std::size_t use, std::size_t row) {
    ++checks;
    return is_valid[use][row];
  }
  Locality locality(std::size_t use, std::size_t row) const {
    if (cached_on[use][row].count(node) > 0) return Locality::kProcessLocal;
    if (preferred[use][row].count(node) > 0) return Locality::kNodeLocal;
    return Locality::kAny;
  }
  std::span<const std::uint64_t> local(std::size_t use) const {
    return local_seqs[use][static_cast<std::size_t>(node)];
  }
  std::vector<SegmentUse> uses() {
    std::vector<SegmentUse> out;
    for (std::size_t u = 0; u < count; ++u) out.push_back({&segments[u], &heads[u]});
    return out;
  }
};

/// What the dispatcher did before pruning: view every valid row, then run
/// Algorithm 2 over all of them, or per pool in fair order.
std::optional<std::size_t> select_all_rows(Visit& v, const NodeOffer& offer,
                                           const DispatcherPolicy& policy,
                                           const std::vector<std::uint32_t>& pool_order) {
  std::vector<DispatchTaskView> views;
  std::vector<std::uint32_t> pools;
  std::size_t base = 0;
  for (std::size_t u = 0; u < v.count; ++u) {
    const auto& rows = v.segments[u].rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!v.is_valid[u][i]) continue;
      DispatchTaskView view;
      view.index = base + i;
      view.peak_memory = rows[i].peak_memory;
      view.locality = v.locality(u, i);
      if (rows[i].opt_executor != kInvalidNode && (!rows[i].gpu_record || offer.idle_gpu)) {
        view.opt_executor = rows[i].opt_executor;
        view.history_size = rows[i].history_size;
      }
      view.expected_cost = rows[i].expected_cost;
      views.push_back(view);
      pools.push_back(rows[i].pool);
    }
    base += rows.size();
  }
  if (pool_order.empty()) return algorithm2_select(views, offer.node, offer.free_memory, policy);
  for (std::uint32_t pool : pool_order) {
    std::vector<DispatchTaskView> in_pool;
    for (std::size_t j = 0; j < views.size(); ++j) {
      if (pools[j] == pool) in_pool.push_back(views[j]);
    }
    if (auto pick = algorithm2_select(in_pool, offer.node, offer.free_memory, policy)) {
      return pick;
    }
  }
  return std::nullopt;
}

Visit random_visit(Rng& rng) {
  Visit v;
  v.count = rng.uniform() < 0.4 ? 2 : 1;  // CPU queue taking GPU refs
  bool multi_pool = rng.uniform() < 0.3;
  const double p_lock = std::array{0.0, 0.1, 0.5}[rng.uniform_index(3)];
  const double p_cached = rng.uniform() < 0.5 ? 0.0 : 0.2;
  const double p_valid = std::array{0.3, 0.8, 1.0}[rng.uniform_index(3)];
  std::uint64_t seq = rng.uniform_index(3);
  for (std::size_t u = 0; u < v.count; ++u) {
    std::size_t n = rng.uniform_index(25);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < 0.2) {
        // A ref that is not a row this round still sits in local lists.
        v.local_seqs[u][rng.uniform_index(Visit::kNodes)].push_back(seq++);
      }
      CandidateRow row;
      row.seq = seq++;
      row.pool = multi_pool ? static_cast<std::uint32_t>(rng.uniform_index(3)) : 0;
      row.peak_memory = rng.uniform(0.0, 6.0 * kGiB);
      if (rng.uniform() < p_lock) {
        row.opt_executor = static_cast<NodeId>(rng.uniform_index(Visit::kNodes));
      }
      row.gpu_record = rng.uniform() < 0.3;
      row.cached_input = rng.uniform() < p_cached;
      row.history_size = static_cast<std::uint8_t>(rng.uniform_index(kNumResourceKinds + 1));
      row.expected_cost = 10.0 * static_cast<double>(rng.uniform_index(4));  // ties
      v.segments[u].push(row);
      std::set<NodeId> prefers, cached;
      for (NodeId node = 0; node < Visit::kNodes; ++node) {
        if (rng.uniform() < 0.3) {
          prefers.insert(node);
          v.local_seqs[u][static_cast<std::size_t>(node)].push_back(row.seq);
        }
        if (row.cached_input && rng.uniform() < 0.3) cached.insert(node);
      }
      v.preferred[u].push_back(prefers);
      v.cached_on[u].push_back(cached);
      v.is_valid[u].push_back(rng.uniform() < p_valid);
    }
  }
  return v;
}

TEST(PrunedAlgorithm2, MatchesAlgorithm2OverEveryValidRow) {
  Rng rng(2024);
  std::size_t compared = 0, picked = 0, early = 0, full = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Visit v = random_visit(rng);
    std::vector<SegmentUse> uses = v.uses();
    // As in a kind-visit: heads skip the stale prefix before the node walk.
    any_valid_candidate(std::span<const SegmentUse>(uses), v);
    std::vector<std::uint32_t> pool_order;
    bool multi = spans_pools(uses);
    if (multi) {
      pool_order = {0, 1, 2};
      std::shuffle(pool_order.begin(), pool_order.end(), rng);
    }
    DispatcherPolicy policy;
    policy.opt_executor_lock = rng.uniform() < 0.8;
    policy.memory_guard = rng.uniform() < 0.8;
    policy.memory_headroom = rng.uniform() < 0.5 ? 0.0 : 0.5 * kGiB;
    std::vector<DispatchTaskView> scratch;
    VisitRows visit;  // validity is fixed for the trial, as for a kind-visit
    for (NodeId node = 0; node < Visit::kNodes; ++node) {
      NodeOffer offer{node, rng.uniform(0.0, 8.0 * kGiB), rng.uniform() < 0.5};
      v.node = node;
      std::optional<std::size_t> want = select_all_rows(v, offer, policy, pool_order);
      std::optional<CandidateRef> got =
          select_candidate(std::span<const SegmentUse>(uses), offer, policy, pool_order, v,
                           visit, scratch);
      std::optional<std::size_t> got_index;
      if (got) got_index = got->row + (got->use == 1 ? v.segments[0].size() : 0);
      ASSERT_EQ(got_index, want) << "trial " << trial << " node " << node;
      ++compared;
      if (want) ++picked;
      // Which path ran: early stop needs no cached input anywhere and no
      // valid row whose lock applies to this node.
      bool any_cached = false, locked_here = false;
      for (std::size_t u = 0; u < v.count; ++u) {
        const auto& rows = v.segments[u].rows();
        for (std::size_t i = 0; i < rows.size(); ++i) {
          any_cached = any_cached || rows[i].cached_input;
          locked_here = locked_here || (policy.opt_executor_lock && v.is_valid[u][i] &&
                                        rows[i].opt_executor == node &&
                                        (!rows[i].gpu_record || offer.idle_gpu));
        }
      }
      ++(any_cached || locked_here ? full : early);
    }
  }
  EXPECT_EQ(compared, 400u * Visit::kNodes);
  EXPECT_GT(picked, compared / 2);
  EXPECT_GT(early, compared / 5);
  EXPECT_GT(full, compared / 5);
}

TEST(PrunedAlgorithm2, EarlyStopReadsOnlyWhatCanWin) {
  // 1000 unlocked, uncached rows; one of them prefers node 3.
  Visit v;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    CandidateRow row;
    row.seq = seq;
    row.peak_memory = 1.0 * kGiB;
    v.segments[0].push(row);
    v.is_valid[0].push_back(true);
    v.preferred[0].push_back(seq == 700 ? std::set<NodeId>{3} : std::set<NodeId>{});
    v.cached_on[0].emplace_back();
  }
  v.local_seqs[0][3] = {700};
  std::vector<SegmentUse> uses = v.uses();
  std::vector<DispatchTaskView> scratch;
  VisitRows visit;
  v.node = 3;
  auto pick = select_candidate(std::span<const SegmentUse>(uses), NodeOffer{3, 8.0 * kGiB, false},
                               DispatcherPolicy{}, {}, v, visit, scratch);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->row, 700u);  // NODE_LOCAL beats the ANY rows before it
  EXPECT_EQ(v.checks, 1u);
  // Elsewhere the first row that fits wins; rows that fail the guard or
  // went stale are the only ones read past.
  v.is_valid[0][0] = false;
  v.node = 1;
  v.checks = 0;
  pick = select_candidate(std::span<const SegmentUse>(uses), NodeOffer{1, 8.0 * kGiB, false},
                          DispatcherPolicy{}, {}, v, visit, scratch);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->row, 1u);
  EXPECT_EQ(v.checks, 2u);
}

TEST(RoundRobin, CyclesAllKinds) {
  ResourceRoundRobin rr;
  std::set<ResourceKind> seen;
  for (int i = 0; i < kNumResourceKinds; ++i) seen.insert(rr.next());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumResourceKinds));
  EXPECT_EQ(rr.next(), ResourceKind::kCpu);  // wrapped around
}

}  // namespace
}  // namespace rupam
