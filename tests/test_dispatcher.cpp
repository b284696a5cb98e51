// Algorithm 2 selection logic (paper) — pure-logic tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <set>
#include <string>

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
    return !segments[use].rows()[row].gone && is_valid[use][row];
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

/// Draws of one random_visit: every row it appends (at build or, for the
/// row-upkeep test, later) follows the same mix.
struct RowMix {
  bool multi_pool = false;
  double p_lock = 0.0;
  double p_cached = 0.0;
  double p_valid = 1.0;
  std::uint64_t next_seq = 0;

  explicit RowMix(Rng& rng)
      : multi_pool(rng.uniform() < 0.3),
        p_lock(std::array{0.0, 0.1, 0.5}[rng.uniform_index(3)]),
        p_cached(rng.uniform() < 0.5 ? 0.0 : 0.2),
        p_valid(std::array{0.3, 0.8, 1.0}[rng.uniform_index(3)]),
        next_seq(rng.uniform_index(3)) {}

  /// The DB_task_char-derived fields of a row.
  void draw_record(Rng& rng, CandidateRow& row) const {
    row.opt_executor = kInvalidNode;
    if (rng.uniform() < p_lock) {
      row.opt_executor = static_cast<NodeId>(rng.uniform_index(Visit::kNodes));
    }
    row.gpu_record = rng.uniform() < 0.3;
    row.history_size = static_cast<std::uint8_t>(rng.uniform_index(kNumResourceKinds + 1));
    row.expected_cost = 10.0 * static_cast<double>(rng.uniform_index(4));  // ties
  }

  /// Append one row to use `u` of `v`, with its preferred and caching
  /// nodes; sometimes a non-row seq first, which still sits in local lists.
  void append(Rng& rng, Visit& v, std::size_t u) {
    if (rng.uniform() < 0.2) {
      v.local_seqs[u][rng.uniform_index(Visit::kNodes)].push_back(next_seq++);
    }
    CandidateRow row;
    row.seq = next_seq++;
    row.pool = multi_pool ? static_cast<std::uint32_t>(rng.uniform_index(3)) : 0;
    row.peak_memory = rng.uniform(0.0, 6.0 * kGiB);
    row.cached_input = rng.uniform() < p_cached;
    draw_record(rng, row);
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
};

Visit random_visit(Rng& rng, RowMix& mix) {
  Visit v;
  v.count = rng.uniform() < 0.4 ? 2 : 1;  // CPU queue taking GPU refs
  for (std::size_t u = 0; u < v.count; ++u) {
    std::size_t n = rng.uniform_index(25);
    for (std::size_t i = 0; i < n; ++i) mix.append(rng, v, u);
  }
  return v;
}

Visit random_visit(Rng& rng) {
  RowMix mix(rng);
  return random_visit(rng, mix);
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

// ------------------------------------------------------ row upkeep

/// What a fresh rebuild holds: `v` with only its live rows, pushed in seq
/// (queue) order into new segments, each row keeping its task's state.
Visit rebuilt(const Visit& v) {
  Visit fresh;
  fresh.count = v.count;
  fresh.local_seqs = v.local_seqs;
  for (std::size_t u = 0; u < v.count; ++u) {
    const auto& rows = v.segments[u].rows();
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].gone) live.push_back(i);
    }
    std::sort(live.begin(), live.end(),
              [&](std::size_t a, std::size_t b) { return rows[a].seq < rows[b].seq; });
    for (std::size_t i : live) {
      fresh.segments[u].push(rows[i]);
      fresh.is_valid[u].push_back(v.is_valid[u][i]);
      fresh.preferred[u].push_back(v.preferred[u][i]);
      fresh.cached_on[u].push_back(v.cached_on[u][i]);
    }
  }
  return fresh;
}

/// Seqs of the rows at `rows` of `seg`.
template <class Rows, class RowOf>
std::vector<std::uint64_t> seqs_of(const CandidateSegment& seg, const Rows& rows, RowOf row_of) {
  std::vector<std::uint64_t> out;
  for (const auto& r : rows) out.push_back(seg.rows()[row_of(r)].seq);
  return out;
}

/// Every aggregate select_candidate() prunes by, and the valid rows, agree
/// between a segment kept by delta and one rebuilt from its live rows.
void expect_same_segment(CandidateSegment& kept, CandidateSegment& fresh, const Visit& v,
                         const Visit& f, std::size_t u, const std::string& where) {
  ASSERT_EQ(kept.live(), fresh.size()) << where;
  EXPECT_EQ(kept.has_cached_input(), fresh.has_cached_input()) << where;
  EXPECT_EQ(kept.multi_pool(), fresh.multi_pool()) << where;
  if (!fresh.multi_pool() && fresh.size() > 0) {
    EXPECT_EQ(kept.first_pool(), fresh.first_pool()) << where;
  }
  auto index = [](std::size_t i) { return i; };
  auto second = [](const std::pair<NodeId, std::size_t>& p) { return p.second; };
  EXPECT_EQ(seqs_of(kept, kept.locked_rows(), index),
            seqs_of(fresh, fresh.locked_rows(), index))
      << where;
  for (NodeId node = 0; node < Visit::kNodes; ++node) {
    EXPECT_EQ(seqs_of(kept, kept.locked_to(node), second),
              seqs_of(fresh, fresh.locked_to(node), second))
        << where << " node " << node;
  }
  // The valid rows, field by field.
  std::vector<std::size_t> kept_valid, fresh_valid;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (!kept.rows()[i].gone && v.is_valid[u][i]) kept_valid.push_back(i);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (f.is_valid[u][i]) fresh_valid.push_back(i);
  }
  ASSERT_EQ(kept_valid.size(), fresh_valid.size()) << where;
  for (std::size_t j = 0; j < kept_valid.size(); ++j) {
    const CandidateRow& a = kept.rows()[kept_valid[j]];
    const CandidateRow& b = fresh.rows()[fresh_valid[j]];
    EXPECT_EQ(a.seq, b.seq) << where;
    EXPECT_EQ(a.pool, b.pool) << where;
    EXPECT_EQ(a.peak_memory, b.peak_memory) << where;
    EXPECT_EQ(a.opt_executor, b.opt_executor) << where;
    EXPECT_EQ(a.gpu_record, b.gpu_record) << where;
    EXPECT_EQ(a.history_size, b.history_size) << where;
    EXPECT_EQ(a.expected_cost, b.expected_cost) << where;
    EXPECT_EQ(a.cached_input, b.cached_input) << where;
  }
}

TEST(RupamRows, DeltaUpkeepMatchesRebuild) {
  // Random segments from the pruned-rule generator, then the changes the
  // scheduler applies as deltas: enqueue appends, finish tombstones (and
  // compacts past half), a DB_task_char update patches a row's record
  // fields, launch and pending-again flip validity in place, and a restore
  // re-inserts a row that compaction dropped at its seq.
  Rng rng(4242);
  std::size_t ops = 0, compactions = 0, inserts = 0, picks = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RowMix mix(rng);
    Visit v = random_visit(rng, mix);
    /// Rows compaction dropped, with their task state, per use.
    struct Dropped {
      CandidateRow row;
      bool valid;
      std::set<NodeId> preferred, cached_on;
    };
    std::array<std::vector<Dropped>, 2> dropped;
    for (int step = 0; step < 40; ++step) {
      std::size_t u = rng.uniform_index(v.count);
      CandidateSegment& seg = v.segments[u];
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < seg.size(); ++i) {
        if (!seg.rows()[i].gone) live.push_back(i);
      }
      double r = rng.uniform();
      if (!dropped[u].empty() && r < 0.15) {
        std::size_t j = rng.uniform_index(dropped[u].size());
        Dropped d = dropped[u][j];
        dropped[u].erase(dropped[u].begin() + static_cast<std::ptrdiff_t>(j));
        d.row.gone = false;
        mix.draw_record(rng, d.row);  // re-read: the record may have moved on
        std::size_t at = seg.insert(d.row);
        ASSERT_EQ(seg.rows()[at].seq, d.row.seq);
        auto pos = [at](auto& vec) { return vec.begin() + static_cast<std::ptrdiff_t>(at); };
        v.is_valid[u].insert(pos(v.is_valid[u]), d.valid);
        v.preferred[u].insert(pos(v.preferred[u]), d.preferred);
        v.cached_on[u].insert(pos(v.cached_on[u]), d.cached_on);
        ++inserts;
      } else if (live.empty() || r < 0.3) {
        mix.append(rng, v, u);
      } else {
        std::size_t i = live[rng.uniform_index(live.size())];
        if (r < 0.55) {
          seg.erase(i);
          if (2 * seg.tombstones() > seg.size()) {
            // The scheduler compacts its parallel task list alongside.
            std::size_t kept = 0;
            for (std::size_t j = 0; j < seg.size(); ++j) {
              if (seg.rows()[j].gone) {
                dropped[u].push_back(
                    {seg.rows()[j], v.is_valid[u][j], v.preferred[u][j], v.cached_on[u][j]});
                continue;
              }
              v.is_valid[u][kept] = v.is_valid[u][j];
              v.preferred[u][kept] = v.preferred[u][j];
              v.cached_on[u][kept] = v.cached_on[u][j];
              ++kept;
            }
            v.is_valid[u].resize(kept);
            v.preferred[u].resize(kept);
            v.cached_on[u].resize(kept);
            seg.compact();
            EXPECT_EQ(seg.tombstones(), 0u);
            ++compactions;
          }
        } else if (r < 0.8) {
          CandidateRow row = seg.rows()[i];
          mix.draw_record(rng, row);
          seg.replace(i, row);
        } else {
          v.is_valid[u][i] = !v.is_valid[u][i];
        }
      }
      ++ops;
      Visit f = rebuilt(v);
      std::string where = "trial " + std::to_string(trial) + " step " + std::to_string(step);
      for (std::size_t w = 0; w < v.count; ++w) {
        expect_same_segment(v.segments[w], f.segments[w], v, f, w, where);
      }
      if (::testing::Test::HasFailure()) return;
      // And the pruned rule picks the same task from either.
      std::vector<SegmentUse> kept_uses = v.uses(), fresh_uses = f.uses();
      v.heads = {};
      f.heads = {};
      any_valid_candidate(std::span<const SegmentUse>(kept_uses), v);
      any_valid_candidate(std::span<const SegmentUse>(fresh_uses), f);
      std::vector<std::uint32_t> pool_order;
      if (spans_pools(fresh_uses)) pool_order = {2, 0, 1};
      ASSERT_EQ(spans_pools(kept_uses), spans_pools(fresh_uses)) << where;
      std::vector<DispatchTaskView> scratch;
      VisitRows kept_visit, fresh_visit;
      for (NodeId node = 0; node < Visit::kNodes; ++node) {
        NodeOffer offer{node, rng.uniform(0.0, 8.0 * kGiB), rng.uniform() < 0.5};
        v.node = f.node = node;
        auto seq_of = [](const Visit& x, std::optional<CandidateRef> ref) {
          return ref ? std::optional<std::uint64_t>(x.segments[ref->use].rows()[ref->row].seq)
                     : std::nullopt;
        };
        auto a = select_candidate(std::span<const SegmentUse>(kept_uses), offer,
                                  DispatcherPolicy{}, pool_order, v, kept_visit, scratch);
        auto b = select_candidate(std::span<const SegmentUse>(fresh_uses), offer,
                                  DispatcherPolicy{}, pool_order, f, fresh_visit, scratch);
        ASSERT_EQ(seq_of(v, a), seq_of(f, b)) << where << " node " << node;
        if (b) ++picks;
      }
    }
  }
  EXPECT_EQ(ops, 150u * 40u);
  EXPECT_GT(compactions, 100u);
  EXPECT_GT(inserts, 100u);
  EXPECT_GT(picks, ops);
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
