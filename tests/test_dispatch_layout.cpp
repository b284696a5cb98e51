// Tests for the allocation-free dispatch data layout (DESIGN §15): the
// interned symbol table, TaskCharDb's dense (StageNameId, partition)
// slots, PoolId stability across membership churn, and the id-based FAIR
// pool ordering against the historical string-map algorithm.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/presets.hpp"
#include "common/symbol.hpp"
#include "exec/executor.hpp"
#include "sched/pool.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "sched/scheduler.hpp"

namespace rupam {
namespace {

// ---------------------------------------------------------------- symbols

TEST(SymbolTable, IdsAreDenseAndStable) {
  TypedSymbolTable<PoolNameTag> table;
  PoolId a = table.intern("alpha");
  PoolId b = table.intern("beta");
  EXPECT_EQ(a.value, 0u);
  EXPECT_EQ(b.value, 1u);
  EXPECT_EQ(table.intern("alpha"), a);  // re-intern is a lookup
  EXPECT_EQ(table.find("beta"), b);
  EXPECT_FALSE(table.find("never-seen").valid());
  EXPECT_EQ(table.name(a), "alpha");
  EXPECT_EQ(table.name(b), "beta");
}

TEST(SymbolTable, SurvivesRehash) {
  TypedSymbolTable<StageNameTag> table;
  std::vector<StageNameId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(table.intern("stage-" + std::to_string(i)));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(table.name(ids[static_cast<std::size_t>(i)]), "stage-" + std::to_string(i));
  }
}

// ------------------------------------------------------------ TaskCharDb

TaskMetrics metrics_with_compute(double compute) {
  TaskMetrics m;
  m.compute_time = compute;
  return m;
}

TEST(TaskCharDbKeys, DelimiterNamesNeverAlias) {
  // Under the old joined-string key ("name#partition" or "name:partition")
  // a stage name containing the delimiter could collide with another
  // stage's (name, partition) pair. The interned-id key makes that
  // impossible; pin it with the classic collision shapes.
  TaskCharDb db;
  db.update("job:stage", 7, metrics_with_compute(1.0), ResourceKind::kCpu);
  db.update("job", 7, metrics_with_compute(2.0), ResourceKind::kCpu);
  db.update("job:stage:7", 0, metrics_with_compute(3.0), ResourceKind::kCpu);
  db.update("a#1", 2, metrics_with_compute(4.0), ResourceKind::kCpu);
  db.update("a", 12, metrics_with_compute(5.0), ResourceKind::kCpu);
  EXPECT_EQ(db.size(), 5u);
  ASSERT_NE(db.lookup("job:stage", 7), nullptr);
  EXPECT_DOUBLE_EQ(db.lookup("job:stage", 7)->compute_time, 1.0);
  EXPECT_DOUBLE_EQ(db.lookup("job", 7)->compute_time, 2.0);
  EXPECT_DOUBLE_EQ(db.lookup("job:stage:7", 0)->compute_time, 3.0);
  EXPECT_DOUBLE_EQ(db.lookup("a#1", 2)->compute_time, 4.0);
  EXPECT_DOUBLE_EQ(db.lookup("a", 12)->compute_time, 5.0);
  // Pairs never written stay absent even though their joined forms match
  // a written record's joined form.
  EXPECT_EQ(db.lookup("job:stage:7", 7), nullptr);
  EXPECT_EQ(db.lookup("a#1#2", 0), nullptr);
}

TEST(TaskCharDbKeys, GpuMarkRespectsDelimiters) {
  TaskCharDb db;
  db.mark_stage_gpu("g:1");
  EXPECT_TRUE(db.stage_uses_gpu("g:1"));
  EXPECT_FALSE(db.stage_uses_gpu("g"));
  EXPECT_FALSE(db.stage_uses_gpu("g:1:0"));
}

TEST(TaskCharDbKeys, StringAndIdApisAgree) {
  TaskCharDb db;
  db.update("s:0", 3, metrics_with_compute(9.0), ResourceKind::kNetwork);
  StageNameId id = db.find_stage("s:0");
  ASSERT_TRUE(id.valid());
  EXPECT_EQ(db.lookup(id, 3), db.lookup("s:0", 3));
  EXPECT_EQ(db.lookup(id, 4), nullptr);
  EXPECT_EQ(db.lookup(StageNameId(), 3), nullptr);  // invalid id: no record
}

TEST(TaskCharDbKeys, InternedIdsSurviveClear) {
  TaskCharDb db;
  StageNameId id = db.intern_stage("persist");
  db.update("persist", 0, metrics_with_compute(1.0), ResourceKind::kCpu);
  db.clear();
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.lookup(id, 0), nullptr);
  // The interner is not reset: ids held by live TaskManager state stay
  // resolvable, and re-learning lands under the same id.
  EXPECT_EQ(db.find_stage("persist"), id);
  db.update("persist", 0, metrics_with_compute(2.0), ResourceKind::kCpu);
  ASSERT_NE(db.lookup(id, 0), nullptr);
  EXPECT_DOUBLE_EQ(db.lookup(id, 0)->compute_time, 2.0);
}

TEST(TaskCharDbKeys, NegativeOrOutOfRangePartitionIsNull) {
  TaskCharDb db;
  db.update("s", 3, metrics_with_compute(1.0), ResourceKind::kCpu);
  StageNameId id = db.find_stage("s");
  EXPECT_EQ(db.lookup(id, -1), nullptr);
  EXPECT_EQ(db.lookup("s", -1), nullptr);
  EXPECT_EQ(db.lookup(id, 4), nullptr);  // past the stage's highest partition
  EXPECT_EQ(db.lookup(id, 1 << 30), nullptr);
  EXPECT_EQ(db.lookup(db.intern_stage("fresh"), 0), nullptr);  // stage with no records
  EXPECT_THROW(db.update("s", -1, metrics_with_compute(1.0), ResourceKind::kCpu),
               std::invalid_argument);
}

TEST(TaskCharDbKeys, SparsePartitionHoldsOneRecord) {
  TaskCharDb db;
  db.update("s", 5000, metrics_with_compute(7.0), ResourceKind::kDisk);
  EXPECT_EQ(db.size(), 1u);
  ASSERT_NE(db.lookup("s", 5000), nullptr);
  EXPECT_DOUBLE_EQ(db.lookup("s", 5000)->compute_time, 7.0);
  EXPECT_EQ(db.lookup("s", 0), nullptr);
  EXPECT_EQ(db.lookup("s", 4999), nullptr);
}

TEST(TaskCharDbKeys, ClearDropsRecordsButKeepsIds) {
  TaskCharDb db;
  for (int p : {0, 9, 300}) db.update("a", p, metrics_with_compute(1.0), ResourceKind::kCpu);
  db.update("b", 2, metrics_with_compute(1.0), ResourceKind::kCpu);
  StageNameId a = db.find_stage("a");
  StageNameId b = db.find_stage("b");
  db.clear();
  EXPECT_EQ(db.size(), 0u);
  for (int p : {0, 2, 9, 300}) {
    EXPECT_EQ(db.lookup(a, p), nullptr) << p;
    EXPECT_EQ(db.lookup(b, p), nullptr) << p;
  }
  EXPECT_EQ(db.find_stage("a"), a);
  EXPECT_EQ(db.find_stage("b"), b);
  db.update("b", 9, metrics_with_compute(4.0), ResourceKind::kCpu);
  EXPECT_EQ(db.size(), 1u);
  ASSERT_NE(db.lookup(b, 9), nullptr);
  EXPECT_DOUBLE_EQ(db.lookup(b, 9)->compute_time, 4.0);
  EXPECT_EQ(db.lookup(a, 9), nullptr);
}

TEST(TaskCharDbKeys, StringAndIdApisAgreeOnEveryRecord) {
  TaskCharDb db;
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> stage_dist(0, 5);
  std::uniform_int_distribution<int> part_dist(0, 64);
  for (int i = 0; i < 200; ++i) {
    db.update("stage-" + std::to_string(stage_dist(rng)), part_dist(rng),
              metrics_with_compute(static_cast<double>(i)), ResourceKind::kCpu);
  }
  for (int s = 0; s <= 5; ++s) {
    std::string name = "stage-" + std::to_string(s);
    StageNameId id = db.find_stage(name);
    for (int p = -1; p <= 65; ++p) {
      EXPECT_EQ(db.lookup(id, p), db.lookup(name, p)) << name << " " << p;
    }
  }
}

// -------------------------------------------------------- pool id layout

/// Minimal concrete scheduler exposing the protected pool machinery.
class PoolProbeScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;
  std::string name() const override { return "pool-probe"; }

  PoolId stage_pool(StageId id) const { return pool_of(stages_.at(id)); }
  const std::string& resolve(PoolId id) const { return pool_name(id); }

  std::vector<std::string> fair_order_names() {
    std::vector<std::string> names;
    for (PoolId id : fair_pool_order()) names.push_back(pool_name(id));
    return names;
  }

  /// Launch up to `n` tasks of `stage` on whatever slots are free, giving
  /// its pool a nonzero running count for the fair-share comparator.
  int launch_n(StageId id, int n) {
    StageState& stage = stages_.at(id);
    int launched = 0;
    for (std::size_t i = 0; i < stage.tasks.size() && launched < n; ++i) {
      TaskState& task = stage.tasks[i];
      if (!launchable(task)) continue;
      for_each_ready_node(0, [&](NodeId node, Executor&) {
        if (launch_task(stage, task, node, /*use_gpu=*/false, /*speculative=*/false)) {
          ++launched;
          return false;
        }
        return true;
      });
    }
    return launched;
  }

 protected:
  void try_dispatch() override {}
};

struct PoolHarness {
  Simulator sim;
  Cluster cluster{sim};
  std::vector<std::unique_ptr<Executor>> executors;
  std::unique_ptr<PoolProbeScheduler> sched;
  StageId next_stage = 0;

  explicit PoolHarness(std::size_t nodes = 4) {
    Rng rng(1);
    for (std::size_t i = 0; i < nodes; ++i) cluster.add_node(thor_spec());
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(
          std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
      env.executors.push_back(executors.back().get());
    }
    sched = std::make_unique<PoolProbeScheduler>(env);
  }

  /// Submit one taskset billed to `pool`; returns its StageId.
  StageId submit(const std::string& pool, int tasks = 8) {
    TaskSet set;
    set.job = static_cast<JobId>(next_stage);
    set.stage = next_stage;
    set.stage_name = "s" + std::to_string(next_stage);
    set.pool = pool;
    for (int i = 0; i < tasks; ++i) {
      TaskSpec t;
      t.id = static_cast<TaskId>(1000 * next_stage + i);
      t.partition = i;
      t.stage = next_stage;
      t.stage_name = set.stage_name;
      t.compute = 50.0;
      t.peak_memory = 64.0 * kMiB;
      set.tasks.push_back(t);
    }
    sched->submit(set);
    return next_stage++;
  }
};

TEST(PoolIds, DefaultPoolIsIdZero) {
  PoolHarness h;
  StageId s = h.submit("");  // empty pool name bills to kDefaultPool
  EXPECT_EQ(h.sched->stage_pool(s), PoolId(0));
  EXPECT_EQ(h.sched->resolve(PoolId(0)), kDefaultPool);
}

TEST(PoolIds, StableAcrossDecommissionAndMidRunPools) {
  PoolHarness h(4);
  StageId sb = h.submit("tenant-b");  // interned before "tenant-a" on
  StageId sa = h.submit("tenant-a");  // purpose: id order != lex order
  PoolId b = h.sched->stage_pool(sb);
  PoolId a = h.sched->stage_pool(sa);
  ASSERT_NE(a, b);
  EXPECT_EQ(h.sched->resolve(b), "tenant-b");
  EXPECT_EQ(h.sched->resolve(a), "tenant-a");

  // Decommissioning a node purges per-node scheduler state; pool ids and
  // their dense mirrors must be untouched.
  h.cluster.decommission(2);
  EXPECT_EQ(h.sched->stage_pool(sb), b);
  EXPECT_EQ(h.sched->resolve(b), "tenant-b");

  // A pool first seen mid-run gets the next dense id; existing stages
  // and later stages of old pools keep resolving to the same ids.
  StageId sc = h.submit("tenant-c");
  StageId sa2 = h.submit("tenant-a");
  PoolId c = h.sched->stage_pool(sc);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(h.sched->stage_pool(sa2), a);
  EXPECT_EQ(h.sched->resolve(c), "tenant-c");
  EXPECT_EQ(h.sched->resolve(a), "tenant-a");
}

// -------------------------------------------- fair ordering equivalence

TEST(FairPoolOrder, MatchesStringAlgorithmOnRandomizedWorkloads) {
  // Regression for the dense-id rewrite of fair_pool_order(): on random
  // multi-pool workloads (random weights, min shares, running counts and
  // intern orders) the id-based ordering must equal Spark's
  // FairSchedulingAlgorithm run over name-keyed snapshots — the
  // implementation this repo shipped before the dispatch-layout change,
  // still exposed as fair_order() in sched/pool.hpp.
  std::mt19937 rng(42);
  const std::vector<std::string> names = {"etl",  "ml",    "adhoc", "vip",
                                          "bulk", "inter", "batch", "svc"};
  for (int trial = 0; trial < 25; ++trial) {
    PoolHarness h(6);  // 6 × 8 slots: room for every running count below
    std::vector<std::string> pools = names;
    std::shuffle(pools.begin(), pools.end(), rng);
    std::size_t active = 2 + rng() % (pools.size() - 1);
    pools.resize(active);

    PoolConfig config;
    config.policy = PoolPolicy::kFair;
    for (const std::string& pool : pools) {
      if (rng() % 2 == 0) continue;  // half the pools stay on defaults
      PoolSpec spec;
      spec.weight = 0.5 * static_cast<double>(1 + rng() % 8);
      spec.min_share = static_cast<int>(rng() % 5);
      config.pools[pool] = spec;
    }
    h.sched->configure_pools(config);

    for (const std::string& pool : pools) {
      StageId stage = h.submit(pool);
      int want = static_cast<int>(rng() % 6);
      ASSERT_EQ(h.sched->launch_n(stage, want), want) << "trial " << trial;
    }

    std::vector<PoolSnapshot> snapshots;
    for (const std::string& pool : pools) {
      PoolSnapshot snap;
      snap.name = pool;
      snap.running = h.sched->pool_running_tasks(pool);
      snap.weight = h.sched->pools().spec(pool).weight;
      snap.min_share = h.sched->pools().spec(pool).min_share;
      snapshots.push_back(snap);
    }
    std::vector<std::string> expected = fair_order(snapshots);
    EXPECT_EQ(h.sched->fair_order_names(), expected) << "trial " << trial;
    // Scratch reuse must be idempotent between dispatch rounds.
    EXPECT_EQ(h.sched->fair_order_names(), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rupam
