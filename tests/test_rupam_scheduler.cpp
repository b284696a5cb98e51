// Integration tests for the RUPAM scheduler: memory guard, dynamic
// executor sizing, over-commit, GPU handling, learning across iterations,
// and straggler relocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "sched/rupam/rupam_scheduler.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

Application one_stage_app(std::vector<TaskSpec> tasks, const std::string& name = "s0",
                          StageId stage_id = 0, JobId job_id = 0) {
  Application app;
  Job job;
  job.id = job_id;
  job.name = "job";
  Stage stage;
  stage.id = stage_id;
  stage.name = name;
  stage.tasks.stage = stage_id;
  stage.tasks.stage_name = name;
  for (auto& t : tasks) {
    t.stage = stage_id;
    t.stage_name = name;
    stage.tasks.tasks.push_back(t);
  }
  job.stages.push_back(std::move(stage));
  app.jobs.push_back(std::move(job));
  return app;
}

TaskSpec small_task(TaskId id, double compute = 2.0) {
  TaskSpec t;
  t.id = id;
  t.partition = static_cast<int>(id);
  t.compute = compute;
  t.peak_memory = 128.0 * kMiB;
  return t;
}

TEST(RupamScheduler, RunsAllTasksToCompletion) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 50; ++i) tasks.push_back(small_task(i));
  Application app = one_stage_app(std::move(tasks));
  EXPECT_GT(sim.run(app), 0.0);
  EXPECT_EQ(sim.scheduler().completed().size(), 50u);
}

TEST(RupamScheduler, DynamicExecutorSizing) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  // Per-node heaps: node memory - 2 GiB (paper §III-C2).
  for (NodeId id : sim.cluster().node_ids()) {
    Bytes expected = sim.cluster().node(id).spec().memory - 2.0 * kGiB;
    EXPECT_DOUBLE_EQ(sim.executor(id).heap(), expected);
  }
}

TEST(RupamScheduler, MemoryGuardAvoidsOom) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 60; ++i) {
    TaskSpec t = small_task(i, 10.0);
    t.unmanaged_memory = 2.0 * kGiB;  // kills default Spark on thor nodes
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 60u);
  EXPECT_EQ(sim.total_oom_kills(), 0u);
  EXPECT_EQ(sim.total_executor_losses(), 0u);
}

TEST(RupamScheduler, OverCommitOverlapsMismatchedTasks) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.nodes = {thor_spec()};  // one 8-core node
  cfg.nodes[0].name = "solo";
  Simulation sim(cfg);
  // 8 known CPU-bound tasks + 4 known network-bound tasks. With slot
  // scheduling only 8 run at once; over-commit runs the net tasks too.
  RupamScheduler* rupam = sim.rupam_scheduler();
  ASSERT_NE(rupam, nullptr);
  // Pre-teach the DB so classification is immediate.
  for (int p = 0; p < 8; ++p) {
    TaskMetrics m;
    m.compute_time = 50.0;
    rupam->db().update("cpu-stage", p, m, ResourceKind::kCpu);
  }
  for (int p = 0; p < 4; ++p) {
    TaskMetrics m;
    m.shuffle_read_time = 50.0;
    rupam->db().update("net-stage", p, m, ResourceKind::kNetwork);
  }
  Application app;
  Job job;
  job.id = 0;
  Stage cpu_stage;
  cpu_stage.id = 0;
  cpu_stage.name = "cpu-stage";
  cpu_stage.tasks.stage = 0;
  cpu_stage.tasks.stage_name = "cpu-stage";
  for (TaskId i = 0; i < 8; ++i) {
    TaskSpec t = small_task(i, 30.0);
    t.stage = 0;
    t.stage_name = "cpu-stage";
    cpu_stage.tasks.tasks.push_back(t);
  }
  Stage net_stage;
  net_stage.id = 1;
  net_stage.name = "net-stage";
  net_stage.tasks.stage = 1;
  net_stage.tasks.stage_name = "net-stage";
  for (TaskId i = 8; i < 12; ++i) {
    TaskSpec t = small_task(i, 0.1);
    t.stage = 1;
    t.stage_name = "net-stage";
    t.partition = static_cast<int>(i - 8);
    t.shuffle_read_bytes = 100.0 * kMiB;
    t.shuffle_remote_fraction = 1.0;
    net_stage.tasks.tasks.push_back(t);
  }
  job.stages = {cpu_stage, net_stage};
  app.jobs.push_back(job);

  sim.run(app);
  // The net tasks must have overlapped the CPU wave: their finish time is
  // far below the CPU wave length (30/3.5 ≈ 8.6s each, single wave).
  for (const auto& m : sim.scheduler().completed()) {
    if (m.stage == 1) {
      EXPECT_LT(m.finish_time, 9.0);
    }
  }
}

TEST(RupamScheduler, SlotSemanticsWhenOvercommitDisabled) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.rupam.overcommit = false;
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 40; ++i) tasks.push_back(small_task(i));
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 40u);
}

TEST(RupamScheduler, LearnsAcrossIterations) {
  // Per-iteration windows must shrink as DB_task_char warms (Fig 6).
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("LR"), sim.cluster().node_ids(), 3, 6,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  // Gather per-gradient-stage windows in stage order.
  std::map<StageId, std::pair<SimTime, SimTime>> window;
  for (const auto& m : sim.scheduler().completed()) {
    if (m.stage_name != "lr-gradient") continue;
    auto [it, fresh] = window.try_emplace(m.stage, m.launch_time, m.finish_time);
    it->second.first = std::min(it->second.first, m.launch_time);
    it->second.second = std::max(it->second.second, m.finish_time);
  }
  ASSERT_GE(window.size(), 3u);
  std::vector<double> widths;
  for (const auto& [id, w] : window) widths.push_back(w.second - w.first);
  // Warm DB must make at least one later iteration clearly faster than
  // the cold first one (single-run widths fluctuate, so compare the best).
  double best_late = *std::min_element(widths.begin() + 1, widths.end());
  EXPECT_LT(best_late, widths.front() * 0.95);
}

TEST(RupamScheduler, GpuTasksReachDevices) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("KMeans"), sim.cluster().node_ids(), 3, 3,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  std::size_t gpu_runs = 0;
  for (const auto& m : sim.scheduler().completed()) gpu_runs += m.used_gpu;
  EXPECT_GT(gpu_runs, 0u);
}

TEST(RupamScheduler, MemoryStragglerRelocation) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.nodes = {thor_spec(), thor_spec()};
  cfg.nodes[0].name = "a";
  cfg.nodes[1].name = "b";
  cfg.rupam.memory_guard = false;  // let the node overfill, then relocate
  cfg.oom_grace = 30.0;            // pressure resolves slowly: RM acts first
  Simulation sim(cfg);
  std::vector<TaskSpec> tasks;
  for (TaskId i = 0; i < 10; ++i) {
    TaskSpec t = small_task(i, 60.0);
    t.peak_memory = 0.0;
    t.unmanaged_memory = 3.0 * kGiB;  // 5/node = 15 GiB > 14 GiB heap
    tasks.push_back(t);
  }
  Application app = one_stage_app(std::move(tasks));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().completed().size(), 10u);
  // With two overfilled nodes, RM must have flagged memory stragglers.
  EXPECT_GT(sim.scheduler().relocations(), 0u);
}

TEST(RupamScheduler, FeaturetogglesAreHonored) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.rupam.memory_straggler = false;
  cfg.rupam.gpu_cpu_race = false;
  cfg.rupam.opt_executor_lock = false;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), 3, 1,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  EXPECT_EQ(sim.scheduler().relocations(), 0u);
  EXPECT_EQ(sim.rupam_scheduler()->gpu_races(), 0u);
}

TEST(RupamScheduler, DbClearedBetweenFreshSimulations) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  Simulation a(cfg);
  EXPECT_EQ(a.rupam_scheduler()->db().size(), 0u);
  Application app = build_workload(workload_preset("PR"), a.cluster().node_ids(), 3, 1,
                                   hdfs_placement_weights(a.cluster()));
  a.run(app);
  EXPECT_GT(a.rupam_scheduler()->db().size(), 0u);
  Simulation b(cfg);
  EXPECT_EQ(b.rupam_scheduler()->db().size(), 0u);
}

// RUPAM's admission check and launch path, with dispatch left to the test.
class AdmissionProbe : public RupamScheduler {
 public:
  using RupamScheduler::RupamScheduler;

  /// node_available against the monitor's current snapshot.
  bool admits(NodeId node, ResourceKind kind) {
    const NodeMetrics* m = resource_monitor().latest(node);
    return m != nullptr && node_available(*m, kind);
  }
  /// Launch the first launchable task on `node`, billed to `kind`.
  bool launch_one(NodeId node, ResourceKind kind) {
    for (auto& [id, stage] : stages_) {
      for (TaskState& task : stage.tasks) {
        if (launchable(task)) return launch_task(stage, task, node, false, false, kind);
      }
    }
    return false;
  }

 protected:
  void try_dispatch() override {}
};

// The resumable node walk skips, for the rest of a dispatch round, the
// nodes a kind already refused. That is sound because admission is
// monotone within a round: the metrics snapshot is fixed, and launches
// only consume slots, per-kind commitments and device/disk/NIC capacity.
TEST(RupamScheduler, AdmissionIsMonotoneWithinARound) {
  for (bool overcommit : {true, false}) {
    Simulator sim;
    Cluster cluster(sim);
    build_hydra(cluster);
    std::vector<std::unique_ptr<Executor>> executors;
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    Rng rng(7);
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(
          std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
      env.executors.push_back(executors.back().get());
    }
    RupamConfig config;
    config.overcommit = overcommit;
    AdmissionProbe sched(env, config);

    TaskSet set;
    set.stage_name = "s0";
    for (int i = 0; i < 400; ++i) {
      TaskSpec t = small_task(static_cast<TaskId>(i), 20.0);
      t.stage_name = set.stage_name;
      t.peak_memory = rng.uniform(64.0, 2048.0) * kMiB;
      t.input_bytes = rng.uniform(0.0, 512.0) * kMiB;
      t.shuffle_write_bytes = rng.uniform(0.0, 256.0) * kMiB;
      set.tasks.push_back(t);
    }
    sched.submit(set);
    // One round's snapshot, then launches without re-seeding it.
    for (NodeId id : cluster.node_ids()) sched.resource_monitor().record(cluster.node(id).metrics());

    std::set<std::pair<NodeId, int>> refused;
    auto note_refusals = [&] {
      for (NodeId id : cluster.node_ids()) {
        for (int k = 0; k < kNumResourceKinds; ++k) {
          if (!sched.admits(id, static_cast<ResourceKind>(k))) refused.emplace(id, k);
        }
      }
    };
    note_refusals();
    std::size_t refused_at_start = refused.size();
    int launches = 0;
    for (int step = 0; step < 2000 && launches < 400; ++step) {
      NodeId node = static_cast<NodeId>(rng.uniform_index(cluster.size()));
      auto kind = static_cast<ResourceKind>(rng.uniform_index(kNumResourceKinds));
      if (!sched.admits(node, kind)) continue;
      ASSERT_TRUE(sched.launch_one(node, kind));
      ++launches;
      for (const auto& [id, k] : refused) {
        EXPECT_FALSE(sched.admits(id, static_cast<ResourceKind>(k)))
            << "overcommit=" << overcommit << ": node " << id << " kind " << k
            << " admitted again after launch " << launches;
      }
      note_refusals();
    }
    EXPECT_GT(launches, 50) << "overcommit=" << overcommit;
    // Launches did consume capacity: more (node, kind) pairs refuse now.
    EXPECT_GT(refused.size(), refused_at_start) << "overcommit=" << overcommit;
  }
}

// RUPAM with every dispatch round first checking its queues — the candidate
// rows it keeps by delta — against a reference derived from the task state:
// per kind, a row for each ref a live task holds (slots()) that is active,
// or parked in the racing GPU queue, in seq order, carrying its task's
// DB_task_char record; with the same lock index and aggregates.
class RowsProbe : public RupamScheduler {
 public:
  using RupamScheduler::RupamScheduler;
  using SchedulerBase::preempt_task;
  using SchedulerBase::relocate_task;
  using SchedulerBase::StageState;
  using SchedulerBase::TaskState;
  std::map<StageId, StageState>& stages() { return stages_; }

  std::size_t checks = 0;
  /// Restored refs whose row compaction had dropped: re-inserted mid-queue.
  std::size_t reinserts = 0;

 protected:
  void try_dispatch() override {
    check_rows();
    RupamScheduler::try_dispatch();
  }
  void task_pending_changed(StageState& stage, std::size_t index, bool pending) override {
    if (pending) {
      for (const TaskManager::Slot& slot : task_manager().slots(stage.set.stage, index)) {
        if (rows(slot.kind).candidates.find(slot.seq) == CandidateSegment::npos) ++reinserts;
      }
    }
    RupamScheduler::task_pending_changed(stage, index, pending);
  }

 private:
  using Row = std::tuple<std::uint64_t, std::uint32_t, Bytes, NodeId, bool, std::uint8_t, double,
                         bool, const StageState*, std::size_t>;
  static Row row_of(const QueueRows& q, std::size_t i) {
    const CandidateRow& r = q.candidates.rows()[i];
    return {r.seq,          r.pool,         r.peak_memory,    r.opt_executor,   r.gpu_record,
            r.history_size, r.expected_cost, r.cached_input, q.tasks[i].first, q.tasks[i].second};
  }
  std::array<std::vector<Row>, kNumResourceKinds> reference() {
    std::array<std::vector<Row>, kNumResourceKinds> want;
    for (auto& [id, stage] : stages_) {
      for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
        const TaskState& task = stage.tasks[i];
        for (const TaskManager::Slot& slot : task_manager().slots(id, i)) {
          EXPECT_FALSE(task.finished) << "a finished task holds refs";
          bool races = slot.kind == ResourceKind::kGpu && config().gpu_cpu_race;
          if (!task_manager().ref_active(slot.seq) && !races) continue;
          NodeId opt = kInvalidNode;
          bool gpu = false;
          std::uint8_t history = 0;
          double cost = 0.0;
          if (const TaskCharRecord* rec = db().lookup(task.spec.stage_name, task.spec.partition)) {
            opt = rec->opt_executor;
            gpu = rec->gpu;
            history = static_cast<std::uint8_t>(rec->history_resources.size());
            cost = rec->compute_time + rec->shuffle_read + rec->shuffle_write;
          }
          want[static_cast<std::size_t>(slot.kind)].emplace_back(
              slot.seq, static_cast<std::uint32_t>(stage.pool.index()), task.spec.total_memory(),
              opt, gpu, history, cost, !task.spec.input_cache_key.empty(), &stage, i);
        }
      }
    }
    for (std::vector<Row>& rows : want) std::sort(rows.begin(), rows.end());
    return want;
  }
  void check_rows() {
    std::array<std::vector<Row>, kNumResourceKinds> want = reference();
    for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
      const QueueRows& kept = rows(static_cast<ResourceKind>(k));
      std::vector<Row> got;
      std::vector<std::uint64_t> want_locked, got_locked;
      std::set<std::uint32_t> pools;
      bool cached = false;
      for (const Row& row : want[k]) {
        if (std::get<3>(row) != kInvalidNode) want_locked.push_back(std::get<0>(row));
        pools.insert(std::get<1>(row));
        cached = cached || std::get<7>(row);
      }
      for (std::size_t i = 0; i < kept.candidates.size(); ++i) {
        if (!kept.candidates.rows()[i].gone) got.push_back(row_of(kept, i));
      }
      for (std::size_t i : kept.candidates.locked_rows()) {
        got_locked.push_back(kept.candidates.rows()[i].seq);
      }
      ASSERT_EQ(got, want[k]) << "queue " << k << " at t=" << sim().now();
      ASSERT_EQ(got_locked, want_locked) << "queue " << k;
      ASSERT_EQ(kept.candidates.has_cached_input(), cached) << "queue " << k;
      ASSERT_EQ(kept.candidates.multi_pool(), pools.size() > 1) << "queue " << k;
      ASSERT_EQ(kept.candidates.live(), want[k].size()) << "queue " << k;
      ++checks;
    }
  }
};

TEST(RupamRows, KeptRowsMatchRebuildThroughARun) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);  // stack nodes carry GPUs: the GPU queue races
  std::vector<std::unique_ptr<Executor>> executors;
  SchedulerEnv env;
  env.sim = &sim;
  env.cluster = &cluster;
  Rng rng(11);
  for (NodeId id : cluster.node_ids()) {
    executors.push_back(
        std::make_unique<Executor>(sim, cluster.node(id), id, ExecutorConfig{}, rng.split()));
    env.executors.push_back(executors.back().get());
  }
  PoolConfig pools;
  pools.policy = PoolPolicy::kFair;
  RowsProbe sched(env);
  sched.configure_pools(pools);
  TaskId next_task = 0;
  StageId next_stage = 0;
  // Few stage names, so concurrent stages share DB_task_char keys and a
  // finish patches other stages' rows.
  auto make_task = [&](StageId stage, const std::string& name, int partition) {
    TaskSpec t;
    t.id = next_task++;
    t.stage = stage;
    t.stage_name = name;
    t.partition = partition;
    t.compute = rng.uniform(2.0, 60.0);
    t.peak_memory = rng.uniform(64.0, 1536.0) * kMiB;
    t.gpu_accelerable = rng.uniform() < 0.15;
    t.shuffle_read_bytes = rng.uniform() < 0.4 ? rng.uniform(10.0, 200.0) * kMiB : 0.0;
    t.shuffle_remote_fraction = 0.5;
    if (rng.uniform() < 0.2) t.input_cache_key = name + "#" + std::to_string(partition);
    if (rng.uniform() < 0.5) {
      t.preferred_nodes = {static_cast<NodeId>(rng.uniform_index(cluster.size()))};
    }
    return t;
  };
  auto submit = [&] {
    TaskSet set;
    set.stage = next_stage++;
    set.job = set.stage;
    set.stage_name = "s" + std::to_string(rng.uniform_index(3));
    set.pool = rng.uniform() < 0.5 ? "a" : "b";
    set.is_shuffle_map = rng.uniform() < 0.7;
    std::size_t n = 4 + rng.uniform_index(30);
    for (std::size_t i = 0; i < n; ++i) {
      TaskSpec t = make_task(set.stage, set.stage_name, static_cast<int>(i));
      t.is_shuffle_map = set.is_shuffle_map;
      set.tasks.push_back(t);
    }
    sched.submit(set);
  };
  using TaskState = RowsProbe::TaskState;
  auto pick = [&](auto want) -> std::pair<RowsProbe::StageState*, TaskState*> {
    std::vector<std::pair<RowsProbe::StageState*, TaskState*>> all;
    for (auto& [id, stage] : sched.stages()) {
      for (auto& t : stage.tasks) {
        if (want(t)) all.emplace_back(&stage, &t);
      }
    }
    if (all.empty()) return {nullptr, nullptr};
    return all[rng.uniform_index(all.size())];
  };
  for (int step = 0; step < 2000; ++step) {
    double r = rng.uniform();
    if (sched.stages().size() < 4 && r < 0.08) {
      submit();
    } else if (r < 0.14) {
      auto [stage, task] = pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) {
        auto exec = task->live.front().exec;
        exec->kill("injected", /*notify=*/true);
      }
    } else if (r < 0.17) {
      auto [stage, task] = pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) sched.relocate_task(*stage, *task, "test relocation");
    } else if (r < 0.2) {
      auto [stage, task] = pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) sched.preempt_task(*stage, *task);
    } else if (r < 0.23) {
      // Resubmit a lost partition, or graft one the active stage lacks —
      // at times under a partition it already has, which makes the stage
      // irregular for the DB_task_char patch.
      auto [stage, task] = pick([](const TaskState& t) { return t.finished; });
      if (stage != nullptr) {
        TaskSet set;
        set.stage = stage->set.stage;
        set.job = stage->set.job;
        set.stage_name = stage->set.stage_name;
        set.pool = stage->set.pool;
        int partition = static_cast<int>(rng.uniform() < 0.5 ? stage->tasks.size()
                                                             : rng.uniform_index(stage->tasks.size()));
        set.tasks.push_back(rng.uniform() < 0.5
                                ? task->spec
                                : make_task(set.stage, set.stage_name, partition));
        sched.resubmit(set);
      }
    } else {
      SimTime until = sim.now() + rng.uniform(0.1, 4.0);
      sim.schedule_at(until, [] {});
      while (sim.now() < until && sim.step()) {
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(sched.completed().size(), 150u);
  EXPECT_GT(sched.checks, 2000u);
  // Restores found rows that compaction had dropped, and put them back.
  EXPECT_GT(sched.reinserts, 100u);
}

}  // namespace
}  // namespace rupam
