#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "exec/executor.hpp"
#include "sched/offers.hpp"
#include "sched/scheduler.hpp"
#include "sched/speculation.hpp"
#include "tasks/locality.hpp"

namespace rupam {
namespace {

TEST(Locality, ProcessLocalRequiresCacheHit) {
  TaskSpec t;
  t.input_cache_key = "blk";
  t.preferred_nodes = {1};
  auto cache = [](NodeId n, const std::string&) { return n == 2; };
  EXPECT_EQ(locality_of(t, 2, cache), Locality::kProcessLocal);
  EXPECT_EQ(locality_of(t, 1, cache), Locality::kNodeLocal);
  EXPECT_EQ(locality_of(t, 3, cache), Locality::kAny);
}

TEST(Locality, NoPreferencesMeansAny) {
  TaskSpec t;
  EXPECT_EQ(locality_of(t, 0, nullptr), Locality::kAny);
}

TEST(Locality, OrderingHelper) {
  EXPECT_TRUE(locality_at_least(Locality::kProcessLocal, Locality::kAny));
  EXPECT_TRUE(locality_at_least(Locality::kNodeLocal, Locality::kNodeLocal));
  EXPECT_FALSE(locality_at_least(Locality::kAny, Locality::kNodeLocal));
}

TEST(ValidLevels, OnlyAchievableLevelsListed) {
  TaskSet set;
  set.tasks.push_back(TaskSpec{});
  auto levels = valid_locality_levels(set);
  EXPECT_EQ(levels, (std::vector<Locality>{Locality::kAny}));

  set.tasks[0].preferred_nodes = {0};
  levels = valid_locality_levels(set);
  EXPECT_EQ(levels, (std::vector<Locality>{Locality::kNodeLocal, Locality::kAny}));

  set.tasks[0].input_cache_key = "blk";
  levels = valid_locality_levels(set);
  EXPECT_EQ(levels, (std::vector<Locality>{Locality::kProcessLocal, Locality::kNodeLocal,
                                           Locality::kAny}));
}

TEST(Speculation, NoThresholdBeforeQuantile) {
  SpeculationRule rule;  // 0.75 quantile
  std::vector<double> finished(74, 10.0);
  EXPECT_LT(straggler_threshold(finished, 100, rule), 0.0);
  finished.push_back(10.0);
  EXPECT_GT(straggler_threshold(finished, 100, rule), 0.0);
}

TEST(Speculation, ThresholdIsMultipleOfMedian) {
  SpeculationRule rule;
  std::vector<double> finished{8.0, 10.0, 12.0};
  EXPECT_NEAR(straggler_threshold(finished, 4, rule), 15.0, 1e-12);
}

TEST(Speculation, MinThresholdFloor) {
  SpeculationRule rule;
  std::vector<double> finished{0.001, 0.001, 0.001};
  EXPECT_DOUBLE_EQ(straggler_threshold(finished, 3, rule), rule.min_threshold);
}

TEST(Speculation, EmptyInputs) {
  SpeculationRule rule;
  EXPECT_LT(straggler_threshold({}, 10, rule), 0.0);
  EXPECT_LT(straggler_threshold({1.0}, 0, rule), 0.0);
}

TEST(Speculation, IsStraggler) {
  EXPECT_TRUE(is_straggler(20.0, 15.0));
  EXPECT_FALSE(is_straggler(10.0, 15.0));
  EXPECT_FALSE(is_straggler(100.0, -1.0));  // no threshold yet
}

// Property sweep: threshold scales linearly with the finished runtimes.
class SpeculationScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(SpeculationScaleTest, ThresholdScalesWithRuntimes) {
  double scale = GetParam();
  SpeculationRule rule;
  std::vector<double> base{10.0, 12.0, 14.0, 16.0};
  std::vector<double> scaled;
  for (double v : base) scaled.push_back(v * scale);
  EXPECT_NEAR(straggler_threshold(scaled, 4, rule),
              scale * straggler_threshold(base, 4, rule), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, SpeculationScaleTest, ::testing::Values(1.0, 2.0, 5.0, 10.0));

// ------------------------------------------- cached straggler scan

/// A scheduler whose attempts the test drives by hand, with the straggler
/// scan as it was before it cached anything as the reference.
class SpeculationProbe : public SchedulerBase {
 public:
  using SchedulerBase::find_speculatable;
  using SchedulerBase::launch_task;
  using SchedulerBase::note_speculative_launch;
  using SchedulerBase::preempt_task;
  using SchedulerBase::relocate_task;
  using SchedulerBase::SchedulerBase;
  using SchedulerBase::StageState;
  using SchedulerBase::TaskState;
  std::string name() const override { return "probe"; }
  std::map<StageId, StageState>& stages() { return stages_; }

  /// Every stage's threshold from its runtimes, every task, every call.
  std::vector<std::pair<StageId, std::size_t>> full_scan() {
    SpeculationRule rule{speculation_.quantile, speculation_.multiplier, 0.1};
    std::vector<double> scratch;
    std::vector<std::pair<double, std::pair<StageId, std::size_t>>> overdue;
    for (auto& [stage_id, stage] : stages_) {
      SimTime threshold =
          straggler_threshold(stage.finished_runtimes, stage.tasks.size(), rule, scratch);
      if (threshold < 0.0) continue;
      for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
        const TaskState& task = stage.tasks[i];
        if (task.finished || task.live.size() != 1) continue;
        if (already_speculated(task.spec.id)) continue;
        SimTime elapsed = sim().now() - task.live.front().exec->launch_time();
        if (is_straggler(elapsed, threshold)) {
          overdue.push_back({elapsed / threshold, {stage_id, i}});
        }
      }
    }
    std::sort(overdue.begin(), overdue.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::pair<StageId, std::size_t>> out;
    for (const auto& [ratio, ref] : overdue) out.push_back(ref);
    return out;
  }

 protected:
  void try_dispatch() override {}
};

struct SpeculationHarness {
  static constexpr std::size_t kNodes = 4;
  Simulator sim;
  Cluster cluster{sim, gbit_per_s(1.0)};
  std::vector<std::unique_ptr<Executor>> executors;
  std::unique_ptr<SpeculationProbe> sched;
  Rng rng{77};
  TaskId next_task = 0;
  StageId next_stage = 0;

  SpeculationHarness() {
    Rng split(1);
    for (std::size_t i = 0; i < kNodes; ++i) cluster.add_node(thor_spec());
    SchedulerEnv env;
    env.sim = &sim;
    env.cluster = &cluster;
    for (NodeId id : cluster.node_ids()) {
      executors.push_back(std::make_unique<Executor>(sim, cluster.node(id), id,
                                                     ExecutorConfig{}, split.split()));
      env.executors.push_back(executors.back().get());
    }
    sched = std::make_unique<SpeculationProbe>(env);
  }

  TaskSpec task(StageId stage, int partition) {
    TaskSpec t;
    t.id = next_task++;
    t.stage = stage;
    t.stage_name = "stage" + std::to_string(stage);
    t.partition = partition;
    // Runtimes 1-20 s on a thor core, with a few far slower ones.
    t.compute = rng.uniform(3.5, 70.0) * (rng.uniform() < 0.15 ? 6.0 : 1.0);
    t.peak_memory = 64.0 * kMiB;
    return t;
  }
  void submit() {
    TaskSet set;
    set.stage = next_stage++;
    set.job = set.stage;
    set.stage_name = "stage" + std::to_string(set.stage);
    std::size_t n = 3 + rng.uniform_index(8);
    for (std::size_t i = 0; i < n; ++i) set.tasks.push_back(task(set.stage, static_cast<int>(i)));
    sched->submit(set);
  }
  void advance(SimTime dt) {
    SimTime until = sim.now() + dt;
    sim.schedule_at(until, [] {});
    while (sim.now() < until && sim.step()) {
    }
  }
  /// A uniformly drawn (stage, task index) passing `want`, if any.
  std::pair<SpeculationProbe::StageState*, SpeculationProbe::TaskState*> pick(
      const std::function<bool(const SpeculationProbe::TaskState&)>& want) {
    std::vector<std::pair<SpeculationProbe::StageState*, SpeculationProbe::TaskState*>> all;
    for (auto& [id, stage] : sched->stages()) {
      for (auto& t : stage.tasks) {
        if (want(t)) all.emplace_back(&stage, &t);
      }
    }
    if (all.empty()) return {nullptr, nullptr};
    return all[rng.uniform_index(all.size())];
  }
  NodeId node_without(const SpeculationProbe::TaskState& t) {
    for (int tries = 0; tries < 8; ++tries) {
      auto node = static_cast<NodeId>(rng.uniform_index(kNodes));
      if (!t.has_attempt_on(node)) return node;
    }
    return kInvalidNode;
  }
};

TEST(Speculation, CachedScanMatchesFullScan) {
  SpeculationHarness h;
  using TaskState = SpeculationProbe::TaskState;
  std::size_t nonempty = 0, copies = 0, grafts = 0, unfinished = 0;
  for (int step = 0; step < 4000; ++step) {
    double r = h.rng.uniform();
    if (h.sched->stages().size() < 3 && r < 0.1) {
      h.submit();
    } else if (r < 0.35) {
      auto [stage, task] = h.pick([](const TaskState& t) { return t.pending && !t.finished; });
      if (task != nullptr) {
        h.sched->launch_task(*stage, *task, static_cast<NodeId>(h.rng.uniform_index(4)), false,
                             false);
      }
    } else if (r < 0.45) {
      // A speculative copy of a running task, as the schedulers launch
      // them: the next call sees the copy and the dedup mark.
      auto [stage, task] = h.pick([&](const TaskState& t) {
        return !t.finished && t.live.size() == 1;
      });
      if (task != nullptr) {
        NodeId node = h.node_without(*task);
        if (node != kInvalidNode &&
            h.sched->launch_task(*stage, *task, node, false, /*speculative=*/true)) {
          h.sched->note_speculative_launch(task->spec.id);
          ++copies;
        }
      }
    } else if (r < 0.5) {
      // A failed attempt: the primary, or a speculative copy.
      auto [stage, task] = h.pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) {
        auto exec = task->live[h.rng.uniform_index(task->live.size())].exec;
        exec->kill("injected", /*notify=*/true);
      }
    } else if (r < 0.54) {
      auto [stage, task] = h.pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) h.sched->relocate_task(*stage, *task, "test relocation");
    } else if (r < 0.57) {
      auto [stage, task] = h.pick([](const TaskState& t) { return !t.live.empty(); });
      if (task != nullptr) h.sched->preempt_task(*stage, *task);
    } else if (r < 0.62) {
      // Resubmit: un-finish a finished partition, or graft a partition the
      // active stage lacks (its task count grows, its threshold may lapse).
      auto [stage, task] = h.pick([](const TaskState& t) { return t.finished; });
      if (stage != nullptr) {
        TaskSet set;
        set.stage = stage->set.stage;
        set.job = stage->set.job;
        set.stage_name = stage->set.stage_name;
        if (h.rng.uniform() < 0.5) {
          set.tasks.push_back(task->spec);
          ++unfinished;
        } else {
          set.tasks.push_back(h.task(set.stage, static_cast<int>(stage->tasks.size())));
          ++grafts;
        }
        h.sched->resubmit(set);
      }
    } else {
      h.advance(h.rng.uniform() < 0.5 ? h.rng.uniform(0.0, 1.0) : h.rng.uniform(1.0, 12.0));
    }
    auto want = h.sched->full_scan();
    std::vector<std::pair<StageId, std::size_t>> got(h.sched->find_speculatable().begin(),
                                                     h.sched->find_speculatable().end());
    ASSERT_EQ(got, want) << "step " << step << " t=" << h.sim.now();
    if (!want.empty()) ++nonempty;
  }
  // The walk reached every path it is meant to exercise.
  EXPECT_GT(nonempty, 200u);
  EXPECT_GT(copies, 50u);
  EXPECT_GT(grafts, 20u);
  EXPECT_GT(unfinished, 20u);
  EXPECT_GT(h.sched->dispatch_work().speculation_checks, 0u);

  // A graft that moves a stage back below the quantile while its finished
  // count stays put: 3 of 4 finished judge a straggler, 3 of 5 do not.
  h.advance(1000.0);
  TaskSet set;
  set.stage = h.next_stage++;
  set.stage_name = "graft";
  for (int i = 0; i < 4; ++i) {
    TaskSpec t = h.task(set.stage, i);
    t.compute = i < 3 ? 3.5 : 700.0;
    set.tasks.push_back(t);
  }
  h.sched->submit(set);
  auto& stage = h.sched->stages().at(set.stage);
  for (auto& task : stage.tasks) h.sched->launch_task(stage, task, 0, false, false);
  h.advance(20.0);
  ASSERT_EQ(stage.finished_runtimes.size(), 3u);
  ASSERT_EQ(h.sched->find_speculatable(), h.sched->full_scan());
  ASSERT_FALSE(h.sched->full_scan().empty());
  TaskSet graft = set;
  graft.tasks = {h.task(set.stage, 4)};
  h.sched->resubmit(graft);
  EXPECT_TRUE(h.sched->full_scan().empty());
  EXPECT_EQ(h.sched->find_speculatable(), h.sched->full_scan());
}

}  // namespace
}  // namespace rupam
