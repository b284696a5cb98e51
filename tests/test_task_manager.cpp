// Algorithm 1 (task characterization) and DB_task_char behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/rupam/task_manager.hpp"

namespace rupam {
namespace {

struct Algo1Case {
  double compute, read, write;
  bool gpu;
  ResourceKind expected;
};

class Algorithm1Test : public ::testing::TestWithParam<Algo1Case> {};

TEST_P(Algorithm1Test, ClassifiesBottleneck) {
  TaskCharDb db;
  TaskManager tm(db, TaskManagerConfig{2.0, 1.0 * kGiB});
  const Algo1Case& c = GetParam();
  EXPECT_EQ(tm.bottleneck(c.compute, c.read, c.write, c.gpu), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRules, Algorithm1Test,
    ::testing::Values(
        // GPU dominates everything.
        Algo1Case{100.0, 1.0, 1.0, true, ResourceKind::kGpu},
        Algo1Case{0.0, 100.0, 0.0, true, ResourceKind::kGpu},
        // compute > Res_factor * max(read, write) -> CPU.
        Algo1Case{10.0, 4.0, 1.0, false, ResourceKind::kCpu},
        Algo1Case{10.0, 0.0, 0.0, false, ResourceKind::kCpu},
        // boundary: compute == 2*max -> NOT CPU (strict >).
        Algo1Case{8.0, 4.0, 0.0, false, ResourceKind::kNetwork},
        // read > Res_factor * write -> NET.
        Algo1Case{1.0, 10.0, 1.0, false, ResourceKind::kNetwork},
        // otherwise DISK.
        Algo1Case{1.0, 4.0, 4.0, false, ResourceKind::kDisk},
        Algo1Case{0.0, 0.0, 10.0, false, ResourceKind::kDisk},
        Algo1Case{0.0, 0.0, 0.0, false, ResourceKind::kDisk}));

TEST(TaskManager, ResFactorChangesSensitivity) {
  TaskCharDb db;
  TaskManager strict(db, TaskManagerConfig{4.0, 1.0 * kGiB});
  TaskManager loose(db, TaskManagerConfig{1.5, 1.0 * kGiB});
  // compute=10, read=4: 10 > 1.5*4 but not > 4*4.
  EXPECT_EQ(loose.bottleneck(10.0, 4.0, 0.0, false), ResourceKind::kCpu);
  EXPECT_EQ(strict.bottleneck(10.0, 4.0, 0.0, false), ResourceKind::kNetwork);
}

TEST(TaskManager, RejectsBadResFactor) {
  TaskCharDb db;
  EXPECT_THROW(TaskManager(db, TaskManagerConfig{0.0, 1.0}), std::invalid_argument);
}

TaskSpec spec_named(const std::string& stage_name, int partition, bool map) {
  TaskSpec t;
  t.stage_name = stage_name;
  t.partition = partition;
  t.is_shuffle_map = map;
  return t;
}

TEST(TaskManager, FirstTimeMapGoesToAllQueues) {
  TaskCharDb db;
  TaskManager tm(db);
  auto kinds = tm.classify(spec_named("map-stage", 0, true));
  EXPECT_EQ(kinds.size(), 4u);  // CPU, MEM, DISK, NET (not GPU)
}

TEST(TaskManager, FirstTimeReduceIsNetworkBound) {
  TaskCharDb db;
  TaskManager tm(db);
  auto kinds = tm.classify(spec_named("reduce-stage", 0, false));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kNetwork);
}

TEST(TaskManager, KnownTaskClassifiedFromRecord) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskMetrics m;
  m.compute_time = 100.0;
  m.shuffle_read_time = 1.0;
  m.shuffle_write_time = 1.0;
  db.update("stage", 0, m, ResourceKind::kCpu);
  auto kinds = tm.classify(spec_named("stage", 0, true));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kCpu);
}

TEST(TaskManager, BigMemoryTasksAlsoJoinMemQueue) {
  TaskCharDb db;
  TaskManager tm(db, TaskManagerConfig{2.0, 1.0 * kGiB});
  TaskMetrics m;
  m.compute_time = 100.0;
  m.peak_memory = 3.0 * kGiB;
  db.update("stage", 0, m, ResourceKind::kCpu);
  auto kinds = tm.classify(spec_named("stage", 0, true));
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], ResourceKind::kMemory);
}

TEST(TaskManager, GpuStageMarkingPropagatesToSiblings) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskSpec t = spec_named("gpu-stage", 0, true);
  TaskMetrics m;
  m.used_gpu = true;
  m.compute_time = 5.0;
  tm.record_completion(t, m);
  // A *different* partition of the same stage is now GPU-classified
  // ("marks all the tasks in the same stage to be GPU tasks").
  auto kinds = tm.classify(spec_named("gpu-stage", 17, true));
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], ResourceKind::kGpu);
}

/// The queues a task's refs sit in, in slot order.
std::vector<ResourceKind> kinds_of(const TaskManager& tm, StageId stage, std::size_t index) {
  std::vector<ResourceKind> kinds;
  for (const TaskManager::Slot& slot : tm.slots(stage, index)) kinds.push_back(slot.kind);
  return kinds;
}

TEST(TaskManager, EnqueueAddsOneActiveRefPerClassifiedQueue) {
  TaskCharDb db;
  TaskManager tm(db);
  auto added = tm.enqueue(spec_named("m", 0, true), 1, 0);
  // A first-time map task: every queue but the GPU one, seqs ascending.
  EXPECT_EQ(kinds_of(tm, 1, 0), tm.classify(spec_named("m", 0, true)));
  ASSERT_EQ(added.size(), 4u);
  for (std::size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(added[i].seq, i);
    EXPECT_TRUE(tm.ref_active(added[i].seq));
  }
  // A second enqueue of the same task appends fresh refs after the first.
  auto again = tm.enqueue(spec_named("r", 0, false), 1, 0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].kind, ResourceKind::kNetwork);
  EXPECT_EQ(again[0].seq, 4u);
  EXPECT_EQ(tm.slots(1, 0).size(), 5u);
  EXPECT_TRUE(tm.slots(1, 1).empty());
  EXPECT_FALSE(tm.ref_active(5));
}

TEST(TaskManager, ParkAndRestorePreservesQueuePosition) {
  TaskCharDb db;
  TaskManager tm(db);
  tm.enqueue(spec_named("m", 0, true), 1, 0);
  tm.enqueue(spec_named("m", 1, true), 1, 1);
  tm.enqueue(spec_named("m", 2, true), 1, 2);
  auto seqs = [&](std::size_t index) {
    std::vector<std::uint64_t> out;
    for (const TaskManager::Slot& slot : tm.slots(1, index)) out.push_back(slot.seq);
    return out;
  };
  auto active = [&](std::size_t index) {
    std::vector<bool> out;
    for (std::uint64_t seq : seqs(index)) out.push_back(tm.ref_active(seq));
    return out;
  };
  const std::vector<bool> all(4, true), none(4, false);
  std::vector<std::uint64_t> head = seqs(0);

  // Launch the head task: its refs park in every queue they occupy, and
  // note_launched names them.
  auto parked = tm.note_launched(1, 0);
  EXPECT_EQ(parked.size(), 4u);
  EXPECT_EQ(active(0), none);
  EXPECT_EQ(active(1), all);

  // A failure restores the refs under their original (front) seqs.
  tm.note_pending_again(1, 0);
  EXPECT_EQ(seqs(0), head);
  EXPECT_EQ(active(0), all);

  // Finishing drops every ref, parked or active.
  tm.note_launched(1, 1);
  std::vector<std::uint64_t> second = seqs(1);
  tm.note_finished(1, 1);
  tm.note_finished(1, 0);
  EXPECT_TRUE(tm.slots(1, 0).empty());
  EXPECT_TRUE(tm.slots(1, 1).empty());
  for (std::uint64_t seq : head) EXPECT_FALSE(tm.ref_active(seq));
  for (std::uint64_t seq : second) EXPECT_FALSE(tm.ref_active(seq));
  EXPECT_EQ(active(2), all);
  // A restore after the finish finds no refs to bring back.
  tm.note_pending_again(1, 1);
  EXPECT_TRUE(tm.slots(1, 1).empty());
  for (std::uint64_t seq : second) EXPECT_FALSE(tm.ref_active(seq));
}

TEST(TaskManager, LocalRefsListPreferringRefsAndDropFinishedOnes) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskSpec a = spec_named("m", 0, true);
  a.preferred_nodes = {2, 5};
  TaskSpec b = spec_named("m", 1, true);
  b.preferred_nodes = {5};
  TaskSpec c = spec_named("r", 0, false);  // network queue only
  c.preferred_nodes = {5};
  tm.enqueue(a, 1, 0);
  tm.enqueue(b, 1, 1);
  tm.enqueue(c, 2, 0);
  auto seq_of = [&](ResourceKind kind, std::size_t task_index, StageId stage) {
    for (const TaskManager::Slot& slot : tm.slots(stage, task_index)) {
      if (slot.kind == kind) return slot.seq;
    }
    return ~std::uint64_t{0};
  };
  auto local = [&](ResourceKind kind, NodeId node) {
    auto refs = tm.local_refs(kind, node);
    return std::vector<std::uint64_t>(refs.begin(), refs.end());
  };
  std::uint64_t a_cpu = seq_of(ResourceKind::kCpu, 0, 1);
  std::uint64_t b_cpu = seq_of(ResourceKind::kCpu, 1, 1);
  EXPECT_EQ(local(ResourceKind::kCpu, 5), (std::vector<std::uint64_t>{a_cpu, b_cpu}));
  EXPECT_EQ(local(ResourceKind::kCpu, 2), std::vector<std::uint64_t>{a_cpu});
  EXPECT_TRUE(local(ResourceKind::kCpu, 0).empty());
  EXPECT_TRUE(local(ResourceKind::kCpu, 99).empty());
  std::vector<std::uint64_t> net = local(ResourceKind::kNetwork, 5);
  EXPECT_EQ(net.size(), 3u);  // a, b, c
  EXPECT_TRUE(std::is_sorted(net.begin(), net.end()));

  // Parked refs stay listed (a failure may restore them); only the seq's
  // state says whether they wait.
  tm.note_launched(1, 0);
  EXPECT_EQ(local(ResourceKind::kCpu, 5), (std::vector<std::uint64_t>{a_cpu, b_cpu}));
  EXPECT_FALSE(tm.ref_active(a_cpu));
  EXPECT_TRUE(tm.ref_active(b_cpu));
  // Finished refs are pruned on the next read.
  tm.note_finished(1, 0);
  EXPECT_EQ(local(ResourceKind::kCpu, 5), std::vector<std::uint64_t>{b_cpu});
  EXPECT_TRUE(local(ResourceKind::kCpu, 2).empty());
}

TEST(TaskCharDb, LookupMissReturnsNull) {
  TaskCharDb db;
  EXPECT_EQ(db.lookup("x", 0), nullptr);
}

TEST(TaskCharDb, UpdateSmoothsAndTracksBest) {
  TaskCharDb db;
  TaskMetrics m1;
  m1.compute_time = 10.0;
  m1.node = 3;
  m1.launch_time = 0.0;
  m1.finish_time = 20.0;
  db.update("s", 0, m1, ResourceKind::kCpu);
  const TaskCharRecord* rec = db.lookup("s", 0);
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->compute_time, 10.0);
  EXPECT_EQ(rec->opt_executor, 3);
  EXPECT_DOUBLE_EQ(rec->best_runtime, 20.0);

  TaskMetrics m2;
  m2.compute_time = 20.0;
  m2.node = 5;
  m2.launch_time = 0.0;
  m2.finish_time = 8.0;  // faster -> becomes opt executor
  db.update("s", 0, m2, ResourceKind::kNetwork);
  rec = db.lookup("s", 0);
  EXPECT_DOUBLE_EQ(rec->compute_time, 15.0);  // alpha = 0.5 smoothing
  EXPECT_EQ(rec->opt_executor, 5);
  EXPECT_EQ(rec->runs, 2);
  EXPECT_EQ(rec->history_resources.size(), 2u);
}

TEST(TaskCharDb, SlowerRunDoesNotStealOptExecutor) {
  TaskCharDb db;
  TaskMetrics fast;
  fast.node = 1;
  fast.finish_time = 5.0;
  db.update("s", 0, fast, ResourceKind::kCpu);
  TaskMetrics slow;
  slow.node = 2;
  slow.finish_time = 50.0;
  db.update("s", 0, slow, ResourceKind::kCpu);
  EXPECT_EQ(db.lookup("s", 0)->opt_executor, 1);
}

TEST(TaskCharDb, ClearForgets) {
  TaskCharDb db;
  TaskMetrics m;
  db.update("s", 0, m, ResourceKind::kCpu);
  db.mark_stage_gpu("s");
  EXPECT_EQ(db.size(), 1u);
  db.clear();
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.lookup("s", 0), nullptr);
  EXPECT_FALSE(db.stage_uses_gpu("s"));
}

TEST(TaskCharDb, PartitionsAreIndependent) {
  TaskCharDb db;
  TaskMetrics m;
  db.update("s", 0, m, ResourceKind::kCpu);
  EXPECT_EQ(db.lookup("s", 1), nullptr);
  EXPECT_EQ(db.lookup("t", 0), nullptr);
}

}  // namespace
}  // namespace rupam
