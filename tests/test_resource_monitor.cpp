#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <vector>

#include "sched/rupam/resource_monitor.hpp"

namespace rupam {
namespace {

NodeMetrics metrics(NodeId id, double perf, int cores, double cpu_util, Bytes free_mem,
                    bool ssd = false, int gpus_idle = 0, int gpus_total = 0) {
  NodeMetrics m;
  m.node = id;
  m.cpu_perf = perf;
  m.cores = cores;
  m.cpu_util = cpu_util;
  m.free_memory = free_mem;
  m.memory = 64.0 * kGiB;
  m.has_ssd = ssd;
  m.net_bandwidth = gbit_per_s(1.0);
  m.gpus_idle = gpus_idle;
  m.gpus_total = gpus_total;
  return m;
}

TEST(ResourceMonitor, RecordsLatestSnapshot) {
  ResourceMonitor rm;
  EXPECT_FALSE(rm.has(0));
  rm.record(metrics(0, 1.0, 8, 0.2, 1.0 * kGiB));
  ASSERT_TRUE(rm.has(0));
  EXPECT_DOUBLE_EQ(rm.latest(0)->cpu_util, 0.2);
  rm.record(metrics(0, 1.0, 8, 0.9, 1.0 * kGiB));
  EXPECT_DOUBLE_EQ(rm.latest(0)->cpu_util, 0.9);
  EXPECT_EQ(rm.tracked_nodes(), 1u);
}

TEST(ResourceMonitor, CpuQueueRanksPerCoreSpeedThenUtilization) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 32, 0.1, 1.0 * kGiB));  // slow cores, idle
  rm.record(metrics(1, 3.5, 8, 0.9, 1.0 * kGiB));   // fast cores, busy
  rm.record(metrics(2, 3.5, 8, 0.1, 1.0 * kGiB));   // fast cores, idle
  auto ranked = rm.ranked(ResourceKind::kCpu, nullptr);
  EXPECT_EQ(ranked, (std::vector<NodeId>{2, 1, 0}));
}

TEST(ResourceMonitor, MemoryQueueRanksFreeMemory) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 2.0 * kGiB));
  rm.record(metrics(1, 1.0, 8, 0.0, 60.0 * kGiB));
  auto ranked = rm.ranked(ResourceKind::kMemory, nullptr);
  EXPECT_EQ(ranked.front(), 1);
}

TEST(ResourceMonitor, DiskQueueRanksSsdFirst) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB, /*ssd=*/false));
  rm.record(metrics(1, 1.0, 8, 0.0, 1.0 * kGiB, /*ssd=*/true));
  auto ranked = rm.ranked(ResourceKind::kDisk, nullptr);
  EXPECT_EQ(ranked.front(), 1);
}

TEST(ResourceMonitor, GpuQueueRanksIdleDevices) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB, false, 0, 1));
  rm.record(metrics(1, 1.0, 8, 0.0, 1.0 * kGiB, false, 1, 1));
  auto ranked = rm.ranked(ResourceKind::kGpu, nullptr);
  EXPECT_EQ(ranked.front(), 1);
}

TEST(ResourceMonitor, AdmitFilterApplies) {
  ResourceMonitor rm;
  for (NodeId i = 0; i < 5; ++i) rm.record(metrics(i, 1.0, 8, 0.0, 1.0 * kGiB));
  auto ranked =
      rm.ranked(ResourceKind::kCpu, [](const NodeMetrics& m) { return m.node % 2 == 0; });
  EXPECT_EQ(ranked.size(), 3u);
  for (NodeId id : ranked) EXPECT_EQ(id % 2, 0);
}

TEST(ResourceMonitor, DeterministicTieBreakById) {
  ResourceMonitor rm;
  for (NodeId i = 4; i >= 0; --i) rm.record(metrics(i, 1.0, 8, 0.5, 1.0 * kGiB));
  auto ranked = rm.ranked(ResourceKind::kCpu, nullptr);
  EXPECT_EQ(ranked, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(ResourceMonitor, ClearForgets) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.0, 1.0 * kGiB));
  rm.clear();
  EXPECT_EQ(rm.tracked_nodes(), 0u);
  EXPECT_TRUE(rm.ranked(ResourceKind::kCpu, nullptr).empty());
}

TEST(ResourceMonitor, QueueResortsAfterWrite) {
  ResourceMonitor rm;
  rm.record(metrics(0, 1.0, 8, 0.1, 1.0 * kGiB));
  rm.record(metrics(1, 1.0, 8, 0.5, 1.0 * kGiB));
  EXPECT_EQ(rm.ranked(ResourceKind::kCpu, nullptr), (std::vector<NodeId>{0, 1}));
  rm.record(metrics(0, 1.0, 8, 0.9, 1.0 * kGiB));  // node 0 got busier
  EXPECT_EQ(rm.ranked(ResourceKind::kCpu, nullptr), (std::vector<NodeId>{1, 0}));
  rm.forget(1);
  EXPECT_EQ(rm.ranked(ResourceKind::kCpu, nullptr), (std::vector<NodeId>{0}));
}

// Exactness of rank-once-then-filter: for random metrics (with ties on
// capability and on utilization) and dead nodes, the sorted queue filtered
// by any admission predicate equals sorting just the admitted live rows.
TEST(ResourceMonitor, FilteringSortedQueueEqualsSortingFilteredRows) {
  std::mt19937 rng(11);
  auto pick = [&rng](std::initializer_list<double> values) {
    std::uniform_int_distribution<std::size_t> d(0, values.size() - 1);
    return *(values.begin() + d(rng));
  };
  std::bernoulli_distribution coin(0.5);
  std::bernoulli_distribution rarely(0.15);
  constexpr NodeId kNodes = 48;
  for (int trial = 0; trial < 40; ++trial) {
    ResourceMonitor rm;
    rm.configure_liveness({1.0, 3});
    std::vector<NodeMetrics> rows;
    std::vector<bool> alive;
    for (NodeId id = 0; id < kNodes; ++id) {
      NodeMetrics m = metrics(id, pick({1.0, 2.0, 3.5}), 8, pick({0.0, 0.5, 0.9}),
                              pick({1.0, 2.0, 8.0}) * kGiB, coin(rng),
                              static_cast<int>(pick({0.0, 1.0, 2.0})), 2);
      m.memory = pick({16.0, 64.0}) * kGiB;
      m.disk_util = pick({0.0, 0.25, 1.0});
      m.net_util = pick({0.0, 0.5});
      m.net_bandwidth = gbit_per_s(pick({1.0, 10.0}));
      // Nodes silent since t=0 are declared dead by the sweep at t=10.
      bool live = !rarely(rng);
      rm.record(m, live ? 9.5 : 0.0);
      rows.push_back(m);
      alive.push_back(live);
    }
    rm.sweep_dead(10.0);
    for (std::size_t k = 0; k < kNumResourceKinds; ++k) {
      ResourceKind kind = static_cast<ResourceKind>(k);
      std::vector<bool> admitted;
      for (NodeId id = 0; id < kNodes; ++id) admitted.push_back(coin(rng));
      auto admit = [&admitted](const NodeMetrics& m) {
        return admitted[static_cast<std::size_t>(m.node)];
      };
      // Reference: a monitor holding only the admitted live rows, sorted.
      ResourceMonitor filtered_first;
      for (const NodeMetrics& m : rows) {
        if (alive[static_cast<std::size_t>(m.node)] && admit(m)) filtered_first.record(m);
      }
      std::vector<NodeId> expected = filtered_first.ranked(kind, nullptr);
      EXPECT_EQ(rm.ranked(kind, admit), expected) << to_string(kind) << " trial " << trial;
      std::vector<NodeId> walked;
      for (const NodeMetrics* m : rm.queue(kind)) {
        EXPECT_FALSE(rm.dead(m->node));
        if (admit(*m)) walked.push_back(m->node);
      }
      EXPECT_EQ(walked, expected) << to_string(kind) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace rupam
