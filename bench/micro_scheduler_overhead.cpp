// Microbenchmarks (google-benchmark): per-decision cost of the scheduler
// machinery. Supports the paper's claim that despite the extra
// bookkeeping "the resulting scheduler delay under RUPAM is moderate".
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "sched/rupam/dispatcher.hpp"
#include "sched/rupam/resource_monitor.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "sched/rupam/task_manager.hpp"
#include "sched/speculation.hpp"

namespace {

using namespace rupam;

void BM_Algorithm1Classify(benchmark::State& state) {
  TaskCharDb db;
  TaskManager tm(db);
  TaskMetrics m;
  m.compute_time = 12.0;
  m.shuffle_read_time = 3.0;
  m.shuffle_write_time = 1.0;
  for (int p = 0; p < 512; ++p) db.update("stage", p, m, ResourceKind::kCpu);
  TaskSpec t;
  t.stage_name = "stage";
  int p = 0;
  for (auto _ : state) {
    t.partition = p++ & 511;
    benchmark::DoNotOptimize(tm.classify(t));
  }
}
BENCHMARK(BM_Algorithm1Classify);

void BM_Algorithm2Select(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<DispatchTaskView> views;
  for (std::size_t i = 0; i < n; ++i) {
    DispatchTaskView v;
    v.index = i;
    v.peak_memory = rng.uniform(64e6, 2e9);
    v.locality = static_cast<Locality>(rng.uniform_index(4));
    v.opt_executor = static_cast<NodeId>(rng.uniform_index(12));
    v.history_size = rng.uniform_index(6);
    v.expected_cost = rng.uniform(1.0, 100.0);
    views.push_back(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm2_select(views, 3, 8e9));
  }
}
BENCHMARK(BM_Algorithm2Select)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ResourceMonitorRanked(benchmark::State& state) {
  auto n = static_cast<int>(state.range(0));
  ResourceMonitor rm;
  Rng rng(3);
  for (NodeId i = 0; i < n; ++i) {
    NodeMetrics m;
    m.node = i;
    m.cpu_perf = rng.uniform(1.0, 4.0);
    m.cores = 8;
    m.cpu_util = rng.uniform();
    m.free_memory = rng.uniform(1e9, 64e9);
    rm.record(m);
  }
  NodeMetrics refresh = *rm.latest(0);
  for (auto _ : state) {
    // A write invalidates the sorted queue, as a dispatch round's refresh
    // does, so every iteration pays one full sort.
    rm.record(refresh);
    benchmark::DoNotOptimize(rm.ranked(ResourceKind::kCpu, nullptr));
  }
}
BENCHMARK(BM_ResourceMonitorRanked)->Arg(12)->Arg(64)->Arg(256);

void BM_TaskCharDbUpdate(benchmark::State& state) {
  TaskCharDb db;
  TaskMetrics m;
  m.compute_time = 10.0;
  m.finish_time = 12.0;
  int p = 0;
  for (auto _ : state) {
    db.update("stage", p++ & 1023, m, ResourceKind::kCpu);
  }
}
BENCHMARK(BM_TaskCharDbUpdate);

void BM_StragglerThreshold(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> runtimes;
  for (int i = 0; i < 400; ++i) runtimes.push_back(rng.uniform(5.0, 50.0));
  SpeculationRule rule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(straggler_threshold(runtimes, 512, rule));
  }
}
BENCHMARK(BM_StragglerThreshold);

}  // namespace

BENCHMARK_MAIN();
