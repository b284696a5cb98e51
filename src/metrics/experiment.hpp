// Experiment runner: N seeded repetitions of (workload, scheduler) on the
// Hydra cluster — the protocol behind Fig 5 ("run all workloads five
// times, clear DB_task_char after each run, report average and 95% CI").
// Each repetition constructs a fresh Simulation, so the characteristics
// DB never leaks across runs; it *does* warm up across the iterations
// within one run, which is the effect Fig 6 sweeps.
#pragma once

#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "common/stats.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/locality_counter.hpp"
#include "workloads/presets.hpp"

namespace rupam {

struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kSpark;
  int repetitions = 5;
  /// 0 = the preset's paper-default iteration count.
  int iterations_override = 0;
  std::uint64_t base_seed = 1;
  bool sample_utilization = false;
  /// Base simulation configuration (scheduler/seed fields are overridden).
  SimulationConfig sim;
};

struct RunRecord {
  SimTime makespan = 0.0;
  /// Kernel work/allocation counters of this run's Simulator.
  KernelStats kernel{};
  LocalityCounts locality{};
  Breakdown breakdown;
  std::size_t oom_kills = 0;
  std::size_t executor_losses = 0;
  std::size_t failed_attempts = 0;
  double avg_cpu_util = 0.0;   // fraction
  double avg_memory_used = 0.0;  // bytes
  double avg_net_rate = 0.0;   // bytes/s
  double avg_disk_rate = 0.0;  // bytes/s
};

struct ExperimentResult {
  std::string workload;
  std::string scheduler;
  std::vector<RunRecord> runs;

  double mean_makespan() const;
  double ci95_makespan() const;
  const RunRecord& median_run() const;
  /// Summed kernel counters across every run (bench JSON footers).
  KernelStats kernel_total() const;
};

/// One repetition with an explicit seed.
RunRecord run_workload_once(const WorkloadPreset& preset, const ExperimentConfig& config,
                            std::uint64_t seed);

/// The full protocol: `repetitions` runs with seeds base_seed, base_seed+1, ...
ExperimentResult run_experiment(const WorkloadPreset& preset, const ExperimentConfig& config);

}  // namespace rupam
