#include "metrics/experiment.hpp"

#include <algorithm>
#include <stdexcept>

namespace rupam {

double ExperimentResult::mean_makespan() const {
  RunningStats s;
  for (const auto& r : runs) s.add(r.makespan);
  return s.mean();
}

double ExperimentResult::ci95_makespan() const {
  RunningStats s;
  for (const auto& r : runs) s.add(r.makespan);
  return confidence_interval_95(s.stddev(), s.count());
}

KernelStats ExperimentResult::kernel_total() const {
  KernelStats total;
  for (const auto& r : runs) total += r.kernel;
  return total;
}

const RunRecord& ExperimentResult::median_run() const {
  if (runs.empty()) throw std::logic_error("ExperimentResult: no runs");
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) { return runs[a].makespan < runs[b].makespan; });
  return runs[order[order.size() / 2]];
}

RunRecord run_workload_once(const WorkloadPreset& preset, const ExperimentConfig& config,
                            std::uint64_t seed) {
  SimulationConfig sim_cfg = config.sim;
  sim_cfg.scheduler = config.scheduler;
  sim_cfg.seed = seed;
  sim_cfg.sample_utilization = config.sample_utilization;

  Simulation sim(sim_cfg);
  Application app = build_workload(preset, sim.cluster().node_ids(), seed,
                                   config.iterations_override,
                                   hdfs_placement_weights(sim.cluster()));

  RunRecord rec;
  rec.makespan = sim.run(app);
  rec.kernel = sim.sim().stats();
  const auto& completed = sim.scheduler().completed();
  rec.locality = count_locality(completed);
  rec.breakdown = aggregate_breakdown(completed);
  rec.oom_kills = sim.total_oom_kills();
  rec.executor_losses = sim.total_executor_losses();
  rec.failed_attempts = sim.scheduler().failures().size();
  if (const UtilizationSampler* sampler = sim.sampler()) {
    rec.avg_cpu_util = sampler->avg_cpu_util();
    rec.avg_memory_used = sampler->avg_memory_used();
    rec.avg_net_rate = sampler->avg_net_rate();
    rec.avg_disk_rate = sampler->avg_disk_rate();
  }
  return rec;
}

ExperimentResult run_experiment(const WorkloadPreset& preset, const ExperimentConfig& config) {
  if (config.repetitions <= 0) throw std::invalid_argument("run_experiment: repetitions <= 0");
  ExperimentResult result;
  result.workload = preset.name;
  result.scheduler = std::string(to_string(config.scheduler));
  for (int r = 0; r < config.repetitions; ++r) {
    result.runs.push_back(
        run_workload_once(preset, config, config.base_seed + static_cast<std::uint64_t>(r)));
  }
  return result;
}

}  // namespace rupam
