#include "sched/speculation.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace rupam {

bool can_judge(std::size_t finished, std::size_t total_tasks, const SpeculationRule& rule) {
  return total_tasks > 0 && finished > 0 &&
         static_cast<double>(finished) >= rule.quantile * static_cast<double>(total_tasks);
}

SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule) {
  if (!can_judge(finished_runtimes.size(), total_tasks, rule)) return -1.0;
  double median = percentile(finished_runtimes, 50.0);
  return std::max(rule.multiplier * median, rule.min_threshold);
}

SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule,
                            std::vector<double>& scratch) {
  if (!can_judge(finished_runtimes.size(), total_tasks, rule)) return -1.0;
  scratch.assign(finished_runtimes.begin(), finished_runtimes.end());
  double median = percentile_inplace(scratch, 50.0);
  return std::max(rule.multiplier * median, rule.min_threshold);
}

bool is_straggler(SimTime elapsed, SimTime threshold) {
  return threshold >= 0.0 && elapsed > threshold;
}

}  // namespace rupam
