// Pure straggler-detection logic (Spark's speculative execution rule,
// paper §III-C3): once `quantile` of a stage's tasks have finished, any
// task running longer than `multiplier` x the median finished runtime is a
// straggler. Kept as free functions so properties can be tested directly.
//
// A threshold depends only on the finished runtimes and the task count.
// Runtimes are only ever appended, so SchedulerBase caches each stage's
// threshold keyed on (finished count, task count) and recomputes it when a
// finish or a graft moves either (see SchedulerBase::find_speculatable).
// is_straggler is monotone in `elapsed`, which lets a scan skip a stage
// whose earliest eligible launch is not overdue.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace rupam {

struct SpeculationRule {
  double quantile = 0.75;
  double multiplier = 1.5;
  /// Floor so sub-100ms stages don't speculate on noise.
  SimTime min_threshold = 0.1;
};

/// True once `finished` of `total_tasks` is enough to judge stragglers:
/// exactly when straggler_threshold returns a threshold.
bool can_judge(std::size_t finished, std::size_t total_tasks, const SpeculationRule& rule);

/// Returns a straggler runtime threshold, or a negative value when the
/// stage has not yet finished enough tasks to judge (!can_judge).
SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule);

/// Same rule using a caller-owned scratch buffer for the median, so a hot
/// caller (the per-round speculation scan) allocates nothing once the
/// scratch capacity has warmed up. `scratch` is clobbered.
SimTime straggler_threshold(const std::vector<double>& finished_runtimes,
                            std::size_t total_tasks, const SpeculationRule& rule,
                            std::vector<double>& scratch);

bool is_straggler(SimTime elapsed, SimTime threshold);

}  // namespace rupam
