// Stage-level heterogeneity-aware baseline.
//
// Represents the class of prior schedulers the paper positions RUPAM
// against (§I/§II: approaches that "often make the assumption that ...
// tasks in the same Map/Reduce stage would have same resource consumption
// patterns" and "optimize for a dominant resource bottleneck for tasks in
// a Map/Reduce stage"). It is heterogeneity-aware — it ranks nodes by
// capability for the stage's dominant resource — but characterizes at
// stage granularity, with no per-task history, no memory guard, no
// over-commit, and no GPU/CPU racing. The gap between this baseline and
// RUPAM isolates the value of RUPAM's per-task treatment.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/symbol.hpp"
#include "sched/rupam/task_manager.hpp"
#include "sched/scheduler.hpp"

namespace rupam {

class CapabilityScheduler : public SchedulerBase {
 public:
  struct Config {
    /// Algorithm-1-style sensitivity used for the stage-level classifier.
    double res_factor = 2.0;
  };

  explicit CapabilityScheduler(SchedulerEnv env);
  CapabilityScheduler(SchedulerEnv env, Config config);

  std::string name() const override { return "StageAware"; }

  /// Stage-level profile inferred from completed tasks of a stage name.
  struct StageProfileEstimate {
    int samples = 0;
    SimTime compute = 0.0;
    SimTime shuffle_read = 0.0;
    SimTime shuffle_write = 0.0;
    bool gpu = false;
  };
  /// The dominant resource this scheduler currently assumes for a stage
  /// (CPU until evidence arrives — the "generic computation" default).
  ResourceKind stage_bottleneck(const std::string& stage_name) const;

 protected:
  void try_dispatch() override;
  void stage_submitted(StageState& stage) override;
  void stage_removed(StageState& stage) override;
  void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) override;

 private:
  /// Dispatch-path form: the profile is one array read, no string hashing.
  ResourceKind stage_bottleneck(StageNameId name) const;
  /// Interned name of an active stage (recorded at submit).
  StageNameId name_of(const StageState& stage) const;
  /// Nodes ordered best-first for `kind`, by static capability then load:
  /// every schedulable node (the audit's candidate list), or only those
  /// with a free slot (the maybe-free set) — the dispatch fast path, whose
  /// first admissible node is the full ranking's. Returns a reference into
  /// reused scratch, valid until the next call.
  const std::vector<NodeId>& ranked_nodes(ResourceKind kind, bool every_node);

  Config config_;
  /// Stage names interned once per submit; profiles are dense by id.
  TypedSymbolTable<StageNameTag> stage_names_;
  std::vector<StageProfileEstimate> profiles_;
  std::map<StageId, StageNameId> active_names_;
  // Dispatch-path scratch: capacity persists across rounds.
  std::vector<std::pair<double, NodeId>> scored_scratch_;
  std::vector<NodeId> ranked_scratch_;
};

}  // namespace rupam
