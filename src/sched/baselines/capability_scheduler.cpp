#include "sched/baselines/capability_scheduler.hpp"

#include <algorithm>

namespace rupam {

CapabilityScheduler::CapabilityScheduler(SchedulerEnv env)
    : CapabilityScheduler(std::move(env), Config()) {}

CapabilityScheduler::CapabilityScheduler(SchedulerEnv env, Config config)
    : SchedulerBase(std::move(env)), config_(config) {}

ResourceKind CapabilityScheduler::stage_bottleneck(const std::string& stage_name) const {
  return stage_bottleneck(stage_names_.find(stage_name));
}

ResourceKind CapabilityScheduler::stage_bottleneck(StageNameId name) const {
  if (!name.valid() || profiles_[name.index()].samples == 0) {
    // No evidence yet: assume generic computation (the assumption the
    // paper's motivational study falsifies).
    return ResourceKind::kCpu;
  }
  const StageProfileEstimate& p = profiles_[name.index()];
  double n = static_cast<double>(p.samples);
  if (p.gpu) return ResourceKind::kGpu;
  double compute = p.compute / n;
  double read = p.shuffle_read / n;
  double write = p.shuffle_write / n;
  if (compute > config_.res_factor * std::max(read, write)) return ResourceKind::kCpu;
  if (read > config_.res_factor * write) return ResourceKind::kNetwork;
  return ResourceKind::kDisk;
}

StageNameId CapabilityScheduler::name_of(const StageState& stage) const {
  return active_names_.at(stage.set.stage);
}

void CapabilityScheduler::stage_submitted(StageState& stage) {
  StageNameId name = stage_names_.intern(stage.set.stage_name);
  if (profiles_.size() < stage_names_.size()) profiles_.resize(stage_names_.size());
  active_names_[stage.set.stage] = name;
}

void CapabilityScheduler::stage_removed(StageState& stage) {
  active_names_.erase(stage.set.stage);
}

void CapabilityScheduler::task_succeeded(StageState& stage, TaskState&,
                                         const TaskMetrics& metrics) {
  StageProfileEstimate& p = profiles_[name_of(stage).index()];
  ++p.samples;
  p.compute += metrics.compute_time;
  p.shuffle_read += metrics.shuffle_read_time;
  p.shuffle_write += metrics.shuffle_write_time;
  p.gpu = p.gpu || metrics.used_gpu;
}

const std::vector<NodeId>& CapabilityScheduler::ranked_nodes(ResourceKind kind, bool every_node) {
  scored_scratch_.clear();
  // Capability first; break ties toward the emptier executor so the stage
  // spreads instead of serializing on the single best node.
  auto add = [&](NodeId id, const Executor* exec) {
    double load = exec != nullptr ? static_cast<double>(exec->running_tasks()) : 0.0;
    scored_scratch_.push_back({-cluster().node(id).metrics().capability(kind) * 1000.0 + load, id});
  };
  if (every_node) {
    for (NodeId id : cluster().node_ids()) {
      if (cluster().schedulable(id)) add(id, executor(id));  // not draining/decommissioned
    }
  } else {
    for_each_ready_node(0, [&](NodeId id, Executor& exec) {
      add(id, &exec);
      return true;
    });
  }
  std::sort(scored_scratch_.begin(), scored_scratch_.end());
  ranked_scratch_.clear();
  for (const auto& [score, id] : scored_scratch_) ranked_scratch_.push_back(id);
  return ranked_scratch_;
}

void CapabilityScheduler::try_dispatch() {
  if (stages_.empty()) return;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (StageState* sp : schedulable_stages()) {
      StageState& stage = *sp;
      // One placement per round: the best node with a free slot takes the
      // next pending task of this stage — locality is ignored entirely
      // ("nodes are ranked by capability, tasks are interchangeable").
      TaskState* next = next_launchable(stage);
      if (next == nullptr) continue;
      ResourceKind kind = stage_bottleneck(name_of(stage));
      // The audit exposes the rank index and full candidate list, so only
      // rank every node while an audit sink is attached; the fast path
      // ranks just the maybe-free set (same score, same winner).
      const std::vector<NodeId>& ranked = ranked_nodes(kind, audit_enabled());
      for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
        NodeId node = ranked[rank];
        Executor* exec = executor(node);
        if (exec == nullptr || exec->free_slots() <= 0 || !node_usable(node)) continue;
        if (kind == ResourceKind::kGpu && cluster().node(node).gpus().idle() == 0) continue;
        if (audit_enabled()) {
          Explain e;
          e.reason = "capability_rank";
          e.detail = "tag=" + std::string(to_string(kind)) + " rank=" + std::to_string(rank);
          e.candidates = static_cast<int>(ranked.size());
          e.candidate_nodes = ranked;
          explain_next_launch(std::move(e));
        }
        if (launch_task(stage, *next, node, next->spec.gpu_accelerable,
                        /*speculative=*/false, kind)) {
          progressed = true;
        }
        break;  // re-rank after each launch
      }
    }
  }
  // Standard speculative execution, copies on the stage's best nodes.
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    ResourceKind kind = stage_bottleneck(name_of(stage));
    for (NodeId node : ranked_nodes(kind, /*every_node=*/false)) {
      Executor* exec = executor(node);
      if (exec == nullptr || exec->free_slots() <= 0 || !node_usable(node)) continue;
      if (task.has_attempt_on(node)) continue;
      if (audit_enabled()) {
        Explain e;
        e.reason = "capability_speculative";
        e.detail = "tag=" + std::string(to_string(kind));
        e.candidates = 1;
        e.candidate_nodes = {node};
        explain_next_launch(std::move(e));
      }
      if (launch_task(stage, task, node, task.spec.gpu_accelerable, /*speculative=*/true)) {
        note_speculative_launch(task.spec.id);
        break;
      }
    }
  }
}

}  // namespace rupam
