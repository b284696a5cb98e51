#include "sched/rupam/task_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace rupam {

TaskManager::TaskManager(TaskCharDb& db, TaskManagerConfig config) : db_(db), config_(config) {
  if (config_.res_factor <= 0.0) throw std::invalid_argument("TaskManager: res_factor <= 0");
}

ResourceKind TaskManager::bottleneck(SimTime compute_time, SimTime shuffle_read,
                                     SimTime shuffle_write, bool gpu) const {
  // Algorithm 1, line for line.
  if (gpu) return ResourceKind::kGpu;
  if (compute_time > config_.res_factor * std::max(shuffle_read, shuffle_write)) {
    return ResourceKind::kCpu;
  }
  if (shuffle_read > config_.res_factor * shuffle_write) return ResourceKind::kNetwork;
  return ResourceKind::kDisk;
}

ResourceKind TaskManager::bottleneck(const TaskCharRecord& rec) const {
  return bottleneck(rec.compute_time, rec.shuffle_read, rec.shuffle_write, rec.gpu);
}

ResourceKind TaskManager::bottleneck(const TaskMetrics& metrics, bool gpu) const {
  return bottleneck(metrics.compute_time, metrics.shuffle_read_time,
                    metrics.shuffle_write_time, gpu || metrics.used_gpu);
}

std::vector<ResourceKind> TaskManager::classify(const TaskSpec& spec) const {
  std::vector<ResourceKind> kinds;
  const TaskCharRecord* rec = db_.lookup(spec.stage_name, spec.partition);
  bool stage_gpu = db_.stage_uses_gpu(spec.stage_name) || spec.gpu_accelerable;
  if (rec != nullptr) {
    kinds.push_back(bottleneck(rec->compute_time, rec->shuffle_read, rec->shuffle_write,
                               rec->gpu || stage_gpu));
    if (rec->peak_memory > config_.mem_queue_threshold) {
      kinds.push_back(ResourceKind::kMemory);
    }
    return kinds;
  }
  if (stage_gpu) {
    kinds.push_back(ResourceKind::kGpu);
    return kinds;
  }
  if (spec.is_shuffle_map) {
    // First sighting of a map task: "bounded by all types of resources".
    kinds = {ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDisk,
             ResourceKind::kNetwork};
    return kinds;
  }
  // First sighting of a reduce/result task: network bound (shuffle fetch +
  // result send), relaxed by TM in later iterations once metrics exist.
  kinds.push_back(ResourceKind::kNetwork);
  return kinds;
}

std::span<const TaskManager::Slot> TaskManager::enqueue(const TaskSpec& spec, StageId stage,
                                                       std::size_t task_index) {
  std::vector<Slot>& slots = slots_[{stage, task_index}];
  std::size_t before = slots.size();
  for (ResourceKind kind : classify(spec)) {
    std::uint64_t seq = next_seq_++;
    std::size_t k = static_cast<std::size_t>(kind);
    slots.push_back(Slot{kind, seq});
    state_.push_back(RefState::kActive);
    for (NodeId node : spec.preferred_nodes) {
      if (node < 0) continue;
      std::vector<LocalRefs>& lists = local_[k];
      if (lists.size() <= static_cast<std::size_t>(node)) lists.resize(node + 1);
      LocalRefs& refs = lists[static_cast<std::size_t>(node)];
      // Amortized O(1): a list only ever holds up to about twice the
      // entries its last prune kept, even if dispatch never reads it.
      if (refs.seqs.size() >= 2 * refs.kept + 16) prune(refs);
      refs.seqs.push_back(seq);
    }
  }
  return std::span<const Slot>(slots).subspan(before);
}

void TaskManager::prune(LocalRefs& refs) {
  std::erase_if(refs.seqs, [this](std::uint64_t seq) { return state_[seq] == RefState::kGone; });
  refs.pruned_at = finishes_;
  refs.kept = refs.seqs.size();
}

std::span<const std::uint64_t> TaskManager::local_refs(ResourceKind kind, NodeId node) {
  std::vector<LocalRefs>& lists = local_[static_cast<std::size_t>(kind)];
  if (node < 0 || static_cast<std::size_t>(node) >= lists.size()) return {};
  LocalRefs& refs = lists[static_cast<std::size_t>(node)];
  if (refs.pruned_at != finishes_) prune(refs);
  return refs.seqs;
}

std::span<const TaskManager::Slot> TaskManager::slots(StageId stage,
                                                      std::size_t task_index) const {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return {};
  return it->second;
}

std::span<const TaskManager::Slot> TaskManager::note_launched(StageId stage,
                                                             std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return {};
  for (const Slot& slot : it->second) state_[slot.seq] = RefState::kParked;
  return it->second;
}

void TaskManager::note_pending_again(StageId stage, std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return;
  for (const Slot& slot : it->second) state_[slot.seq] = RefState::kActive;
}

void TaskManager::note_finished(StageId stage, std::size_t task_index) {
  auto it = slots_.find({stage, task_index});
  if (it == slots_.end()) return;
  for (const Slot& slot : it->second) state_[slot.seq] = RefState::kGone;
  slots_.erase(it);
  ++finishes_;
}

void TaskManager::record_completion(const TaskSpec& spec, const TaskMetrics& metrics) {
  ResourceKind kind = bottleneck(metrics, spec.gpu_accelerable && metrics.used_gpu);
  db_.update(spec.stage_name, spec.partition, metrics, kind);
  if (metrics.used_gpu) db_.mark_stage_gpu(spec.stage_name);
}

}  // namespace rupam
