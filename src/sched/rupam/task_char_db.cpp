#include "sched/rupam/task_char_db.hpp"

#include <algorithm>
#include <stdexcept>

namespace rupam {
namespace {
// Weight of the newest observation; history decays geometrically.
constexpr double kAlpha = 0.5;

double smooth(double old_value, double new_value, int runs) {
  if (runs <= 0) return new_value;
  return (1.0 - kAlpha) * old_value + kAlpha * new_value;
}
}  // namespace

StageNameId TaskCharDb::intern_stage(std::string_view stage_name) {
  StageNameId id = stage_names_.intern(stage_name);
  if (gpu_stages_.size() < stage_names_.size()) {
    gpu_stages_.resize(stage_names_.size(), 0);
    slots_.resize(stage_names_.size());
  }
  return id;
}

const TaskCharRecord* TaskCharDb::lookup(StageNameId stage, int partition) const {
  if (!stage.valid() || stage.index() >= slots_.size() || partition < 0) return nullptr;
  const std::vector<std::uint32_t>& slots = slots_[stage.index()];
  auto p = static_cast<std::size_t>(partition);
  if (p >= slots.size() || slots[p] == 0) return nullptr;
  return &records_[slots[p] - 1];
}

const TaskCharRecord* TaskCharDb::lookup(const std::string& stage_name, int partition) const {
  return lookup(stage_names_.find(stage_name), partition);
}

TaskCharRecord& TaskCharDb::update(const std::string& stage_name, int partition,
                                   const TaskMetrics& metrics, ResourceKind bottleneck) {
  if (partition < 0) throw std::invalid_argument("TaskCharDb: negative partition");
  std::vector<std::uint32_t>& slots = slots_[intern_stage(stage_name).index()];
  auto p = static_cast<std::size_t>(partition);
  if (p >= slots.size()) slots.resize(p + 1, 0);
  if (slots[p] == 0) {
    records_.emplace_back();
    slots[p] = static_cast<std::uint32_t>(records_.size());
  }
  TaskCharRecord& rec = records_[slots[p] - 1];
  rec.compute_time = smooth(rec.compute_time, metrics.compute_time, rec.runs);
  rec.shuffle_read = smooth(rec.shuffle_read, metrics.shuffle_read_time, rec.runs);
  rec.shuffle_write = smooth(rec.shuffle_write, metrics.shuffle_write_time, rec.runs);
  rec.peak_memory = smooth(rec.peak_memory, metrics.peak_memory, rec.runs);
  rec.gpu = rec.gpu || metrics.used_gpu;
  rec.history_resources.insert(bottleneck);
  if (metrics.run_time() < rec.best_runtime) {
    rec.best_runtime = metrics.run_time();
    rec.opt_executor = metrics.node;
  }
  ++rec.runs;
  return rec;
}

void TaskCharDb::mark_stage_gpu(const std::string& stage_name) {
  gpu_stages_[intern_stage(stage_name).index()] = 1;
}

bool TaskCharDb::stage_uses_gpu(const std::string& stage_name) const {
  return stage_uses_gpu(stage_names_.find(stage_name));
}

void TaskCharDb::clear() {
  records_.clear();
  for (std::vector<std::uint32_t>& slots : slots_) slots.clear();
  // Interned names survive a clear (ids stay stable across the paper's
  // per-run DB resets); only the learned state is dropped.
  std::fill(gpu_stages_.begin(), gpu_stages_.end(), 0);
}

}  // namespace rupam
