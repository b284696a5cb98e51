// DB_task_char (paper §III-B2): persistent task-characteristics store.
//
// Keyed by (stage name, partition) — stable across iterations and job
// re-runs, which is why RUPAM's benefit grows with iteration count
// (Fig 6). Records the Table I task metrics plus the best-node lock
// (optexecutor / historyresource) used by Algorithm 2.
//
// Stage names are interned once (StageNameId) and lookup is dense: per
// stage id, a vector indexed by partition holds a 32-bit slot (0 = absent)
// into a store of the records that exist. The dispatch-path lookup is two
// array reads — no hashing, no strings. The historical string API survives
// on top as a non-interning find — a stage name containing any delimiter
// character ('#', ':') can never alias another stage's records, because
// the key is the interned id, not a joined string.
//
// Record pointers and references are valid only until the next update()
// (the store may grow); dispatch resolves them within one round, and no
// caller holds one across events.
//
// The paper serializes DB writes through a helper thread with a write
// queue that reads are served from first; inside a discrete-event
// simulation all accesses are already serialized, so the store below is
// the functional equivalent of queue+thread without the plumbing.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/symbol.hpp"
#include "common/types.hpp"
#include "tasks/task_metrics.hpp"

namespace rupam {

struct TaskCharRecord {
  int runs = 0;
  // Smoothed Table I metrics from completed attempts.
  SimTime compute_time = 0.0;
  SimTime shuffle_read = 0.0;
  SimTime shuffle_write = 0.0;
  Bytes peak_memory = 0.0;
  bool gpu = false;
  // Best observed placement (paper: optexecutor) and its runtime.
  NodeId opt_executor = kInvalidNode;
  SimTime best_runtime = std::numeric_limits<double>::infinity();
  // Resource bottlenecks observed over the task's life (historyresource).
  std::set<ResourceKind> history_resources;
};

class TaskCharDb {
 public:
  // ---- String API (cold paths, tests): resolves through the interner.
  const TaskCharRecord* lookup(const std::string& stage_name, int partition) const;

  /// Fold one completed attempt into the record (exponential smoothing so
  /// the "most updated information" dominates, per §III-B2). Throws
  /// std::invalid_argument on a negative partition.
  TaskCharRecord& update(const std::string& stage_name, int partition,
                         const TaskMetrics& metrics, ResourceKind bottleneck);

  /// Mark a whole stage as GPU-accelerated (the paper marks all tasks of a
  /// stage GPU once RM sees any of them touch a device).
  void mark_stage_gpu(const std::string& stage_name);
  bool stage_uses_gpu(const std::string& stage_name) const;

  // ---- Id API (dispatch path): O(1), never allocates.
  /// Intern a stage name (TaskManager does this once per enqueue).
  StageNameId intern_stage(std::string_view stage_name);
  /// Id of a stage name without interning; invalid when never seen.
  StageNameId find_stage(std::string_view stage_name) const {
    return stage_names_.find(stage_name);
  }
  const TaskCharRecord* lookup(StageNameId stage, int partition) const;
  bool stage_uses_gpu(StageNameId stage) const {
    return stage.valid() && stage.index() < gpu_stages_.size() &&
           gpu_stages_[stage.index()] != 0;
  }

  /// Drop every record; interned stage ids stay valid.
  void clear();
  std::size_t size() const { return records_.size(); }

 private:
  TypedSymbolTable<StageNameTag> stage_names_;
  /// The records that exist, in first-update order.
  std::vector<TaskCharRecord> records_;
  /// StageNameId → partition → 1 + index into records_ (0 = no record).
  std::vector<std::vector<std::uint32_t>> slots_;
  /// Dense StageNameId → uses-GPU flag.
  std::vector<std::uint8_t> gpu_stages_;
};

}  // namespace rupam
