// RUPAM's Task Manager (TM, paper §III-B2 + Algorithm 1).
//
// Characterizes tasks into per-resource pending queues:
//  * known tasks (present in DB_task_char) are classified by Algorithm 1
//    over their recorded metrics;
//  * first-time map tasks are assumed bounded by every resource
//    (enqueued in all queues);
//  * first-time reduce/result tasks are assumed network-bound.
//
// The queues themselves are the dispatcher's candidate rows (RupamScheduler
// keeps them); the TM numbers refs and tracks their state. Each enqueue
// gives the task one ref per queue classify() names, under a fresh sequence
// number (queue order). A ref is *active* while its task waits and
// *parked* while it runs — kept because the attempt may fail, and because
// the GPU queue races parked refs. A ref keeps its seq across launch and
// failure, so a restored ref keeps its queue position; its task finishing
// drops it. slots() names the refs a task holds.
//
// Each queue also keeps, per node, the seqs of its refs whose task prefers
// that node (NODE_LOCAL candidates), appended at enqueue. Seqs only grow,
// so these lists stay sorted with no extra work; refs of finished tasks
// are pruned lazily, and the lists are never rebuilt.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "tasks/task.hpp"

namespace rupam {

struct TaskManagerConfig {
  /// Res_factor (Algorithm 1): sensitivity of bottleneck classification.
  double res_factor = 2.0;
  /// Tasks with peak memory above this also join the MEM queue (extension
  /// of Algorithm 1's 4-way split to the paper's 5 resource queues).
  Bytes mem_queue_threshold = 1.0 * kGiB;
};

class TaskManager {
 public:
  /// One ref a task holds: its queue and sequence number. A task
  /// re-enqueued after a failure legitimately holds several refs per queue
  /// (the old restored ones plus the re-characterized ones), matching the
  /// paper's "characterize again on retry" behaviour.
  struct Slot {
    ResourceKind kind;
    std::uint64_t seq;
  };

  TaskManager(TaskCharDb& db, TaskManagerConfig config = {});

  /// Algorithm 1 over recorded/observed characteristics.
  ResourceKind bottleneck(SimTime compute_time, SimTime shuffle_read, SimTime shuffle_write,
                          bool gpu) const;
  ResourceKind bottleneck(const TaskCharRecord& rec) const;
  ResourceKind bottleneck(const TaskMetrics& metrics, bool gpu) const;

  /// Which queues a (re)submitted task belongs to.
  std::vector<ResourceKind> classify(const TaskSpec& spec) const;

  /// Add an active ref to every queue classify() names. Returns the refs
  /// it added, in seq order (valid as slots() is).
  std::span<const Slot> enqueue(const TaskSpec& spec, StageId stage, std::size_t task_index);

  /// The task at (stage, task_index) started running: park its refs.
  /// Returns the refs it holds (as slots() does).
  std::span<const Slot> note_launched(StageId stage, std::size_t task_index);
  /// The task went back to pending (attempt failed / was relocated): its
  /// parked refs turn active again, under their original seqs.
  void note_pending_again(StageId stage, std::size_t task_index);
  /// The task finished: drop every ref it holds.
  void note_finished(StageId stage, std::size_t task_index);

  /// The refs the task at (stage, task_index) holds, in enqueue order; an
  /// enqueue appends. Valid until the next enqueue or note_finished.
  std::span<const Slot> slots(StageId stage, std::size_t task_index) const;
  /// Ascending seqs of `kind`'s queued refs (active or parked) whose task
  /// lists `node` in preferred_nodes; refs of tasks that finished since the
  /// list was last read are pruned first. The span is valid until the
  /// next enqueue or note_finished.
  std::span<const std::uint64_t> local_refs(ResourceKind kind, NodeId node);
  /// Is the ref with this seq active (its task waiting)?
  bool ref_active(std::uint64_t seq) const {
    return seq < state_.size() && state_[seq] == RefState::kActive;
  }

  /// Fold a completed attempt into DB_task_char; marks the stage GPU when
  /// a device was used (the paper tags all tasks of that stage).
  void record_completion(const TaskSpec& spec, const TaskMetrics& metrics);

  TaskCharDb& db() { return db_; }
  const TaskManagerConfig& config() const { return config_; }

 private:
  enum class RefState : std::uint8_t { kGone, kActive, kParked };
  struct LocalRefs {
    std::vector<std::uint64_t> seqs;
    /// finishes_ at the last prune, and the entries it kept.
    std::uint64_t pruned_at = 0;
    std::size_t kept = 0;
  };
  /// Drop the seqs of finished tasks.
  void prune(LocalRefs& refs);

  TaskCharDb& db_;
  TaskManagerConfig config_;
  /// (stage, task_index) → every ref the task holds across queues.
  std::map<std::pair<StageId, std::size_t>, std::vector<Slot>> slots_;
  std::uint64_t next_seq_ = 0;
  /// Seq → the ref's state, kGone once its task finished.
  std::vector<RefState> state_;
  /// Per kind, NodeId → local refs.
  std::array<std::vector<LocalRefs>, kNumResourceKinds> local_;
  /// Bumped by note_finished: a list pruned since is current.
  std::uint64_t finishes_ = 0;
};

}  // namespace rupam
