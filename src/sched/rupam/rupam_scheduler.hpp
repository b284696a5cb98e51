// RUPAM: the heterogeneity-aware task scheduler (paper §III).
//
// Wires the three components together:
//   ResourceMonitor — per-node metrics from extended heartbeats;
//   TaskManager     — Algorithm 1 characterization + per-resource queues
//                     backed by DB_task_char;
//   Dispatcher      — Algorithm 2 node/task matching with round-robin
//                     resource fairness, memory guard, optexecutor lock.
// Plus the §III-C mechanisms: utilization-based over-commit (a node is
// available as long as the offered resource has headroom, not when a core
// slot frees), memory-straggler relocation, and the CPU↔GPU dual-run race.
//
// Dispatch cost scales with launches, not with queued rows or fleet size:
//  * admission reads the base scheduler's live-attempt counters (O(1) per
//    node instead of a scan over every attempt);
//  * each kind's candidate rows are its queue: the TaskManager numbers the
//    refs and tracks their state, and the rows hold the queue order and
//    the pruning inputs. Every change is a delta (row upkeep): an enqueue
//    appends the task's rows; a launch tombstones them (but the GPU
//    queue's, which races parked tasks) and a finish the rest; a task
//    waiting again revives its tombstones, or re-inserts a row compacted
//    away at its seq; a DB_task_char update patches only the rows of the
//    (stage name, partition) key it touched. Tombstones are compacted away
//    between rounds once they pass half the rows; restores come from event
//    callbacks, also between rounds, so row indexes hold within one. The
//    clock only changes whether a row may launch (retry backoff), and that
//    is checked when the row is used; within a round a row that went stale
//    stays stale, so each visit skips the stale prefix;
//  * matching a node against the rows is select_candidate() (pruned
//    Algorithm 2, dispatcher.hpp): with no lock to the node and no cached
//    input in play it reads the node's local-ref list and the first
//    unlocked rows, not a view of every row;
//  * node ranking happens once per round per kind: the round seeds the
//    ResourceMonitor and nothing writes it again until the round ends.
//    A kind-visit walks that order and checks admission lazily, stopping
//    at its first launch. Within a round a refused node stays refused (the
//    metrics snapshot is fixed and launches only consume capacity), so
//    each kind's walk resumes past the refused prefix of its queue.
#pragma once

#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sched/rupam/dispatcher.hpp"
#include "sched/rupam/resource_monitor.hpp"
#include "sched/rupam/task_char_db.hpp"
#include "sched/rupam/task_manager.hpp"
#include "sched/scheduler.hpp"

namespace rupam {

struct RupamConfig {
  /// Algorithm 1 sensitivity.
  double res_factor = 2.0;
  /// Tasks above this peak memory also join the MEM queue.
  Bytes mem_queue_threshold = 1.0 * kGiB;
  /// Free-memory level below which RM flags a memory straggler.
  Bytes low_memory_watermark = 768.0 * kMiB;
  /// Safety margin the memory guard keeps free beyond a task's footprint.
  Bytes memory_guard_headroom = 768.0 * kMiB;
  /// Per-resource admission limits for over-commit: maximum concurrent
  /// phases the dispatcher will stack on one node per resource.
  /// SSDs sustain deep I/O queues; HDDs thrash — the dispatcher stacks
  /// accordingly (this is where "schedule I/O tasks to SSD nodes" bites).
  int max_disk_tasks_ssd = 16;
  int max_disk_tasks_hdd = 6;
  int max_net_tasks = 12;
  /// Hard per-node cap (sanity bound on over-commit).
  double max_tasks_per_core = 1.0;
  /// Flat extra slots on top of the per-core cap (lets a core-saturated
  /// node still take a few mismatched-resource tasks, e.g. GPU work).
  int overcommit_slack = 8;
  /// Feature toggles (ablation benches flip these).
  bool opt_executor_lock = true;
  bool memory_guard = true;
  bool memory_straggler = true;
  bool gpu_cpu_race = true;
  bool overcommit = true;
};

class RupamScheduler : public SchedulerBase {
 public:
  RupamScheduler(SchedulerEnv env, RupamConfig config = {});

  std::string name() const override { return "RUPAM"; }

  void on_heartbeat(const NodeMetrics& metrics) override;

  /// Exposed so experiments can clear or seed DB_task_char between runs
  /// (the paper clears it after each of the five Fig-5 runs). Such writes
  /// must precede the next stage submission: queued rows carry their
  /// record's fields and only the scheduler's own writes patch them.
  TaskCharDb& db() { return db_; }
  const RupamConfig& config() const { return config_; }
  ResourceMonitor& resource_monitor() { return rm_; }
  std::size_t gpu_races() const { return gpu_races_; }

 protected:
  void try_dispatch() override;
  void fault_tolerance_changed() override;
  void node_membership_changed(NodeId node, NodeLifecycle state) override;
  void stage_submitted(StageState& stage) override;
  void task_pending_changed(StageState& stage, std::size_t index, bool pending) override;
  void task_succeeded(StageState& stage, TaskState& task, const TaskMetrics& metrics) override;
  void task_failed(StageState& stage, TaskState& task, const std::string& reason) override;
  void task_relaunchable(StageState& stage, TaskState& task) override;
  void stage_removed(StageState& stage) override;

  /// Can `node` take one more task whose bottleneck is `kind`? Within a
  /// dispatch round, where `metrics` is the round's fixed snapshot, a
  /// refusal holds until the round ends: launches only consume capacity.
  bool node_available(const NodeMetrics& metrics, ResourceKind kind) const;

  /// One kind's queue: its candidate rows in queue order — its active
  /// refs, plus (GPU queue under racing) its parked refs, whose running
  /// task a freed device may poach — and, in parallel, the task each row
  /// resolves to (its stage and index: a graft may move the stage's
  /// tasks).
  struct QueueRows {
    CandidateSegment candidates;
    std::vector<std::pair<StageState*, std::size_t>> tasks;
    /// [0]: this round's stale prefix as the kind's own visits see it;
    /// [1]: as the CPU queue borrowing the GPU rows sees it.
    std::array<std::size_t, 2> heads{};
  };
  const QueueRows& rows(ResourceKind kind) const {
    return rows_[static_cast<std::size_t>(kind)];
  }
  const TaskManager& task_manager() const { return tm_; }

 private:
  struct Pick {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
    bool gpu_race_copy = false;
  };
  struct SpecCandidate {
    StageState* stage = nullptr;
    TaskState* task = nullptr;
  };
  class RowSource;

  /// Row upkeep: each TaskManager or DB_task_char change the scheduler
  /// makes goes through one of these, which applies it to the rows.
  void enqueue_task(StageState& stage, std::size_t index);
  /// Mark the stage irregular unless task `index` has partition `index`
  /// and the stage's name (see named_stages_).
  void note_task_key(StageState& stage, std::size_t index);
  void park_task(StageState& stage, std::size_t index);
  void restore_task(StageState& stage, std::size_t index);
  void finish_task(StageState& stage, std::size_t index, const TaskMetrics& metrics);
  /// Record the row index of `q`'s rows from `from` on in row_index_.
  void index_rows(const QueueRows& q, std::size_t from);
  /// Row of ref `seq` in `q` (live or tombstone), or npos.
  std::size_t row_of(const QueueRows& q, std::uint64_t seq) const;
  /// Tombstone ref `seq`'s row in `q`, if it has a live one.
  void drop_row(QueueRows& q, std::uint64_t seq);
  /// Drop `q`'s tombstones once they pass half its rows.
  void compact_rows(QueueRows& q);
  /// The node-independent Algorithm 2 inputs of ref `seq`'s row.
  CandidateRow make_row(std::uint64_t seq, const StageState& stage, const TaskState& task,
                        StageNameId name) const;
  /// GPU racing on the CPU side of a task (§III-C3): running on a CPU with
  /// no device copy yet.
  bool race_eligible(const TaskState& task) const;
  /// Algorithm 2 for `node` over a kind-visit's rows.
  Pick pick_for_node(RowSource& source, NodeId node);
  /// Stragglers whose bottleneck matches `kind` (straggler path of
  /// Algorithm 2), computed once per kind-visit. Reference into scratch.
  const std::vector<SpecCandidate>& collect_speculative(ResourceKind kind);
  Pick pick_speculative(const std::vector<SpecCandidate>& candidates, NodeId node);
  /// Cheap pre-check: could any kind-visit possibly launch something?
  bool dispatch_possible() const;
  bool any_idle_gpu() const;
  void check_memory_straggler(const NodeMetrics& metrics);
  void seed_monitor();

  RupamConfig config_;
  TaskCharDb db_;
  TaskManager tm_;
  ResourceMonitor rm_;
  ResourceRoundRobin round_robin_;
  std::size_t gpu_races_ = 0;
  std::vector<NodeId> gpu_nodes_;  // nodes that physically carry devices
  std::set<TaskId> relocating_;  // guards repeated straggler kills per wave
  std::map<NodeId, SimTime> last_relocation_;  // per-node relocation rate limit

  // Dispatch-path state, reused across rounds: capacity settles at the
  // workload's high-water mark, after which kind-visits never allocate.
  std::array<QueueRows, kNumResourceKinds> rows_;
  /// Seq → index of its row in its queue's rows_ (checked against the
  /// row's seq at use), so upkeep finds a ref's row in O(1).
  std::vector<std::uint32_t> row_index_;
  /// Active stages by interned name: where a DB_task_char write looks for
  /// rows to patch. In a regular stage task i has partition i and the
  /// stage's name, so one index finds a key's task; an irregular one
  /// (partial resubmission, graft) is scanned.
  struct NamedStage {
    StageNameId name;
    StageState* stage = nullptr;
    bool irregular = false;
  };
  std::vector<NamedStage> named_stages_;
  /// Per kind: queue positions before this were refused this round.
  std::array<std::size_t, kNumResourceKinds> walk_from_{};
  std::vector<SpecCandidate> spec_scratch_;
  VisitRows visit_rows_;
  std::vector<DispatchTaskView> views_scratch_;
  /// Fair pool order (dense pool indices) of the current kind-visit.
  std::vector<std::uint32_t> pool_order_scratch_;
};

}  // namespace rupam
