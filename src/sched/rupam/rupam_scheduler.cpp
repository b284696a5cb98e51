#include "sched/rupam/rupam_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"

namespace rupam {

RupamScheduler::RupamScheduler(SchedulerEnv env, RupamConfig config)
    : SchedulerBase(std::move(env)),
      config_(config),
      tm_(db_, TaskManagerConfig{config.res_factor, config.mem_queue_threshold}) {
  for (NodeId id : cluster().node_ids()) {
    if (cluster().node(id).gpus().total() > 0) gpu_nodes_.push_back(id);
  }
}

void RupamScheduler::on_heartbeat(const NodeMetrics& metrics) {
  {
    OverheadProfiler::Scope profile(profiler(), ProfileSection::kHeapMaintenance);
    rm_.record(metrics, sim().now());
  }
  check_memory_straggler(metrics);
  SchedulerBase::on_heartbeat(metrics);
}

void RupamScheduler::fault_tolerance_changed() {
  if (fault_tolerance_.enabled) {
    rm_.configure_liveness(
        {fault_tolerance_.heartbeat_period, fault_tolerance_.missed_heartbeats_dead});
  }
}

void RupamScheduler::node_membership_changed(NodeId node, NodeLifecycle state) {
  if (state == NodeLifecycle::kLive) {
    // Joined (or finished booting): index its devices. Keep gpu_nodes_
    // sorted so iteration order matches the construction-time scan.
    if (cluster().node(node).gpus().total() > 0 &&
        !std::binary_search(gpu_nodes_.begin(), gpu_nodes_.end(), node)) {
      gpu_nodes_.insert(std::upper_bound(gpu_nodes_.begin(), gpu_nodes_.end(), node), node);
    }
  } else if (state == NodeLifecycle::kDecommissioned) {
    gpu_nodes_.erase(std::remove(gpu_nodes_.begin(), gpu_nodes_.end(), node),
                     gpu_nodes_.end());
    rm_.forget(node);
  }
}

void RupamScheduler::stage_submitted(StageState& stage) {
  named_stages_.push_back(
      NamedStage{db_.intern_stage(stage.set.stage_name), &stage, false});
  for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
    note_task_key(stage, i);
    enqueue_task(stage, i);
  }
}

void RupamScheduler::stage_removed(StageState& stage) {
  std::erase_if(named_stages_, [&](const NamedStage& s) { return s.stage == &stage; });
}

void RupamScheduler::note_task_key(StageState& stage, std::size_t index) {
  const TaskSpec& spec = stage.tasks[index].spec;
  if (spec.partition == static_cast<int>(index) && spec.stage_name == stage.set.stage_name) {
    return;
  }
  for (NamedStage& s : named_stages_) {
    if (s.stage == &stage) s.irregular = true;
  }
}

void RupamScheduler::task_pending_changed(StageState& stage, std::size_t index, bool pending) {
  // Keep the queues in lock-step with the task's state: a launched
  // task's refs park (the GPU queue still races them); a failed or
  // relocated task's refs come back at their original queue positions.
  if (pending) {
    restore_task(stage, index);
  } else {
    park_task(stage, index);
  }
}

void RupamScheduler::task_succeeded(StageState& stage, TaskState& task,
                                    const TaskMetrics& metrics) {
  finish_task(stage, static_cast<std::size_t>(&task - stage.tasks.data()), metrics);
  relocating_.erase(task.spec.id);
}

void RupamScheduler::task_failed(StageState& stage, TaskState& task, const std::string&) {
  relocating_.erase(task.spec.id);
  if (task.pending) {
    // Re-characterize with whatever the DB knows now and requeue.
    enqueue_task(stage, static_cast<std::size_t>(&task - stage.tasks.data()));
  }
}

void RupamScheduler::task_relaunchable(StageState& stage, TaskState& task) {
  std::size_t index = static_cast<std::size_t>(&task - stage.tasks.data());
  note_task_key(stage, index);  // a graft appends a task
  enqueue_task(stage, index);
}

void RupamScheduler::enqueue_task(StageState& stage, std::size_t index) {
  const TaskSpec& spec = stage.tasks[index].spec;
  std::span<const TaskManager::Slot> added = tm_.enqueue(spec, stage.set.stage, index);
  if (!added.empty() && row_index_.size() <= added.back().seq) {
    // Sized here, outside dispatch, so indexing never allocates there.
    row_index_.resize(added.back().seq + 1);
  }
  // Seqs ascend, so the new refs' rows go at the end of their queues.
  StageNameId name = db_.intern_stage(spec.stage_name);
  for (const TaskManager::Slot& slot : added) {
    QueueRows& q = rows_[static_cast<std::size_t>(slot.kind)];
    q.candidates.push(make_row(slot.seq, stage, stage.tasks[index], name));
    q.tasks.emplace_back(&stage, index);
    index_rows(q, q.tasks.size() - 1);
  }
}

void RupamScheduler::index_rows(const QueueRows& q, std::size_t from) {
  const std::vector<CandidateRow>& rows = q.candidates.rows();
  for (std::size_t i = from; i < rows.size(); ++i) {
    row_index_[rows[i].seq] = static_cast<std::uint32_t>(i);
  }
}

std::size_t RupamScheduler::row_of(const QueueRows& q, std::uint64_t seq) const {
  if (seq >= row_index_.size()) return CandidateSegment::npos;
  std::size_t row = row_index_[seq];
  const std::vector<CandidateRow>& rows = q.candidates.rows();
  return row < rows.size() && rows[row].seq == seq ? row : CandidateSegment::npos;
}

void RupamScheduler::drop_row(QueueRows& q, std::uint64_t seq) {
  std::size_t row = row_of(q, seq);
  if (row != CandidateSegment::npos && !q.candidates.rows()[row].gone) q.candidates.erase(row);
}

void RupamScheduler::compact_rows(QueueRows& q) {
  if (2 * q.candidates.tombstones() <= q.candidates.size()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < q.tasks.size(); ++i) {
    if (!q.candidates.rows()[i].gone) q.tasks[kept++] = q.tasks[i];
  }
  q.tasks.resize(kept);
  q.candidates.compact();
  q.heads = {};
  index_rows(q, 0);
}

void RupamScheduler::park_task(StageState& stage, std::size_t index) {
  // The launched task's rows are tombstoned, but the GPU queue keeps its
  // row while racing: a freed device may poach the task.
  bool races = config_.gpu_cpu_race;
  for (const TaskManager::Slot& slot : tm_.note_launched(stage.set.stage, index)) {
    if (!(races && slot.kind == ResourceKind::kGpu)) {
      drop_row(rows_[static_cast<std::size_t>(slot.kind)], slot.seq);
    }
  }
}

void RupamScheduler::restore_task(StageState& stage, std::size_t index) {
  tm_.note_pending_again(stage.set.stage, index);
  // A restored ref's row comes back at its seq: revived from its
  // tombstone (re-read, as DB_task_char patches skip tombstones),
  // re-inserted mid-queue once compaction dropped it, or kept by the
  // racing GPU queue.
  StageNameId name = db_.find_stage(stage.tasks[index].spec.stage_name);
  for (const TaskManager::Slot& slot : tm_.slots(stage.set.stage, index)) {
    QueueRows& q = rows_[static_cast<std::size_t>(slot.kind)];
    std::size_t row = row_of(q, slot.seq);
    if (row == CandidateSegment::npos) {
      row = q.candidates.insert(make_row(slot.seq, stage, stage.tasks[index], name));
      q.tasks.emplace(q.tasks.begin() + static_cast<std::ptrdiff_t>(row), &stage, index);
      q.heads = {};
      index_rows(q, row);
    } else if (q.candidates.rows()[row].gone) {
      q.candidates.replace(row, make_row(slot.seq, stage, stage.tasks[index], name));
    }
  }
}

void RupamScheduler::finish_task(StageState& stage, std::size_t index,
                                 const TaskMetrics& metrics) {
  for (const TaskManager::Slot& slot : tm_.slots(stage.set.stage, index)) {
    drop_row(rows_[static_cast<std::size_t>(slot.kind)], slot.seq);
  }
  tm_.note_finished(stage.set.stage, index);

  // The DB write changes the rows of every waiting task with the finished
  // task's (stage name, partition) key, and no other. Only stages of that
  // name can hold one; in a regular stage only task `partition` can.
  const TaskSpec& spec = stage.tasks[index].spec;
  tm_.record_completion(spec, metrics);
  StageNameId name = db_.find_stage(spec.stage_name);
  auto patch = [&](StageState& owner, std::size_t i) {
    const TaskState& task = owner.tasks[i];
    if (task.finished || task.spec.partition != spec.partition ||
        task.spec.stage_name != spec.stage_name) {
      return;
    }
    for (const TaskManager::Slot& slot : tm_.slots(owner.set.stage, i)) {
      QueueRows& q = rows_[static_cast<std::size_t>(slot.kind)];
      std::size_t row = row_of(q, slot.seq);
      if (row == CandidateSegment::npos || q.candidates.rows()[row].gone) continue;
      q.candidates.replace(row, make_row(slot.seq, owner, task, name));
    }
  };
  for (const NamedStage& s : named_stages_) {
    if (s.irregular) {
      for (std::size_t i = 0; i < s.stage->tasks.size(); ++i) patch(*s.stage, i);
    } else if (s.name == name && spec.partition >= 0 &&
               static_cast<std::size_t>(spec.partition) < s.stage->tasks.size()) {
      patch(*s.stage, static_cast<std::size_t>(spec.partition));
    }
  }
}

void RupamScheduler::seed_monitor() {
  // The heartbeat stream is the architectural source of RM data; a
  // dispatch round additionally refreshes the snapshot so admission checks
  // (memory guard, over-commit limits) never race a 1-second-stale view.
  // Ids are dense 0..size()-1, so an index walk replaces node_ids()'s
  // freshly-built vector on this per-round path.
  std::size_t n = cluster().size();
  for (std::size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (!cluster().member(id)) continue;  // decommissioned: no RM row
    rm_.record(cluster().node(id).metrics());
  }
}

bool RupamScheduler::node_available(const NodeMetrics& metrics, ResourceKind kind) const {
  if (!node_usable(metrics.node)) return false;
  Executor* exec = executor(metrics.node);
  if (exec == nullptr || !exec->alive()) return false;
  if (!config_.overcommit) return exec->free_slots() > 0;  // slot semantics (ablation)
  Node& node = cluster().node(metrics.node);
  double cap = config_.max_tasks_per_core * node.spec().cores + config_.overcommit_slack;
  if (exec->running_tasks() >= static_cast<int>(cap)) return false;
  // Node-health gates from real-time utilization (the RM metrics): a node
  // whose disk or NIC queue is already deep takes no further work of any
  // kind — HDDs lose aggregate throughput under deep queues, so piling on
  // is strictly counterproductive. This is the "avoid resource
  // contention" behaviour of §III-B applied at admission time.
  auto disk_active = std::max(node.disk_read().active(), node.disk_write().active());
  std::size_t disk_gate = node.spec().has_ssd ? 48 : 16;
  if (disk_active >= disk_gate) return false;
  if (node.net().active() >= 32) return false;
  // Admission counts what the dispatcher has *committed* per resource
  // queue, not instantaneous phase occupancy: a CPU-bound task in its
  // shuffle-read phase still owns its future CPU slot. Over-commit comes
  // from admitting across queues — e.g. a core-saturated node still takes
  // disk-, net-, memory- or GPU-bound work (paper §III-C2).
  int committed = live_attempts(metrics.node, kind);
  switch (kind) {
    case ResourceKind::kCpu:
      return committed < node.spec().cores;
    case ResourceKind::kMemory:
      return metrics.free_memory > 512.0 * kMiB &&
             committed < std::max(2, node.spec().cores / 4);
    case ResourceKind::kDisk:
      return committed < (node.spec().has_ssd ? config_.max_disk_tasks_ssd
                                              : config_.max_disk_tasks_hdd);
    case ResourceKind::kNetwork:
      return committed < config_.max_net_tasks;
    case ResourceKind::kGpu:
      return metrics.gpus_idle > 0;
  }
  return false;
}

bool RupamScheduler::any_idle_gpu() const {
  for (NodeId id : gpu_nodes_) {
    if (cluster().node(id).gpus().idle() > 0) return true;
  }
  return false;
}

bool RupamScheduler::race_eligible(const TaskState& task) const {
  return !task.finished && !task.live.empty() && !task.has_gpu_attempt();
}

CandidateRow RupamScheduler::make_row(std::uint64_t seq, const StageState& stage,
                                      const TaskState& task, StageNameId name) const {
  CandidateRow row;
  row.seq = seq;
  row.pool = static_cast<std::uint32_t>(pool_of(stage).index());
  row.peak_memory = task.spec.total_memory();
  row.cached_input = !task.spec.input_cache_key.empty();
  // The interned stage name makes the DB lookup two array reads instead
  // of hashing the stage-name string.
  if (const TaskCharRecord* rec = db_.lookup(name, task.spec.partition)) {
    row.opt_executor = rec->opt_executor;
    row.gpu_record = rec->gpu;
    row.history_size = static_cast<std::uint8_t>(rec->history_resources.size());
    row.expected_cost = rec->compute_time + rec->shuffle_read + rec->shuffle_write;
  }
  return row;
}

/// Answers select_candidate()'s questions from the scheduler's task state
/// for one kind-visit (see dispatcher.hpp).
class RupamScheduler::RowSource {
 public:
  RowSource(RupamScheduler& sched, ResourceKind kind) : sched_(sched) {
    bool races = kind == ResourceKind::kGpu && sched.config_.gpu_cpu_race;
    add(sched.rows_[static_cast<std::size_t>(kind)], /*head=*/0, kind, races);
    // The CPU side of the dual-run race (§III-C3, BLAS example): with no
    // device idle anywhere, the CPU queue also takes the GPU queue's
    // launchable rows, after its own.
    if (kind == ResourceKind::kCpu && sched.config_.gpu_cpu_race && !sched.any_idle_gpu()) {
      add(sched.rows_[static_cast<std::size_t>(ResourceKind::kGpu)], /*head=*/1,
          ResourceKind::kGpu, false);
    }
  }

  std::span<const SegmentUse> uses() const { return {uses_.data(), count_}; }
  void offer(NodeId node) { node_ = node; }

  bool valid(std::size_t use, std::size_t row) {
    // A finished task's row is a tombstone. A launch parks the task's
    // refs, so a parked ref is stale without reading its task — unless
    // the GPU queue may race it.
    const CandidateRow& r = rows_[use]->candidates.rows()[row];
    if (r.gone || (!races_[use] && !sched_.tm_.ref_active(r.seq))) return false;
    sched_.note_task_checks(1);
    const TaskState& t = *task(CandidateRef{use, row}).second;
    return sched_.launchable(t) || (races_[use] && sched_.race_eligible(t));
  }
  Locality locality(std::size_t use, std::size_t row) const {
    return sched_.locality_for(task(CandidateRef{use, row}).second->spec, node_);
  }
  std::span<const std::uint64_t> local(std::size_t use) {
    return sched_.tm_.local_refs(kinds_[use], node_);
  }
  std::pair<StageState*, TaskState*> task(CandidateRef ref) const {
    auto [stage, index] = rows_[ref.use]->tasks[ref.row];
    return {stage, &stage->tasks[index]};
  }

 private:
  void add(QueueRows& rows, std::size_t head, ResourceKind kind, bool races) {
    rows_[count_] = &rows;
    kinds_[count_] = kind;
    races_[count_] = races;
    uses_[count_] = SegmentUse{&rows.candidates, &rows.heads[head]};
    ++count_;
  }

  RupamScheduler& sched_;
  std::array<SegmentUse, 2> uses_{};
  std::array<QueueRows*, 2> rows_{};
  std::array<ResourceKind, 2> kinds_{};
  std::array<bool, 2> races_{};
  std::size_t count_ = 0;
  NodeId node_ = kInvalidNode;
};

RupamScheduler::Pick RupamScheduler::pick_for_node(RowSource& source, NodeId node) {
  source.offer(node);
  Node& n = cluster().node(node);
  NodeOffer offer{node, n.free_memory(), n.gpus().idle() > 0};
  DispatcherPolicy policy{config_.opt_executor_lock, config_.memory_guard,
                          config_.memory_guard_headroom};
  std::optional<CandidateRef> chosen =
      select_candidate(source.uses(), offer, policy, pool_order_scratch_, source, visit_rows_,
                       views_scratch_);
  if (!chosen) return {};
  auto [stage, task] = source.task(*chosen);
  return Pick{stage, task, !launchable(*task)};
}

const std::vector<RupamScheduler::SpecCandidate>& RupamScheduler::collect_speculative(
    ResourceKind kind) {
  std::vector<SpecCandidate>& out = spec_scratch_;
  out.clear();
  for (auto [stage_id, task_index] : find_speculatable()) {
    auto it = stages_.find(stage_id);
    if (it == stages_.end()) continue;
    StageState& stage = it->second;
    TaskState& task = stage.tasks[task_index];
    // Match the straggler's bottleneck to the resource round, so the copy
    // runs where that resource is most capable.
    ResourceKind bottleneck = ResourceKind::kCpu;
    if (const TaskCharRecord* rec = db_.lookup(task.spec.stage_name, task.spec.partition)) {
      bottleneck = tm_.bottleneck(*rec);
    }
    if (bottleneck != kind) continue;
    out.push_back(SpecCandidate{&stage, &task});
  }
  return out;
}

RupamScheduler::Pick RupamScheduler::pick_speculative(
    const std::vector<SpecCandidate>& candidates, NodeId node) {
  if (candidates.empty()) return {};
  Bytes free_mem = cluster().node(node).free_memory();
  for (const SpecCandidate& c : candidates) {
    if (c.task->has_attempt_on(node)) continue;
    if (config_.memory_guard &&
        c.task->spec.total_memory() + config_.memory_guard_headroom > free_mem) {
      continue;
    }
    return Pick{c.stage, c.task, /*gpu_race_copy=*/true};
  }
  return {};
}

bool RupamScheduler::dispatch_possible() const {
  // A live row is a waiting task, or a racing GPU queue's running one
  // that a freed device may poach.
  for (const QueueRows& q : rows_) {
    if (q.candidates.live() > 0) return true;
  }
  // A stage yields speculatables only once it has a straggler threshold.
  return may_speculate();
}

void RupamScheduler::try_dispatch() {
  if (stages_.empty() || !dispatch_possible()) return;
  {
    OverheadProfiler::Scope profile(profiler(), ProfileSection::kHeapMaintenance);
    seed_monitor();
    rm_.sweep_dead(sim().now());
  }
  // Rows outlive the round, but a row stale now (in backoff) may be valid
  // in a later round, and a node refused now may be admitted. Tombstones
  // are compacted away here, between rounds, so row indexes hold within
  // one.
  for (QueueRows& q : rows_) {
    q.heads = {};
    compact_rows(q);
  }
  walk_from_.fill(0);
  int misses = 0;
  while (misses < kNumResourceKinds) {
    ResourceKind kind = round_robin_.next();
    RowSource source(*this, kind);
    std::span<const SegmentUse> uses = source.uses();
    const std::vector<SpecCandidate>* speculative = nullptr;
    auto speculatable = [&]() -> const std::vector<SpecCandidate>& {
      if (speculative == nullptr) speculative = &collect_speculative(kind);
      return *speculative;
    };
    bool has_rows = any_valid_candidate(uses, source);
    visit_rows_.filled = false;
    bool launched = false;
    if (has_rows || !speculatable().empty()) {
      // FAIR: Algorithm 2 runs within one pool at a time, pools tried in
      // fair-share order, so the neediest pool has first claim on the node.
      // The order only changes on a launch, which ends the visit.
      pool_order_scratch_.clear();
      if (has_rows && pools_.policy == PoolPolicy::kFair && spans_pools(uses)) {
        for (PoolId pool : fair_pool_order()) {
          pool_order_scratch_.push_back(static_cast<std::uint32_t>(pool.index()));
        }
      }
      // The kind's priority queue is sorted at most once per round (the
      // monitor is not written until the round ends). Admission is read
      // lazily while walking it: nothing changes state before the walk
      // stops at its first launch, so every node is admitted or refused
      // exactly as an up-front filter of the queue would.
      const std::vector<const NodeMetrics*>* queue = nullptr;
      {
        OverheadProfiler::Scope profile(profiler(), ProfileSection::kHeapMaintenance);
        queue = &rm_.queue(kind);
      }
      // Walk the priority queue until a node accepts a task; launch at
      // most one task per kind-visit so no resource type is starved.
      // Refused nodes stay refused for the rest of the round, so the walk
      // resumes past the refused prefix of earlier visits.
      std::size_t& walk_from = walk_from_[static_cast<std::size_t>(kind)];
      bool refused_prefix = true;
      std::size_t rank = 0;  // position among admitted nodes
      for (std::size_t i = walk_from; i < queue->size(); ++i) {
        const NodeMetrics* m = (*queue)[i];
        note_node_visit();
        if (!node_available(*m, kind)) {
          if (refused_prefix) walk_from = i + 1;
          continue;
        }
        refused_prefix = false;
        NodeId node = m->node;
        std::size_t node_rank = rank++;
        Pick pick = has_rows ? pick_for_node(source, node) : Pick{};
        bool speculative_copy = false;
        if (pick.task == nullptr) {
          pick = pick_speculative(speculatable(), node);
          speculative_copy = pick.task != nullptr;
        }
        if (pick.task == nullptr) continue;
        bool use_gpu =
            pick.task->spec.gpu_accelerable && cluster().node(node).gpus().idle() > 0;
        bool as_copy = pick.gpu_race_copy;
        if (audit_enabled()) {
          // Bottleneck tag: the characterization that routed this task to a
          // per-resource queue (Algorithm 1); for never-seen tasks the queue
          // itself is the tag.
          ResourceKind tag = kind;
          if (const TaskCharRecord* rec =
                  db_.lookup(pick.task->spec.stage_name, pick.task->spec.partition)) {
            tag = tm_.bottleneck(*rec);
          }
          Explain e;
          e.reason = speculative_copy ? "rupam_speculative"
                     : as_copy        ? "rupam_gpu_race"
                                      : "rupam_heap_match";
          e.detail = "tag=" + std::string(to_string(tag)) +
                     " queue=" + std::string(to_string(kind)) +
                     " rank=" + std::to_string(node_rank);
          // Every node this kind's queue admits. Nothing node_available
          // reads has changed since the walk began, so this is the list an
          // up-front filter of the queue would give.
          for (const NodeMetrics* a : *queue) {
            if (node_available(*a, kind)) e.candidate_nodes.push_back(a->node);
          }
          e.candidates = static_cast<int>(e.candidate_nodes.size());
          explain_next_launch(std::move(e));
        }
        if (!launch_task(*pick.stage, *pick.task, node, use_gpu, as_copy, kind)) continue;
        if (as_copy) {
          if (speculative_copy) {
            note_speculative_launch(pick.task->spec.id);
          } else {
            ++gpu_races_;
          }
        }
        launched = true;
        break;
      }
    }
    misses = launched ? 0 : misses + 1;
  }
}


void RupamScheduler::check_memory_straggler(const NodeMetrics& metrics) {
  if (!config_.memory_straggler) return;
  if (metrics.free_memory >= config_.low_memory_watermark) return;
  Executor* exec = executor(metrics.node);
  if (exec == nullptr || exec->running_tasks() < 2) return;
  // Rate-limit per node: relocation is a remedial action, not a policy —
  // killing the top consumer every heartbeat would thrash.
  auto it = last_relocation_.find(metrics.node);
  if (it != last_relocation_.end() && sim().now() - it->second < 10.0) return;

  // Find the largest memory consumer on this node across active stages.
  StageState* victim_stage = nullptr;
  TaskState* victim = nullptr;
  Bytes victim_mem = 0.0;
  for (auto& [id, stage] : stages_) {
    for (auto& task : stage.tasks) {
      if (task.finished || relocating_.count(task.spec.id) > 0) continue;
      for (const auto& attempt : task.live) {
        if (attempt.node != metrics.node) continue;
        if (attempt.exec->reserved_memory() > victim_mem) {
          victim_mem = attempt.exec->reserved_memory();
          victim_stage = &stage;
          victim = &task;
        }
      }
    }
  }
  if (victim == nullptr) return;
  RUPAM_INFO(sim().now(), "RUPAM: memory straggler — relocating task ", victim->spec.id,
             " off node ", metrics.node);
  relocating_.insert(victim->spec.id);
  last_relocation_[metrics.node] = sim().now();
  relocate_task(*victim_stage, *victim, "memory straggler");
}

}  // namespace rupam
