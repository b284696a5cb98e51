// Structured scheduling-event trace — the simulator's equivalent of the
// Spark history server. Records every scheduling decision and failure,
// exportable as CSV (analysis) or Trace Event JSON through the one writer
// the span export also uses (obs/trace_event_writer): load it into
// chrome://tracing or Perfetto to see per-node task lanes.
#pragma once

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rupam {

enum class TraceEventType : std::uint8_t {
  kStageSubmitted = 0,
  kTaskLaunched,
  kSpeculativeLaunched,
  kTaskFinished,
  kTaskFailed,
  kTaskRelocated,
  kExecutorLost,
  // Fault-injection & recovery events.
  kFaultInjected,          // the injector applied a FaultEvent
  kNodeDead,               // liveness: missed-heartbeat threshold crossed
  kNodeRecovered,          // liveness: heartbeats resumed
  kNodeBlacklisted,        // failure count tripped the blacklist
  kNodeUnblacklisted,      // timed un-blacklist elapsed
  kPartitionResubmitted,   // lost map output → parent partition recompute
  // Elastic-fleet lifecycle & preemption events.
  kNodeProvisioned,        // autoscale-up decision: instance requested
  kNodeJoined,             // boot finished: node is live and schedulable
  kNodeDraining,           // scale-down or spot notice: no new tasks
  kNodeDecommissioned,     // node permanently left the fleet
  kTaskPreempted,          // FAIR reclaim: attempt killed, task requeued
};
inline constexpr int kNumTraceEventTypes = 18;

std::string_view to_string(TraceEventType type);

struct TraceEvent {
  SimTime time = 0.0;
  TraceEventType type = TraceEventType::kTaskLaunched;
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;
  NodeId node = kInvalidNode;
  /// Free-form context: failure reason, stage name, locality.
  std::string detail;
  /// Duration (finished/failed events), 0 otherwise.
  SimTime duration = 0.0;
};

class EventTrace {
 public:
  void record(TraceEvent event);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t count(TraceEventType type) const;
  bool empty() const { return events_.empty(); }
  void clear();

  /// One row per event: time,type,stage,task,attempt,node,duration,detail.
  void write_csv(std::ostream& os) const;

  /// Chrome-tracing "Trace Event Format": each finished or failed attempt
  /// becomes a complete ("X") event on its node's process lane, every other
  /// event except launches a global instant ("i"); both carry the event's
  /// detail in args.
  void write_chrome_tracing(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
  std::array<std::size_t, kNumTraceEventTypes> counts_{};
};

}  // namespace rupam
