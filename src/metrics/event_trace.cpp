#include "metrics/event_trace.hpp"

#include <stdexcept>

#include "common/table.hpp"
#include "obs/trace_event_writer.hpp"

namespace rupam {

std::string_view to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kStageSubmitted: return "stage_submitted";
    case TraceEventType::kTaskLaunched: return "task_launched";
    case TraceEventType::kSpeculativeLaunched: return "speculative_launched";
    case TraceEventType::kTaskFinished: return "task_finished";
    case TraceEventType::kTaskFailed: return "task_failed";
    case TraceEventType::kTaskRelocated: return "task_relocated";
    case TraceEventType::kExecutorLost: return "executor_lost";
    case TraceEventType::kFaultInjected: return "fault_injected";
    case TraceEventType::kNodeDead: return "node_dead";
    case TraceEventType::kNodeRecovered: return "node_recovered";
    case TraceEventType::kNodeBlacklisted: return "node_blacklisted";
    case TraceEventType::kNodeUnblacklisted: return "node_unblacklisted";
    case TraceEventType::kPartitionResubmitted: return "partition_resubmitted";
    case TraceEventType::kNodeProvisioned: return "node_provisioned";
    case TraceEventType::kNodeJoined: return "node_joined";
    case TraceEventType::kNodeDraining: return "node_draining";
    case TraceEventType::kNodeDecommissioned: return "node_decommissioned";
    case TraceEventType::kTaskPreempted: return "task_preempted";
  }
  return "?";
}

void EventTrace::record(TraceEvent event) {
  if (!events_.empty() && event.time < events_.back().time) {
    throw std::invalid_argument("EventTrace: non-monotonic event time");
  }
  counts_[static_cast<std::size_t>(event.type)]++;
  events_.push_back(std::move(event));
}

std::size_t EventTrace::count(TraceEventType type) const {
  return counts_[static_cast<std::size_t>(type)];
}

void EventTrace::clear() {
  events_.clear();
  counts_.fill(0);
}

void EventTrace::write_csv(std::ostream& os) const {
  CsvWriter csv(os);
  csv.write_row({"time", "type", "stage", "task", "attempt", "node", "duration", "detail"});
  for (const auto& e : events_) {
    csv.write_row({format_fixed(e.time, 6), std::string(to_string(e.type)),
                   std::to_string(e.stage), std::to_string(e.task),
                   std::to_string(e.attempt), std::to_string(e.node),
                   format_fixed(e.duration, 6), e.detail});
  }
}

void EventTrace::write_chrome_tracing(std::ostream& os) const {
  TraceEventWriter out(os);
  for (const auto& e : events_) {
    auto detail = [&e](JsonWriter& args) { args.key("detail").value(e.detail); };
    if (e.type == TraceEventType::kTaskFinished || e.type == TraceEventType::kTaskFailed) {
      // Completed attempt: a duration slice on the node's lane.
      out.slice(to_string(e.type),
                "task " + std::to_string(e.task) + "#" + std::to_string(e.attempt), e.node,
                e.task % 64, e.time - e.duration, e.duration, detail);
    } else if (e.type != TraceEventType::kTaskLaunched &&
               e.type != TraceEventType::kSpeculativeLaunched) {  // launches: in the slice
      out.instant(to_string(e.type), e.node == kInvalidNode ? 0 : e.node, 0, e.time, detail);
    }
  }
  out.finish();
}

}  // namespace rupam
