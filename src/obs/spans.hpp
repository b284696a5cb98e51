// Task-phase spans — per-attempt duration events covering the executor's
// phase machine (queued → input read → shuffle read → compute (+GC) →
// shuffle write (+spill) → output send), plus the shuffle topology they
// were recorded under. Two readers share them:
//
//   * build_attempts() groups the spans into attempts — the one grouping
//     both the Perfetto export and the post-run analyzer (obs/analyzer)
//     walk;
//   * write_perfetto() streams them through the one Trace Event writer
//     (obs/trace_event_writer) with one process per node, greedy per-node
//     lanes, and flow arrows from map-stage attempts to the reduce-stage
//     attempts that fetch their shuffle output.
//
// TaskExecution records spans when an SpanTrace is attached to its
// executor (`rupam_sim --trace-perfetto` or `--analyze`); recording never
// schedules simulator events, so flags-off runs are bit-identical.
#pragma once

#include <compare>
#include <limits>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rupam {

enum class TaskPhase : std::uint8_t {
  kQueued = 0,       // submit → launch (scheduler delay)
  kInputRead,        // HDFS / cache input
  kShuffleDiskRead,  // local map-output read
  kShuffleNetRead,   // remote map-output fetch
  kCompute,          // CPU or GPU service (GC nested at the tail)
  kGc,               // GC wall time (tail of compute, or cache-churn GC)
  kShuffleWrite,     // map-output write (includes spill merge I/O)
  kSpill,            // portion of the write attributable to spilled bytes
  kOutputSend,       // result send to the driver / next stage
};
inline constexpr int kNumTaskPhases = 9;

std::string_view to_string(TaskPhase phase);

struct PhaseSpan {
  SimTime start = 0.0;
  SimTime end = 0.0;
  TaskPhase phase = TaskPhase::kQueued;
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;
  NodeId node = kInvalidNode;
  /// Phase-specific magnitude: bytes moved for I/O phases, GC seconds for
  /// kGc, scheduler-delay seconds for kQueued.
  double arg = 0.0;
  /// The attempt was killed mid-phase (OOM, executor loss, relocation).
  bool truncated = false;
};

struct AttemptKey {
  StageId stage = -1;
  TaskId task = -1;
  AttemptId attempt = 0;

  auto operator<=>(const AttemptKey&) const = default;
};

/// One attempt reconstructed from its spans: the envelope [env_start,
/// env_end] is gap-free (executor phases tile it), `launch` is the end of
/// the queued span (== env_start when the attempt had no queue wait). The
/// attempt's spans are the slice [first_span, first_span + num_spans) of
/// AttemptIndex::span_order — a flat layout, so indexing a trace allocates
/// one vector total instead of one per attempt.
struct AttemptRec {
  AttemptKey key;
  NodeId node = kInvalidNode;
  SimTime env_start = std::numeric_limits<double>::infinity();
  SimTime env_end = -std::numeric_limits<double>::infinity();
  SimTime launch = -1.0;
  bool truncated = false;
  std::size_t first_span = 0;
  std::size_t num_spans = 0;
};

/// Attempts sorted by key, so a task's attempts are contiguous and a
/// stage's tasks are too; each attempt's spans keep their recording order.
struct AttemptIndex {
  std::vector<AttemptRec> attempts;     // sorted by key
  std::vector<std::size_t> span_order;  // span indices grouped per attempt

  /// Indices of `rec`'s spans, in recording order.
  std::span<const std::size_t> spans_of(const AttemptRec& rec) const {
    return {span_order.data() + rec.first_span, rec.num_spans};
  }
};

AttemptIndex build_attempts(const std::vector<PhaseSpan>& spans);

class SpanTrace {
 public:
  void record(PhaseSpan span) { spans_.push_back(span); }

  /// Shuffle topology for flow arrows and the analyzer's critical-path
  /// walk: `parents` are the map stages whose output `stage` fetches.
  /// Registered by the Simulation from the DAG.
  void set_stage_parents(StageId stage, std::vector<StageId> parents);
  const std::map<StageId, std::vector<StageId>>& stage_parents() const {
    return stage_parents_;
  }

  const std::vector<PhaseSpan>& spans() const { return spans_; }
  std::size_t count(TaskPhase phase) const;
  bool empty() const { return spans_.empty(); }

  /// Chrome "Trace Event Format" JSON loadable in Perfetto: "M" process
  /// metadata per node, nested "X" slices (attempt → phases), and legacy
  /// flow events ("s"/"f" with bp:"e") from each parent stage's
  /// latest-finishing attempt to every child attempt's first shuffle-read
  /// span.
  void write_perfetto(std::ostream& os) const;

 private:
  std::vector<PhaseSpan> spans_;
  std::map<StageId, std::vector<StageId>> stage_parents_;
};

}  // namespace rupam
