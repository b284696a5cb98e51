#include "obs/spans.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "obs/trace_event_writer.hpp"

namespace rupam {

std::string_view to_string(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kQueued: return "queued";
    case TaskPhase::kInputRead: return "input_read";
    case TaskPhase::kShuffleDiskRead: return "shuffle_disk_read";
    case TaskPhase::kShuffleNetRead: return "shuffle_net_read";
    case TaskPhase::kCompute: return "compute";
    case TaskPhase::kGc: return "gc";
    case TaskPhase::kShuffleWrite: return "shuffle_write";
    case TaskPhase::kSpill: return "spill";
    case TaskPhase::kOutputSend: return "output_send";
  }
  return "?";
}

void SpanTrace::set_stage_parents(StageId stage, std::vector<StageId> parents) {
  stage_parents_[stage] = std::move(parents);
}

std::size_t SpanTrace::count(TaskPhase phase) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [phase](const PhaseSpan& s) { return s.phase == phase; }));
}

AttemptIndex build_attempts(const std::vector<PhaseSpan>& spans) {
  AttemptIndex idx;
  // Sort a compact (key, index) array instead of comparing PhaseSpans in
  // place: the comparator then reads contiguous memory, not three fields
  // scattered across a 60-byte struct per probe.
  struct Keyed {
    std::uint64_t stage_task;
    std::uint32_t attempt;
    std::uint32_t index;
  };
  std::vector<Keyed> keyed(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const PhaseSpan& s = spans[i];
    keyed[i] = {(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.stage)) << 32) |
                    static_cast<std::uint32_t>(s.task),
                static_cast<std::uint32_t>(s.attempt), static_cast<std::uint32_t>(i)};
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.stage_task, a.attempt) < std::tie(b.stage_task, b.attempt);
  });
  idx.span_order.resize(spans.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) idx.span_order[i] = keyed[i].index;
  for (std::size_t i = 0; i < idx.span_order.size(); ++i) {
    const PhaseSpan& s = spans[idx.span_order[i]];
    AttemptKey key{s.stage, s.task, s.attempt};
    if (idx.attempts.empty() || !(idx.attempts.back().key == key)) {
      AttemptRec rec;
      rec.key = key;
      rec.first_span = i;
      idx.attempts.push_back(rec);
    }
    AttemptRec& rec = idx.attempts.back();
    rec.node = s.node;
    rec.env_start = std::min(rec.env_start, s.start);
    rec.env_end = std::max(rec.env_end, s.end);
    if (s.phase == TaskPhase::kQueued) rec.launch = std::max(rec.launch, s.end);
    rec.truncated = rec.truncated || s.truncated;
    ++rec.num_spans;
  }
  for (AttemptRec& rec : idx.attempts) {
    if (rec.launch < 0.0) rec.launch = rec.env_start;
  }
  return idx;
}

void SpanTrace::write_perfetto(std::ostream& os) const {
  AttemptIndex idx = build_attempts(spans_);
  const std::vector<AttemptRec>& attempts = idx.attempts;
  // An attempt is drawn on the node of its first span. (A resubmitted stage
  // restarts its attempt ids, so one key can cover runs on two nodes.)
  std::vector<NodeId> node(attempts.size());
  for (std::size_t a = 0; a < attempts.size(); ++a) {
    node[a] = spans_[idx.spans_of(attempts[a]).front()].node;
  }
  // Attempts by (node, start, key): they are sorted by key already.
  std::vector<std::size_t> order(attempts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(node[a], attempts[a].env_start) < std::tie(node[b], attempts[b].env_start);
  });

  TraceEventWriter out(os);
  // One process per node, and greedy per-node lanes over attempt envelopes
  // so overlapping attempts on a node render side by side instead of
  // mis-nesting.
  std::vector<int> lane(attempts.size(), 0);
  std::vector<SimTime> lane_free;
  for (std::size_t k = 0; k < order.size(); ++k) {
    std::size_t a = order[k];
    if (k == 0 || node[order[k - 1]] != node[a]) {
      out.process_name(node[a], "node " + std::to_string(node[a]));
      lane_free.clear();
    }
    std::size_t l = 0;
    while (l < lane_free.size() && lane_free[l] > attempts[a].env_start) ++l;
    if (l == lane_free.size()) lane_free.push_back(0.0);
    lane_free[l] = attempts[a].env_end;
    lane[a] = static_cast<int>(l);
  }

  for (std::size_t a : order) {
    const AttemptRec& rec = attempts[a];
    const auto& [stage, task, attempt] = rec.key;
    out.slice("attempt",
              "S" + std::to_string(stage) + ".T" + std::to_string(task) + "#" +
                  std::to_string(attempt),
              node[a], lane[a], rec.env_start, rec.env_end - rec.env_start,
              [&](JsonWriter& args) {
                args.key("stage").value(stage);
                args.key("task").value(static_cast<long long>(task));
                args.key("attempt").value(attempt);
              });
    for (std::size_t i : idx.spans_of(rec)) {
      const PhaseSpan& s = spans_[i];
      out.slice("phase", to_string(s.phase), s.node, lane[a], s.start, s.end - s.start,
                [&](JsonWriter& args) {
                  args.key("arg").value(s.arg, 9);
                  if (s.truncated) args.key("truncated").value(true);
                });
    }
  }

  // Flow arrows: parent map stage → child attempt's first shuffle read.
  // Source is the parent's latest-finishing attempt (the one the child's
  // fetch actually waited for); the "s"/"f" pair binds to the midpoints of
  // the source and destination slices. A stage's attempts are one run of
  // the index.
  auto stage_run = [&](StageId stage) {
    auto lo = std::partition_point(attempts.begin(), attempts.end(),
                                   [stage](const AttemptRec& r) { return r.key.stage < stage; });
    return std::pair{lo, std::partition_point(lo, attempts.end(), [stage](const AttemptRec& r) {
                       return r.key.stage == stage;
                     })};
  };
  long long flow_id = 0;
  std::vector<std::size_t> sources;  // per parent with attempts: its latest
  for (const auto& [child_stage, parents] : stage_parents_) {
    sources.clear();
    for (StageId parent : parents) {
      auto [lo, hi] = stage_run(parent);
      auto latest = std::max_element(lo, hi, [](const AttemptRec& x, const AttemptRec& y) {
        return x.env_end < y.env_end;
      });
      if (latest != hi) sources.push_back(static_cast<std::size_t>(latest - attempts.begin()));
    }
    auto [lo, hi] = stage_run(child_stage);
    for (auto it = lo; it != hi; ++it) {
      auto dest = static_cast<std::size_t>(it - attempts.begin());
      std::span<const std::size_t> own = idx.spans_of(*it);
      auto read = std::find_if(own.begin(), own.end(), [&](std::size_t i) {
        return spans_[i].phase == TaskPhase::kShuffleDiskRead ||
               spans_[i].phase == TaskPhase::kShuffleNetRead;
      });
      if (read == own.end()) continue;
      const PhaseSpan& target = spans_[*read];
      for (std::size_t src : sources) {
        long long id = flow_id++;
        out.flow(true, "shuffle", "map_output", id, node[src], lane[src],
                 0.5 * (attempts[src].env_start + attempts[src].env_end));
        out.flow(false, "shuffle", "map_output", id, node[dest], lane[dest],
                 0.5 * (target.start + target.end));
      }
    }
  }
  out.finish();
}

}  // namespace rupam
