#include <gtest/gtest.h>

#include <sstream>

#include "app/simulation.hpp"
#include "common/json_reader.hpp"
#include "metrics/event_trace.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

TraceEvent event(SimTime t, TraceEventType type, TaskId task = 1) {
  TraceEvent e;
  e.time = t;
  e.type = type;
  e.task = task;
  e.stage = 0;
  e.node = 2;
  e.detail = "d";
  return e;
}

TEST(EventTrace, RecordsAndCounts) {
  EventTrace trace;
  EXPECT_TRUE(trace.empty());
  trace.record(event(0.0, TraceEventType::kTaskLaunched));
  trace.record(event(1.0, TraceEventType::kTaskLaunched));
  trace.record(event(2.0, TraceEventType::kTaskFinished));
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.count(TraceEventType::kTaskLaunched), 2u);
  EXPECT_EQ(trace.count(TraceEventType::kTaskFinished), 1u);
  EXPECT_EQ(trace.count(TraceEventType::kExecutorLost), 0u);
}

TEST(EventTrace, RejectsTimeTravel) {
  EventTrace trace;
  trace.record(event(5.0, TraceEventType::kTaskLaunched));
  EXPECT_THROW(trace.record(event(4.0, TraceEventType::kTaskFinished)),
               std::invalid_argument);
}

TEST(EventTrace, ClearResets) {
  EventTrace trace;
  trace.record(event(0.0, TraceEventType::kTaskLaunched));
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.count(TraceEventType::kTaskLaunched), 0u);
  trace.record(event(0.0, TraceEventType::kTaskLaunched));  // reusable
}

TEST(EventTrace, CsvEscapesDetailPerRfc4180) {
  EventTrace trace;
  TraceEvent e = event(1.0, TraceEventType::kFaultInjected);
  e.detail = "crash@60,node=3 said \"down\"\r\nthen recovered";
  trace.record(std::move(e));
  std::ostringstream oss;
  trace.write_csv(oss);
  std::string out = oss.str();
  // Commas, quotes, CR and LF all force quoting; quotes double.
  EXPECT_NE(out.find("\"crash@60,node=3 said \"\"down\"\"\r\nthen recovered\""),
            std::string::npos);
}

TEST(EventTrace, CsvHasHeaderAndRows) {
  EventTrace trace;
  trace.record(event(1.5, TraceEventType::kTaskFailed));
  std::ostringstream oss;
  trace.write_csv(oss);
  std::string out = oss.str();
  EXPECT_NE(out.find("time,type,stage,task"), std::string::npos);
  EXPECT_NE(out.find("task_failed"), std::string::npos);
  EXPECT_NE(out.find("1.500000"), std::string::npos);
}

TEST(EventTrace, ChromeTracingEscapesJson) {
  EventTrace trace;
  TraceEvent e = event(1.0, TraceEventType::kTaskFinished);
  e.detail = "say \"hi\"\\";
  e.duration = 0.5;
  trace.record(e);
  std::ostringstream oss;
  trace.write_chrome_tracing(oss);
  std::string out = oss.str();
  EXPECT_NE(out.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
}

/// Parses a Chrome-tracing export and checks it against the recorded
/// events: one "X" slice per finished or failed attempt, one "i" instant
/// per other event except launches (implied by the slices), each carrying
/// its event's detail.
void expect_one_trace_event_per_record(const EventTrace& trace) {
  std::ostringstream oss;
  trace.write_chrome_tracing(oss);
  JsonValue root = parse_json(oss.str());
  ASSERT_NE(root.find("displayTimeUnit"), nullptr);
  const JsonValue* list = root.find("traceEvents");
  ASSERT_NE(list, nullptr);
  std::vector<const TraceEvent*> expected;
  std::size_t slices = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.type == TraceEventType::kTaskLaunched ||
        e.type == TraceEventType::kSpeculativeLaunched) {
      continue;
    }
    expected.push_back(&e);
    if (e.type == TraceEventType::kTaskFinished || e.type == TraceEventType::kTaskFailed) {
      ++slices;
    }
  }
  std::size_t seen = 0, seen_slices = 0;
  for (const JsonValue& v : list->as_array()) {
    const std::string& ph = v.find("ph")->as_string();
    ASSERT_LT(seen, expected.size());
    const TraceEvent& e = *expected[seen++];
    bool slice = e.type == TraceEventType::kTaskFinished || e.type == TraceEventType::kTaskFailed;
    EXPECT_EQ(ph, slice ? "X" : "i");
    EXPECT_EQ(v.find("args")->find("detail")->as_string(), e.detail);
    if (slice) {
      ++seen_slices;
      EXPECT_EQ(v.find("cat")->as_string(), to_string(e.type));
      EXPECT_NEAR(v.find("dur")->as_number(), e.duration * 1e6, 1e-3);
    } else {
      EXPECT_EQ(v.find("name")->as_string(), to_string(e.type));
    }
  }
  EXPECT_EQ(seen, expected.size());
  EXPECT_EQ(seen_slices, slices);
}

TEST(EventTrace, ChromeTracingHasOneTraceEventPerNonLaunchEvent) {
  EventTrace trace;
  for (int t = 0; t < kNumTraceEventTypes; ++t) {
    TraceEvent e = event(1.0 + t, static_cast<TraceEventType>(t), t);
    e.detail = "q\"uote\\ tab\t nl\n ctl\x01 #" + std::to_string(t);
    e.duration = 0.25;
    trace.record(e);
  }
  expect_one_trace_event_per_record(trace);

  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_trace = true;
  cfg.chaos_seed = 11;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("GM"), sim.cluster().node_ids(), 1, 1,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  ASSERT_GT(sim.trace()->count(TraceEventType::kFaultInjected), 0u);
  expect_one_trace_event_per_record(*sim.trace());
}

TEST(EventTrace, EndToEndCoversLifecycle) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kRupam;
  cfg.enable_trace = true;
  Simulation sim(cfg);
  Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), 1, 1,
                                   hdfs_placement_weights(sim.cluster()));
  sim.run(app);
  const EventTrace* trace = sim.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->count(TraceEventType::kStageSubmitted), 0u);
  EXPECT_GE(trace->count(TraceEventType::kTaskLaunched), app.total_tasks());
  EXPECT_EQ(trace->count(TraceEventType::kTaskFinished), app.total_tasks());
  // Events are time-ordered by construction.
  for (std::size_t i = 1; i < trace->events().size(); ++i) {
    ASSERT_GE(trace->events()[i].time, trace->events()[i - 1].time);
  }
}

TEST(EventTrace, DisabledByDefault) {
  SimulationConfig cfg;
  Simulation sim(cfg);
  EXPECT_EQ(sim.trace(), nullptr);
}

}  // namespace
}  // namespace rupam
