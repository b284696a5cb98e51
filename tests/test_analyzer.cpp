// Tests for the post-run analysis engine (obs/analyzer) and the cross-run
// comparator (obs/comparator): critical-path attribution exactness on
// synthetic span sets, straggler cause joins against hand-built event /
// audit artifacts, the Fig 3 end-to-end acceptance (PageRank on the
// motivation pair attributes stragglers to the slow node class), analyzer
// JSON determinism incl. sweep matrices at different thread counts, and
// CI-aware comparator verdicts.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "app/simulation.hpp"
#include "cluster/presets.hpp"
#include "common/json_reader.hpp"
#include "metrics/event_trace.hpp"
#include "obs/analyzer.hpp"
#include "obs/comparator.hpp"
#include "sweep/orchestrator.hpp"
#include "workloads/presets.hpp"

namespace rupam {
namespace {

// ---------------------------------------------------------------- helpers

PhaseSpan span(SimTime start, SimTime end, TaskPhase phase, StageId stage, TaskId task,
               AttemptId attempt = 0, NodeId node = 0, bool truncated = false) {
  PhaseSpan s;
  s.start = start;
  s.end = end;
  s.phase = phase;
  s.stage = stage;
  s.task = task;
  s.attempt = attempt;
  s.node = node;
  s.truncated = truncated;
  return s;
}

JobCompletion job(JobId id, SimTime submitted, SimTime finished) {
  JobCompletion jc;
  jc.job = id;
  jc.name = "job-" + std::to_string(id);
  jc.submitted = submitted;
  jc.finished = finished;
  return jc;
}

TraceEvent event(TraceEventType type, SimTime time, NodeId node, StageId stage = -1,
                 TaskId task = -1) {
  TraceEvent e;
  e.type = type;
  e.time = time;
  e.node = node;
  e.stage = stage;
  e.task = task;
  return e;
}

std::vector<AnalyzerNodeInfo> uniform_nodes(int n, double cpu_perf = 1.0) {
  std::vector<AnalyzerNodeInfo> nodes;
  for (int i = 0; i < n; ++i) {
    AnalyzerNodeInfo info;
    info.id = i;
    info.name = "node-" + std::to_string(i);
    info.node_class = "uniform";
    info.cpu_perf = cpu_perf;
    nodes.push_back(info);
  }
  return nodes;
}

/// A stage of five one-attempt tasks: four take `fast` seconds of compute,
/// the fifth is shaped by `shape` (which appends the straggler's spans and
/// returns nothing). Used by every cause-join test below.
void add_fast_tasks(SpanTrace& trace, StageId stage, double fast = 1.0) {
  for (TaskId t = 0; t < 4; ++t) {
    double start = static_cast<double>(t);
    trace.record(span(start, start + fast, TaskPhase::kCompute, stage, t, 0, /*node=*/1));
  }
}

const StragglerReport* find_straggler(const RunDiagnosis& diag, StageId stage, TaskId task) {
  for (const StragglerReport& r : diag.stragglers) {
    if (r.stage == stage && r.task == task) return &r;
  }
  return nullptr;
}

std::string diagnosis_json(const RunDiagnosis& diag) {
  std::ostringstream os;
  write_diagnosis_json(diag, os);
  return os.str();
}

// ------------------------------------------------ critical-path tiling --

TEST(AnalyzerCriticalPath, SingleAttemptTilesJctExactly) {
  SpanTrace trace;
  trace.record(span(0.0, 2.0, TaskPhase::kQueued, 0, 0));
  trace.record(span(2.0, 3.0, TaskPhase::kInputRead, 0, 0));
  trace.record(span(3.0, 3.5, TaskPhase::kShuffleDiskRead, 0, 0));
  trace.record(span(3.5, 4.0, TaskPhase::kShuffleNetRead, 0, 0));
  trace.record(span(4.0, 8.0, TaskPhase::kCompute, 0, 0));
  trace.record(span(7.0, 8.0, TaskPhase::kGc, 0, 0));  // nested compute tail
  trace.record(span(8.0, 9.0, TaskPhase::kShuffleWrite, 0, 0));
  trace.record(span(8.5, 9.0, TaskPhase::kSpill, 0, 0));  // nested write tail
  trace.record(span(9.0, 9.5, TaskPhase::kOutputSend, 0, 0));

  RunArtifacts art;
  art.spans = &trace;
  art.jobs = {job(0, 0.0, 10.0)};

  RunDiagnosis diag = analyze_run(art);
  ASSERT_EQ(diag.jobs.size(), 1u);
  const PhaseAttribution& a = diag.jobs[0].critical_path;
  EXPECT_DOUBLE_EQ(a.queueing, 2.0);
  EXPECT_DOUBLE_EQ(a.input_read, 1.0);
  EXPECT_DOUBLE_EQ(a.shuffle_read, 1.0);
  EXPECT_DOUBLE_EQ(a.compute, 3.0);  // 4 s of compute minus the nested GC
  EXPECT_DOUBLE_EQ(a.gc, 1.0);
  EXPECT_DOUBLE_EQ(a.shuffle_write, 0.5);  // 1 s of write minus the spill
  EXPECT_DOUBLE_EQ(a.spill, 0.5);
  EXPECT_DOUBLE_EQ(a.output_send, 0.5);
  EXPECT_DOUBLE_EQ(a.driver, 0.5);  // span end 9.5 → job finish 10
  EXPECT_NEAR(a.total(), diag.jobs[0].jct, 1e-9);
  ASSERT_EQ(diag.jobs[0].path.size(), 1u);
  EXPECT_DOUBLE_EQ(diag.jobs[0].path[0].gap_after, 0.5);
}

TEST(AnalyzerCriticalPath, WalksShuffleParentsAndChargesGapsToDriver) {
  SpanTrace trace;
  // Map stage 0 runs [0, 4]; reduce stage 1 runs [5, 9]; job ends at 9.5.
  trace.record(span(0.0, 4.0, TaskPhase::kCompute, 0, 0));
  trace.record(span(5.0, 9.0, TaskPhase::kCompute, 1, 100));
  trace.set_stage_parents(1, {0});

  RunArtifacts art;
  art.spans = &trace;
  art.jobs = {job(0, 0.0, 9.5)};
  art.stage_job = {{0, 0}, {1, 0}};

  RunDiagnosis diag = analyze_run(art);
  ASSERT_EQ(diag.jobs.size(), 1u);
  const JobDiagnosis& j = diag.jobs[0];
  EXPECT_NEAR(j.critical_path.total(), j.jct, 1e-9);
  EXPECT_DOUBLE_EQ(j.critical_path.compute, 8.0);
  EXPECT_DOUBLE_EQ(j.critical_path.driver, 1.5);  // 0.5 tail + 1.0 inter-stage
  // Path is chronological: map before reduce.
  ASSERT_EQ(j.path.size(), 2u);
  EXPECT_EQ(j.path[0].stage, 0);
  EXPECT_EQ(j.path[1].stage, 1);
  EXPECT_DOUBLE_EQ(j.path[0].gap_after, 1.0);
  EXPECT_DOUBLE_EQ(j.path[1].gap_after, 0.5);
}

TEST(AnalyzerCriticalPath, RetriesStillSumToJct) {
  SpanTrace trace;
  // Attempt 0 dies mid-compute; attempt 1 relaunches and completes.
  trace.record(span(0.0, 1.0, TaskPhase::kQueued, 0, 0, 0));
  trace.record(span(1.0, 3.0, TaskPhase::kCompute, 0, 0, 0, 0, /*truncated=*/true));
  trace.record(span(3.0, 4.0, TaskPhase::kQueued, 0, 0, 1));
  trace.record(span(4.0, 9.0, TaskPhase::kCompute, 0, 0, 1));

  RunArtifacts art;
  art.spans = &trace;
  art.jobs = {job(0, 0.0, 10.0)};

  RunDiagnosis diag = analyze_run(art);
  ASSERT_EQ(diag.jobs.size(), 1u);
  const JobDiagnosis& j = diag.jobs[0];
  EXPECT_NEAR(j.critical_path.total(), j.jct, 1e-9);
  EXPECT_DOUBLE_EQ(j.critical_path.queueing, 2.0);
  EXPECT_DOUBLE_EQ(j.critical_path.compute, 7.0);
  EXPECT_DOUBLE_EQ(j.critical_path.driver, 1.0);
  EXPECT_EQ(diag.attempts, 2u);
  EXPECT_EQ(diag.tasks, 1u);
}

TEST(AnalyzerCriticalPath, RequiresSpans) {
  RunArtifacts art;
  EXPECT_THROW(analyze_run(art), std::invalid_argument);
}

// ------------------------------------------------------- cause joins ----

TEST(AnalyzerStraggler, SlowNodeClassFromCapabilityJoin) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 4.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/0));

  RunArtifacts art;
  art.spans = &trace;
  art.nodes = uniform_nodes(2);
  art.nodes[0].node_class = "wimpy";
  art.nodes[0].cpu_perf = 0.6;

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kSlowNodeClass);
  EXPECT_EQ(r->node_class, "wimpy");
  EXPECT_NE(r->detail.find("class=wimpy"), std::string::npos);
  EXPECT_GT(r->ratio, 1.5);
  EXPECT_EQ(diag.stragglers_by_cause[static_cast<std::size_t>(StragglerCause::kSlowNodeClass)],
            1u);
}

TEST(AnalyzerStraggler, PoolPreemptionOutranksEverything) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 1.5, TaskPhase::kCompute, 0, 4, 0, 0, /*truncated=*/true));
  trace.record(span(2.0, 6.0, TaskPhase::kCompute, 0, 4, 1, 0));

  EventTrace events;
  // A drain on the same node would also match — preemption must win.
  events.record(event(TraceEventType::kNodeDraining, 1.0, 0));
  events.record(event(TraceEventType::kTaskPreempted, 1.5, 0, 0, 4));

  RunArtifacts art;
  art.spans = &trace;
  art.trace = &events;
  art.nodes = uniform_nodes(2);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kPoolPreemption);
  EXPECT_NE(r->detail.find("preempted_at="), std::string::npos);
}

TEST(AnalyzerStraggler, SpotDrainFromLostAttemptJoin) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  // Attempt 0 truncated on node 2 while the node drained; retry completes.
  trace.record(span(0.0, 1.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/2, /*truncated=*/true));
  trace.record(span(1.2, 6.0, TaskPhase::kCompute, 0, 4, 1, /*node=*/1));

  EventTrace events;
  events.record(event(TraceEventType::kNodeDraining, 0.5, 2));

  RunArtifacts art;
  art.spans = &trace;
  art.trace = &events;
  art.nodes = uniform_nodes(3);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kSpotDrain);
  EXPECT_NE(r->detail.find("drained_node=2"), std::string::npos);
}

TEST(AnalyzerStraggler, NodeFaultFromLostAttemptJoin) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 1.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/2, /*truncated=*/true));
  trace.record(span(1.2, 6.0, TaskPhase::kCompute, 0, 4, 1, /*node=*/1));

  EventTrace events;
  events.record(event(TraceEventType::kExecutorLost, 0.9, 2));

  RunArtifacts art;
  art.spans = &trace;
  art.trace = &events;
  art.nodes = uniform_nodes(3);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kNodeFault);
  EXPECT_NE(r->detail.find("failed_node=2"), std::string::npos);
}

TEST(AnalyzerStraggler, BlacklistReboundWithinWindow) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 20.0, TaskPhase::kQueued, 0, 4, 0, /*node=*/2));
  trace.record(span(20.0, 24.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/2));

  EventTrace events;
  events.record(event(TraceEventType::kNodeUnblacklisted, 15.0, 2));  // 5 s before launch

  RunArtifacts art;
  art.spans = &trace;
  art.trace = &events;
  art.nodes = uniform_nodes(3);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kBlacklistRebound);
  EXPECT_NE(r->detail.find("unblacklisted_at="), std::string::npos);
}

TEST(AnalyzerStraggler, GpuContentionFromAuditReason) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 4.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/0));

  DecisionAudit audit;
  DispatchDecision dec;
  dec.stage = 0;
  dec.task = 4;
  dec.attempt = 0;
  dec.node = 0;
  dec.queue = ResourceKind::kGpu;
  dec.reason = "rupam_gpu_race";
  audit.record(dec);

  RunArtifacts art;
  art.spans = &trace;
  art.audit = &audit;
  art.nodes = uniform_nodes(2);  // equal cpu_perf: capability join stays quiet

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kGpuContention);
  EXPECT_NE(r->detail.find("rupam_gpu_race"), std::string::npos);
}

TEST(AnalyzerStraggler, GcPressureAndShuffleSkewFromPhaseShape) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  // Task 4: GC owns 1.5 s of a 4 s service (share 0.375 > 0.25).
  trace.record(span(0.0, 4.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/0));
  trace.record(span(2.5, 4.0, TaskPhase::kGc, 0, 4, 0, /*node=*/0));
  // Task 5: shuffle read owns 3 s of 4 s (share 0.75 > 0.5).
  trace.record(span(0.0, 3.0, TaskPhase::kShuffleNetRead, 0, 5, 0, /*node=*/0));
  trace.record(span(3.0, 4.0, TaskPhase::kCompute, 0, 5, 0, /*node=*/0));

  RunArtifacts art;
  art.spans = &trace;
  art.nodes = uniform_nodes(2);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* gc = find_straggler(diag, 0, 4);
  ASSERT_NE(gc, nullptr);
  EXPECT_EQ(gc->cause, StragglerCause::kGcPressure);
  const StragglerReport* skew = find_straggler(diag, 0, 5);
  ASSERT_NE(skew, nullptr);
  EXPECT_EQ(skew->cause, StragglerCause::kShuffleSkew);
}

TEST(AnalyzerStraggler, UnknownWhenNothingJoins) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 4.0, TaskPhase::kCompute, 0, 4, 0, /*node=*/0));

  RunArtifacts art;
  art.spans = &trace;
  art.nodes = uniform_nodes(2);

  RunDiagnosis diag = analyze_run(art);
  const StragglerReport* r = find_straggler(diag, 0, 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cause, StragglerCause::kUnknown);
  EXPECT_NE(r->detail.find("ratio="), std::string::npos);
}

TEST(AnalyzerStraggler, SmallStagesHaveNoMedian) {
  SpanTrace trace;
  trace.record(span(0.0, 1.0, TaskPhase::kCompute, 0, 0));
  trace.record(span(0.0, 40.0, TaskPhase::kCompute, 0, 1));  // 2 tasks < min 3

  RunArtifacts art;
  art.spans = &trace;

  RunDiagnosis diag = analyze_run(art);
  EXPECT_TRUE(diag.stragglers.empty());
}

// ------------------------------------------------------ determinism -----

TEST(AnalyzerJson, ByteIdenticalAcrossRuns) {
  SpanTrace trace;
  add_fast_tasks(trace, 0);
  trace.record(span(0.0, 1.0, TaskPhase::kQueued, 0, 4, 0, 0));
  trace.record(span(1.0, 3.0, TaskPhase::kCompute, 0, 4, 0, 0, /*truncated=*/true));
  trace.record(span(3.5, 4.0, TaskPhase::kQueued, 0, 4, 1, 1));
  trace.record(span(4.0, 9.0, TaskPhase::kCompute, 0, 4, 1, 1));

  EventTrace events;
  events.record(event(TraceEventType::kExecutorLost, 2.9, 0));

  RunArtifacts art;
  art.spans = &trace;
  art.trace = &events;
  art.jobs = {job(0, 0.0, 9.25)};
  art.nodes = uniform_nodes(2);

  std::string first = diagnosis_json(analyze_run(art));
  std::string second = diagnosis_json(analyze_run(art));
  EXPECT_EQ(first, second);
  // The document parses and carries the documented schema.
  JsonValue doc = parse_json(first);
  ASSERT_NE(doc.find("summary"), nullptr);
  ASSERT_NE(doc.find("jobs"), nullptr);
  ASSERT_NE(doc.find("stragglers"), nullptr);
  const JsonValue* by_cause = doc.find("summary")->find("stragglers_by_cause");
  ASSERT_NE(by_cause, nullptr);
  EXPECT_NE(by_cause->find("node_fault"), nullptr);
}

TEST(SweepAnalyzer, MatrixJsonIdenticalAtAnyThreadCount) {
  SweepSpec spec;
  spec.name = "analyze-threads";
  spec.base_seed = 11;
  spec.replications = 2;
  spec.schedulers = {SchedulerKind::kSpark};
  spec.fleet_sizes = {12};
  spec.arrival_rates = {0.1};
  spec.duration = 40.0;
  spec.max_apps = 2;
  spec.mix = {"GM"};
  spec.analyze = true;

  SweepOptions one;
  one.threads = 1;
  SweepOptions many;
  many.threads = 3;
  std::string a = run_sweep(spec, one).to_json();
  std::string b = run_sweep(spec, many).to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"analyzer\""), std::string::npos);
  EXPECT_NE(a.find("\"by_cause\""), std::string::npos);
  EXPECT_NE(a.find("\"critical_path\""), std::string::npos);
}

// ------------------------------------------------- Fig 3 acceptance -----

TEST(AnalyzerFig3, PageRankOnMotivationPairBlamesSlowNodeClass) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.switch_bandwidth = gbit_per_s(10.0);
  {
    Simulator probe_sim;
    Cluster probe(probe_sim, gbit_per_s(10.0));
    build_motivation_pair(probe);
    for (NodeId id : probe.node_ids()) cfg.nodes.push_back(probe.node(id).spec());
  }
  cfg.enable_analysis = true;
  cfg.enable_spans = true;
  cfg.enable_audit = true;
  cfg.enable_trace = true;
  Simulation sim(cfg);

  WorkloadParams params;
  params.input_gb = 2.0;
  params.iterations = 1;
  params.seed = 1;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  sim.run(make_pagerank(sim.cluster().node_ids(), params));

  RunDiagnosis diag = analyze_run(sim.run_artifacts());
  ASSERT_FALSE(diag.jobs.empty());
  for (const JobDiagnosis& j : diag.jobs) {
    EXPECT_NEAR(j.critical_path.total(), j.jct, 1e-9) << "job " << j.job;
  }
  std::size_t slow =
      diag.stragglers_by_cause[static_cast<std::size_t>(StragglerCause::kSlowNodeClass)];
  EXPECT_GE(slow, 1u);
  bool found_detail = false;
  for (const StragglerReport& r : diag.stragglers) {
    if (r.cause == StragglerCause::kSlowNodeClass &&
        r.detail.find("class=slow-cpu") != std::string::npos) {
      found_detail = true;
      break;
    }
  }
  EXPECT_TRUE(found_detail);
}

// ------------------------------------------------------- comparator -----

TEST(Comparator, VerdictsRespectDirectionAndTolerance) {
  std::string base = R"({"makespan_s": 100.0, "events_per_s": 2.0e6, "noise_s": 10.0})";
  std::string test = R"({"makespan_s": 80.0, "events_per_s": 1.0e6, "noise_s": 10.1})";
  ComparisonReport rep = compare_json_text(base, test);
  ASSERT_EQ(rep.deltas.size(), 3u);
  EXPECT_EQ(rep.improved, 1u);      // makespan fell (lower is better)
  EXPECT_EQ(rep.regressed, 1u);     // throughput fell (higher is better)
  EXPECT_EQ(rep.within_noise, 1u);  // 1% move < 2% relative tolerance
  EXPECT_TRUE(rep.has_regressions());
  for (const MetricDelta& d : rep.deltas) {
    if (d.key == "makespan_s") {
      EXPECT_EQ(d.verdict, Verdict::kImproved);
    } else if (d.key == "events_per_s") {
      EXPECT_EQ(d.verdict, Verdict::kRegressed);
    } else if (d.key == "noise_s") {
      EXPECT_EQ(d.verdict, Verdict::kWithinNoise);
    }
  }
}

TEST(Comparator, ScanReductionIsHigherIsBetter) {
  // scale_fleet's `*_scan_reduction` is full-scan work over work done: a
  // leaner dispatch path raises it, and that must not fail a strict gate.
  EXPECT_FALSE(metric_lower_is_better("n100_RUPAM_scan_reduction"));
  ComparisonReport rep = compare_json_text(R"({"n100_RUPAM_scan_reduction": 1439.4})",
                                           R"({"n100_RUPAM_scan_reduction": 115787.0})");
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_EQ(rep.deltas[0].verdict, Verdict::kImproved);
  EXPECT_FALSE(rep.has_regressions());
  ComparisonReport worse = compare_json_text(R"({"n100_RUPAM_scan_reduction": 1439.4})",
                                             R"({"n100_RUPAM_scan_reduction": 92.3})");
  EXPECT_TRUE(worse.has_regressions());
}

TEST(Comparator, ConfidenceIntervalsAbsorbLooseDeltas) {
  // 15% slower, but both CIs are wide: the move is not significant.
  std::string base = R"({"cells": [{"scheduler": "spark", "fleet_size": 12,
    "arrival_rate": 0.05, "fault_plan": "", "elastic": "",
    "makespan_s": {"n": 3, "mean": 10.0, "ci95": 1.0, "min": 9, "max": 11}}]})";
  std::string wide = R"({"cells": [{"scheduler": "spark", "fleet_size": 12,
    "arrival_rate": 0.05, "fault_plan": "", "elastic": "",
    "makespan_s": {"n": 3, "mean": 11.5, "ci95": 1.0, "min": 10, "max": 13}}]})";
  std::string tight = R"({"cells": [{"scheduler": "spark", "fleet_size": 12,
    "arrival_rate": 0.05, "fault_plan": "", "elastic": "",
    "makespan_s": {"n": 3, "mean": 11.5, "ci95": 0.1, "min": 11, "max": 12}}]})";

  ComparisonReport noisy = compare_json_text(base, wide);
  ASSERT_EQ(noisy.deltas.size(), 1u);
  EXPECT_EQ(noisy.deltas[0].verdict, Verdict::kWithinNoise);

  ComparisonReport confident = compare_json_text(base, tight);
  ASSERT_EQ(confident.deltas.size(), 1u);
  EXPECT_EQ(confident.deltas[0].verdict, Verdict::kRegressed);
  EXPECT_NE(confident.deltas[0].key.find("cell[spark,n=12"), std::string::npos);
}

TEST(Comparator, SkipsIdentityKeysAndReportsAsymmetry) {
  std::string base = R"({"seed": 1, "e2e_nodes": 100, "wall_ms": 50.0, "old_s": 1.0})";
  std::string test = R"({"seed": 2, "e2e_nodes": 100, "wall_ms": 50.0, "new_s": 1.0})";
  ComparisonReport rep = compare_json_text(base, test);
  for (const MetricDelta& d : rep.deltas) EXPECT_EQ(d.key.find("seed"), std::string::npos);
  ASSERT_EQ(rep.only_in_base.size(), 1u);
  EXPECT_EQ(rep.only_in_base[0], "old_s");
  ASSERT_EQ(rep.only_in_test.size(), 1u);
  EXPECT_EQ(rep.only_in_test[0], "new_s");
}

TEST(Comparator, DriftKeysAreListedButNeverRegress) {
  // A raw host timing twice as slow is drift; its normalised twin is not.
  std::string base = R"({"RUPAM_dispatch_mean_ns": 100.0, "RUPAM_dispatch_mean_raw_ns": 100.0})";
  std::string test = R"({"RUPAM_dispatch_mean_ns": 200.0, "RUPAM_dispatch_mean_raw_ns": 200.0})";
  ComparisonReport rep = compare_json_text(base, test);
  ASSERT_EQ(rep.deltas.size(), 2u);
  EXPECT_EQ(rep.regressed, 1u);
  for (const MetricDelta& d : rep.deltas) {
    EXPECT_EQ(d.verdict, metric_is_drift(d.key) ? Verdict::kWithinNoise : Verdict::kRegressed)
        << d.key;
    EXPECT_DOUBLE_EQ(d.delta_pct, 100.0);
  }
  EXPECT_TRUE(metric_is_drift("calibration_step_raw_ns"));
  EXPECT_FALSE(metric_is_drift("RUPAM_dispatch_mean_ns"));
}

TEST(Comparator, SweepCellsCompareAnalyzerStragglerCounts) {
  std::string base = R"({"cells": [{"scheduler": "rupam", "fleet_size": 12,
    "arrival_rate": 0.05, "fault_plan": "", "elastic": "",
    "makespan_s": {"n": 2, "mean": 10.0, "ci95": 0.1},
    "analyzer": {"stragglers": 4}}]})";
  std::string test = R"({"cells": [{"scheduler": "rupam", "fleet_size": 12,
    "arrival_rate": 0.05, "fault_plan": "", "elastic": "",
    "makespan_s": {"n": 2, "mean": 10.0, "ci95": 0.1},
    "analyzer": {"stragglers": 9}}]})";
  ComparisonReport rep = compare_json_text(base, test);
  bool found = false;
  for (const MetricDelta& d : rep.deltas) {
    if (d.key.find("analyzer.stragglers") != std::string::npos) {
      found = true;
      EXPECT_EQ(d.verdict, Verdict::kRegressed);  // more stragglers is worse
    }
  }
  EXPECT_TRUE(found);
}

TEST(Comparator, JsonRoundTripsAndTablePrints) {
  ComparisonReport rep = compare_json_text(R"({"a_s": 1.0})", R"({"a_s": 2.0})");
  std::ostringstream os;
  write_comparison_json(rep, os);
  JsonValue doc = parse_json(os.str());
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(doc.find("regressed")->as_number(), 1.0);

  std::ostringstream table;
  print_comparison(rep, table);
  EXPECT_NE(table.str().find("regressed"), std::string::npos);
}

TEST(Comparator, RejectsNonObjectDocuments) {
  EXPECT_THROW(compare_json_text("[1, 2]", "{}"), std::invalid_argument);
}

}  // namespace
}  // namespace rupam
