// Command-line driver behind the `rupam_sim` tool: parse arguments, run
// one (workload, scheduler) simulation, print a report, optionally dump
// traces. Kept in the library so it is unit-testable.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "app/run_spec.hpp"
#include "app/simulation.hpp"

namespace rupam {

/// One `rupam_sim` invocation: the run it describes (the RunSpec base,
/// which --config loads and the run flags override) plus what a RunSpec
/// leaves out — repetitions, output paths, mode flags and analysis knobs.
struct CliOptions : RunSpec {
  int repetitions = 1;
  std::string trace_csv;     // write the event trace here if non-empty
  std::string trace_chrome;  // chrome://tracing JSON path
  /// Perfetto task-phase span trace path (enables span recording).
  std::string trace_perfetto;
  /// Metrics exposition path: ".json" → JSON, else Prometheus text.
  std::string metrics_out;
  /// Dispatch-decision audit path: ".json" → JSON, else CSV.
  std::string explain_out;
  /// Post-run diagnosis path (critical paths + straggler causes). Enables
  /// spans, audit, event trace and JCT collection for the run.
  std::string analyze_out;
  double analyze_k = 1.5;  // straggler threshold for --analyze
  /// Comparator mode: diff two run reports / sweep matrices and exit.
  std::string compare_base;
  std::string compare_test;
  std::string compare_out;      // comparison JSON path; empty = table only
  bool compare_strict = false;  // exit 1 when any metric regressed
  /// Relative significance floor for --compare (ComparisonConfig default
  /// when unset). Wall-clock benches on shared runners want a loose one.
  double compare_tolerance = -1.0;  // < 0: use the comparator default
  /// Sweep mode: path to a JSON SweepSpec (see sweep/sweep_spec.hpp);
  /// non-empty runs the whole grid on a worker pool and writes one JSON
  /// result matrix, ignoring the run description above.
  std::string sweep;
  int sweep_threads = 0;  // 0 = hardware concurrency
  std::string sweep_out;  // matrix path; empty = stdout
  /// Declarative run spec (--config run.json) the RunSpec base was loaded
  /// from; every other flag overrides its fields.
  std::string config;
  /// >= 0: capture a checkpoint at this simulated time (see
  /// replay/checkpoint.hpp) and write it to `checkpoint_out`.
  SimTime checkpoint_at = -1.0;
  std::string checkpoint_out;
  /// Checkpoint path: restore (verify the pinned decision prefix) and run
  /// to completion; with --branch / --whatif it supplies the RunSpec.
  std::string restore;
  /// Counterfactual branch spec (grammar in replay/branch.hpp).
  std::string branch;
  std::string branch_out;  // branch report JSON path; empty = table only
  /// What-if advisor mode: path to a --analyze diagnosis JSON.
  std::string whatif;
  std::string whatif_out;  // ranked findings JSON path; empty = stdout
  /// Write the run's flat outcome JSON (comparator-ready) here.
  std::string report_out;
  bool list_workloads = false;
  bool help = false;
};

/// Parse argv against the flag table behind cli_usage(). --config is
/// applied first, so every other flag overrides its fields wherever it
/// sits; the resulting RunSpec is validated. Returns std::nullopt and
/// writes a one-line message to `err` on invalid input.
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::ostream& err);

/// Thin forwarder to scheduler_kind_from_name (sched/factory.hpp).
std::optional<SchedulerKind> scheduler_from_name(const std::string& name);

/// Run per the options; returns the process exit code.
int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err);

/// Usage text, generated from the same flag table parse_cli reads.
std::string cli_usage();

}  // namespace rupam
