#include "app/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "cluster/fleet.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/locality_counter.hpp"
#include "obs/comparator.hpp"
#include "replay/whatif.hpp"
#include "sweep/orchestrator.hpp"
#include "workloads/presets.hpp"

namespace rupam {

namespace {

using Args = std::span<const std::string>;

/// Parse one whole flag value as T: no trailing characters, no wrap-around
/// of a negative into an unsigned, and (for doubles) a finite result.
template <class T>
T number_arg(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const char* expected = std::is_floating_point_v<T> ? "a finite number"
                           : std::is_signed_v<T>       ? "an integer"
                                                       : "a non-negative integer";
    throw std::runtime_error(std::string("expected ") + expected + ", got '" + text + "'");
  }
  return value;
}

void require(bool ok, const char* message) {
  if (!ok) throw std::runtime_error(message);
}

/// One command-line flag. `metavar` names its values, one word each (empty
/// for a switch); `help` lines are '\n'-separated. `apply` stores the
/// values into the options, throwing std::runtime_error on a bad one.
/// Range checks on RunSpec fields live in RunSpec::validate, which
/// parse_cli runs last; only limits the CLI adds stay here.
struct Flag {
  std::string_view name;
  std::string_view metavar;
  std::string_view help;
  void (*apply)(CliOptions& o, Args v);
};

constexpr Flag kFlags[] = {
    {"--config", "RUN.json",
     "load a declarative run spec (schema in DESIGN.md §14);\n"
     "every other flag overrides its fields",
     [](CliOptions&, Args) {}},  // loaded by parse_cli before the other flags
    {"--workload", "NAME", "LR|TeraSort|SQL|PR|TC|GM|KMeans (default PR)",
     [](CliOptions& o, Args v) {
       o.workload = v[0];
       o.workload_explicit = true;
     }},
    {"--scheduler", "NAME", "spark|rupam|stageaware|fifo|heft (default rupam)",
     [](CliOptions& o, Args v) {
       auto kind = scheduler_from_name(v[0]);
       if (!kind) throw std::runtime_error("unknown scheduler '" + v[0] + "'");
       o.scheduler = *kind;
     }},
    {"--fleet", "PATH",
     "JSON fleet spec: generate the cluster from node-class\n"
     "mixes instead of the 12-node Hydra preset (schema in\n"
     "DESIGN.md §9)",
     [](CliOptions& o, Args v) {
       o.fleet = v[0];
       o.fleet_spec.reset();  // an explicit --fleet beats a --config embedded fleet
     }},
    {"--iterations", "N", "override the preset iteration count",
     [](CliOptions& o, Args v) { o.iterations = number_arg<int>(v[0]); }},
    {"--repetitions", "N", "seeded repetitions, reports mean +- 95% CI",
     [](CliOptions& o, Args v) {
       o.repetitions = number_arg<int>(v[0]);
       require(o.repetitions >= 1, "must be >= 1");
     }},
    {"--seed", "N", "base seed (default 1)",
     [](CliOptions& o, Args v) { o.seed = number_arg<std::uint64_t>(v[0]); }},
    {"--sample", "", "sample per-node utilization",
     [](CliOptions& o, Args) { o.sample_utilization = true; }},
    {"--trace-csv", "PATH", "dump the scheduling event trace as CSV",
     [](CliOptions& o, Args v) { o.trace_csv = v[0]; }},
    {"--trace-chrome", "PATH", "dump a chrome://tracing JSON timeline",
     [](CliOptions& o, Args v) { o.trace_chrome = v[0]; }},
    {"--trace-perfetto", "PATH",
     "dump per-attempt task-phase spans (queued, shuffle\n"
     "read, compute, GC, spill, write) as a Perfetto trace",
     [](CliOptions& o, Args v) { o.trace_perfetto = v[0]; }},
    {"--metrics-out", "PATH",
     "dump the metrics registry; '.json' writes JSON,\n"
     "anything else Prometheus text exposition",
     [](CliOptions& o, Args v) { o.metrics_out = v[0]; }},
    {"--explain", "PATH",
     "record one audit row per scheduling decision\n"
     "(chosen node, reason, candidates); '.json' writes\n"
     "JSON, anything else CSV",
     [](CliOptions& o, Args v) { o.explain_out = v[0]; }},
    {"--analyze", "PATH",
     "post-run diagnosis JSON: per-job critical paths with\n"
     "phase attribution and stragglers joined to causes\n"
     "(enables spans/audit/trace; schema in DESIGN.md §13)",
     [](CliOptions& o, Args v) { o.analyze_out = v[0]; }},
    {"--analyze-k", "K",
     "straggler threshold: service time > K x stage median\n"
     "(default 1.5)",
     [](CliOptions& o, Args v) {
       o.analyze_k = number_arg<double>(v[0]);
       require(o.analyze_k > 1.0, "must be > 1");
     }},
    {"--compare", "BASE TEST",
     "diff two run reports (BENCH_*.json or sweep matrices)\n"
     "with CI-aware improved/regressed/within-noise verdicts,\n"
     "then exit (no simulation)",
     [](CliOptions& o, Args v) {
       o.compare_base = v[0];
       o.compare_test = v[1];
     }},
    {"--compare-out", "PATH", "write the comparison JSON here",
     [](CliOptions& o, Args v) { o.compare_out = v[0]; }},
    {"--compare-strict", "", "exit 1 when --compare finds any regression",
     [](CliOptions& o, Args) { o.compare_strict = true; }},
    {"--compare-tolerance", "F",
     "relative significance floor for --compare (default\n"
     "0.02; CI wall-clock gates want a looser one)",
     [](CliOptions& o, Args v) {
       o.compare_tolerance = number_arg<double>(v[0]);
       require(o.compare_tolerance >= 0.0, "must be >= 0");
     }},
    {"--faults", "SPEC",
     "inject faults, e.g. 'crash@60:node=3:down=40;\n"
     "slow@30:node=0:res=cpu:factor=0.3:for=60'",
     [](CliOptions& o, Args v) { o.faults = v[0]; }},
    {"--chaos", "SEED", "inject a seeded random fault plan",
     [](CliOptions& o, Args v) {
       o.chaos_seed = number_arg<std::uint64_t>(v[0]);
       require(o.chaos_seed != 0, "must be non-zero");
     }},
    {"--sweep", "SPEC.json",
     "run a parameter-sweep grid (scheduler x fleet size x\n"
     "arrival rate x fault plan, replicated with derived\n"
     "seeds) on a worker pool; writes one JSON result\n"
     "matrix (schema in DESIGN.md §11)",
     [](CliOptions& o, Args v) { o.sweep = v[0]; }},
    {"--sweep-threads", "N", "sweep worker threads (default: hardware concurrency)",
     [](CliOptions& o, Args v) {
       o.sweep_threads = number_arg<int>(v[0]);
       require(o.sweep_threads >= 0, "must be >= 0");
     }},
    {"--sweep-out", "PATH", "write the sweep matrix here instead of stdout",
     [](CliOptions& o, Args v) { o.sweep_out = v[0]; }},
    {"--arrivals", "RATE",
     "multi-tenant mode: open-loop Poisson application\n"
     "arrivals at RATE apps/s (--workload restricts the\n"
     "mix; default draws from all of Table III)",
     [](CliOptions& o, Args v) {
       o.arrivals = number_arg<double>(v[0]);
       require(o.arrivals > 0.0, "must be > 0");
     }},
    {"--tenants", "N", "tenant pools for --arrivals (default 2)",
     [](CliOptions& o, Args v) { o.tenants = number_arg<int>(v[0]); }},
    {"--pool-policy", "NAME", "fifo|fair cross-job scheduling policy (default fifo)",
     [](CliOptions& o, Args v) {
       auto policy = pool_policy_from_name(v[0]);
       if (!policy) throw std::runtime_error("unknown pool policy '" + v[0] + "'");
       o.pool_policy = *policy;
     }},
    {"--duration", "T", "arrival generation horizon in seconds (default 600)",
     [](CliOptions& o, Args v) { o.duration = number_arg<double>(v[0]); }},
    {"--diurnal", "AMP",
     "shape --arrivals diurnally: rate follows\n"
     "1 + AMP*sin(2*pi*t/period), AMP in [0, 1]",
     [](CliOptions& o, Args v) { o.diurnal = number_arg<double>(v[0]); }},
    {"--diurnal-period", "T", "diurnal wave period in seconds (default 120)",
     [](CliOptions& o, Args v) { o.diurnal_period = number_arg<double>(v[0]); }},
    {"--autoscale", "MAX",
     "elastic fleet: provision up to MAX extra nodes under\n"
     "task-backlog pressure, drain them when idle",
     [](CliOptions& o, Args v) {
       o.autoscale = number_arg<int>(v[0]);
       require(o.autoscale >= 1, "must be >= 1");
     }},
    {"--spot-plan", "SPEC",
     "spot revocations (fault-spec grammar, spot events\n"
     "only), e.g. 'spot@60:node=3:notice=20'",
     [](CliOptions& o, Args v) { o.spot_plan = v[0]; }},
    {"--preempt", "",
     "fair-share preemption: kill-and-resubmit tasks of\n"
     "pools above their share when another pool starves\n"
     "(needs --pool-policy fair)",
     [](CliOptions& o, Args) { o.preempt = true; }},
    {"--checkpoint-at", "T",
     "capture a checkpoint at simulated time T: replays the\n"
     "run deterministically to T and pins every dispatch\n"
     "decision made so far (format in DESIGN.md §14)",
     [](CliOptions& o, Args v) {
       o.checkpoint_at = number_arg<double>(v[0]);
       require(o.checkpoint_at >= 0.0, "must be >= 0");
     }},
    {"--checkpoint-out", "PATH", "write the checkpoint JSON here",
     [](CliOptions& o, Args v) { o.checkpoint_out = v[0]; }},
    {"--restore", "PATH",
     "restore a checkpoint: replay to its time, verify the\n"
     "pinned decision prefix, then run to completion; with\n"
     "--branch / --whatif it supplies the run spec instead",
     [](CliOptions& o, Args v) { o.restore = v[0]; }},
    {"--branch", "SPEC",
     "counterfactual branch: node:stage=S:task=T:node=N\n"
     "[:attempt=A], scheduler=NAME, or suppress:kind=K\n"
     "[:node=N] (K: crash|slow|hbdrop|degrade|spot); runs\n"
     "base + branch and diffs the outcomes",
     [](CliOptions& o, Args v) {
       parse_branch_spec(v[0]);  // fail fast on malformed specs
       o.branch = v[0];
     }},
    {"--branch-out", "PATH", "write the branch report JSON here",
     [](CliOptions& o, Args v) { o.branch_out = v[0]; }},
    {"--whatif", "DIAG.json",
     "what-if advisor: take a --analyze diagnosis, replay\n"
     "counterfactuals for the top straggler causes, rank\n"
     "them by seconds of p95 JCT saved",
     [](CliOptions& o, Args v) { o.whatif = v[0]; }},
    {"--whatif-out", "PATH", "write the ranked findings JSON here (default stdout)",
     [](CliOptions& o, Args v) { o.whatif_out = v[0]; }},
    {"--report-out", "PATH", "write the run's flat outcome JSON (feeds --compare)",
     [](CliOptions& o, Args v) { o.report_out = v[0]; }},
    {"--list", "", "list available workloads",
     [](CliOptions& o, Args) { o.list_workloads = true; }},
    {"--help", "", "this text", [](CliOptions& o, Args) { o.help = true; }},
};

/// Number of values a flag consumes: one per metavar word.
std::size_t arity(const Flag& flag) {
  if (flag.metavar.empty()) return 0;
  return 1 + static_cast<std::size_t>(std::count(flag.metavar.begin(), flag.metavar.end(), ' '));
}

const Flag* find_flag(std::string_view name) {
  if (name == "-h") name = "--help";
  for (const Flag& flag : kFlags) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

}  // namespace

std::string cli_usage() {
  constexpr std::size_t kHelpColumn = 25;  // help text starts here
  std::string usage = "usage: rupam_sim [options]\n";
  for (const Flag& flag : kFlags) {
    const std::size_t start = usage.size();
    usage.append("  ").append(flag.name);
    if (!flag.metavar.empty()) usage.append(" ").append(flag.metavar);
    const std::size_t width = usage.size() - start;
    usage.append(width < kHelpColumn ? kHelpColumn - width : 1, ' ');
    std::string_view help = flag.help;
    for (std::size_t nl; (nl = help.find('\n')) != std::string_view::npos;) {
      usage.append(help.substr(0, nl + 1)).append(kHelpColumn, ' ');
      help.remove_prefix(nl + 1);
    }
    usage.append(help).append("\n");
  }
  return usage;
}

std::optional<SchedulerKind> scheduler_from_name(const std::string& name) {
  return scheduler_kind_from_name(name);
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args, std::ostream& err) {
  CliOptions opts;
  try {
    // --config supplies defaults; it is loaded before the flag loop so
    // every other flag overrides it, wherever it sits on the command line.
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] != "--config") continue;
      if (!opts.config.empty()) throw std::runtime_error("--config given twice");
      static_cast<RunSpec&>(opts) = load_run_spec_file(args[i + 1]);
      opts.config = args[i + 1];
    }
    for (std::size_t i = 0; i < args.size();) {
      const Flag* flag = find_flag(args[i]);
      if (flag == nullptr) throw std::runtime_error("unknown argument '" + args[i] + "'");
      const std::size_t n = arity(*flag);
      if (i + n >= args.size()) {
        throw std::runtime_error("missing value for " + args[i] + " (" +
                                 std::string(flag->metavar) + ")");
      }
      try {
        flag->apply(opts, Args(args).subspan(i + 1, n));
      } catch (const std::exception& e) {
        throw std::runtime_error(args[i] + ": " + e.what());
      }
      i += 1 + n;
    }
    opts.validate();
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return std::nullopt;
  }
  return opts;
}

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Open `path` and hand the stream to `writer`; throws when it cannot be
/// opened (run_cli turns that into exit code 2).
template <class Writer>
void write_file(const std::string& path, Writer&& writer) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  writer(f);
}

/// Switch on the sinks the output flags need. They never change the run.
void apply_observability_flags(SimulationConfig& cfg, const CliOptions& options) {
  cfg.enable_trace = !options.trace_csv.empty() || !options.trace_chrome.empty();
  cfg.enable_metrics = !options.metrics_out.empty();
  cfg.enable_audit = !options.explain_out.empty();
  cfg.enable_spans = !options.trace_perfetto.empty();
  if (!options.analyze_out.empty() || !options.report_out.empty()) {
    // The analyzer joins spans x audit x event trace x JCT records, so
    // --analyze (and the outcome summary behind --report-out) implies all
    // of them.
    cfg.enable_analysis = true;
    cfg.enable_spans = true;
    cfg.enable_audit = true;
    cfg.enable_trace = true;
  }
}

/// `spec`'s simulation config plus the sinks the output flags need.
SimulationConfig observed_config(const RunSpec& spec, const CliOptions& options) {
  SimulationConfig cfg = make_simulation_config(spec);
  apply_observability_flags(cfg, options);
  return cfg;
}

/// Write every requested output of a finished run: event traces, metrics,
/// audit, spans, the --analyze diagnosis (also printed to `out`) and the
/// --report-out outcome.
void write_run_outputs(Simulation& sim, SimTime makespan, const CliOptions& options,
                       std::ostream& out) {
  if (sim.trace() != nullptr) {
    if (!options.trace_csv.empty()) {
      write_file(options.trace_csv, [&](std::ostream& f) { sim.trace()->write_csv(f); });
    }
    if (!options.trace_chrome.empty()) {
      write_file(options.trace_chrome,
                 [&](std::ostream& f) { sim.trace()->write_chrome_tracing(f); });
    }
  }
  if (!options.metrics_out.empty() && sim.metrics() != nullptr) {
    write_file(options.metrics_out, [&](std::ostream& f) {
      if (has_suffix(options.metrics_out, ".json")) {
        sim.metrics()->write_json(f);
      } else {
        sim.metrics()->write_prometheus(f);
      }
    });
  }
  if (!options.explain_out.empty() && sim.audit() != nullptr) {
    write_file(options.explain_out, [&](std::ostream& f) {
      if (has_suffix(options.explain_out, ".json")) {
        sim.audit()->write_json(f);
      } else {
        sim.audit()->write_csv(f);
      }
    });
  }
  if (!options.trace_perfetto.empty() && sim.spans() != nullptr) {
    write_file(options.trace_perfetto, [&](std::ostream& f) { sim.spans()->write_perfetto(f); });
  }
  if (!options.analyze_out.empty()) {
    AnalyzerConfig acfg;
    acfg.straggler_k = options.analyze_k;
    RunDiagnosis diag = analyze_run(sim.run_artifacts(), acfg);
    write_file(options.analyze_out, [&](std::ostream& f) { write_diagnosis_json(diag, f); });
    print_diagnosis(diag, out);
  }
  if (!options.report_out.empty()) {
    RunOutcome outcome = summarize_outcome(sim, makespan, options.analyze_k);
    write_file(options.report_out, [&](std::ostream& f) { f << outcome_to_json(outcome); });
  }
}

int run_compare_cli(const CliOptions& options, std::ostream& out) {
  std::string base = read_file(options.compare_base);
  std::string test = read_file(options.compare_test);
  ComparisonConfig config;
  if (options.compare_tolerance >= 0.0) config.rel_tolerance = options.compare_tolerance;
  ComparisonReport report = compare_json_text(base, test, config);
  if (!options.compare_out.empty()) {
    write_file(options.compare_out, [&](std::ostream& f) { write_comparison_json(report, f); });
  }
  print_comparison(report, out);
  return options.compare_strict && report.has_regressions() ? 1 : 0;
}

int run_sweep_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  SweepSpec spec = load_sweep_file(options.sweep);
  SweepOptions sweep_opts;
  sweep_opts.threads = options.sweep_threads;
  sweep_opts.on_progress = [&err](std::size_t done, std::size_t total) {
    err << "[sweep] " << done << "/" << total << " runs\n";
  };
  SweepMatrix matrix = run_sweep(spec, sweep_opts);

  if (options.sweep_out.empty()) {
    matrix.write_json(out);
  } else {
    write_file(options.sweep_out, [&](std::ostream& f) { matrix.write_json(f); });
    out << "sweep '" << spec.name << "': " << matrix.cells.size() << " cells, "
        << matrix.total_runs() << " runs (" << matrix.failed_runs() << " failed) -> "
        << options.sweep_out << "\n";
  }
  return matrix.failed_runs() == 0 ? 0 : 1;
}

void run_multi_tenant(const CliOptions& options, std::ostream& out) {
  if (!options.report_out.empty()) {
    throw std::runtime_error(
        "--report-out is single-run only (multi-tenant runs have no flat outcome)");
  }
  Simulation sim(observed_config(options, options));

  ArrivalConfig arrivals;
  arrivals.rate = options.arrivals;
  arrivals.duration = options.duration;
  arrivals.tenants = options.tenants;
  arrivals.seed = options.seed;
  arrivals.iterations_override = options.iterations;
  arrivals.diurnal_amplitude = options.diurnal;
  arrivals.diurnal_period = options.diurnal_period;
  if (options.workload_explicit) arrivals.mix = {options.workload};
  SubmissionStream stream = make_poisson_stream(arrivals, sim.cluster().node_ids());
  if (stream.empty()) {
    throw std::runtime_error("no arrivals drawn — raise --arrivals or --duration");
  }

  TenantRunReport report = sim.run(stream);
  out << stream.size() << " applications (" << report.jobs.size() << " jobs) under "
      << to_string(options.scheduler) << ", " << to_string(options.pool_policy)
      << " pools (arrivals=" << options.arrivals << "/s, tenants=" << options.tenants
      << ", duration=" << format_fixed(options.duration, 0) << "s)\n";
  out << "makespan: " << format_fixed(report.makespan, 1) << " s\n";
  const JctSummary& o = report.overall;
  out << "JCT: mean=" << format_fixed(o.mean, 1) << "s p50=" << format_fixed(o.p50, 1)
      << "s p95=" << format_fixed(o.p95, 1) << "s p99=" << format_fixed(o.p99, 1)
      << "s max=" << format_fixed(o.max, 1)
      << "s queueing=" << format_fixed(o.mean_queueing, 1) << "s\n";
  for (const auto& [pool, s] : report.per_pool) {
    out << "pool " << (pool.empty() ? "default" : pool) << ": jobs=" << s.count
        << " mean=" << format_fixed(s.mean, 1) << "s p95=" << format_fixed(s.p95, 1)
        << "s queueing=" << format_fixed(s.mean_queueing, 1) << "s\n";
  }
  if (options.chaos_seed != 0 || !options.faults.empty() || !options.spot_plan.empty()) {
    out << "recomputed_partitions=" << sim.recomputed_partitions() << "\n";
    if (sim.injector() != nullptr && sim.injector()->spot_revocations() > 0) {
      out << "spot_revocations=" << sim.injector()->spot_revocations() << "\n";
    }
  }
  if (sim.autoscaler() != nullptr) {
    out << "autoscale: scale_ups=" << sim.autoscaler()->scale_ups()
        << " scale_downs=" << sim.autoscaler()->scale_downs()
        << " provisioned_cost=" << format_fixed(sim.cluster().provisioned_cost(sim.sim().now()), 2)
        << "\n";
  }
  if (options.preempt) {
    out << "preemptions=" << sim.scheduler().preemptions() << "\n";
  }
  write_run_outputs(sim, report.makespan, options, out);
}

void run_checkpoint_cli(const CliOptions& options, std::ostream& out) {
  if (options.checkpoint_out.empty()) {
    throw std::runtime_error("--checkpoint-at needs --checkpoint-out PATH");
  }
  if (options.repetitions != 1) {
    throw std::runtime_error("checkpointing is single-run — drop --repetitions");
  }
  Checkpoint cp = capture_checkpoint(options, options.checkpoint_at);
  write_file(options.checkpoint_out, [&](std::ostream& f) { f << checkpoint_to_json(cp); });
  out << "checkpoint @ t=" << format_fixed(cp.time, 3) << "s: " << cp.pins.size()
      << " pinned decisions -> " << options.checkpoint_out << "\n";
}

void run_restore_cli(const CliOptions& options, std::ostream& out) {
  Checkpoint cp = load_checkpoint_file(options.restore);
  SimulationConfig base;
  apply_observability_flags(base, options);
  ReplayRun run = restore_checkpoint(cp, base);
  SimTime makespan = run.sim->finish();
  out << "restored " << options.restore << " @ t=" << format_fixed(cp.time, 3) << "s ("
      << cp.pins.size() << " pins verified)\n"
      << "makespan: " << format_fixed(makespan, 1) << " s\n";
  write_run_outputs(*run.sim, makespan, options, out);
}

/// The RunSpec a replay mode (--branch / --whatif) operates on: the
/// checkpoint's embedded spec when --restore names one, else the flags.
RunSpec replay_run_spec(const CliOptions& options) {
  RunSpec spec = options.restore.empty() ? static_cast<const RunSpec&>(options)
                                         : load_checkpoint_file(options.restore).run;
  spec.validate();
  return spec;
}

void run_branch_cli(const CliOptions& options, std::ostream& out) {
  BranchSpec branch = parse_branch_spec(options.branch);
  RunSpec spec = replay_run_spec(options);
  BranchReport report = run_branch(spec, branch, nullptr, options.analyze_k);
  if (!options.branch_out.empty()) {
    write_file(options.branch_out, [&](std::ostream& f) { write_branch_report_json(report, f); });
  }
  out << "branch '" << branch.label << "' vs " << report.base.scheduler << " base:\n"
      << "  p95 JCT " << format_fixed(report.base.jct.p95, 3) << "s -> "
      << format_fixed(report.branch.jct.p95, 3) << "s (saving "
      << format_fixed(report.p95_jct_saving(), 3) << "s)\n"
      << "  makespan " << format_fixed(report.base.makespan, 3) << "s -> "
      << format_fixed(report.branch.makespan, 3) << "s\n";
  print_comparison(report.comparison, out);
}

void run_whatif_cli(const CliOptions& options, std::ostream& out) {
  std::vector<DiagnosedStraggler> stragglers =
      parse_diagnosis_stragglers(read_file(options.whatif));
  RunSpec spec = replay_run_spec(options);
  WhatIfConfig wcfg;
  wcfg.analyze_k = options.analyze_k;
  wcfg.threads = options.sweep_threads;
  WhatIfReport report = advise_whatif(spec, stragglers, wcfg);
  if (!options.whatif_out.empty()) {
    write_file(options.whatif_out, [&](std::ostream& f) { write_whatif_json(report, f); });
  } else {
    write_whatif_json(report, out);
  }
  out << "what-if: base " << report.base.scheduler << " p95 JCT "
      << format_fixed(report.base.jct.p95, 3) << "s, " << stragglers.size()
      << " diagnosed stragglers, " << report.findings.size() << " counterfactuals:\n";
  for (const WhatIfFinding& finding : report.findings) {
    out << "  " << finding.branch.label << ": p95 saving "
        << format_fixed(finding.p95_jct_saving, 3) << " s (" << finding.motivation << ")\n";
  }
}

/// One or more seeded repetitions of a single-application run.
void run_single(const CliOptions& options, std::ostream& out) {
  const WorkloadPreset& preset = workload_preset(options.workload);
  RunningStats makespans;
  LocalityCounts locality{};
  std::size_t failures = 0, oom = 0, losses = 0, relocations = 0;
  std::size_t faults_injected = 0, blacklists = 0, recomputed = 0, spot_revocations = 0;
  double cpu = 0.0, mem = 0.0;

  RunSpec spec = options;  // each repetition reseeds a copy of the run
  for (int rep = 0; rep < options.repetitions; ++rep) {
    spec.seed = options.seed + static_cast<std::uint64_t>(rep);
    Simulation sim(observed_config(spec, options));
    Application app = make_run_application(spec, sim);
    SimTime makespan = sim.run(app);
    makespans.add(makespan);
    LocalityCounts counts = count_locality(sim.scheduler().completed());
    for (int l = 0; l < kNumLocalityLevels; ++l) locality[l] += counts[l];
    failures += sim.scheduler().failures().size();
    oom += sim.total_oom_kills();
    losses += sim.total_executor_losses();
    relocations += sim.scheduler().relocations();
    if (sim.injector() != nullptr) {
      faults_injected += sim.injector()->injected();
      spot_revocations += sim.injector()->spot_revocations();
    }
    blacklists += sim.scheduler().blacklist_events();
    recomputed += sim.recomputed_partitions();
    if (const UtilizationSampler* s = sim.sampler()) {
      cpu += s->avg_cpu_util();
      mem += s->avg_memory_used();
    }
    // Output files come from the last repetition.
    if (rep == options.repetitions - 1) write_run_outputs(sim, makespan, options, out);
  }

  out << preset.long_name << " under " << to_string(options.scheduler) << " ("
      << options.repetitions << " run" << (options.repetitions > 1 ? "s" : "") << ")\n";
  out << "makespan: " << format_fixed(makespans.mean(), 1) << " s";
  if (options.repetitions > 1) {
    out << " +- " << format_fixed(confidence_interval_95(makespans.stddev(), makespans.count()), 1)
        << " (95% CI)";
  }
  out << "\nlocality: PROCESS=" << locality[0] << " NODE=" << locality[1]
      << " RACK=" << locality[2] << " ANY=" << locality[3] << "\n"
      << "failures=" << failures << " oom_kills=" << oom << " executor_losses=" << losses
      << " relocations=" << relocations << "\n";
  if (!options.faults.empty() || !options.spot_plan.empty() || options.chaos_seed != 0) {
    out << "faults_injected=" << faults_injected << " blacklists=" << blacklists
        << " recomputed_partitions=" << recomputed;
    if (!options.spot_plan.empty()) out << " spot_revocations=" << spot_revocations;
    out << "\n";
  }
  if (options.sample_utilization) {
    double n = static_cast<double>(options.repetitions);
    out << "avg cpu=" << format_fixed(cpu / n * 100.0, 1)
        << "% avg mem=" << format_fixed(mem / n / kGiB, 1) << " GB\n";
  }
}

int run_mode(const CliOptions& options, std::ostream& out, std::ostream& err) {
  if (options.help) {
    out << cli_usage();
  } else if (options.list_workloads) {
    for (const auto& p : table3_workloads()) {
      out << p.name << "\t" << p.long_name << "\t" << p.input_gb << " GB\t"
          << p.iterations << " iterations\n";
    }
  } else if (!options.compare_base.empty()) {
    return run_compare_cli(options, out);
  } else if (!options.sweep.empty()) {
    return run_sweep_cli(options, out, err);
  } else if (!options.whatif.empty()) {
    run_whatif_cli(options, out);
  } else if (!options.branch.empty()) {
    run_branch_cli(options, out);
  } else if (!options.restore.empty()) {
    run_restore_cli(options, out);
  } else if (options.checkpoint_at >= 0.0) {
    run_checkpoint_cli(options, out);
  } else if (options.arrivals > 0.0) {
    run_multi_tenant(options, out);
  } else {
    run_single(options, out);
  }
  return 0;
}

}  // namespace

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  // Every failure below the mode dispatch — a bad spec, fleet or fault
  // plan, an unopenable path, a diverged restore — is one line on `err`
  // and exit code 2.
  try {
    return run_mode(options, out, err);
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 2;
  }
}

}  // namespace rupam
