// The paper's evaluation in one binary, `paper [--reps N] [name ...]`: each
// figure, table, ablation and control experiment is one row of kExperiments
// whose run function prints its tables and checks the shapes EXPERIMENTS.md
// marks ✅. No names runs every row in order. Writes BENCH_paper.json; exits
// 1 if a check fails, 2 on a bad argument.
#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "app/simulation.hpp"
#include "bench_common.hpp"
#include "cluster/presets.hpp"
#include "common/stats.hpp"
#include "metrics/breakdown.hpp"

namespace rupam::bench {
namespace {

/// Spark + RUPAM experiment pair on the same configuration.
struct Comparison {
  ExperimentResult spark;
  ExperimentResult rupam;
  double speedup() const { return spark.mean_makespan() / rupam.mean_makespan(); }
};

/// Every non-alphanumeric character becomes '_' (JSON key segments).
std::string slug(std::string s) {
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

/// What a run function works with: the repetition count, the one JSON
/// report (keys prefixed with the experiment's name) and the shape checks.
class Paper {
 public:
  std::string name;  // the running experiment
  int reps = 1;

  /// `reps` seeded runs of `preset` under `kind`; their kernel counters go
  /// into the report footer.
  ExperimentResult experiment(const WorkloadPreset& preset, SchedulerKind kind,
                              ExperimentConfig cfg = {}) {
    cfg.scheduler = kind;
    cfg.repetitions = reps;
    ExperimentResult r = run_experiment(preset, cfg);
    json_.record_kernel(r.kernel_total());
    return r;
  }
  Comparison compare(const WorkloadPreset& preset, const ExperimentConfig& cfg = {}) {
    return {experiment(preset, SchedulerKind::kSpark, cfg),
            experiment(preset, SchedulerKind::kRupam, cfg)};
  }

  template <typename T>
  void add(const std::string& key, const T& value) {
    json_.add(name + "_" + key, value);
  }
  /// <prefix>_spark_s, <prefix>_rupam_s and <prefix>_speedup.
  void add_comparison(const std::string& prefix, const Comparison& c) {
    add(prefix + "_spark_s", c.spark.mean_makespan());
    add(prefix + "_rupam_s", c.rupam.mean_makespan());
    add(prefix + "_speedup", c.speedup());
  }

  /// A hard shape check, recorded as <name>_check_<label>.
  void check(const std::string& label, bool passed) {
    std::cout << (passed ? "[check] pass: " : "[check] FAIL: ") << label << "\n";
    json_.add_bool(name + "_check_" + slug(label), passed);
    ++checks_;
    if (!passed) failures_.push_back(name + ": " + label);
  }

  /// Writes the report and the verdict; returns the exit code.
  int finish() const {
    bool written = json_.write();
    std::cout << "[check] " << checks_ - failures_.size() << "/" << checks_
              << " shape checks passed\n";
    for (const std::string& f : failures_) std::cerr << "FAIL: " << f << "\n";
    return written && failures_.empty() ? 0 : 1;
  }

 private:
  JsonReport json_{"paper"};
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Fig 7's categories, in its row order.
constexpr std::pair<const char*, SimTime Breakdown::*> kCategories[] = {
    {"GC", &Breakdown::gc},
    {"Compute", &Breakdown::compute},
    {"Scheduler delay", &Breakdown::scheduler},
    {"Shuffle-disk", &Breakdown::shuffle_disk},
    {"Shuffle-net", &Breakdown::shuffle_net}};

Breakdown summed_breakdown(const ExperimentResult& r) {
  Breakdown sum;
  for (const auto& run : r.runs) {
    for (auto [label, field] : kCategories) sum.*field += run.breakdown.*field;
  }
  return sum;
}

template <typename T>
T summed(const ExperimentResult& r, T RunRecord::*field) {
  T sum{};
  for (const auto& run : r.runs) sum += run.*field;
  return sum;
}

LocalityCounts summed_locality(const ExperimentResult& r) {
  LocalityCounts sum{};
  for (const auto& run : r.runs) {
    for (int l = 0; l < kNumLocalityLevels; ++l) sum[l] += run.locality[l];
  }
  return sum;
}

// Fig 2: system resource utilization while multiplying two 4K x 4K
// matrices (the §II-B motivational study). Prints the CPU / memory /
// network / disk time series sampled once per simulated second.
void fig2_matmul_utilization(Paper& p) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.nodes = {};  // Hydra; the paper used its 2-node testbed, same shape
  cfg.sample_utilization = true;
  cfg.sample_period = 1.0;
  Simulation sim(cfg);

  WorkloadParams params;
  params.input_gb = 0.125;  // 4Kx4K doubles = 128 MiB per matrix
  params.seed = 1;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = make_matmul(sim.cluster().node_ids(), params);
  SimTime makespan = sim.run(app);
  const UtilizationSampler* sampler = sim.sampler();

  std::cout << "makespan: " << format_fixed(makespan, 1) << " s\n\n";
  std::cout << "t(s)  cpu(%)  mem(GB)  net(MB/s)  disk(MB/s)\n";
  auto n = sim.cluster().size();
  auto cpu = sampler->cpu_series(makespan), net = sampler->net_series(makespan),
       disk = sampler->disk_series(makespan);
  std::vector<std::vector<double>> mem;
  for (NodeId id : sim.cluster().node_ids()) {
    mem.push_back(sampler->memory_used(id).resample(1.0, makespan));
  }
  std::size_t buckets = cpu[0].size();
  std::size_t cpu_peak_t = 0, net_peak_t = 0;
  double cpu_peak = 0.0, net_peak = 0.0, net_first = 0.0, net_mid = 0.0, net_last = 0.0;
  for (std::size_t t = 0; t < buckets; ++t) {
    double c = 0.0, m = 0.0, nn = 0.0, d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c += cpu[i][t];
      m += mem[i][t];
      nn += net[i][t];
      d += disk[i][t];
    }
    c = c / static_cast<double>(n) * 100.0;
    std::cout << t << "  " << format_fixed(c, 1) << "  " << format_fixed(m / kGiB, 1) << "  "
              << format_fixed(nn / kMiB, 1) << "  " << format_fixed(d / kMiB, 1) << "\n";
    if (c > cpu_peak) cpu_peak = c, cpu_peak_t = t;
    if (nn > net_peak) net_peak = nn, net_peak_t = t;
    if (t < buckets / 4) net_first += nn;
    if (t >= buckets / 4 && t < 3 * buckets / 4) net_mid += nn;
    if (t >= 3 * buckets / 4) net_last += nn;
  }

  std::cout << "\nPaper shape: CPU spikes at the start (partitioning) and is highest in the\n"
               "final multiply stages; memory stays high with an initial slope; the network\n"
               "shows spikes at the beginning and end (shuffle/reduce); disk writes visible\n"
               "at shuffles, reads low.\n";
  double edge_ratio = (net_first + net_last) / std::max(1.0, 2.0 * net_mid);
  std::cout << "[shape] CPU peaks in the multiply phase at t=" << cpu_peak_t << "/" << buckets
            << " ("  << format_fixed(cpu_peak, 0) << "%); network peak at t=" << net_peak_t
            << "; edge-vs-middle network ratio: " << format_fixed(edge_ratio, 2) << "\n";
  double disk_read = 0.0, disk_written = 0.0;
  for (NodeId id : sim.cluster().node_ids()) {
    disk_read += sim.cluster().node(id).disk_read().total_drained();
    disk_written += sim.cluster().node(id).disk_write().total_drained();
  }
  p.check("network at the edges over twice the middle", edge_ratio > 2.0);
  p.check("disk writes exceed reads", disk_written > disk_read);
}

// Fig 3: task distribution and execution breakdown of PageRank on the
// two-node motivational cluster (node-1: 1.6 GHz CPU + 1 GbE; node-2:
// 2.4 GHz + 10 GbE) under the default Spark scheduler. Shows per-task
// compute/shuffle/serialization/scheduler-delay and the skewed, capability
// -blind task assignment the paper motivates RUPAM with.
void fig3_pagerank_breakdown(Paper& p) {
  SimulationConfig cfg;
  cfg.scheduler = SchedulerKind::kSpark;
  cfg.switch_bandwidth = gbit_per_s(10.0);  // so the NIC asymmetry matters
  {
    Simulator probe_sim;
    Cluster probe(probe_sim, gbit_per_s(10.0));
    build_motivation_pair(probe);
    for (NodeId id : probe.node_ids()) cfg.nodes.push_back(probe.node(id).spec());
  }
  Simulation sim(cfg);

  WorkloadParams params;
  params.input_gb = 2.0;  // the paper's 2 GB PageRank input
  params.iterations = 1;
  params.seed = 1;
  params.placement_weights = hdfs_placement_weights(sim.cluster());
  Application app = make_pagerank(sim.cluster().node_ids(), params);
  sim.run(app);

  // One representative stage: the first pr-contrib stage.
  std::array<int, 2> task_count{0, 0};
  std::array<double, 2> compute{0.0, 0.0}, shuffle{0.0, 0.0};
  double shortest = Simulator::kForever, longest = 0.0;
  std::cout << "task  node    compute  shuffle  serialization  sched-delay  (seconds)\n";
  for (const auto& m : sim.scheduler().completed()) {
    if (m.stage_name != "pr-contrib" || m.stage > 2) continue;
    TaskBreakdown b = task_breakdown(m);
    task_count[static_cast<std::size_t>(m.node)]++;
    compute[static_cast<std::size_t>(m.node)] += b.compute;
    shuffle[static_cast<std::size_t>(m.node)] += b.shuffle;
    shortest = std::min(shortest, m.run_time());
    longest = std::max(longest, m.run_time());
    std::cout << m.task << "  node-" << (m.node + 1) << "  " << format_fixed(b.compute, 2)
              << "  " << format_fixed(b.shuffle, 2) << "  "
              << format_fixed(b.serialization, 2) << "  "
              << format_fixed(b.scheduler_delay, 2) << "\n";
  }

  std::cout << "\nTask distribution: node-1 = " << task_count[0]
            << " tasks, node-2 = " << task_count[1] << " tasks (paper: uneven)\n";
  auto avg = [](double sum, int n) { return n > 0 ? sum / n : 0.0; };
  std::cout << "avg compute: node-1 " << format_fixed(avg(compute[0], task_count[0]), 2)
            << "s vs node-2 " << format_fixed(avg(compute[1], task_count[1]), 2)
            << "s  (node-1's cores are 1.6 GHz vs 2.4 GHz: locality-blind placement\n"
               "   makes compute seconds pile up on the slow node)\n";
  std::cout << "avg shuffle: node-1 " << format_fixed(avg(shuffle[0], task_count[0]), 2)
            << "s vs node-2 " << format_fixed(avg(shuffle[1], task_count[1]), 2)
            << "s  (the shuffle-heavy tasks land by locality, not NIC speed)\n";
  std::cout << "\nPaper shape: tasks in one stage differ widely (up to ~31x); Spark assigns\n"
               "tasks by locality only, so compute-heavy tasks crowd the slow-CPU node and\n"
               "shuffle-heavy tasks the slow-network node, with uneven counts.\n";
  p.check("task run times in one stage span over 20x", longest > 20.0 * shortest);
  p.check("uneven task counts", task_count[0] != task_count[1]);
  p.check("higher average compute on the 1.6 GHz node",
          avg(compute[0], task_count[0]) > avg(compute[1], task_count[1]));
}

// Table II: specifications of Hydra cluster nodes.
void table2_cluster_specs(Paper& p) {
  Simulator sim;
  Cluster cluster(sim);
  build_hydra(cluster);

  // The paper's count, cores, memory (GB), SSD and GPU per class.
  const std::tuple<const char*, std::size_t, int, double, bool, bool> paper_specs[] = {
      {"thor", 6, 8, 16, true, false},
      {"hulk", 4, 32, 64, false, false},
      {"stack", 2, 16, 48, false, true}};
  TextTable table({"Name", "CPU (GHz)", "Cores", "Memory (GB)", "Network (GbE)", "SSD", "GPU",
                   "#"});
  for (const auto& [cls, count, cores, memory_gb, ssd, gpu] : paper_specs) {
    auto ids = cluster.nodes_of_class(cls);
    const NodeSpec& s = cluster.node(ids.front()).spec();
    table.add_row({cls, format_number(s.cpu_ghz), std::to_string(s.cores),
                   format_number(to_gib(s.memory)), format_number(s.net_bandwidth * 8.0 / 1e9),
                   s.has_ssd ? "Y" : "N", s.gpus > 0 ? "Y" : "N",
                   std::to_string(ids.size())});
    p.check(std::string(cls) + " count, cores, memory, SSD and GPU match the paper",
            std::tuple(ids.size(), s.cores, to_gib(s.memory), s.has_ssd, s.gpus > 0) ==
                std::tuple(count, cores, memory_gb, ssd, gpu));
  }
  table.print(std::cout);
  std::cout << "\nPaper: 6x thor (8-core, 16 GB, SSD), 4x hulk (32-core, 64 GB, 10 GbE),\n"
               "2x stack (16-core, 48 GB, NVIDIA Tesla GPU); 12 workers + master.\n";
}

// Table III: studied workloads and input sizes.
void table3_workloads(Paper& p) {
  std::vector<NodeId> nodes(12);
  for (int i = 0; i < 12; ++i) nodes[static_cast<std::size_t>(i)] = i;

  TextTable table({"Workload", "Input size (GB)", "Iterations/queries", "Jobs", "Tasks"});
  std::vector<double> inputs_gb;
  for (const auto& preset : rupam::table3_workloads()) {
    Application app = build_workload(preset, nodes, 1);
    table.add_row({preset.long_name + " (" + preset.name + ")", format_number(preset.input_gb),
                   std::to_string(preset.iterations), std::to_string(app.jobs.size()),
                   std::to_string(app.total_tasks())});
    inputs_gb.push_back(preset.input_gb);
  }
  table.print(std::cout);
  std::cout << "\nPaper inputs: LR 6, TeraSort 40, SQL 35, PR 0.95 (500K vertices),\n"
               "TC 0.95 (500K vertices), GM 0.96 (8K x 8K matrix), KMeans 3.7 GB.\n";
  p.check("the seven workloads at the paper's input sizes",
          inputs_gb == std::vector<double>{6, 40, 35, 0.95, 0.95, 0.96, 3.7});
}

// Table IV: hardware characteristics benchmarks (SysBench CPU + direct
// I/O, Iperf network) — run against the *simulated* nodes: the probes
// drive the same fair-share resource models the schedulers see.

// SysBench-like CPU test: a fixed amount of compute work split across all
// cores; report wall seconds and per-event latency.
std::pair<double, double> cpu_probe(Simulator& sim, Node& node) {
  constexpr double kWorkPerCore = 8.0;  // ref-core-seconds per core
  SimTime start = sim.now();
  int remaining = node.spec().cores;
  for (int c = 0; c < node.spec().cores; ++c) {
    node.cpu().start(kWorkPerCore, node.spec().core_speed(), [&remaining] { --remaining; });
  }
  sim.run(Simulator::kForever);
  double wall = sim.now() - start;
  double latency_ms = wall / kWorkPerCore * 10.0;  // per-event latency proxy
  return {wall, latency_ms};
}

// Direct-I/O probe: 1 GB sequential through one disk direction, in MB/s.
double io_probe(Simulator& sim, FairShareResource& disk) {
  SimTime start = sim.now();
  bool done = false;
  disk.start(1.0 * kGiB, 1.0, [&] { done = true; });
  sim.run(Simulator::kForever);
  return done ? (1024.0 / (sim.now() - start)) : 0.0;
}

// Iperf-like probe: saturate the NIC for one second of payload.
double net_probe(Simulator& sim, Node& node) {
  Bytes payload = node.net().capacity();  // 1 second at line rate
  SimTime start = sim.now();
  node.net().start(payload, 1.0, nullptr);
  sim.run(Simulator::kForever);
  return payload * 8.0 / 1e6 / (sim.now() - start);  // Mbit/s
}

void table4_hardware(Paper& p) {
  struct Probe {
    double cpu_s, latency_ms, read, write, mbit;
  };
  std::vector<Probe> probes;  // stack, hulk, thor
  for (const std::string cls : {"stack", "hulk", "thor"}) {
    Simulator sim;
    Cluster cluster(sim);
    build_hydra(cluster);
    Node& node = cluster.node(cluster.nodes_of_class(cls).front());
    auto [cpu_s, lat_ms] = cpu_probe(sim, node);
    double rd = io_probe(sim, node.disk_read());
    double wr = io_probe(sim, node.disk_write());
    probes.push_back({cpu_s, lat_ms, rd, wr, net_probe(sim, node)});
  }
  const Probe &stack = probes[0], &hulk = probes[1], &thor = probes[2];
  TextTable table({"SysBench", "stack", "hulk", "thor"});
  auto row = [&](const char* label, auto cell) {
    table.add_row({label, cell(stack), cell(hulk), cell(thor)});
  };
  row("CPU (sec)/latency (ms)", [](const Probe& x) {
    return format_fixed(x.cpu_s, 2) + "/" + format_fixed(x.latency_ms, 2);
  });
  row("I/O read (MB/s)", [](const Probe& x) { return format_fixed(x.read, 0); });
  row("I/O write (MB/s)", [](const Probe& x) { return format_fixed(x.write, 0); });
  row("Network (Mbit/s)", [](const Probe& x) { return format_fixed(x.mbit, 0); });
  table.print(std::cout);

  std::cout << "\nPaper shape: thor ~5x faster on the CPU test with the lowest latency;\n"
               "hulk slightly better than stack; thor's SSD dominates read/write;\n"
               "network uniform (~940 Mbit/s) because the fabric is 1 GbE.\n";
  p.check("thor fastest on the CPU test", thor.cpu_s < hulk.cpu_s && thor.cpu_s < stack.cpu_s);
  p.check("thor highest on I/O read and write",
          thor.read > std::max(hulk.read, stack.read) &&
              thor.write > std::max(hulk.write, stack.write));
  p.check("hulk under stack on CPU seconds", hulk.cpu_s < stack.cpu_s);
  auto [slowest, fastest] = std::minmax({stack.mbit, hulk.mbit, thor.mbit});
  p.check("network uniform within 1%", fastest <= slowest * 1.01);
}

// Fig 5: overall performance of the studied workloads under default Spark
// and RUPAM — average of 5 runs with 95% confidence intervals, fresh
// DB_task_char per run (the paper's protocol).
void fig5_overall(Paper& p) {
  TextTable table({"Workload", "Spark (s)", "±95% CI", "RUPAM (s)", "±95% CI", "Speedup",
                   "Spark failures", "Spark exec losses"});
  double speedup_sum = 0.0, improvement_sum = 0.0;
  double multi_iter_sum = 0.0;
  int multi_iter_count = 0;
  std::map<std::string, Comparison> by_name;

  for (const auto& preset : rupam::table3_workloads()) {
    const Comparison& c = by_name[preset.name] = p.compare(preset);
    p.add_comparison(preset.name, c);
    table.add_row({preset.name, format_fixed(c.spark.mean_makespan(), 1),
                   format_fixed(c.spark.ci95_makespan(), 1),
                   format_fixed(c.rupam.mean_makespan(), 1),
                   format_fixed(c.rupam.ci95_makespan(), 1),
                   format_fixed(c.speedup(), 2) + "x",
                   std::to_string(summed(c.spark, &RunRecord::failed_attempts)),
                   std::to_string(summed(c.spark, &RunRecord::executor_losses))});
    speedup_sum += c.speedup();
    improvement_sum += 1.0 - 1.0 / c.speedup();
    if (preset.iterations > 1 && preset.name != "SQL") {
      multi_iter_sum += c.speedup();
      ++multi_iter_count;
    }
  }
  table.print(std::cout);

  auto n = static_cast<double>(rupam::table3_workloads().size());
  double avg_improvement_pct = improvement_sum / n * 100.0;
  double multi_iter_avg = multi_iter_sum / multi_iter_count;
  p.add("avg_improvement_pct", avg_improvement_pct);
  p.add("avg_speedup", speedup_sum / n);
  std::cout << "\nAverage improvement over Spark: "
            << format_fixed(avg_improvement_pct, 1) << "% (paper: 37.7%)\n"
            << "Average speedup of multi-iteration workloads (LR, PR, TC, KMeans): "
            << format_fixed(multi_iter_avg, 2) << "x (paper: ~2.1x)\n"
            << "Paper shape: every workload improves; PR worst-case ~2.5x (memory errors\n"
            << "under Spark), KMeans 2.49x, GM only +1.4% (single iteration), SQL 1.19x,\n"
            << "TeraSort 1.32x.\n";

  for (const char* name : {"TeraSort", "PR", "TC", "KMeans"}) {
    const Comparison& c = by_name.at(name);
    p.check(std::string(name) + " RUPAM faster with disjoint 95% CIs",
            c.spark.mean_makespan() - c.spark.ci95_makespan() >
                c.rupam.mean_makespan() + c.rupam.ci95_makespan());
  }
  p.check("LR RUPAM faster (directional)", by_name.at("LR").speedup() > 1.0);
  p.check("SQL not worse", by_name.at("SQL").speedup() >= 1.0);
  double gm = by_name.at("GM").speedup();
  p.check("GM not worse, gain marginal (1.0x to 1.2x)", gm >= 1.0 && gm < 1.2);
  p.check("average improvement within 10 points of the paper's 37.7%",
          std::abs(avg_improvement_pct - 37.7) <= 10.0);
  p.check("multi-iteration average within 0.5x of the paper's 2.1x",
          std::abs(multi_iter_avg - 2.1) <= 0.5);
  const Comparison& pr = by_name.at("PR");
  p.check("PR executor losses under Spark only, more failed attempts, wider CI",
          summed(pr.spark, &RunRecord::executor_losses) > 0 &&
              summed(pr.rupam, &RunRecord::executor_losses) == 0 &&
              summed(pr.spark, &RunRecord::failed_attempts) >
                  summed(pr.rupam, &RunRecord::failed_attempts) &&
              pr.spark.ci95_makespan() > pr.rupam.ci95_makespan());
}

// Fig 6: speedup of LR under RUPAM vs default Spark as the number of
// iterations grows — DB_task_char warms up across iterations, so the
// speedup rises (paper: up to ~3.4x, never below 1x).
void fig6_iterations(Paper& p) {
  const WorkloadPreset& lr = workload_preset("LR");
  TextTable table({"Iterations", "Spark (s)", "RUPAM (s)", "Speedup"});
  std::vector<double> speedups;
  for (int iters : {1, 2, 4, 6, 8, 10, 12}) {
    ExperimentConfig cfg;
    cfg.iterations_override = iters;
    Comparison c = p.compare(lr, cfg);
    speedups.push_back(c.speedup());
    p.add_comparison("iters_" + std::to_string(iters), c);
    table.add_row({std::to_string(iters), format_fixed(c.spark.mean_makespan(), 1),
                   format_fixed(c.rupam.mean_makespan(), 1),
                   format_fixed(c.speedup(), 2) + "x"});
  }
  table.print(std::cout);

  std::cout << "\nPaper shape: speedup grows with iteration count (up to ~3.4x) and RUPAM\n"
               "matches or outperforms Spark at every point.\n";
  bool monotone_ish = speedups.back() > speedups.front();
  std::cout << (monotone_ish ? "[shape OK] " : "[shape MISMATCH] ")
            << "speedup at 12 iterations (" << format_fixed(speedups.back(), 2)
            << "x) vs 1 iteration (" << format_fixed(speedups.front(), 2) << "x)\n";
  p.check("speedup never falls as iterations grow",
          std::is_sorted(speedups.begin(), speedups.end()));
  p.check("RUPAM matches or beats Spark at every point",
          *std::min_element(speedups.begin(), speedups.end()) >= 1.0);
}

// Table V: number of tasks at each locality level under default Spark and
// RUPAM. Expected shape: Spark keeps more PROCESS_LOCAL tasks; RUPAM
// trades locality for resource matching (more ANY); RACK_LOCAL is always
// zero on the single-rack cluster.
void table5_locality(Paper& p) {
  TextTable table({"Workload", "PROCESS Spark", "PROCESS RUPAM", "NODE Spark", "NODE RUPAM",
                   "ANY Spark", "ANY RUPAM"});
  bool rack_zero = true;
  int process_shape = 0, any_shape = 0, any_more = 0;
  for (const auto& preset : rupam::table3_workloads()) {
    Comparison c = p.compare(preset);
    LocalityCounts spark = summed_locality(c.spark), rupam = summed_locality(c.rupam);
    auto avg = [reps = p.reps](std::size_t total) {
      return std::to_string(total / static_cast<std::size_t>(reps));
    };
    table.add_row({preset.name, avg(spark[0]), avg(rupam[0]), avg(spark[1]), avg(rupam[1]),
                   avg(spark[3]), avg(rupam[3])});
    rack_zero = rack_zero && spark[2] == 0 && rupam[2] == 0;
    process_shape += spark[0] >= rupam[0];
    any_shape += rupam[3] >= spark[3];
    any_more += rupam[3] > spark[3];
  }
  table.print(std::cout);
  std::cout << "\nRACK_LOCAL: " << (rack_zero ? "zero for all workloads (matches paper)" : "NONZERO (mismatch)")
            << "\nSpark >= RUPAM on PROCESS_LOCAL for " << process_shape
            << "/7 workloads; RUPAM >= Spark on ANY for " << any_shape << "/7.\n"
            << "Paper: Spark always has more PROCESS_LOCAL; RUPAM trades locality for\n"
               "better-matching resources, which is justified by end-to-end time.\n";
  p.check("Spark >= RUPAM on PROCESS_LOCAL, 7/7", process_shape == 7);
  p.check("RUPAM > Spark on ANY, 7/7", any_more == 7);
  p.check("RACK_LOCAL zero everywhere", rack_zero);
}

// Fig 7: execution-time breakdown (GC, compute, scheduler delay,
// shuffle-disk, shuffle-net) for LR, SQL and PageRank under both
// schedulers. The paper plots summed task time per category (log scale).
void fig7_breakdown(Paper& p) {
  struct Sums {
    Breakdown spark, rupam;
  };
  std::map<std::string, Sums> by_name;
  for (const char* name : {"LR", "SQL", "PR"}) {
    Comparison c = p.compare(workload_preset(name));
    auto& [spark, rupam] = by_name[name];
    spark = summed_breakdown(c.spark);
    rupam = summed_breakdown(c.rupam);
    double n = static_cast<double>(p.reps);
    std::cout << "\n(" << name << ")\n";
    TextTable table({"Category", "Spark (s)", "RUPAM (s)"});
    for (auto [label, field] : kCategories) {
      table.add_row({label, format_fixed(spark.*field / n, 1), format_fixed(rupam.*field / n, 1)});
    }
    table.print(std::cout);
  }
  const auto& [lr_spark, lr_rupam] = by_name.at("LR");
  const auto& [sql_spark, sql_rupam] = by_name.at("SQL");
  const auto& [pr_spark, pr_rupam] = by_name.at("PR");
  bool sql_gc_worse = sql_rupam.gc > sql_spark.gc * 0.9;
  bool compute_better = std::all_of(by_name.begin(), by_name.end(), [](const auto& entry) {
    return entry.second.rupam.compute < entry.second.spark.compute * 1.25;
  });

  std::cout << "\nPaper shape checks:\n"
            << "  LR GC lower under RUPAM (bigger cache, fewer LRU evictions): "
            << (lr_rupam.gc < lr_spark.gc ? "yes" : "NO") << "\n"
            << "  SQL GC comparable-or-higher under RUPAM (full-heap scans): "
            << (sql_gc_worse ? "yes" : "NO") << "\n"
            << "  Compute time improved or comparable under RUPAM: "
            << (compute_better ? "yes" : "NO") << "\n"
            << "  Scheduler delay moderate despite the extra bookkeeping (see table).\n";
  p.check("LR shuffle-disk Spark > RUPAM", lr_spark.shuffle_disk > lr_rupam.shuffle_disk);
  p.check("LR shuffle-net RUPAM > Spark", lr_rupam.shuffle_net > lr_spark.shuffle_net);
  p.check("PR shuffle-net RUPAM > Spark", pr_rupam.shuffle_net > pr_spark.shuffle_net);
  p.check("SQL shuffle-net RUPAM > Spark", sql_rupam.shuffle_net > sql_spark.shuffle_net);
  p.check("SQL GC comparable or higher under RUPAM", sql_gc_worse);
}

// Fig 8: average system utilization of the cluster nodes while running
// LR, SQL and PageRank under both schedulers: CPU user %, memory used GB,
// network MB/s, disk KB/s.
void fig8_utilization(Paper& p) {
  TextTable table({"Workload", "Sched", "CPU user (%)", "Memory (GB)", "Network (MB/s)",
                   "Disk (KB/s)"});
  int cpu_shape = 0, mem_shape = 0, disk_shape = 0;
  ExperimentConfig sampled;
  sampled.sample_utilization = true;
  for (const char* name : {"LR", "SQL", "PR"}) {
    Comparison c = p.compare(workload_preset(name), sampled);
    auto add = [&](const ExperimentResult& r, const char* sched) {
      double n = static_cast<double>(r.runs.size());
      double cpu = summed(r, &RunRecord::avg_cpu_util) / n;
      double mem = summed(r, &RunRecord::avg_memory_used) / n;
      double disk = summed(r, &RunRecord::avg_disk_rate) / n;
      table.add_row({name, sched, pct(cpu), format_fixed(mem / kGiB, 1),
                     format_fixed(summed(r, &RunRecord::avg_net_rate) / n / kMiB, 1),
                     format_fixed(disk / kKiB, 0)});
      return std::tuple{cpu, mem, disk};
    };
    auto [spark_cpu, spark_mem, spark_disk] = add(c.spark, "Spark");
    auto [rupam_cpu, rupam_mem, rupam_disk] = add(c.rupam, "RUPAM");
    cpu_shape += rupam_cpu <= spark_cpu * 1.05;
    mem_shape += rupam_mem > spark_mem;
    disk_shape += rupam_disk < spark_disk;
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: RUPAM shows lower average CPU (and network/disk) utilization\n"
               "— balanced load, less contention — but HIGHER memory usage (executors\n"
               "sized to each node's capacity instead of the weakest node's).\n"
            << "[shape] CPU lower-or-equal under RUPAM: " << cpu_shape
            << "/3; memory higher under RUPAM: " << mem_shape << "/3\n";
  p.check("memory higher under RUPAM, 3/3", mem_shape == 3);
  p.check("disk lower under RUPAM, 3/3", disk_shape == 3);
}

// Fig 9: standard deviation of per-node utilization over time while
// running PageRank — low and stable stddev means the scheduler balances
// load across the heterogeneous nodes.
void fig9_balance(Paper& p) {
  // Cross-node CPU, network and disk stddev per sample.
  auto stddevs = [](SchedulerKind kind) {
    SimulationConfig cfg;
    cfg.scheduler = kind;
    cfg.sample_utilization = true;
    Simulation sim(cfg);
    Application app = build_workload(workload_preset("PR"), sim.cluster().node_ids(), 1, 0,
                                     hdfs_placement_weights(sim.cluster()));
    SimTime makespan = sim.run(app);
    const UtilizationSampler* sampler = sim.sampler();
    return std::array{cross_series_stddev(sampler->cpu_series(makespan)),
                      cross_series_stddev(sampler->net_series(makespan)),
                      cross_series_stddev(sampler->disk_series(makespan))};
  };
  auto [spark_cpu, spark_net, spark_disk] = stddevs(SchedulerKind::kSpark);
  auto [rupam_cpu, rupam_net, rupam_disk] = stddevs(SchedulerKind::kRupam);

  auto summarize = [](const std::vector<double>& sd) {
    RunningStats s;
    for (double v : sd) s.add(v);
    return s;
  };
  RunningStats sc = summarize(spark_cpu), rc = summarize(rupam_cpu);
  RunningStats sn = summarize(spark_net), rn = summarize(rupam_net);
  RunningStats sd = summarize(spark_disk), rd = summarize(rupam_disk);

  std::cout << "t(s)  spark_cpu_sd  rupam_cpu_sd  spark_net_sd(MB/s)  rupam_net_sd(MB/s)\n";
  std::size_t len = std::min(spark_cpu.size(), rupam_cpu.size());
  for (std::size_t t = 0; t < len; t += std::max<std::size_t>(1, len / 40)) {
    std::cout << t << "  " << format_fixed(spark_cpu[t], 3) << "  "
              << format_fixed(rupam_cpu[t], 3) << "  " << format_fixed(spark_net[t] / kMiB, 1)
              << "  " << format_fixed(rupam_net[t] / kMiB, 1) << "\n";
  }

  TextTable table({"Metric", "Spark mean sd", "Spark peak sd", "RUPAM mean sd",
                   "RUPAM peak sd"});
  auto row = [&](const char* label, const RunningStats& s, const RunningStats& r, double unit,
                 int decimals) {
    table.add_row({label, format_fixed(s.mean() / unit, decimals),
                   format_fixed(s.max() / unit, decimals), format_fixed(r.mean() / unit, decimals),
                   format_fixed(r.max() / unit, decimals)});
  };
  row("CPU util", sc, rc, 1.0, 3);
  row("Network (MB/s)", sn, rn, kMiB, 1);
  row("Disk (MB/s)", sd, rd, kMiB, 1);
  std::cout << "\n";
  table.print(std::cout);

  std::cout << "\nPaper shape: RUPAM keeps a lower, stabler stddev (balanced utilization);\n"
               "Spark shows spikes on network and disk during the late shuffle stages.\n"
            << "[shape] RUPAM cpu-sd mean lower: " << (rc.mean() <= sc.mean() ? "yes" : "NO")
            << "; RUPAM net-sd peak lower: " << (rn.max() <= sn.max() ? "yes" : "NO") << "\n";
  p.check("Spark disk-sd peak above RUPAM's", sd.max() > rd.max());
}

// Ablation study: flip each RUPAM mechanism off and measure the impact on
// the workload that exercises it most. Not a paper figure — it validates
// that each design choice DESIGN.md calls out actually carries weight.
double run_rupam_with(Paper& p, const char* workload, RupamConfig rupam_cfg,
                      double res_factor = 2.0) {
  rupam_cfg.res_factor = res_factor;
  ExperimentConfig cfg;
  cfg.sim.rupam = rupam_cfg;
  return p.experiment(workload_preset(workload), SchedulerKind::kRupam, cfg).mean_makespan();
}

void ablation_rupam(Paper& p) {
  TextTable table({"Variant", "Workload", "Makespan (s)", "vs full RUPAM"});
  RupamConfig full;

  auto without = [full](bool RupamConfig::*mechanism) {
    RupamConfig cfg = full;
    cfg.*mechanism = false;
    return cfg;
  };

  const std::tuple<const char*, const char*, RupamConfig> cases[] = {
      {"full RUPAM", "LR", full},
      {"no optexecutor lock", "LR", without(&RupamConfig::opt_executor_lock)},
      {"full RUPAM", "PR", full},
      {"no memory guard", "PR", without(&RupamConfig::memory_guard)},
      {"no memory-straggler relocation", "PR", without(&RupamConfig::memory_straggler)},
      {"full RUPAM", "KMeans", full},
      {"no CPU/GPU dual-run race", "KMeans", without(&RupamConfig::gpu_cpu_race)},
      {"full RUPAM", "TeraSort", full},
      {"no over-commit (slot semantics)", "TeraSort", without(&RupamConfig::overcommit)},
  };

  std::map<std::string, double> baselines;
  for (const auto& [label, workload, cfg] : cases) {
    double makespan = run_rupam_with(p, workload, cfg);
    std::string key = workload;
    bool is_full = std::string(label) == "full RUPAM";
    if (is_full) baselines[key] = makespan;
    double rel = makespan / baselines[key];
    if (!is_full) p.check(std::string(label) + " slower than full RUPAM", rel > 1.0);
    table.add_row({label, workload, format_fixed(makespan, 1), format_fixed(rel, 2) + "x"});
    p.add(key + "_" + slug(label) + "_s", makespan);
  }
  table.print(std::cout);

  // Res_factor sensitivity sweep (Algorithm 1's only tunable).
  std::cout << "\nRes_factor sensitivity (LR):\n";
  TextTable sweep({"Res_factor", "Makespan (s)"});
  for (double rf : {1.2, 1.5, 2.0, 3.0, 4.0}) {
    double makespan = run_rupam_with(p, "LR", full, rf);
    sweep.add_row({format_number(rf), format_fixed(makespan, 1)});
    p.add("LR_res_factor_" + format_number(rf) + "_s", makespan);
  }
  sweep.print(std::cout);
  std::cout << "\nReading: >1.0x means removing the mechanism slows the workload down.\n";
}

// Heterogeneity control experiment (not a paper figure, but the paper's
// premise): RUPAM's advantage must come from exploiting hardware
// heterogeneity. On a *homogeneous* cluster with the same aggregate
// resources as Hydra, the Spark-vs-RUPAM gap should largely vanish; as
// heterogeneity grows, it should widen.

// A homogeneous 12-node cluster matching Hydra's aggregate: ~208 cores,
// ~416 GB RAM, mixed-capability averages flattened into identical nodes.
std::vector<NodeSpec> homogeneous_cluster() {
  std::vector<NodeSpec> nodes;
  for (int i = 0; i < 12; ++i) {
    NodeSpec s;
    s.name = "uniform" + std::to_string(i);
    s.node_class = "uniform";
    s.cores = 17;       // ~208 / 12
    s.cpu_ghz = 2.6;
    s.cpu_perf = 1.64;  // aggregate perf-cores / aggregate cores
    s.memory = 34 * kGiB;
    s.net_bandwidth = gbit_per_s(1.0);
    s.has_ssd = false;
    s.disk_read_bw = mib_per_s(275);  // capacity-weighted mean
    s.disk_write_bw = mib_per_s(250);
    s.disk_capacity = 840 * kGiB;
    s.gpus = 0;
    nodes.push_back(std::move(s));
  }
  return nodes;
}

void ablation_heterogeneity(Paper& p) {
  TextTable table({"Workload", "Homogeneous cluster", "Hydra (heterogeneous)"});
  bool premise_holds = true, hydra_larger = true;
  for (const char* workload : {"LR", "TeraSort", "PR"}) {
    ExperimentConfig homogeneous;
    homogeneous.sim.nodes = homogeneous_cluster();
    double homo = p.compare(workload_preset(workload), homogeneous).speedup();
    double hydra = p.compare(workload_preset(workload)).speedup();  // empty = Hydra preset
    table.add_row({workload, format_fixed(homo, 2) + "x", format_fixed(hydra, 2) + "x"});
    premise_holds = premise_holds && hydra >= homo - 0.15;
    hydra_larger = hydra_larger && hydra > homo;
    p.add(std::string(workload) + "_homogeneous_speedup", homo);
    p.add(std::string(workload) + "_hydra_speedup", hydra);
  }
  table.print(std::cout);
  p.add("premise_holds", premise_holds ? "yes" : "no");

  std::cout << "\nReading: on identical nodes there is little for heterogeneity-awareness\n"
               "to exploit, so the speedup should shrink toward ~1x; on Hydra it should be\n"
               "substantially larger. Premise holds: " << (premise_holds ? "yes" : "NO")
            << "\n";
  p.check("Hydra speedup above the homogeneous one on LR, TeraSort, PR", hydra_larger);
}

// Baseline ladder (supports §II-B2 / §V): FIFO (oblivious) vs default
// Spark (locality-only) vs StageAware (heterogeneity-aware but
// stage-granular, the prior-work assumption the paper critiques) vs
// RUPAM (per-task). The gap between StageAware and RUPAM isolates the
// value of per-task characterization under intra-stage skew.
void baselines_comparison(Paper& p) {
  const std::vector<SchedulerKind> ladder = {SchedulerKind::kFifo, SchedulerKind::kSpark,
                                             SchedulerKind::kStageAware,
                                             SchedulerKind::kRupam};
  for (const char* name : {"LR", "PR", "TeraSort"}) {
    std::cout << "\n(" << name << ")\n";
    TextTable table({"Scheduler", "Makespan (s)", "±95% CI", "vs RUPAM"});
    std::map<SchedulerKind, ExperimentResult> results;
    for (SchedulerKind kind : ladder) {
      results.emplace(kind, p.experiment(workload_preset(name), kind));
    }
    double rupam_mean = results.at(SchedulerKind::kRupam).mean_makespan();
    bool fastest = true;
    for (SchedulerKind kind : ladder) {
      const ExperimentResult& r = results.at(kind);
      table.add_row({std::string(to_string(kind)), format_fixed(r.mean_makespan(), 1),
                     format_fixed(r.ci95_makespan(), 1),
                     format_fixed(r.mean_makespan() / rupam_mean, 2) + "x"});
      p.add(std::string(name) + "_" + std::string(to_string(kind)) + "_s", r.mean_makespan());
      fastest = fastest && (kind == SchedulerKind::kRupam || r.mean_makespan() > rupam_mean);
    }
    table.print(std::cout);
    p.check(std::string(name) + " RUPAM fastest of the four", fastest);
  }
  std::cout << "\nReading: stage-level awareness helps over locality-only scheduling, but\n"
               "per-task characterization (RUPAM) is needed once tasks within a stage\n"
               "diverge — the paper's central claim.\n";
}

struct Experiment {
  std::string_view name;
  void (*run)(Paper&);
  int default_reps;  // ignored by experiments that run each seed once
  const char* artifact;
  const char* description;
};

constexpr Experiment kExperiments[] = {
    {"fig2_matmul_utilization", fig2_matmul_utilization, 1, "Fig 2",
     "Resource utilization under 4K x 4K matrix multiplication"},
    {"fig3_pagerank_breakdown", fig3_pagerank_breakdown, 1, "Fig 3",
     "PageRank task breakdown on the 2-node motivation cluster"},
    {"table2_cluster_specs", table2_cluster_specs, 1, "Table II",
     "Specifications of Hydra cluster nodes"},
    {"table3_workloads", table3_workloads, 1, "Table III", "Studied workloads and input sizes"},
    {"table4_hardware", table4_hardware, 1, "Table IV",
     "Hardware characteristics benchmarks (SysBench/Iperf-style)"},
    {"fig5_overall", fig5_overall, 5, "Fig 5",
     "Overall performance: execution time, Spark vs RUPAM"},
    {"fig6_iterations", fig6_iterations, 3, "Fig 6",
     "LR speedup vs number of iterations (DB_task_char warm-up)"},
    {"table5_locality", table5_locality, 3, "Table V", "Task counts per data-locality level"},
    {"fig7_breakdown", fig7_breakdown, 3, "Fig 7",
     "Performance breakdown of LR, SQL, PR (seconds of task time)"},
    {"fig8_utilization", fig8_utilization, 3, "Fig 8",
     "Average node utilization for LR, SQL, PR"},
    {"fig9_balance", fig9_balance, 1, "Fig 9",
     "Cross-node utilization stddev over time (PageRank)"},
    {"ablation_rupam", ablation_rupam, 2, "Ablation",
     "RUPAM mechanisms toggled off, one at a time"},
    {"ablation_heterogeneity", ablation_heterogeneity, 2, "Heterogeneity control",
     "Spark/RUPAM speedup on homogeneous vs heterogeneous clusters"},
    {"baselines_comparison", baselines_comparison, 3, "Baselines",
     "FIFO vs Spark vs stage-level-aware vs RUPAM"},
};

std::size_t experiment_index(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kExperiments); ++i) {
    if (kExperiments[i].name == name) return i;
  }
  throw std::runtime_error("unknown experiment '" + std::string(name) + "'");
}

}  // namespace
}  // namespace rupam::bench

int main(int argc, char** argv) {
  using namespace rupam::bench;
  int reps = 0;  // 0: each experiment's default
  std::vector<bool> chosen(std::size(kExperiments), false);
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--reps") {
        // A whole integer >= 1: no sign, no trailing characters.
        std::string_view text = i + 1 < argc ? argv[++i] : "";
        auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), reps);
        if (ec != std::errc() || end != text.data() + text.size() || reps < 1) {
          throw std::runtime_error("--reps: expected an integer >= 1, got '" +
                                   std::string(text) + "'");
        }
      } else {
        chosen[experiment_index(argv[i])] = true;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "paper: " << e.what() << "\n";
    return 2;
  }
  bool all = std::find(chosen.begin(), chosen.end(), true) == chosen.end();

  Paper paper;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (!all && !chosen[i]) continue;
    const Experiment& e = kExperiments[i];
    print_header(e.artifact, e.description);
    paper.name = e.name;
    paper.reps = reps > 0 ? reps : e.default_reps;
    e.run(paper);
  }
  return paper.finish();
}
