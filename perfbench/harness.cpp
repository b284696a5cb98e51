// Repository benchmark harness: host cost and simulated outcome of the RUPAM
// simulator on four workloads, plus a traced run that splits the host cost
// by layer. See README.md in this directory for the workloads, the metric
// catalog and the layer -> end-to-end metric map.
//
//   perfbench --workload hydra_paper --seed 1 --seconds 20 --trace 0
//
// Every layer is measured from outside, by timing calls into its public
// functions (spans) and by reading its public counters after a run; nothing
// here instruments src/. End-to-end numbers come only from untraced passes.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/simulation.hpp"
#include "cluster/fleet.hpp"
#include "common/log.hpp"
#include "faults/fault_plan.hpp"
#include "obs/overhead.hpp"
#include "sweep/orchestrator.hpp"
#include "workloads/presets.hpp"

// ---------------------------------------------------------------------------
// Process-wide allocation counter. Every operator new bumps it, so the count
// covers the whole program, not just the places someone instrumented. The
// sweep runs cells on two threads, hence the atomic.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t read_heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC cannot see that the operator new above is malloc-based and flags the
// matching frees below as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace rupam;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
/// CPU time of the whole process: every thread, including sweep workers.
std::int64_t cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// The paper's Fig 5 headline: RUPAM's mean improvement over Spark.
constexpr double kPaperImprovementPct = 37.7;
// Fig 5 protocol replications per (preset, scheduler) on the Hydra workloads.
constexpr int kHydraReps = 5;
// Simulated-time cap for the Hydra workloads: 5x the longest makespan any
// completing run reaches (HEFT x KMeans, ~2900 s). A livelocked run (HEFT x
// PR on most seeds) still exhausts it and fails, but after 4 simulated hours
// instead of the default 48, so one livelock no longer outweighs the other
// runs' host time and memory and the host times stay comparable across seeds.
constexpr double kHydraMaxSimTime = 4.0 * 3600.0;
constexpr int kFleetNodes = 1000;
// fleet_1000 replications: one 1000-node TeraSort makespan (and its host
// cost) moves 10-15% from seed to seed, so each pass averages four fleets.
constexpr int kFleetReps = 4;
constexpr int kSweepThreads = 2;
// Reference speed of the probe kernel below, in steps per CPU second: the
// normalised host times read as CPU seconds on a host that runs the probe
// this fast. A round figure somewhat above what the probe reached on the
// 4-core VM this benchmark was written on.
constexpr double kProbeNominalStepsPerS = 2.0e6;
// One probe slice (about 0.6 ms) per kProbeEveryNs of timed work: ~3% extra.
constexpr int kProbeSliceSteps = 1000;
constexpr std::int64_t kProbeEveryNs = 20'000'000;
// Simulated seconds between the points where a long run may be probed.
constexpr double kProbeSimStep = 1.0;
// Extra set-ups (set-up calls alone) after each timed pass, for setup_s.
constexpr int kSetupReps = 2;
// Critical-path attribution must tile each JCT this tightly.
constexpr double kTileTolerance = 1e-9;

// ---------------------------------------------------------------------------
// Spans: one per public call into a layer, kept in memory, written once.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = -1;  // simulated run the call belongs to; -1 = none
};

class Tracer {
 public:
  int open(const char* name, int run) {
    int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), run});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A span measured elsewhere (a sweep worker thread), parented here.
  void add(Span span) { spans_.push_back(std::move(span)); }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Self time per span name: duration minus the time its children cover.
  /// Children of one span never overlap except sweep cells, which run on
  /// several workers; their parent's self time is clamped at zero.
  std::map<std::string, double> self_ns() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += duration(s);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += std::max(0.0, duration(spans_[i]) - child[i]);
    }
    return out;
  }

  /// Chrome trace-event JSON: one complete event per span.
  void write_chrome(std::ostream& os) const {
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) os << ",";
      os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns - t0) / 1e3
         << ",\"dur\":" << duration(s) / 1e3 << ",\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
    }
    os << "\n]}\n";
  }

 private:
  static double duration(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns); }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Host time of some calls: wall seconds (spans and layer metrics) and
/// process CPU seconds (the end-to-end metrics).
struct Seconds {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Times one call into a layer: adds its seconds to `acc` (when given) and
/// records a span when the run is traced.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, int run, Seconds* acc)
      : tracer_(tracer), acc_(acc), wall_(now_ns()), cpu_(cpu_ns()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name, run);
  }
  ~Timed() {
    if (acc_ != nullptr) {
      acc_->cpu += static_cast<double>(cpu_ns() - cpu_) / 1e9;
      acc_->wall += static_cast<double>(now_ns() - wall_) / 1e9;
    }
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* tracer_;
  Seconds* acc_;
  std::int64_t wall_;
  std::int64_t cpu_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Speed probe. The host this benchmark runs on is shared: memory-system
// contention from outside the process slows the simulator by up to 2x for
// seconds to minutes at a time, and CPU time does not see it. So the timed
// passes interleave the work with short slices of a fixed reference kernel
// on the same thread, one slice per ~20 ms of work (long simulations are
// split for it, see run_probed). The kernel is a small discrete-event loop
// with the simulator's memory habits: a binary heap of timed events,
// hash-map lookups into 10k heap objects and short-lived allocations, ~2 MiB
// in all. That size matters: data that stays in cache on a quiet host is
// what outside contention evicts, and a probe several times larger (8 MiB)
// missed cache anyway and did not track the simulator. Its steps per CPU
// second say how fast the host was while the work ran; the normalised times
// scale CPU seconds to kProbeNominalStepsPerS. The kernel is part of this
// file, so a change to src/ cannot speed it up.
// ---------------------------------------------------------------------------
class SpeedProbe {
 public:
  SpeedProbe() {
    for (std::uint32_t i = 0; i < kObjects; ++i) {
      auto o = std::make_unique<Object>();
      o->tail.assign(tail_size(i), i);
      objects_[key(i)] = std::move(o);
    }
    for (std::uint32_t i = 0; i < kObjects; ++i) {
      queue_.push({static_cast<double>(rng_() % 1000), i});
    }
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

 private:
  static constexpr std::uint32_t kObjects = 10000;
  struct Object {
    std::uint64_t fields[6] = {};
    std::vector<std::uint32_t> tail;
  };
  static std::uint32_t key(std::uint32_t id) { return id * 2654435761u; }
  static std::size_t tail_size(std::uint32_t id) { return 4 + id % 13; }

  void step() {
    auto [t, id] = queue_.top();
    queue_.pop();
    Object& o = *objects_[key(id)];
    o.fields[id % 6] += static_cast<std::uint64_t>(t);
    if (id % 3 == 0) {
      // A fresh heap allocation of the same size replaces the old one, as
      // the simulator's short-lived objects do.
      std::vector<std::uint32_t> fresh(tail_size(id), id);
      o.tail.swap(fresh);
    }
    queue_.push({t + static_cast<double>(rng_() % 1000) * 0.01 + 0.001, id});
  }

  std::mt19937_64 rng_{12345};
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>, std::greater<>>
      queue_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Object>> objects_;
};

/// Probe slices run since the last ProbePool::take().
struct ProbeTotals {
  double steps = 0.0;
  double cpu_s = 0.0;
  /// Host speed while they ran, over the reference speed (1 = nominal).
  double speed() const { return cpu_s > 0.0 ? steps / cpu_s / kProbeNominalStepsPerS : 0.0; }
};

/// One probe per thread that may run timed work, built before any timing
/// (sweep workers borrow one for each cell).
class ProbePool {
 public:
  explicit ProbePool(int n) {
    for (int i = 0; i < n; ++i) free_.push_back(std::make_unique<SpeedProbe>());
  }
  /// One probe slice on the calling thread; returns its host time.
  Seconds slice() {
    std::unique_ptr<SpeedProbe> probe;
    {
      std::lock_guard<std::mutex> lock(mu_);
      probe = std::move(free_.back());
      free_.pop_back();
    }
    const std::int64_t wall0 = now_ns();
    const std::int64_t cpu0 = thread_cpu_ns();
    probe->run(kProbeSliceSteps);
    Seconds used;
    used.cpu = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
    used.wall = static_cast<double>(now_ns() - wall0) / 1e9;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(probe));
    steps_ += kProbeSliceSteps;
    cpu_s_ += used.cpu;
    return used;
  }
  /// The slices since the last call; probes once first if there were none
  /// (work too short to reach a slice).
  ProbeTotals take() {
    if (totals().steps == 0.0) slice();
    std::lock_guard<std::mutex> lock(mu_);
    ProbeTotals out{steps_, cpu_s_};
    steps_ = cpu_s_ = 0.0;
    return out;
  }

 private:
  ProbeTotals totals() {
    std::lock_guard<std::mutex> lock(mu_);
    return {steps_, cpu_s_};
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<SpeedProbe>> free_;
  double steps_ = 0.0;
  double cpu_s_ = 0.0;
};

// Set up in main for the timed passes of an untraced run; null otherwise.
std::unique_ptr<ProbePool> g_probes;

/// One probe slice when kProbeEveryNs have passed since this thread's last
/// one; returns the slice's host time (zero when none ran).
Seconds maybe_probe() {
  thread_local std::int64_t last_probe = 0;
  if (g_probes == nullptr || now_ns() - last_probe < kProbeEveryNs) return {};
  const Seconds used = g_probes->slice();
  last_probe = now_ns();
  return used;
}

/// Simulation::run(app) as begin / advance_until / finish, which executes
/// the identical event sequence, paused every kProbeSimStep simulated
/// seconds so that one probe slice can run per kProbeEveryNs of work.
/// Returns the makespan; adds the slices' host time to `probe_time`.
SimTime run_probed(Simulation& sim, const Application& app, Seconds& probe_time) {
  sim.begin(app);
  for (SimTime t = sim.sim().now() + kProbeSimStep; !sim.advance_until(t); t += kProbeSimStep) {
    const Seconds used = maybe_probe();
    probe_time.cpu += used.cpu;
    probe_time.wall += used.wall;
  }
  return sim.finish();
}

// ---------------------------------------------------------------------------
// Pass bookkeeping.
// ---------------------------------------------------------------------------

/// One simulated run's outcome. Labels read "<preset or cell>/<scheduler>/rep<r>".
struct SimRun {
  std::string label;
  SchedulerKind kind = SchedulerKind::kSpark;
  bool ok = false;
  double makespan = 0.0;
  double jct_p50 = 0.0;
  double jct_p95 = 0.0;
};

struct Pass {
  Seconds setup;
  Seconds work;  // timed work after set-up
  ProbeTotals probe;  // slices run during the pass, excluded from `work`
  std::vector<SimRun> runs;
  std::vector<std::string> problems;  // failed output checks

  std::size_t failed() const {
    return static_cast<std::size_t>(
        std::count_if(runs.begin(), runs.end(), [](const SimRun& r) { return !r.ok; }));
  }
  void fail(SimRun& run, const std::string& why) {
    run.ok = false;
    problems.push_back(run.label + ": " + why);
  }
  void finish_probes() {
    if (g_probes != nullptr) probe = g_probes->take();
  }
};

/// Per-layer sums of a traced pass, keyed by metric name ("_" prefix =
/// intermediate sums that only feed derived metrics).
using Tally = std::map<std::string, double>;

/// Traced-pass state; null in untraced passes.
struct Trace {
  Tracer tracer;
  Tally tally;
};

std::string sched_key(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSpark: return "spark";
    case SchedulerKind::kRupam: return "rupam";
    case SchedulerKind::kHeft: return "heft";
    default: return "other";
  }
}

// Indexed by Locality.
const char* const kLocalityNames[] = {"process_local", "node_local", "rack_local", "any"};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// Read every layer's public counters after one finished simulation.
void harvest(Simulation& sim, SchedulerKind kind, const OverheadProfiler& prof, double run_ns,
             Tally& t) {
  const KernelStats& k = sim.sim().stats();
  t["simcore.events_executed"] += static_cast<double>(k.events_executed);
  t["simcore.events_scheduled"] += static_cast<double>(k.events_scheduled);
  t["simcore.events_cancelled"] += static_cast<double>(k.events_cancelled);
  t["simcore.arena_slot_allocs"] += static_cast<double>(k.arena_slot_allocs);
  t["simcore.callback_heap_allocs"] += static_cast<double>(k.callback_heap_allocs);
  t["simcore.peak_pending"] = std::max(t["simcore.peak_pending"],
                                       static_cast<double>(sim.sim().peak_pending_events()));
  t["_run_ns"] += run_ns;

  const std::string s = "sched." + sched_key(kind) + ".";
  const SchedulerBase& sched = sim.scheduler();
  const auto& work = sched.dispatch_work();
  const SectionStats& dispatch = prof.section(ProfileSection::kDispatch);
  const AllocStats& allocs = prof.alloc_stats();
  t[s + "dispatch_rounds"] += static_cast<double>(sched.dispatch_rounds());
  t[s + "launches"] += static_cast<double>(sched.launches());
  t[s + "node_visits"] += static_cast<double>(work.node_visits);
  t[s + "task_checks"] += static_cast<double>(work.task_checks);
  t[s + "dispatch_ns"] += static_cast<double>(dispatch.total_ns);
  t["_" + s + "dispatch_count"] += static_cast<double>(dispatch.count);
  t[s + "dispatch_max_ns"] =
      std::max(t[s + "dispatch_max_ns"], static_cast<double>(dispatch.max_ns));
  t[s + "heap_maint_ns"] +=
      static_cast<double>(prof.section(ProfileSection::kHeapMaintenance).total_ns);
  t[s + "heartbeat_ns"] += static_cast<double>(prof.section(ProfileSection::kHeartbeat).total_ns);
  t[s + "enqueue_ns"] += static_cast<double>(prof.section(ProfileSection::kEnqueue).total_ns);
  t["_" + s + "run_ns"] += run_ns;
  t["_" + s + "scan_rounds"] += static_cast<double>(allocs.scan_rounds);
  t["_" + s + "scan_allocs"] += static_cast<double>(allocs.scan_allocs);
  t["_" + s + "launch_rounds"] += static_cast<double>(allocs.launch_rounds);
  t["_" + s + "launch_allocs"] += static_cast<double>(allocs.launch_allocs);
  t[s + "straggler_copies"] += static_cast<double>(sched.straggler_copies());
  t[s + "preemptions"] += static_cast<double>(sched.preemptions());
  t[s + "blacklist_events"] += static_cast<double>(sched.blacklist_events());
  // Dispatch, heartbeat and enqueue sections never nest in one another
  // (dispatch is its own event; heap maintenance nests inside the first two).
  t["_sections_ns"] += static_cast<double>(dispatch.total_ns +
                                           prof.section(ProfileSection::kHeartbeat).total_ns +
                                           prof.section(ProfileSection::kEnqueue).total_ns);

  auto add_attempt = [&t](const TaskMetrics& m) {
    t["exec.compute_s"] += m.compute_time;
    t["exec.shuffle_read_s"] += m.shuffle_read_time;
    t["exec.shuffle_write_s"] += m.shuffle_write_time;
    t["exec.gc_s"] += m.gc_time;
    t["exec.scheduler_delay_s"] += m.scheduler_delay;
  };
  for (const TaskMetrics& m : sched.completed()) {
    add_attempt(m);
    t[std::string("_locality.") + kLocalityNames[static_cast<int>(m.locality)]] += 1.0;
  }
  for (const TaskMetrics& m : sched.failures()) add_attempt(m);
  t["exec.attempts"] += static_cast<double>(sched.completed().size() + sched.failures().size());
  t["exec.failed_attempts"] += static_cast<double>(sched.failures().size());
  t["exec.oom_kills"] += static_cast<double>(sim.total_oom_kills());
  t["exec.executor_losses"] += static_cast<double>(sim.total_executor_losses());

  Cluster& cluster = sim.cluster();
  for (NodeId id : cluster.node_ids()) {
    Node& node = cluster.node(id);
    t["_busy.cpu"] += node.cpu().busy_seconds();
    t["_busy.net"] += node.net().busy_seconds();
    t["_busy.disk"] += 0.5 * (node.disk_read().busy_seconds() + node.disk_write().busy_seconds());
  }
  t["_node_seconds"] += static_cast<double>(cluster.size()) * sim.sim().now();
  if (Autoscaler* a = sim.autoscaler()) {
    t["cluster.nodes_provisioned"] += static_cast<double>(a->minted().size());
  }
  t["dag.jobs_completed"] += static_cast<double>(sim.dag().jobs_completed());
  t["dag.recomputed_partitions"] += static_cast<double>(sim.recomputed_partitions());
  if (const FaultInjector* inj = sim.injector()) {
    t["faults.injected"] += static_cast<double>(inj->injected());
  }
}

/// Per-run JCT percentiles over the run's jobs.
void set_jct(SimRun& run, const std::vector<JobCompletion>& jobs) {
  JctSummary s = summarize_jct(jobs);
  run.jct_p50 = s.p50;
  run.jct_p95 = s.p95;
}

// ---------------------------------------------------------------------------
// Single-application workloads: hydra_paper, fleet_1000, hydra_observed.
// ---------------------------------------------------------------------------

struct AppRunSpec {
  std::string label;
  SimulationConfig cfg;
  std::function<Application(Simulation&)> build;  // the build_workload call
  bool observed = false;  // every sink on, exports + analysis after the run
};

/// Set up, run and check one application; exports and analysis follow when
/// observed.
void run_app(Pass& pass, Trace* trace, const AppRunSpec& spec) {
  const int run_id = static_cast<int>(pass.runs.size());
  Tracer* tr = trace != nullptr ? &trace->tracer : nullptr;
  SimRun out;
  out.label = spec.label;
  out.kind = spec.cfg.scheduler;

  std::unique_ptr<Simulation> sim;
  Application app;
  {
    Timed t(tr, "Simulation::Simulation", run_id, &pass.setup);
    sim = std::make_unique<Simulation>(spec.cfg);
  }
  {
    Timed t(tr, "build_workload", run_id, &pass.setup);
    app = spec.build(*sim);
  }
  std::vector<JobCompletion> jobs;
  if (!spec.cfg.enable_analysis) {
    sim->dag().set_job_observer([&jobs](const DagScheduler::JobStats& s) {
      jobs.push_back(JobCompletion{s.job, s.app, s.pool, s.name, s.submitted, -1.0, s.finished});
    });
  }
  OverheadProfiler prof;
  if (trace != nullptr) {
    prof.set_alloc_counter(&read_heap_allocs);
    sim->set_profiler(&prof);
  }

  Seconds run_s;
  Seconds probe_s;
  try {
    {
      Timed t(tr, "Simulation::run", run_id, &run_s);
      out.makespan = g_probes != nullptr ? run_probed(*sim, app, probe_s) : sim->run(app);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    std::cerr << "[perfbench] " << spec.label << " failed: " << e.what() << "\n";
    out.ok = false;
  }
  run_s.cpu -= probe_s.cpu;
  run_s.wall -= probe_s.wall;
  Seconds work = run_s;
  if (trace != nullptr) harvest(*sim, spec.cfg.scheduler, prof, run_s.wall * 1e9, trace->tally);

  if (out.ok) {
    if (!finite_positive(out.makespan)) pass.fail(out, "makespan not finite and positive");
    if (!sim->dag().finished() || sim->dag().jobs_completed() != app.jobs.size()) {
      pass.fail(out, "not every submitted job completed");
    }
  }

  if (out.ok && spec.observed) {
    std::size_t bytes = 0;
    auto export_to = [&](const char* name, const char* layer, auto&& write) {
      std::ostringstream os;
      Seconds s;
      {
        Timed t(tr, name, run_id, &s);
        write(os);
      }
      work.wall += s.wall;
      work.cpu += s.cpu;
      bytes += os.str().size();
      if (trace != nullptr) trace->tally[layer] += s.wall * 1e9;
    };
    const EventTrace* events = sim->trace();
    SpanTrace* spans = sim->spans();
    DecisionAudit* audit = sim->audit();
    MetricsRegistry* metrics = sim->metrics();
    export_to("EventTrace::write_csv", "obs.export_trace_ns",
              [&](std::ostream& os) { events->write_csv(os); });
    export_to("EventTrace::write_chrome_tracing", "obs.export_trace_ns",
              [&](std::ostream& os) { events->write_chrome_tracing(os); });
    export_to("SpanTrace::write_perfetto", "obs.export_perfetto_ns",
              [&](std::ostream& os) { spans->write_perfetto(os); });
    export_to("DecisionAudit::write_csv", "obs.export_audit_ns",
              [&](std::ostream& os) { audit->write_csv(os); });
    export_to("DecisionAudit::write_json", "obs.export_audit_ns",
              [&](std::ostream& os) { audit->write_json(os); });
    export_to("MetricsRegistry::write_prometheus", "obs.export_metrics_ns",
              [&](std::ostream& os) { metrics->write_prometheus(os); });
    export_to("MetricsRegistry::write_json", "obs.export_metrics_ns",
              [&](std::ostream& os) { metrics->write_json(os); });

    RunArtifacts artifacts;
    RunDiagnosis diagnosis;
    {
      Seconds s;
      {
        Timed t(tr, "analyze_run", run_id, &s);
        artifacts = sim->run_artifacts();
        diagnosis = analyze_run(artifacts);
      }
      work.wall += s.wall;
      work.cpu += s.cpu;
      if (trace != nullptr) trace->tally["obs.analyze_ns"] += s.wall * 1e9;
    }
    jobs = std::move(artifacts.jobs);
    if (diagnosis.jobs.size() != app.jobs.size()) {
      pass.fail(out, "analyzer saw " + std::to_string(diagnosis.jobs.size()) + " of " +
                         std::to_string(app.jobs.size()) + " jobs");
    }
    for (const JobDiagnosis& j : diagnosis.jobs) {
      if (!(std::fabs(j.critical_path.total() - j.jct) <= kTileTolerance)) {
        pass.fail(out, "critical path does not tile the JCT of job " + std::to_string(j.job));
        break;
      }
    }
    if (trace != nullptr) {
      Tally& t = trace->tally;
      t["obs.trace_events"] += static_cast<double>(events->events().size());
      t["obs.spans"] += static_cast<double>(spans->spans().size());
      t["obs.audit_rows"] += static_cast<double>(audit->size());
      t["obs.export_bytes"] += static_cast<double>(bytes);
      t["_obs.observed_ns"] += work.wall * 1e9;
    }
  }
  if (out.ok) {
    if (jobs.size() != app.jobs.size()) {
      pass.fail(out, "recorded " + std::to_string(jobs.size()) + " job completions, expected " +
                         std::to_string(app.jobs.size()));
    } else {
      set_jct(out, jobs);
    }
  }
  pass.work.wall += work.wall;
  pass.work.cpu += work.cpu;
  pass.runs.push_back(std::move(out));
}

/// run_app's set-up calls alone, for every spec; the simulations are
/// discarded. The timed passes repeat this so that setup_s is a median of
/// several set-ups.
void set_up_apps(const std::vector<AppRunSpec>& specs, Seconds& setup) {
  for (const AppRunSpec& spec : specs) {
    std::unique_ptr<Simulation> sim;
    Application app;
    {
      Timed t(nullptr, "Simulation::Simulation", -1, &setup);
      sim = std::make_unique<Simulation>(spec.cfg);
    }
    {
      Timed t(nullptr, "build_workload", -1, &setup);
      app = spec.build(*sim);
    }
    maybe_probe();
  }
}

/// The same runs as `observed` with every sink off: the base of
/// obs.overhead_x, measured inside the traced run.
double bare_run_s(const AppRunSpec& spec) {
  SimulationConfig cfg = spec.cfg;
  cfg.enable_trace = cfg.enable_metrics = cfg.enable_audit = cfg.enable_spans = false;
  cfg.enable_analysis = false;
  Simulation sim(cfg);
  Application app = spec.build(sim);
  std::int64_t t0 = now_ns();
  try {
    sim.run(app);
  } catch (const std::exception&) {
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::vector<AppRunSpec> hydra_specs(std::uint64_t seed, bool observed) {
  std::vector<SchedulerKind> kinds = {SchedulerKind::kSpark, SchedulerKind::kRupam};
  if (!observed) kinds.push_back(SchedulerKind::kHeft);
  std::vector<AppRunSpec> specs;
  for (const WorkloadPreset& preset : table3_workloads()) {
    for (SchedulerKind kind : kinds) {
      for (int r = 0; r < kHydraReps; ++r) {
        // The Fig 5 protocol: replication r runs on seed base + r with a
        // fresh Simulation (so a fresh DB_task_char).
        const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
        AppRunSpec spec;
        spec.label = preset.name + "/" + sched_key(kind) + "/rep" + std::to_string(r);
        spec.cfg.scheduler = kind;
        spec.cfg.seed = s;
        spec.cfg.max_sim_time = kHydraMaxSimTime;
        if (observed) {
          spec.observed = true;
          spec.cfg.enable_trace = spec.cfg.enable_metrics = spec.cfg.enable_audit = true;
          spec.cfg.enable_spans = spec.cfg.enable_analysis = true;
        }
        spec.build = [preset, s](Simulation& sim) {
          return build_workload(preset, sim.cluster().node_ids(), s, 0,
                                hdfs_placement_weights(sim.cluster()));
        };
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

Pass hydra_pass(std::uint64_t seed, bool observed, Trace* trace) {
  Pass pass;
  std::vector<AppRunSpec> specs = hydra_specs(seed, observed);
  for (const AppRunSpec& spec : specs) run_app(pass, trace, spec);
  pass.finish_probes();
  if (trace != nullptr && observed) {
    double bare = 0.0;
    for (const AppRunSpec& spec : specs) bare += bare_run_s(spec);
    trace->tally["_obs.bare_ns"] += bare * 1e9;
  }
  return pass;
}

/// The fleet_1000 runs; generating their fleets is timed into `setup`.
std::vector<AppRunSpec> fleet_specs(std::uint64_t seed, Tracer* tr, Seconds& setup) {
  // The scale_fleet recipe: Hydra's 6:4:2 class ratio at 1000 nodes and
  // TeraSort at 0.5 GB per node, speculation off. Replication r generates
  // its fleet and its input from seed + r.
  WorkloadPreset preset = workload_preset("TeraSort");
  preset.input_gb = 0.5 * kFleetNodes;
  std::vector<AppRunSpec> specs;
  for (int r = 0; r < kFleetReps; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    FleetSpec fleet = scaled_hydra_fleet(kFleetNodes, s);
    std::vector<NodeSpec> nodes;
    {
      Timed t(tr, "generate_fleet", -1, &setup);
      nodes = generate_fleet(fleet);
    }
    for (SchedulerKind kind : {SchedulerKind::kSpark, SchedulerKind::kRupam}) {
      AppRunSpec spec;
      spec.label = "TeraSort/" + sched_key(kind) + "/rep" + std::to_string(r);
      spec.cfg.scheduler = kind;
      spec.cfg.nodes = nodes;
      if (fleet.switch_bandwidth > 0.0) spec.cfg.switch_bandwidth = fleet.switch_bandwidth;
      spec.cfg.speculation.enabled = false;
      spec.cfg.seed = s;
      spec.build = [preset, s](Simulation& sim) {
        return build_workload(preset, sim.cluster().node_ids(), s, 0,
                              hdfs_placement_weights(sim.cluster()));
      };
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

Pass fleet_pass(std::uint64_t seed, Trace* trace) {
  Pass pass;
  const std::vector<AppRunSpec> specs =
      fleet_specs(seed, trace != nullptr ? &trace->tracer : nullptr, pass.setup);
  for (const AppRunSpec& spec : specs) run_app(pass, trace, spec);
  pass.finish_probes();
  return pass;
}

// ---------------------------------------------------------------------------
// tenant_sweep: run_sweep on Hydra, two workers.
// ---------------------------------------------------------------------------

SweepSpec tenant_spec(std::uint64_t seed, bool smoke) {
  SweepSpec spec;
  spec.name = "perfbench_tenant_sweep";
  spec.base_seed = seed;
  spec.replications = smoke ? 1 : 8;
  spec.schedulers = {SchedulerKind::kSpark, SchedulerKind::kRupam};
  spec.fleet_sizes = {12};
  // Both rates draw far more arrivals over the horizon than max_apps, so
  // every run submits exactly max_apps applications.
  spec.arrival_rates = {0.1, 0.2};
  spec.fault_plans = {std::string(), "crash@60:node=3:down=40;spot@90:node=5:notice=30"};
  spec.elastic_modes = {std::string(), "autoscale+preempt"};
  spec.duration = 300.0;
  spec.tenants = 2;
  spec.pool_policy = PoolPolicy::kFair;
  spec.mix = {"TeraSort", "SQL", "GM"};
  spec.max_apps = smoke ? 3 : 8;
  return spec;
}

/// What run_sweep_cell builds for one (cell, replication), rebuilt here so
/// the set-up calls can be timed (setup_s) and, in the traced run, so the
/// same simulations can be re-run with their layers exposed.
struct CellSetup {
  CellCoord coord;
  std::unique_ptr<Simulation> sim;
  SubmissionStream stream;
  std::size_t jobs = 0;  // jobs submitted by the stream
};

CellSetup set_up_cell(const SweepSpec& spec, std::size_t cell, int rep, Tracer* tr,
                      Seconds* setup) {
  CellSetup c;
  c.coord = spec.cell_at(cell);
  const std::uint64_t seed = derive_run_seed(spec, c.coord, rep);
  SimulationConfig cfg;
  cfg.scheduler = spec.schedulers.at(c.coord.scheduler);
  FleetSpec fleet = sweep_fleet_spec(spec.fleet_sizes.at(c.coord.fleet), spec.base_seed);
  {
    Timed t(tr, "generate_fleet", -1, setup);
    cfg.nodes = generate_fleet(fleet);
  }
  if (fleet.switch_bandwidth > 0.0) cfg.switch_bandwidth = fleet.switch_bandwidth;
  cfg.pools.policy = spec.pool_policy;
  cfg.sample_utilization = spec.sample_utilization;
  const std::string& plan = spec.fault_plans.at(c.coord.fault);
  if (!plan.empty()) cfg.faults = parse_fault_spec(plan);
  parse_elastic_mode(spec.elastic_modes.at(c.coord.elastic), cfg.autoscale.enabled,
                     cfg.preemption.enabled);
  cfg.seed = seed;
  {
    Timed t(tr, "Simulation::Simulation", -1, setup);
    c.sim = std::make_unique<Simulation>(cfg);
  }
  ArrivalConfig arrivals;
  arrivals.rate = spec.arrival_rates.at(c.coord.rate);
  arrivals.duration = spec.duration;
  arrivals.tenants = spec.tenants;
  arrivals.seed = seed;
  arrivals.iterations_override = spec.iterations_override;
  arrivals.mix = spec.mix;
  arrivals.max_apps = spec.max_apps;
  {
    Timed t(tr, "make_poisson_stream", -1, setup);
    c.stream = make_poisson_stream(arrivals, c.sim->cluster().node_ids());
  }
  for (const TimedSubmission& s : c.stream.items()) c.jobs += s.app.jobs.size();
  return c;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// The set-up phase of sweep_pass alone; the simulations are discarded.
void sweep_set_up(std::uint64_t seed, Seconds& setup) {
  const SweepSpec spec = tenant_spec(seed, false);
  for (std::size_t cell = 0; cell < spec.cell_count(); ++cell) {
    for (int rep = 0; rep < spec.replications; ++rep) {
      set_up_cell(spec, cell, rep, nullptr, &setup);
      maybe_probe();
    }
  }
}

Pass sweep_pass(std::uint64_t seed, Trace* trace) {
  Pass pass;
  Tracer* tr = trace != nullptr ? &trace->tracer : nullptr;
  const SweepSpec spec = tenant_spec(seed, false);
  const std::size_t reps = static_cast<std::size_t>(spec.replications);

  std::vector<CellSetup> setups;
  for (std::size_t cell = 0; cell < spec.cell_count(); ++cell) {
    for (int rep = 0; rep < spec.replications; ++rep) {
      CellSetup c = set_up_cell(spec, cell, rep, tr, &pass.setup);
      if (trace == nullptr) c.sim.reset();  // only the traced run re-runs it
      setups.push_back(std::move(c));
    }
  }

  // Each cell through the runner seam, timed around run_sweep_cell and
  // followed by a probe slice on the same worker. Slots are preassigned, so
  // workers never share one.
  struct CellTime {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<CellTime> cell_times(spec.total_runs());
  SweepOptions opts;
  opts.threads = kSweepThreads;
  opts.runner = [&cell_times, reps](const SweepSpec& s, const CellCoord& coord, int rep,
                                    std::uint64_t run_seed) {
    CellTime& slot = cell_times[s.cell_index(coord) * reps + static_cast<std::size_t>(rep)];
    slot.start_ns = now_ns();
    RunResult r = run_sweep_cell(s, coord, rep, run_seed);
    slot.end_ns = now_ns();
    // One slice per cell: back-to-back slices after a long cell would find
    // the probe's data back in cache and read the host as faster.
    if (g_probes != nullptr) g_probes->slice();
    return r;
  };
  SweepMatrix matrix;
  std::string matrix_json;
  std::int64_t sweep_start = 0, sweep_end = 0, aggregate_ns = 0;
  int sweep_span = -1;
  {
    Timed t(tr, "run_sweep", -1, &pass.work);
    sweep_span = tr != nullptr ? tr->current() : -1;
    sweep_start = now_ns();
    matrix = run_sweep(spec, opts);
    sweep_end = now_ns();
  }
  {
    Timed t(tr, "SweepMatrix::to_json", -1, &pass.work);
    std::int64_t t0 = now_ns();
    matrix_json = matrix.to_json();
    aggregate_ns = now_ns() - t0;
  }
  // The workers' probe slices ran inside run_sweep; they are not its work.
  pass.finish_probes();
  pass.work.cpu -= pass.probe.cpu_s;
  pass.work.wall -= pass.probe.cpu_s / kSweepThreads;

  for (std::size_t cell = 0; cell < matrix.cells.size(); ++cell) {
    const CellResult& c = matrix.cells[cell];
    for (std::size_t rep = 0; rep < c.reps.size(); ++rep) {
      const RunResult& r = c.reps[rep];
      const CellSetup& expect = setups[cell * reps + rep];
      SimRun out;
      out.kind = spec.schedulers.at(c.coord.scheduler);
      out.label = "cell" + std::to_string(cell) + "/" + sched_key(out.kind) + "/rep" +
                  std::to_string(rep);
      out.ok = r.ok;
      out.makespan = r.makespan;
      out.jct_p50 = r.p50_jct;
      out.jct_p95 = r.p95_jct;
      if (!r.ok) {
        std::cerr << "[perfbench] " << out.label << " failed: " << r.error << "\n";
      } else {
        if (!finite_positive(r.makespan)) pass.fail(out, "makespan not finite and positive");
        if (r.apps != expect.stream.size() || r.jobs != expect.jobs) {
          pass.fail(out, "completed " + std::to_string(r.jobs) + " of " +
                             std::to_string(expect.jobs) + " submitted jobs");
        }
      }
      pass.runs.push_back(std::move(out));
    }
  }
  if (matrix.failed_runs() != pass.failed()) {
    pass.problems.push_back("matrix failed count disagrees with the per-run results");
  }

  if (trace != nullptr) {
    Tally& t = trace->tally;
    std::vector<double> cell_ms;
    double busy_ns = 0.0;
    std::int64_t last_end = sweep_start;
    for (std::size_t i = 0; i < cell_times.size(); ++i) {
      const CellTime& ct = cell_times[i];
      double d = static_cast<double>(ct.end_ns - ct.start_ns);
      cell_ms.push_back(d / 1e6);
      busy_ns += d;
      last_end = std::max(last_end, ct.end_ns);
      tr->add(Span{"run_sweep_cell", ct.start_ns, ct.end_ns, sweep_span,
                   static_cast<int>(i)});
    }
    // The reported tail is the highest percentile with at least ten cells
    // beyond it (none when the grid is that small).
    const double n = static_cast<double>(cell_ms.size());
    const double tail_pct = n > 10.0 ? std::floor(100.0 * (1.0 - 10.0 / n)) : 50.0;
    t["sweep.runs"] += n;
    t["sweep.failed_runs"] += static_cast<double>(matrix.failed_runs());
    t["sweep.cell_wall_p50_ms"] = percentile(cell_ms, 50.0);
    t["sweep.cell_wall_tail_ms"] = percentile(cell_ms, tail_pct);
    t["sweep.cell_wall_tail_pct"] = tail_pct;
    t["sweep.cell_samples"] = n;
    t["sweep.worker_busy_frac"] =
        busy_ns / (kSweepThreads * static_cast<double>(sweep_end - sweep_start));
    // Aggregation: what run_sweep does after its last cell ends, plus the
    // matrix serialization.
    t["sweep.aggregate_ns"] += static_cast<double>(sweep_end - last_end + aggregate_ns);

    // Layer view: re-run the set-up simulations single-threaded with the
    // profiler attached. They must reproduce the matrix bit for bit,
    // otherwise the layer numbers would describe other simulations.
    for (std::size_t i = 0; i < setups.size(); ++i) {
      CellSetup& c = setups[i];
      OverheadProfiler prof;
      prof.set_alloc_counter(&read_heap_allocs);
      c.sim->set_profiler(&prof);
      const RunResult& want = matrix.cells[i / reps].reps[i % reps];
      Seconds run_s;
      try {
        TenantRunReport report;
        {
          Timed tm(tr, "Simulation::run", static_cast<int>(i), &run_s);
          report = c.sim->run(c.stream);
        }
        if (!want.ok || report.makespan != want.makespan || report.overall.p50 != want.p50_jct ||
            report.overall.p95 != want.p95_jct) {
          pass.problems.push_back("layer re-run of " + pass.runs[i].label +
                                  " does not reproduce the sweep matrix");
        }
      } catch (const std::exception& e) {
        if (want.ok) {
          pass.problems.push_back("layer re-run of " + pass.runs[i].label + " threw " + e.what());
        }
      }
      harvest(*c.sim, spec.schedulers.at(c.coord.scheduler), prof, run_s.wall * 1e9, t);
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
};

// Names and units match BENCHMARK.json.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},          {"work_s", "s"},
    {"peak_rss_mib", "MiB"},   {"ok_runs_share", "fraction"},
    {"rupam_makespan_s", "sim_s"}, {"spark_makespan_s", "sim_s"},
    {"jct_p50_s", "sim_s"},    {"jct_p95_s", "sim_s"},
};

std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> m = {
      {"setup.fleet_ns", "ns"},
      {"setup.sim_ctor_ns", "ns"},
      {"setup.workload_ns", "ns"},
      {"setup.stream_ns", "ns"},
      {"simcore.events_executed", "count"},
      {"simcore.events_scheduled", "count"},
      {"simcore.events_cancelled", "count"},
      {"simcore.peak_pending", "count"},
      {"simcore.arena_slot_allocs", "count"},
      {"simcore.callback_heap_allocs", "count"},
      {"simcore.events_per_s", "1/s"},
      {"simcore.ns_per_event", "ns"},
  };
  const Metric sched[] = {
      {"dispatch_rounds", "count"},    {"launches", "count"},
      {"launches_per_round", "ratio"}, {"node_visits", "count"},
      {"task_checks", "count"},        {"node_visits_per_launch", "ratio"},
      {"dispatch_ns", "ns"},           {"dispatch_mean_ns", "ns"},
      {"dispatch_max_ns", "ns"},       {"heap_maint_ns", "ns"},
      {"heartbeat_ns", "ns"},          {"enqueue_ns", "ns"},
      {"share_of_run", "fraction"},    {"scan_allocs_per_round", "count"},
      {"launch_allocs_per_round", "count"}, {"straggler_copies", "count"},
      {"preemptions", "count"},        {"blacklist_events", "count"},
  };
  for (const char* s : {"spark", "rupam", "heft"}) {
    for (const Metric& x : sched) m.push_back({std::string("sched.") + s + "." + x.name, x.unit});
  }
  const Metric rest[] = {
      {"sim.unattributed_ns", "ns"},
      {"exec.attempts", "count"},
      {"exec.failed_attempts", "count"},
      {"exec.attempt_success_ratio", "fraction"},
      {"exec.oom_kills", "count"},
      {"exec.executor_losses", "count"},
      {"exec.compute_s", "sim_s"},
      {"exec.shuffle_read_s", "sim_s"},
      {"exec.shuffle_write_s", "sim_s"},
      {"exec.gc_s", "sim_s"},
      {"exec.scheduler_delay_s", "sim_s"},
      {"tasks.locality_process_local_share", "fraction"},
      {"tasks.locality_node_local_share", "fraction"},
      {"tasks.locality_rack_local_share", "fraction"},
      {"tasks.locality_any_share", "fraction"},
      {"cluster.cpu_busy_frac", "fraction"},
      {"cluster.net_busy_frac", "fraction"},
      {"cluster.disk_busy_frac", "fraction"},
      {"cluster.nodes_provisioned", "count"},
      {"dag.jobs_completed", "count"},
      {"dag.recomputed_partitions", "count"},
      {"faults.injected", "count"},
      {"obs.trace_events", "count"},
      {"obs.spans", "count"},
      {"obs.audit_rows", "count"},
      {"obs.export_trace_ns", "ns"},
      {"obs.export_perfetto_ns", "ns"},
      {"obs.export_audit_ns", "ns"},
      {"obs.export_metrics_ns", "ns"},
      {"obs.analyze_ns", "ns"},
      {"obs.export_bytes", "bytes"},
      {"obs.overhead_x", "ratio"},
      {"sweep.runs", "count"},
      {"sweep.failed_runs", "count"},
      {"sweep.cell_wall_p50_ms", "ms"},
      {"sweep.cell_wall_tail_ms", "ms"},
      {"sweep.cell_wall_tail_pct", "pct"},
      {"sweep.cell_samples", "count"},
      {"sweep.worker_busy_frac", "fraction"},
      {"sweep.aggregate_ns", "ns"},
      {"proc.heap_allocs", "count"},
      {"proc.heap_allocs_per_run", "count"},
      {"bench.tracing_overhead_x", "ratio"},
  };
  m.insert(m.end(), std::begin(rest), std::end(rest));
  return m;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double geomean_makespan(const std::vector<SimRun>& runs, SchedulerKind kind) {
  double log_sum = 0.0;
  int n = 0;
  for (const SimRun& r : runs) {
    if (!r.ok || r.kind != kind) continue;
    log_sum += std::log(r.makespan);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// |mean RUPAM improvement over Spark − 37.7| in percentage points, as Fig 5
/// computes it: per preset, improvement = 1 − mean(RUPAM) / mean(Spark).
double paper_gap_pct(const std::vector<SimRun>& runs) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> groups;
  for (const SimRun& r : runs) {
    if (!r.ok) continue;
    std::string key = r.label.substr(0, r.label.find('/'));
    if (r.kind == SchedulerKind::kSpark) groups[key].first.push_back(r.makespan);
    if (r.kind == SchedulerKind::kRupam) groups[key].second.push_back(r.makespan);
  }
  double sum = 0.0;
  int n = 0;
  for (const auto& [key, g] : groups) {
    if (g.first.empty() || g.second.empty()) continue;
    double spark = 0.0, rupam = 0.0;
    for (double v : g.first) spark += v / static_cast<double>(g.first.size());
    for (double v : g.second) rupam += v / static_cast<double>(g.second.size());
    sum += 1.0 - rupam / spark;
    ++n;
  }
  return n == 0 ? 0.0 : std::fabs(100.0 * sum / n - kPaperImprovementPct);
}

/// Host times of the timed passes: one sample of each per pass, and one
/// set-up sample per extra set-up too. Normalised values are CPU seconds
/// times the host speed the probes measured alongside.
struct HostTimes {
  std::vector<double> setup_norm, work_norm;  // normalised s
  std::vector<double> setup_cpu, work_cpu, work_wall, speed;

  void add_pass(const Seconds& setup, const Seconds& work, double host_speed) {
    add_setup(setup, host_speed);
    work_norm.push_back(work.cpu * host_speed);
    work_cpu.push_back(work.cpu);
    work_wall.push_back(work.wall);
    speed.push_back(host_speed);
  }
  void add_setup(const Seconds& setup, double host_speed) {
    setup_norm.push_back(setup.cpu * host_speed);
    setup_cpu.push_back(setup.cpu);
  }
};

/// Simulated outcomes from `outputs` (every pass simulates the same), host
/// figures from `host` (medians) and the warm-up pass's peak RSS.
std::map<std::string, double> end_to_end(const Pass& outputs, const HostTimes& host,
                                         double rss_mib) {
  const std::vector<SimRun>& runs = outputs.runs;
  double p50 = 0.0, p95 = 0.0;
  int ok = 0;
  for (const SimRun& r : runs) {
    if (!r.ok) continue;
    p50 += r.jct_p50;
    p95 += r.jct_p95;
    ++ok;
  }
  return {
      {"setup_s", median(host.setup_norm)},
      {"work_s", median(host.work_norm)},
      {"peak_rss_mib", rss_mib},
      {"ok_runs_share", ratio(ok, static_cast<double>(runs.size()))},
      {"rupam_makespan_s", geomean_makespan(runs, SchedulerKind::kRupam)},
      {"spark_makespan_s", geomean_makespan(runs, SchedulerKind::kSpark)},
      {"jct_p50_s", ratio(p50, ok)},
      {"jct_p95_s", ratio(p95, ok)},
  };
}

std::map<std::string, double> per_layer(const Trace& trace, const Pass& traced,
                                        const Pass& untraced, std::uint64_t allocs) {
  Tally t = trace.tally;
  std::map<std::string, double> self = trace.tracer.self_ns();
  t["setup.fleet_ns"] = self["generate_fleet"];
  t["setup.sim_ctor_ns"] = self["Simulation::Simulation"];
  t["setup.workload_ns"] = self["build_workload"];
  t["setup.stream_ns"] = self["make_poisson_stream"];
  const double run_ns = t["_run_ns"];
  t["simcore.events_per_s"] = ratio(t["simcore.events_executed"], run_ns / 1e9);
  t["simcore.ns_per_event"] = ratio(run_ns, t["simcore.events_executed"]);
  for (const char* s : {"spark", "rupam", "heft"}) {
    const std::string p = std::string("sched.") + s + ".";
    t[p + "launches_per_round"] = ratio(t[p + "launches"], t[p + "dispatch_rounds"]);
    t[p + "node_visits_per_launch"] = ratio(t[p + "node_visits"], t[p + "launches"]);
    t[p + "dispatch_mean_ns"] = ratio(t[p + "dispatch_ns"], t["_" + p + "dispatch_count"]);
    t[p + "share_of_run"] = ratio(t[p + "dispatch_ns"] + t[p + "heartbeat_ns"] +
                                      t[p + "enqueue_ns"],
                                  t["_" + p + "run_ns"]);
    t[p + "scan_allocs_per_round"] = ratio(t["_" + p + "scan_allocs"], t["_" + p + "scan_rounds"]);
    t[p + "launch_allocs_per_round"] =
        ratio(t["_" + p + "launch_allocs"], t["_" + p + "launch_rounds"]);
  }
  t["sim.unattributed_ns"] = std::max(0.0, run_ns - t["_sections_ns"]);
  t["exec.attempt_success_ratio"] =
      ratio(t["exec.attempts"] - t["exec.failed_attempts"], t["exec.attempts"]);
  double done = 0.0;
  for (const char* l : kLocalityNames) done += t[std::string("_locality.") + l];
  for (const char* l : kLocalityNames) {
    t[std::string("tasks.locality_") + l + "_share"] = ratio(t[std::string("_locality.") + l], done);
  }
  t["cluster.cpu_busy_frac"] = ratio(t["_busy.cpu"], t["_node_seconds"]);
  t["cluster.net_busy_frac"] = ratio(t["_busy.net"], t["_node_seconds"]);
  t["cluster.disk_busy_frac"] = ratio(t["_busy.disk"], t["_node_seconds"]);
  t["obs.overhead_x"] = ratio(t["_obs.observed_ns"], t["_obs.bare_ns"]);
  t["proc.heap_allocs"] = static_cast<double>(allocs);
  t["proc.heap_allocs_per_run"] = ratio(static_cast<double>(allocs), traced.runs.size());
  t["bench.tracing_overhead_x"] = ratio(traced.work.cpu, untraced.work.cpu);
  return t;
}

// FNV-1a over the simulated outputs (labels, outcomes, makespans, JCTs).
std::uint64_t digest(const Pass& pass) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const SimRun& r : pass.runs) {
    mix(r.label.data(), r.label.size());
    mix(&r.ok, sizeof r.ok);
    if (!r.ok) continue;
    for (double v : {r.makespan, r.jct_p50, r.jct_p95}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& catalog, const std::map<std::string, double>& values) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : catalog) {
    auto it = values.find(m.name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  int sweep_matrix_threads = 0;  // > 0: print the smoke tenant_sweep matrix
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload hydra_paper|fleet_1000|hydra_observed|"
               "tenant_sweep --seed N --seconds S --trace 0|1 [--spans-out FILE]\n"
               "       perfbench --sweep-matrix THREADS --seed N\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (value.empty() || value[0] == '-') usage("bad --seed " + value);
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else if (flag == "--sweep-matrix") {
      o.sweep_matrix_threads = std::atoi(value.c_str());
      if (o.sweep_matrix_threads < 1) usage("bad --sweep-matrix " + value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload && o.sweep_matrix_threads == 0) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  Logger::set_level(LogLevel::kOff);

  if (opt.sweep_matrix_threads > 0) {
    SweepOptions so;
    so.threads = opt.sweep_matrix_threads;
    std::cout << run_sweep(tenant_spec(opt.seed, true), so).to_json();
    return 0;
  }

  std::function<Pass(Trace*)> run_pass;
  std::function<void(Seconds&)> set_up;  // the set-up calls of a pass alone
  if (opt.workload == "hydra_paper" || opt.workload == "hydra_observed") {
    const bool observed = opt.workload == "hydra_observed";
    run_pass = [&opt, observed](Trace* t) { return hydra_pass(opt.seed, observed, t); };
    set_up = [&opt, observed](Seconds& acc) {
      set_up_apps(hydra_specs(opt.seed, observed), acc);
    };
  } else if (opt.workload == "fleet_1000") {
    run_pass = [&](Trace* t) { return fleet_pass(opt.seed, t); };
    set_up = [&](Seconds& acc) { set_up_apps(fleet_specs(opt.seed, nullptr, acc), acc); };
  } else if (opt.workload == "tenant_sweep") {
    run_pass = [&](Trace* t) { return sweep_pass(opt.seed, t); };
    set_up = [&](Seconds& acc) { sweep_set_up(opt.seed, acc); };
  } else {
    usage("unknown workload " + opt.workload);
  }

  std::vector<Pass> passes;
  std::vector<std::string> problems;
  const std::int64_t start = now_ns();
  std::map<std::string, double> values;
  std::vector<Metric> catalog;
  HostTimes host;
  if (!opt.trace) {
    // A warm-up pass, which also fixes the simulated outputs and the peak
    // RSS of one pass; then the probes are built, and identical timed
    // passes, each followed by kSetupReps extra set-ups, repeat until the
    // time is spent (at least one).
    passes.push_back(run_pass(nullptr));
    const double rss_mib = peak_rss_mib();
    g_probes = std::make_unique<ProbePool>(opt.workload == "tenant_sweep" ? kSweepThreads : 1);
    double last = 0.0;
    while (passes.size() < 2 ||
           static_cast<double>(now_ns() - start) / 1e9 + last <= opt.seconds) {
      std::int64_t t0 = now_ns();
      passes.push_back(run_pass(nullptr));
      const Pass& p = passes.back();
      host.add_pass(p.setup, p.work, p.probe.speed());
      for (int k = 0; k < kSetupReps; ++k) {
        Seconds setup;
        set_up(setup);
        host.add_setup(setup, g_probes->take().speed());
      }
      last = static_cast<double>(now_ns() - t0) / 1e9;
    }
    values = end_to_end(passes.front(), host, rss_mib);
    catalog = kEndToEnd;
  } else {
    // One untraced pass as the base of the tracing overhead, then one pass
    // with spans, profilers and allocation counts. No probes: the layer
    // metrics are raw host time.
    passes.push_back(run_pass(nullptr));
    Trace trace;
    std::uint64_t allocs_before = read_heap_allocs();
    passes.push_back(run_pass(&trace));
    std::uint64_t allocs = read_heap_allocs() - allocs_before;
    values = per_layer(trace, passes[1], passes[0], allocs);
    catalog = per_layer_catalog();
    if (!opt.spans_out.empty()) {
      std::ofstream f(opt.spans_out);
      trace.tracer.write_chrome(f);
      if (!f) problems.push_back("cannot write " + opt.spans_out);
    }
  }

  // Every pass repeats the same simulated runs (the digest check below holds
  // them to it), so the runs of one pass are the operations attempted; the
  // counts then depend on the seed alone, not on how many passes fit.
  const std::size_t attempted = passes.front().runs.size();
  const std::size_t failed = passes.front().failed();
  const std::uint64_t want = digest(passes.front());
  for (const Pass& p : passes) {
    problems.insert(problems.end(), p.problems.begin(), p.problems.end());
    if (digest(p) != want) problems.push_back("simulated outputs differ between passes");
  }
  for (const auto& [name, v] : values) {
    if (!std::isfinite(v)) problems.push_back("metric " + name + " is not finite");
  }
  for (const std::string& p : problems) std::cerr << "[perfbench] CHECK FAILED: " << p << "\n";

  // Unbounded outcome figures, printed for the record (README.md says why
  // they are not bounded metrics).
  const Pass& first = passes.front();
  std::cout << "info failed_runs_share "
            << ratio(static_cast<double>(first.failed()), first.runs.size()) << " fraction\n";
  if (!opt.trace) {
    // The raw host times behind setup_s and work_s.
    std::cout << "info host_speed " << median(host.speed) << " x_nominal\n"
              << "info setup_cpu_s " << median(host.setup_cpu) << " s\n"
              << "info work_cpu_s " << median(host.work_cpu) << " s\n"
              << "info work_wall_s " << median(host.work_wall) << " s\n";
  }
  if (opt.workload == "hydra_paper" || opt.workload == "hydra_observed") {
    std::cout << "info paper_gap_pct " << paper_gap_pct(first.runs) << " pct_points\n";
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(want));
  std::cout << "digest " << opt.workload << " seed=" << opt.seed << " " << hex << "\n";
  std::cout << "passes " << passes.size() << "\n";
  print_result(problems.empty(), attempted, failed, catalog, values);
  return 0;
}
