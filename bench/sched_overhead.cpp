// Host wall-clock AND heap-allocation cost of each scheduler's decision
// machinery, measured with the obs/ OverheadProfiler while a full
// transitive-closure run executes on all five schedulers (FIFO, Spark,
// StageAware, HEFT, RUPAM). TC rather than PR because HEFT's
// memory-oblivious EFT placement livelocks on PR's cache-heavy iterations
// (pre-existing, tracked in ROADMAP.md); every scheduler completes TC.
//
// Each scheduler runs the workload in separate Simulations: a pilot run
// counts dispatch rounds, then seven identical measured runs gate heap
// allocations over the second half of those rounds — by then every scratch
// buffer, symbol table and queue has reached its high-water capacity, so
// those rounds are the steady state. Each reported timing is its median
// over the measured runs, and the other figures are those of the run with
// the median dispatch mean: one run per scheduler let a single preempted
// run swing the RUPAM/FIFO ratio past its budget on a shared host. Two
// regression gates (nonzero exit on failure):
//
//  * steady-state dispatch rounds that launch nothing must perform ZERO
//    heap allocations, in every measured run, with observers
//    (trace/audit/metrics) disabled — the
//    interned-symbol/flat-index dispatch path holds no per-round strings
//    or maps;
//  * RUPAM's median mean per-dispatch cost must stay within 10x
//    FIFO's (supports the paper's claim that the extra bookkeeping keeps
//    scheduler delay "moderate").
//
// The timing keys are host-normalised (see bench::Calibration), so CI's
// strict comparison against bench/baselines/ judges the code, not the
// runner: every `*_mean_ns` and `*_total_ms` key is scaled to a reference
// host, and the raw figures stay in the report as `*_raw_ns` / `*_raw_ms`
// drift keys, which the comparator reports but never counts as a
// regression. `<S>_speculation_checks` (tasks the straggler scan examined)
// is deterministic and gated as is.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/overhead.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this process bumps it, so
// "allocations per dispatch round" measures the whole hot path, not just the
// places we remembered to instrument. Single-threaded, so a plain counter.
// ---------------------------------------------------------------------------
namespace {
std::uint64_t g_heap_allocs = 0;
std::uint64_t read_heap_allocs() { return g_heap_allocs; }
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

constexpr double kMaxRupamOverFifo = 10.0;
constexpr int kMeasuredRuns = 7;

struct MeasuredRun {
  rupam::OverheadProfiler profiler;
  std::size_t launches = 0;
  double makespan = 0.0;
  rupam::KernelStats kernel{};
  std::size_t speculation_checks = 0;
  /// This host's nanoseconds → reference-host ones, around this run.
  double scale = 1.0;

  /// Host-normalised, like every reported timing.
  double dispatch_mean_ns() const {
    return profiler.section(rupam::ProfileSection::kDispatch).mean_ns() * scale;
  }
};

struct SchedulerProfile {
  explicit SchedulerProfile(rupam::SchedulerKind k) : kind(k) {}

  rupam::SchedulerKind kind;
  std::array<MeasuredRun, kMeasuredRuns> runs;
  /// The run with the median dispatch mean: the non-timing figures are
  /// its. Each timing key is its own median over the runs.
  const MeasuredRun* median = nullptr;

  /// Median over the measured runs of a section's mean wall time,
  /// host-normalised or raw.
  double median_mean_ns(rupam::ProfileSection section, bool normalised) const {
    std::array<double, kMeasuredRuns> v{};
    for (int i = 0; i < kMeasuredRuns; ++i) {
      v[i] = runs[i].profiler.section(section).mean_ns() * (normalised ? runs[i].scale : 1.0);
    }
    std::sort(v.begin(), v.end());
    return v[kMeasuredRuns / 2];
  }
  /// Steady-state scan allocations summed over every measured run.
  std::uint64_t scan_allocs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rupam;
  const char* workload = argc > 1 ? argv[1] : "TC";
  bench::print_header("SchedOverhead",
                      "host-side cost per scheduling decision, all five schedulers");

  std::array<SchedulerProfile, 5> profiles = {
      SchedulerProfile(SchedulerKind::kFifo), SchedulerProfile(SchedulerKind::kSpark),
      SchedulerProfile(SchedulerKind::kStageAware), SchedulerProfile(SchedulerKind::kHeft),
      SchedulerProfile(SchedulerKind::kRupam)};
  bench::Calibration calibration;
  for (SchedulerProfile& p : profiles) {
    SimulationConfig cfg;
    cfg.scheduler = p.kind;
    // Pilot: how many dispatch rounds does this workload drive? The
    // measured runs replay the identical event sequence, so half of this
    // count marks the start of their steady state.
    std::uint64_t pilot_rounds = 0;
    {
      Simulation pilot(cfg);
      OverheadProfiler pilot_profiler;
      pilot.set_profiler(&pilot_profiler);
      Application app = build_workload(workload_preset(workload), pilot.cluster().node_ids(),
                                       /*seed=*/1, /*iterations_override=*/0,
                                       hdfs_placement_weights(pilot.cluster()));
      pilot.run(app);
      pilot_rounds = pilot_profiler.section(ProfileSection::kDispatch).count;
    }
    // Measured runs: wall-clock sections over every round, allocation
    // accounting (sampled around each try_dispatch by the scheduler base)
    // over the post-warm-up half only.
    double before = calibration.slice();
    for (MeasuredRun& run : p.runs) {
      Simulation sim(cfg);
      sim.set_profiler(&run.profiler);
      Application app = build_workload(workload_preset(workload), sim.cluster().node_ids(),
                                       /*seed=*/1, /*iterations_override=*/0,
                                       hdfs_placement_weights(sim.cluster()));
      run.profiler.set_alloc_counter(&read_heap_allocs);
      run.profiler.set_alloc_warmup(pilot_rounds / 2);
      run.makespan = sim.run(app);
      run.profiler.set_alloc_counter(nullptr);
      run.launches = sim.scheduler().launches();
      run.kernel = sim.sim().stats();
      run.speculation_checks = sim.scheduler().dispatch_work().speculation_checks;
      double after = calibration.slice();
      run.scale = bench::Calibration::scale(before, after);
      before = after;
      p.scan_allocs += run.profiler.alloc_stats().scan_allocs;
    }
    std::array<const MeasuredRun*, kMeasuredRuns> by_mean;
    for (int i = 0; i < kMeasuredRuns; ++i) by_mean[i] = &p.runs[i];
    std::sort(by_mean.begin(), by_mean.end(), [](const MeasuredRun* a, const MeasuredRun* b) {
      return a->dispatch_mean_ns() < b->dispatch_mean_ns();
    });
    p.median = by_mean[kMeasuredRuns / 2];
  }

  bench::JsonReport json("sched_overhead");
  TextTable table({"Scheduler", "Dispatch rounds", "Launches", "Dispatch mean (ns)",
                   "Scan allocs", "Launch allocs/round", "Heap maint (ns)", "Heartbeat (ns)",
                   "Spec checks"});
  bool scan_alloc_free = true;
  std::uint64_t scan_allocs_total = 0;
  for (SchedulerProfile& p : profiles) {
    const MeasuredRun& run = *p.median;
    json.record_kernel(run.kernel);
    const SectionStats& dispatch = run.profiler.section(ProfileSection::kDispatch);
    const AllocStats& allocs = run.profiler.alloc_stats();
    table.add_row({std::string(to_string(p.kind)), std::to_string(dispatch.count),
                   std::to_string(run.launches),
                   format_fixed(p.median_mean_ns(ProfileSection::kDispatch, true), 0),
                   std::to_string(p.scan_allocs),
                   format_fixed(allocs.launch_allocs_per_round(), 2),
                   format_fixed(p.median_mean_ns(ProfileSection::kHeapMaintenance, true), 0),
                   format_fixed(p.median_mean_ns(ProfileSection::kHeartbeat, true), 0),
                   std::to_string(run.speculation_checks)});
    std::string prefix(to_string(p.kind));
    // Normalised to the reference host (gated), raw beside it (drift only).
    auto add_ns = [&](const std::string& key, ProfileSection section) {
      json.add(prefix + key + "_ns", p.median_mean_ns(section, true));
      json.add(prefix + key + "_raw_ns", p.median_mean_ns(section, false));
    };
    // Every run executes the same rounds, so the total follows the mean.
    double rounds_ms = static_cast<double>(dispatch.count) / 1e6;
    add_ns("_dispatch_mean", ProfileSection::kDispatch);
    json.add(prefix + "_dispatch_rounds", static_cast<double>(dispatch.count));
    json.add(prefix + "_dispatch_total_ms",
             p.median_mean_ns(ProfileSection::kDispatch, true) * rounds_ms);
    json.add(prefix + "_dispatch_total_raw_ms",
             p.median_mean_ns(ProfileSection::kDispatch, false) * rounds_ms);
    add_ns("_heap_maintenance_mean", ProfileSection::kHeapMaintenance);
    add_ns("_heartbeat_mean", ProfileSection::kHeartbeat);
    add_ns("_enqueue_mean", ProfileSection::kEnqueue);
    json.add(prefix + "_speculation_checks", static_cast<double>(run.speculation_checks));
    json.add(prefix + "_makespan_s", run.makespan);
    json.add(prefix + "_scan_rounds", static_cast<double>(allocs.scan_rounds));
    json.add(prefix + "_scan_allocs", static_cast<double>(p.scan_allocs));
    json.add(prefix + "_allocs_per_dispatch", allocs.scan_allocs_per_round());
    json.add(prefix + "_launch_allocs_per_round", allocs.launch_allocs_per_round());
    scan_allocs_total += p.scan_allocs;
    if (p.scan_allocs != 0) {
      scan_alloc_free = false;
      std::cerr << "FAIL: " << to_string(p.kind) << " allocated " << p.scan_allocs
                << " times across the steady-state scan rounds of " << kMeasuredRuns
                << " runs (expected 0 with observers off)\n";
    }
  }
  table.print(std::cout);

  double fifo_mean = profiles[0].median_mean_ns(ProfileSection::kDispatch, true);
  double rupam_mean = profiles[4].median_mean_ns(ProfileSection::kDispatch, true);
  double ratio = fifo_mean > 0.0 ? rupam_mean / fifo_mean : 0.0;
  json.add("rupam_over_fifo_dispatch_ratio", ratio);
  json.add("calibration_step_raw_ns", calibration.step_ns());
  json.add("steady_scan_allocs_total", static_cast<double>(scan_allocs_total));
  json.add("workload", workload);
  json.write();

  std::cout << "\nTimes in reference-host ns: this host ran the calibration kernel at "
            << format_fixed(calibration.step_ns(), 1) << " ns/step (reference "
            << format_fixed(bench::kNominalStepNs, 0) << ").\n";
  std::cout << "RUPAM/FIFO mean dispatch cost: " << format_fixed(ratio, 2)
            << "x (budget " << format_fixed(kMaxRupamOverFifo, 0) << "x)\n";
  if (!scan_alloc_free) return 1;
  if (ratio > kMaxRupamOverFifo) {
    std::cerr << "FAIL: RUPAM per-dispatch cost exceeds " << kMaxRupamOverFifo
              << "x FIFO — decision-path regression\n";
    return 1;
  }
  std::cout << "Reading: steady-state dispatch is allocation-free for every scheduler\n"
               "(interned pool/stage symbols + flat indexes + reused scratch), and\n"
               "RUPAM's per-task characterization and heap upkeep stay within an order\n"
               "of magnitude of an oblivious FIFO pop.\n";
  return 0;
}
