#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/json_writer.hpp"
#include "simcore/kernel_stats.hpp"

namespace rupam::bench {

void print_header(const std::string& artifact, const std::string& description) {
  std::cout << "==============================================================\n"
            << artifact << " — " << description << "\n"
            << "(RUPAM reproduction; simulated Hydra cluster — compare shapes,"
               " not absolute seconds)\n"
            << "==============================================================\n";
}

Comparison compare(const WorkloadPreset& preset, int repetitions, int iterations_override,
                   bool sample_utilization, bool keep_task_metrics, std::uint64_t base_seed) {
  ExperimentConfig cfg;
  cfg.repetitions = repetitions;
  cfg.iterations_override = iterations_override;
  cfg.sample_utilization = sample_utilization;
  cfg.keep_task_metrics = keep_task_metrics;
  cfg.base_seed = base_seed;
  Comparison out;
  cfg.scheduler = SchedulerKind::kSpark;
  out.spark = run_experiment(preset, cfg);
  cfg.scheduler = SchedulerKind::kRupam;
  out.rupam = run_experiment(preset, cfg);
  return out;
}

std::string gb(double bytes) { return format_fixed(bytes / kGiB, 2); }

std::string pct(double fraction) { return format_fixed(fraction * 100.0, 1); }

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

constexpr int kCalibrationSteps = 100000;
constexpr std::uint32_t kCalibrationObjects = 10000;
std::uint32_t calibration_key(std::uint32_t id) { return id * 2654435761u; }
std::size_t calibration_tail(std::uint32_t id) { return 4 + id % 13; }

}  // namespace

Calibration::Calibration() {
  for (std::uint32_t i = 0; i < kCalibrationObjects; ++i) {
    auto o = std::make_unique<Object>();
    o->tail.assign(calibration_tail(i), i);
    objects_[calibration_key(i)] = std::move(o);
  }
  for (std::uint32_t i = 0; i < kCalibrationObjects; ++i) {
    queue_.push({static_cast<double>(rng_() % 1000), i});
  }
}

double Calibration::slice() {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalibrationSteps; ++i) step();
  auto ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start);
  step_ns_.push_back(ns.count() / kCalibrationSteps);
  return step_ns_.back();
}

double Calibration::step_ns() const {
  std::vector<double> v = step_ns_;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

void Calibration::step() {
  auto [t, id] = queue_.top();
  queue_.pop();
  Object& o = *objects_[calibration_key(id)];
  o.fields[id % 6] += static_cast<std::uint64_t>(t);
  if (id % 3 == 0) {
    std::vector<std::uint32_t> fresh(calibration_tail(id), id);
    o.tail.swap(fresh);
  }
  queue_.push({t + static_cast<double>(rng_() % 1000) * 0.01 + 0.001, id});
}

JsonReport::JsonReport(std::string name) : path_("BENCH_" + std::move(name) + ".json") {}

void JsonReport::add(const std::string& key, double value) {
  entries_.emplace_back(key, json_number(value));
}

void JsonReport::add(const std::string& key, const std::string& value) {
  std::ostringstream quoted;
  write_json_string(quoted, value);
  entries_.emplace_back(key, quoted.str());
}

void JsonReport::add_bool(const std::string& key, bool value) {
  entries_.emplace_back(key, value ? "true" : "false");
}

KernelStats Comparison::kernel_total() const {
  KernelStats total = spark.kernel_total();
  total += rupam.kernel_total();
  return total;
}

void JsonReport::add_comparison(const std::string& prefix, const Comparison& c) {
  add(prefix + "_spark_s", c.spark.mean_makespan());
  add(prefix + "_rupam_s", c.rupam.mean_makespan());
  add(prefix + "_speedup", c.speedup());
  record_kernel(c.kernel_total());
}

void JsonReport::record_kernel(const KernelStats& stats) { kernel_ += stats; }

bool JsonReport::write() const {
  std::ofstream f(path_);
  if (!f) {
    std::cerr << "cannot write " << path_ << "\n";
    return false;
  }
  // Standard memory/allocation footer appended to every report: peak RSS
  // plus the kernel counters of the runs this bench measured and recorded
  // via record_kernel()/add_comparison() (see simcore/kernel_stats.hpp).
  const KernelStats& ks = kernel_;
  std::vector<std::pair<std::string, std::string>> all = entries_;
  all.emplace_back("peak_rss_mib", json_number(peak_rss_mib()));
  all.emplace_back("sim_events_scheduled", json_number(static_cast<double>(ks.events_scheduled)));
  all.emplace_back("sim_events_executed", json_number(static_cast<double>(ks.events_executed)));
  all.emplace_back("sim_events_cancelled", json_number(static_cast<double>(ks.events_cancelled)));
  all.emplace_back("sim_arena_slot_allocs", json_number(static_cast<double>(ks.arena_slot_allocs)));
  all.emplace_back("sim_callback_heap_allocs",
                   json_number(static_cast<double>(ks.callback_heap_allocs)));
  double queue_allocs = static_cast<double>(ks.arena_slot_allocs + ks.callback_heap_allocs);
  all.emplace_back("sim_queue_allocs_per_event",
                   json_number(ks.events_executed > 0
                                   ? queue_allocs / static_cast<double>(ks.events_executed)
                                   : 0.0));
  JsonWriter w(f);
  w.begin_object();
  for (const auto& [key, rendered] : all) w.key(key).raw(rendered);
  w.end_object();
  f << "\n";
  std::cout << "[json] wrote " << path_ << "\n";
  return f.good();
}

}  // namespace rupam::bench
