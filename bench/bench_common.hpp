// Shared helpers for the per-figure/table benchmark harnesses.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "metrics/experiment.hpp"

namespace rupam::bench {

/// Standard banner: which paper artifact this binary regenerates.
void print_header(const std::string& artifact, const std::string& description);

std::string pct(double fraction);

/// Peak resident set size of this process in MiB (getrusage), 0 if
/// unavailable.
double peak_rss_mib();

/// Host-speed calibration. Raw wall times move with the host: the same code
/// read 57-119% slower on a shared 4-core VM than on the host that
/// captured the sched_overhead baseline. So a bench times a fixed
/// reference kernel in a slice before and after every measured run, and
/// scales that run's timings to a host that runs one kernel step in
/// kNominalStepNs, judged by the mean of its two neighbouring slices:
/// contention that slows a run also slows the slices around it. The kernel
/// is a small discrete-event loop with the simulator's memory habits: a
/// binary heap of timed events, hash-map lookups into 10k heap objects and
/// short-lived allocations, about 2 MiB. It lives in bench/, so a change to
/// src/ cannot speed it up; slower simulator code still reads slower.
inline constexpr double kNominalStepNs = 300.0;

class Calibration {
 public:
  Calibration();

  /// Time one slice; returns (and keeps) its nanoseconds per step.
  double slice();
  /// Median nanoseconds per step over every slice.
  double step_ns() const;
  /// This host's nanoseconds → reference-host ones, for a run timed
  /// between slices `before` and `after`.
  static double scale(double before, double after) {
    return kNominalStepNs / (0.5 * (before + after));
  }

 private:
  struct Object {
    std::uint64_t fields[6] = {};
    std::vector<std::uint32_t> tail;
  };
  void step();

  std::mt19937_64 rng_{12345};
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>, std::greater<>>
      queue_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Object>> objects_;
  std::vector<double> step_ns_;
};

/// Machine-readable sidecar next to a bench's stdout tables: a flat
/// key→value JSON object written to BENCH_<name>.json in the working
/// directory, so CI and plotting scripts don't have to scrape tables.
class JsonReport {
 public:
  explicit JsonReport(std::string name);

  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  /// Literal JSON booleans (true/false), not 0/1 numbers.
  void add_bool(const std::string& key, bool value);
  /// Accumulate the kernel counters of a measured Simulation into the
  /// report footer. KernelStats is per-Simulator, so benches record each
  /// run they measure; the footer sums exactly those runs (not unrelated
  /// activity elsewhere in the process).
  void record_kernel(const KernelStats& stats);

  const std::string& path() const { return path_; }
  /// Returns false (and prints to stderr) when the file cannot be written.
  /// Every report is stamped with standard memory fields — peak RSS and the
  /// kernel's event-queue allocation counters — so the BENCH_*.json perf
  /// trajectory captures memory behaviour, not just wall time.
  bool write() const;

 private:
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key → rendered value
  KernelStats kernel_{};  // summed counters of every recorded run
};

}  // namespace rupam::bench
