#include "obs/comparator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/table.hpp"

namespace rupam {
namespace {

bool contains(std::string_view key, std::string_view needle) {
  return key.find(needle) != std::string_view::npos;
}

/// metric name → (base mean, CI half-width). CI is 0 for flat reports.
struct MetricPoint {
  double mean = 0.0;
  double ci95 = 0.0;
};
using MetricMap = std::map<std::string, MetricPoint>;

void flatten_bench(const JsonValue& doc, MetricMap& out) {
  for (const auto& [key, value] : doc.as_object()) {
    if (!value.is_number() || !metric_is_comparable(key)) continue;
    out[key] = MetricPoint{value.as_number(), 0.0};
  }
}

std::string cell_key(const JsonValue& cell) {
  auto str = [&](const char* k) -> std::string {
    const JsonValue* v = cell.find(k);
    return v != nullptr && v->is_string() ? v->as_string() : std::string();
  };
  auto num = [&](const char* k) -> std::string {
    const JsonValue* v = cell.find(k);
    return v != nullptr && v->is_number() ? format_number(v->as_number()) : std::string();
  };
  return "cell[" + str("scheduler") + ",n=" + num("fleet_size") + ",rate=" +
         num("arrival_rate") + ",fault=" + str("fault_plan") + ",elastic=" + str("elastic") +
         "]";
}

void flatten_matrix(const JsonValue& doc, MetricMap& out) {
  static constexpr const char* kAggregates[] = {"makespan_s", "mean_jct_s", "p50_jct_s",
                                                "p95_jct_s", "avg_cpu_util"};
  for (const JsonValue& cell : doc.find("cells")->as_array()) {
    std::string prefix = cell_key(cell) + ".";
    for (const char* name : kAggregates) {
      const JsonValue* agg = cell.find(name);
      if (agg == nullptr || !agg->is_object()) continue;
      const JsonValue* mean = agg->find("mean");
      const JsonValue* ci = agg->find("ci95");
      if (mean == nullptr || !mean->is_number()) continue;
      out[prefix + name] =
          MetricPoint{mean->as_number(),
                      ci != nullptr && ci->is_number() ? ci->as_number() : 0.0};
    }
    // Per-cell analyzer rollups compare as plain numbers when present.
    const JsonValue* analyzer = cell.find("analyzer");
    if (analyzer != nullptr && analyzer->is_object()) {
      const JsonValue* stragglers = analyzer->find("stragglers");
      if (stragglers != nullptr && stragglers->is_number()) {
        out[prefix + "analyzer.stragglers"] = MetricPoint{stragglers->as_number(), 0.0};
      }
    }
  }
}

MetricMap flatten(const JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("comparator: document is not a JSON object");
  }
  MetricMap out;
  const JsonValue* cells = doc.find("cells");
  if (cells != nullptr && cells->is_array()) {
    flatten_matrix(doc, out);
  } else {
    flatten_bench(doc, out);
  }
  return out;
}

}  // namespace

std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kWithinNoise: return "within_noise";
  }
  return "?";
}

bool metric_is_comparable(std::string_view key) {
  // Identity / configuration values, not performance metrics. Hardware
  // shape (core count, starvation flag) is machine identity: two runs on
  // different runners legitimately differ there.
  for (std::string_view skip : {"seed", "replication", "threads", "iterations", "n_nodes",
                                "apps", "jobs_total", "hardware_concurrency",
                                "core_starved"}) {
    if (contains(key, skip)) return false;
  }
  return true;
}

bool metric_lower_is_better(std::string_view key) {
  // Higher-is-better metrics; everything else (times, costs, allocation
  // counts, RSS, failure counts, straggler counts) regresses when it grows.
  for (std::string_view up : {"speedup", "throughput", "events_per_s", "per_core_efficiency",
                              "util", "efficiency", "locality_fraction", "hit_rate",
                              "reduction"}) {
    if (contains(key, up)) return false;
  }
  return true;
}

bool metric_is_drift(std::string_view key) { return contains(key, "_raw_"); }

ComparisonReport compare_runs(const JsonValue& base, const JsonValue& test,
                              const ComparisonConfig& config) {
  MetricMap base_metrics = flatten(base);
  MetricMap test_metrics = flatten(test);

  // Scaling verdicts (speedup, per-core efficiency) are meaningless when
  // either run executed on a core-starved machine — drop them from both
  // sides so a shared CI runner cannot fail a baseline captured on a full
  // machine (or vice versa).
  auto core_starved = [](const JsonValue& doc) {
    if (!doc.is_object()) return false;
    const JsonValue* v = doc.find("core_starved");
    if (v == nullptr) return false;
    return (v->is_bool() && v->as_bool()) || (v->is_number() && v->as_number() != 0.0);
  };
  if (core_starved(base) || core_starved(test)) {
    auto scaling = [](const std::string& key) {
      return contains(key, "speedup") || contains(key, "efficiency");
    };
    for (auto it = base_metrics.begin(); it != base_metrics.end();) {
      it = scaling(it->first) ? base_metrics.erase(it) : std::next(it);
    }
    for (auto it = test_metrics.begin(); it != test_metrics.end();) {
      it = scaling(it->first) ? test_metrics.erase(it) : std::next(it);
    }
  }

  ComparisonReport report;
  for (const auto& [key, b] : base_metrics) {
    auto it = test_metrics.find(key);
    if (it == test_metrics.end()) {
      report.only_in_base.push_back(key);
      continue;
    }
    const MetricPoint& t = it->second;
    MetricDelta d;
    d.key = key;
    d.base = b.mean;
    d.base_ci = b.ci95;
    d.test = t.mean;
    d.test_ci = t.ci95;
    d.delta = t.mean - b.mean;
    d.delta_pct = b.mean != 0.0 ? d.delta / std::abs(b.mean) * 100.0 : 0.0;
    d.lower_is_better = metric_lower_is_better(key);
    double magnitude = std::max(std::abs(b.mean), std::abs(t.mean));
    bool significant = std::abs(d.delta) > b.ci95 + t.ci95 &&
                       std::abs(d.delta) > config.rel_tolerance * magnitude;
    if (!significant || metric_is_drift(key)) {
      d.verdict = Verdict::kWithinNoise;
      ++report.within_noise;
    } else if ((d.delta < 0.0) == d.lower_is_better) {
      d.verdict = Verdict::kImproved;
      ++report.improved;
    } else {
      d.verdict = Verdict::kRegressed;
      ++report.regressed;
    }
    report.deltas.push_back(std::move(d));
  }
  for (const auto& [key, t] : test_metrics) {
    if (base_metrics.find(key) == base_metrics.end()) report.only_in_test.push_back(key);
  }
  return report;
}

ComparisonReport compare_json_text(const std::string& base_text, const std::string& test_text,
                                   const ComparisonConfig& config) {
  return compare_runs(parse_json(base_text), parse_json(test_text), config);
}

void write_comparison_json(const ComparisonReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.key("improved").value(static_cast<unsigned long long>(report.improved));
  w.key("regressed").value(static_cast<unsigned long long>(report.regressed));
  w.key("within_noise").value(static_cast<unsigned long long>(report.within_noise));
  w.key("metrics").begin_array();
  for (const MetricDelta& d : report.deltas) {
    w.begin_object();
    w.key("key").value(d.key);
    w.key("base").raw(json_number(d.base, 9));
    w.key("base_ci95").raw(json_number(d.base_ci, 9));
    w.key("test").raw(json_number(d.test, 9));
    w.key("test_ci95").raw(json_number(d.test_ci, 9));
    w.key("delta").raw(json_number(d.delta, 9));
    w.key("delta_pct").raw(json_number(d.delta_pct, 9));
    w.key("lower_is_better").value(d.lower_is_better);
    w.key("verdict").value(to_string(d.verdict));
    w.end_object();
  }
  w.end_array();
  w.key("only_in_base").begin_array();
  for (const std::string& k : report.only_in_base) w.value(k);
  w.end_array();
  w.key("only_in_test").begin_array();
  for (const std::string& k : report.only_in_test) w.value(k);
  w.end_array();
  w.end_object();
  os << "\n";
}

void print_comparison(const ComparisonReport& report, std::ostream& os) {
  TextTable table({"metric", "base", "test", "delta%", "verdict"});
  for (const MetricDelta& d : report.deltas) {
    table.add_row({d.key, format_number(d.base), format_number(d.test),
                   format_fixed(d.delta_pct, 2), std::string(to_string(d.verdict))});
  }
  table.print(os);
  os << report.improved << " improved, " << report.regressed << " regressed, "
     << report.within_noise << " within noise";
  if (!report.only_in_base.empty() || !report.only_in_test.empty()) {
    os << " (" << report.only_in_base.size() << " only in base, " << report.only_in_test.size()
       << " only in test)";
  }
  os << "\n";
}

}  // namespace rupam
