// Minimal streaming JSON writer shared by every exporter that emits JSON
// by hand (chrome-tracing traces, BENCH_*.json sidecars, the metrics and
// scheduler-audit expositions). One escaping routine, one comma/indent
// state machine — so the emitters cannot drift apart on escaping rules.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rupam {

/// Write `in` as a JSON string literal: double-quoted, with ", \ and all
/// control characters below 0x20 escaped.
void write_json_string(std::ostream& os, std::string_view in);

/// Render a double as a JSON number. Non-finite values (which JSON cannot
/// represent) become 0.
std::string json_number(double value, int precision = 6);

/// Streaming writer with automatic commas and 2-space indentation:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("count").value(3);
///   w.key("items").begin_array().value("a").value("b").end_array();
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, bool pretty = true);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by exactly one value or
  /// container. Throws std::logic_error outside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// `precision` significant digits, as json_number renders them.
  JsonWriter& value(double v, int precision = 6);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(long long v);
  JsonWriter& value(unsigned long long v);
  JsonWriter& value(bool v);
  /// Pre-rendered JSON (a number formatted elsewhere, a nested literal).
  JsonWriter& raw(std::string_view rendered);

  /// All containers closed.
  bool complete() const { return stack_.empty() && started_; }

 private:
  struct Frame {
    bool array = false;
    bool first = true;
  };

  void before_value();
  void newline_indent();

  std::ostream& os_;
  bool pretty_;
  bool started_ = false;
  bool key_pending_ = false;
  std::vector<Frame> stack_;
};

}  // namespace rupam
