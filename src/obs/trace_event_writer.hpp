// The one Chrome/Perfetto "Trace Event Format" emitter. Both trace exports
// stream through it: EventTrace::write_chrome_tracing (`--trace-chrome`,
// one slice per finished or failed attempt, one instant per other event)
// and SpanTrace::write_perfetto (`--trace-perfetto`, attempt and phase
// slices plus shuffle flow arrows). It writes
//
//   {"displayTimeUnit": "ms", "traceEvents": [ <event>, ... ]}
//
// through JsonWriter, so escaping and punctuation live in one place. Times
// are simulated seconds, written as microseconds to 12 significant digits.
#pragma once

#include <ostream>
#include <string_view>

#include "common/json_writer.hpp"
#include "common/types.hpp"

namespace rupam {

class TraceEventWriter {
 public:
  explicit TraceEventWriter(std::ostream& os) : os_(os), w_(os) {
    w_.begin_object();
    w_.key("displayTimeUnit").value("ms");
    w_.key("traceEvents").begin_array();
  }
  /// Closes the event array and the wrapper and ends the line.
  void finish() {
    w_.end_array().end_object();
    os_ << "\n";
  }

  /// "M" metadata naming process `pid`.
  void process_name(long long pid, std::string_view name) {
    begin("M", {}, "process_name", pid, 0);
    w_.key("args").begin_object().key("name").value(name).end_object().end_object();
  }

  /// "X" slice covering [start, start + dur]; `args(json)` writes the
  /// members of its args object.
  template <typename ArgsFn>
  void slice(std::string_view cat, std::string_view name, long long pid, long long tid,
             SimTime start, SimTime dur, ArgsFn&& args) {
    begin("X", cat, name, pid, tid);
    time("ts", start);
    time("dur", dur);
    end(args);
  }

  /// Global-scope "i" instant; `args` as for slice().
  template <typename ArgsFn>
  void instant(std::string_view name, long long pid, long long tid, SimTime ts, ArgsFn&& args) {
    begin("i", {}, name, pid, tid);
    time("ts", ts);
    w_.key("s").value("g");
    end(args);
  }

  /// One end of flow arrow `id`: "s" at its start, else "f" bound to the
  /// enclosing slice (bp "e").
  void flow(bool start, std::string_view cat, std::string_view name, long long id, long long pid,
            long long tid, SimTime ts) {
    w_.begin_object();
    w_.key("ph").value(start ? "s" : "f");
    if (!start) w_.key("bp").value("e");
    w_.key("cat").value(cat);
    w_.key("name").value(name);
    w_.key("id").value(id);
    w_.key("pid").value(pid);
    w_.key("tid").value(tid);
    time("ts", ts);
    w_.end_object();
  }

 private:
  /// Opens an event: ph, cat (when given), name, pid, tid.
  void begin(const char* ph, std::string_view cat, std::string_view name, long long pid,
             long long tid) {
    w_.begin_object();
    w_.key("ph").value(ph);
    if (!cat.empty()) w_.key("cat").value(cat);
    w_.key("name").value(name);
    w_.key("pid").value(pid);
    w_.key("tid").value(tid);
  }
  void time(std::string_view key, SimTime t) { w_.key(key).value(t * 1e6, 12); }
  template <typename ArgsFn>
  void end(ArgsFn& args) {
    w_.key("args").begin_object();
    args(w_);
    w_.end_object().end_object();
  }

  std::ostream& os_;
  JsonWriter w_;
};

}  // namespace rupam
