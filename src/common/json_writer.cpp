#include "common/json_writer.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rupam {

void write_json_string(std::ostream& os, std::string_view in) {
  os.put('"');
  for (char c : in) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os.put(c);
        }
    }
  }
  os.put('"');
}

std::string json_number(double value, int precision) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

JsonWriter::JsonWriter(std::ostream& os, bool pretty) : os_(os), pretty_(pretty) {}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;  // the key already handled comma + indent
  }
  if (!stack_.empty()) {
    Frame& top = stack_.back();
    if (!top.array) {
      throw std::logic_error("JsonWriter: value inside an object requires key()");
    }
    if (!top.first) os_ << ',';
    top.first = false;
    newline_indent();
  } else if (started_) {
    throw std::logic_error("JsonWriter: multiple top-level values");
  }
  started_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame{/*array=*/false, /*first=*/true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().array || key_pending_) {
    throw std::logic_error("JsonWriter: mismatched end_object");
  }
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame{/*array=*/true, /*first=*/true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || !stack_.back().array) {
    throw std::logic_error("JsonWriter: mismatched end_array");
  }
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back().array || key_pending_) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  Frame& top = stack_.back();
  if (!top.first) os_ << ',';
  top.first = false;
  newline_indent();
  write_json_string(os_, name);
  os_ << (pretty_ ? ": " : ":");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  write_json_string(os_, v);
  return *this;
}

JsonWriter& JsonWriter::value(double v, int precision) {
  before_value();
  os_ << json_number(v, precision);
  return *this;
}

JsonWriter& JsonWriter::value(long long v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(unsigned long long v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view rendered) {
  before_value();
  os_ << rendered;
  return *this;
}

}  // namespace rupam
