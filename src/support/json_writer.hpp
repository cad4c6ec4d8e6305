/// \file json_writer.hpp
/// A minimal streaming JSON emitter. One shared implementation backs every
/// machine-readable artifact the repo produces — the conflux-bench report
/// (bench/suite), the confscope summary, and the Chrome-trace/Perfetto
/// export in support/telemetry — so the escaping and number-formatting
/// rules cannot drift between them. Header-only, no dependencies beyond the
/// standard library.
///
/// The writer is deliberately dumb: an explicit begin/end call per container
/// with comma state tracked on a stack. Callers own the structure; the
/// writer owns the syntax.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace conflux::support {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() {
    comma();
    os_ << '{';
    stack_.push_back(false);
  }
  void end_object() {
    stack_.pop_back();
    os_ << '}';
  }
  void begin_array() {
    comma();
    os_ << '[';
    stack_.push_back(false);
  }
  void end_array() {
    stack_.pop_back();
    os_ << ']';
  }

  /// Emit `"k":` — must be followed by exactly one value or container.
  void key(std::string_view k) {
    comma();
    write_string(k);
    os_ << ':';
    pending_value_ = true;
  }

  void value(std::string_view v) {
    comma();
    write_string(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(const std::string& v) { value(std::string_view(v)); }
  void value(bool v) {
    comma();
    os_ << (v ? "true" : "false");
  }
  void value(double v) {
    comma();
    // JSON has no NaN/Inf; clamp to null so the file stays parseable.
    if (!std::isfinite(v)) {
      os_ << "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os_ << buf;
  }
  // Integer overloads spell out the fundamental types (not the fixed-width
  // aliases) so the set stays collision-free whichever type int64_t names.
  void value(long long v) {
    comma();
    os_ << v;
  }
  void value(unsigned long long v) {
    comma();
    os_ << v;
  }
  void value(int v) { value(static_cast<long long>(v)); }
  void value(long v) { value(static_cast<long long>(v)); }
  void value(unsigned v) { value(static_cast<unsigned long long>(v)); }
  void value(unsigned long v) { value(static_cast<unsigned long long>(v)); }

  /// `"k": v` in one call.
  template <typename T>
  void kv(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

 private:
  // A comma is due before any element that is not the first of its
  // container, except immediately after a key.
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!stack_.empty()) {
      if (stack_.back()) os_ << ',';
      stack_.back() = true;
    }
  }

  void write_string(std::string_view s) {
    os_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<bool> stack_;  ///< per open container: "has at least one item"
  bool pending_value_ = false;
};

}  // namespace conflux::support
