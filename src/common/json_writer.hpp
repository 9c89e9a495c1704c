// Minimal streaming JSON emitter: objects, arrays, numbers, strings, bools
// and pre-serialized JSON values. Keys are trusted literals; string values
// are escaped. Output is byte-stable for identical inputs (fixed 10-digit
// precision), so same-seed exports byte-compare. Non-finite doubles are
// written as null. With `indent` > 0 every member and element starts on its
// own line; 0 writes compact JSON.
#pragma once

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <string_view>

namespace vcdl {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 0)
      : os_(os), indent_(indent) {
    os_ << std::setprecision(10);
  }

  /// Opens an anonymous object (top level or array element) or a member.
  void open_object() { open('{', nullptr); }
  void open_object(const char* key) { open('{', key); }
  void close_object() { close('}'); }
  void open_array(const char* key) { open('[', key); }
  void close_array() { close(']'); }

  void field(const char* key, double v) {
    member(key);
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
  }
  void field(const char* key, std::uint64_t v) { member(key); os_ << v; }
  void field(const char* key, bool v) { member(key); os_ << (v ? "true" : "false"); }
  void field(const char* key, const std::string& v) { member(key); quote(v); }
  // Without this overload a string literal would bind to the bool one.
  void field(const char* key, const char* v) { field(key, std::string(v)); }

  /// Member whose value is already-serialized JSON (trailing newlines
  /// dropped; inner lines re-indented to this depth).
  void raw(const char* key, std::string_view json) {
    member(key);
    while (!json.empty() && json.back() == '\n') json.remove_suffix(1);
    for (const char ch : json) {
      os_ << ch;
      if (ch == '\n') os_ << std::string(pad(), ' ');
    }
  }

 private:
  void open(char bracket, const char* key) {
    member(key);
    os_ << bracket;
    fresh_ = true;
    ++depth_;
  }
  void close(char bracket) {
    --depth_;
    if (!fresh_) newline();
    os_ << bracket;
    fresh_ = false;
  }
  // Separator, line break and key ahead of the next value; a null key is an
  // array element (or the top-level value).
  void member(const char* key) {
    if (!fresh_) os_ << ',';
    if (depth_ > 0) newline();
    fresh_ = false;
    if (key != nullptr) {
      quote(key);
      os_ << (indent_ > 0 ? ": " : ":");
    }
  }
  void newline() {
    if (indent_ > 0) os_ << '\n' << std::string(pad(), ' ');
  }
  std::size_t pad() const {
    return static_cast<std::size_t>(indent_) * static_cast<std::size_t>(depth_);
  }
  void quote(const std::string& s) {
    os_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') os_ << '\\';
      os_ << ch;
    }
    os_ << '"';
  }

  std::ostream& os_;
  int indent_;
  int depth_ = 0;
  bool fresh_ = true;
};

}  // namespace vcdl
