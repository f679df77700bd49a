// Minimal JSON writer shared by the telemetry exporters and the serve
// replies.
//
// No DOM: values append straight to a caller-owned std::string with
// commas managed per nesting level, and escaping happens in place, so a
// document costs no allocation beyond the string's own growth.  Stream
// callers write the string out.  Doubles render in std::to_chars
// shortest round-trip form (never locale-dependent, never "1,5");
// non-finite values become null, which every checker downstream treats
// as "absent".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sda::metrics {

/// Escapes a string body per RFC 8259 (quotes not included).
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  /// Appends to @p out, which must outlive the writer.
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; the next value/begin_* call is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  // Without this, a string literal would convert to bool, not string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  /// key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void mark_element();
  void comma_for_value();
  void push_level();

  std::string& out_;
  /// Bit d set: the container open at depth d already holds an element
  /// (the next one needs a leading comma).  Depth is capped at 64.
  std::uint64_t has_elements_ = 0;
  int depth_ = 0;
  bool pending_key_ = false;
};

}  // namespace sda::metrics
