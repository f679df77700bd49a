#include "src/metrics/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace sda::metrics {

namespace {

/// Appends @p s escaped per RFC 8259 (quotes not included) to @p out.
void json_escape_append(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
          out.append(esc, sizeof esc);
        } else {
          out += c;
        }
      }
    }
  }
}

template <typename T>
void append_number(std::string& out, T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape_append(out, s);
  return out;
}

void JsonWriter::mark_element() {
  if (depth_ == 0) return;
  const std::uint64_t bit = std::uint64_t{1} << (depth_ - 1);
  if ((has_elements_ & bit) != 0) out_ += ',';
  has_elements_ |= bit;
}

void JsonWriter::comma_for_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already wrote its comma
  }
  mark_element();
}

void JsonWriter::push_level() {
  if (depth_ == 64) throw std::length_error("JsonWriter: nesting above 64");
  has_elements_ &= ~(std::uint64_t{1} << depth_);
  ++depth_;
}

JsonWriter& JsonWriter::begin_object() {
  comma_for_value();
  out_ += '{';
  push_level();
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  --depth_;
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_for_value();
  out_ += '[';
  push_level();
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  --depth_;
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  mark_element();
  out_ += '"';
  json_escape_append(out_, k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_for_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_for_value();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_for_value();
  out_ += '"';
  json_escape_append(out_, v);
  out_ += '"';
  return *this;
}

}  // namespace sda::metrics
