// Minimal JSON writer for the benchmark's result lines.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>

namespace mcsdbench {

/// Shortest round-trip text for a double (all its digits, no rounding).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "null";
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Builds one object; keys are written in insertion order.
class JsonObject {
 public:
  void add_raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_string(key);
    body_ += ": ";
    body_ += json;
  }
  void add_number(std::string_view key, double v) {
    add_raw(key, json_number(v));
  }
  void add_string(std::string_view key, std::string_view v) {
    add_raw(key, json_string(v));
  }
  void add_bool(std::string_view key, bool v) {
    add_raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace mcsdbench
