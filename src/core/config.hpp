// Key=value configuration records.
//
// This doubles as the payload syntax of the smartFAM log-file protocol
// (Section IV-A of the paper: "the host writes the input parameters to the
// log file"): one `key=value` pair per line, `#` comments, values with
// embedded newlines percent-escaped.  Keeping the FAM payload humanly
// readable matches the paper's debugging story — you can inspect a module
// invocation with `cat`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.hpp"

namespace mcsd {

class KeyValueMap {
 public:
  KeyValueMap() = default;

  /// Parses one record.  Lines: `key=value`, blank, or `# comment`.
  /// Keys must be non-empty and contain no '=', whitespace, or '%'.
  static Result<KeyValueMap> parse(std::string_view text);

  /// Serialises deterministically (keys sorted) so identical maps produce
  /// byte-identical log records — the result cache keys on it.
  [[nodiscard]] std::string serialize() const;

  void set(std::string key, std::string value);
  void set_int(std::string key, std::int64_t value);
  void set_uint(std::string key, std::uint64_t value);
  void set_double(std::string key, double value);
  void set_bool(std::string key, bool value);

  [[nodiscard]] bool contains(std::string_view key) const;
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;
  [[nodiscard]] Result<std::int64_t> get_int(std::string_view key) const;
  [[nodiscard]] Result<std::uint64_t> get_uint(std::string_view key) const;
  [[nodiscard]] Result<double> get_double(std::string_view key) const;
  [[nodiscard]] Result<bool> get_bool(std::string_view key) const;

  /// `get` with a fallback when the key is absent (malformed still errors).
  [[nodiscard]] std::string get_or(std::string_view key,
                                   std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int_or(std::string_view key,
                                        std::int64_t fallback) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const std::map<std::string, std::string>& entries() const noexcept {
    return entries_;
  }

  bool operator==(const KeyValueMap&) const = default;

 private:
  std::map<std::string, std::string> entries_;
};

/// Percent-escapes '%', '\n', '\r', '=' so any byte string survives the
/// line-oriented record format.
std::string escape_value(std::string_view raw);
Result<std::string> unescape_value(std::string_view escaped);

}  // namespace mcsd
