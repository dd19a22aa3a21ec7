// The benchmark's own spans: recorded at two layer boundaries from the
// benchmark's files, kept in memory, and written out once as a
// chrome://tracing file when the run ends.
//
//   client:<module>  around each fam::Client::invoke (host side)
//   module:<module>  around each fam::Module::invoke (inside the daemon)
//
// Spans of one request share an id: the request's canonical parameter
// string, which carries its unique nonce where it has one.  A coalesced
// batch runs the module once, so one module span serves every client span
// with its id that encloses it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fam/module.hpp"

namespace mcsdbench {

struct Span {
  std::string name;
  std::string id;
  std::int64_t start_ns = 0;  ///< steady clock, relative to the log epoch
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::string cache;  ///< client spans: the reply's cache state

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Off by default; while off, record() is never reached (callers test
  /// enabled() first), so the untraced run pays one relaxed load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes every span as a complete ("X") event, plus `metadata_json`
  /// under the top-level key "mcsdbench".  Returns false on I/O failure.
  bool write_chrome_trace(const std::filesystem::path& path,
                          const std::string& metadata_json) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Small stable per-thread id for trace rows.
std::uint32_t this_thread_tid();

/// Wraps one apps module for preloading: forwards name() and
/// cache_inputs() so the daemon caches and coalesces exactly as it does
/// for the bare module, and records a module span around invoke() while
/// the log is enabled.
class TracedModule final : public mcsd::fam::Module {
 public:
  TracedModule(std::shared_ptr<mcsd::fam::Module> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  mcsd::Result<mcsd::KeyValueMap> invoke(
      const mcsd::KeyValueMap& params) override;
  [[nodiscard]] std::optional<std::vector<std::filesystem::path>> cache_inputs(
      const mcsd::KeyValueMap& params) const override {
    return inner_->cache_inputs(params);
  }

 private:
  std::shared_ptr<mcsd::fam::Module> inner_;
  SpanLog& log_;
};

}  // namespace mcsdbench
