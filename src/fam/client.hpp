// The host-node side of smartFAM (Fig. 5, "Returning results ... to a
// host node").
//
// Client::invoke appends a request frame to the mailbox log its slot
// hashes to and waits for the daemon's reply frame with the matching
// sequence number in the slot's private reply log.  Each concurrent
// invoke holds its own slot (client id + seq space + reply log), so
// callers never serialise on one another; the daemon's `channel.mcsd`
// manifest tells the client how many mailboxes there are.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "fam/protocol.hpp"

namespace mcsd::fam {

struct ClientOptions {
  std::filesystem::path log_dir;
  /// How often the client re-checks its reply log (and, before the
  /// daemon exists, the channel manifest) while waiting.
  std::chrono::milliseconds poll_interval{1};
  /// Give up on one attempt after this long without a response.
  std::chrono::milliseconds timeout{10'000};
  /// Total attempts per invoke (>= 1).  A retry re-sends under the
  /// slot's next seq; the daemon admits each seq once per client, so a
  /// re-send can never be answered twice.  Retries paper over a storage
  /// node that was still booting, a request frame lost to a torn append,
  /// and transient I/O failures appending the request itself.
  int max_attempts = 1;
  /// Tenant label stamped on requests for daemon-side QoS accounting
  /// ("" = the default tenant).
  std::string tenant;
  /// How many typed retry-after backpressure rejections one invoke
  /// absorbs (honoured with jittered exponential backoff) before
  /// surfacing kUnavailable.  Separate from max_attempts: a rejection is
  /// the daemon talking, not a lost request.
  int max_backpressure_retries = 10;
};

/// Per-invoke metadata the caller may opt into (tools print it, the soak
/// harness asserts on it).  Filled from the successful response record.
struct InvokeInfo {
  /// Result-cache participation reported by the daemon (kNone when the
  /// invocation was not cacheable or the daemon runs without a cache).
  CacheState cache = CacheState::kNone;
  /// Cache entry epoch (0 = absent); see Record::cache_epoch.
  std::uint64_t cache_epoch = 0;
  /// Request write .. response observed, as measured by this client.
  double round_trip_seconds = 0.0;
  /// How many coalesced requests shared this module run (1 = solo run).
  std::uint64_t waiters = 0;
  /// Typed backpressure rejections absorbed before this invoke succeeded.
  int backpressure_retries = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options);

  /// Offloads one invocation: writes the request, blocks until the
  /// response arrives (or timeout).  Returns the module's result map, or
  /// the module's error / kTimeout / kProtocolError.  `info`, when
  /// non-null, receives per-invoke metadata on success.
  Result<KeyValueMap> invoke(std::string_view module,
                             const KeyValueMap& params,
                             InvokeInfo* info = nullptr);

  /// True if the module's log file exists — i.e. the daemon preloaded it.
  [[nodiscard]] bool module_available(std::string_view module) const;

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  /// One concurrent-invoke identity: a unique client id (fresh seq space,
  /// so cross-client collisions vanish by construction) plus its private
  /// reply log.  Slots are pooled and reused across invokes; each holds
  /// at most one request in flight.
  struct Slot {
    std::uint64_t client_id = 0;
    std::uint64_t next_seq = 1;
    /// Byte cursor into the append-only reply log: replies already
    /// decoded are never re-read.
    std::uint64_t reply_offset = 0;
  };

  /// The daemon's shard count from its channel manifest, polling for the
  /// manifest up to options_.timeout.  0 when none appeared in time.
  std::size_t await_channel();

  ClientOptions options_;
  std::mutex mutex_;  ///< guards shard_count_ and free_slots_
  std::size_t shard_count_ = 0;  ///< 0 until a manifest has been read
  std::vector<std::unique_ptr<Slot>> free_slots_;
  std::atomic<std::uint64_t> invocations_{0};
};

}  // namespace mcsd::fam
