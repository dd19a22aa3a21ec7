// A small discrete-event simulation (DES) core and its one fluid-share
// server.
//
// The figure benches use closed-form models (cluster/models.hpp) because
// they are deterministic and auditable.  Closed forms embed assumptions
// — fair sharing, fluid bandwidth splitting — that deserve checking; this
// DES provides the machinery to replay the same situations event by
// event and compare (tests/test_sim_des.cpp, bench_des_validation).
//
// Design: classic event-list simulation.
//   * Simulator owns the virtual clock and a time-ordered event queue.
//   * MalleableCpu is the one fluid-share server.  Every resident task
//     holds a fractional core share, water-filled (fill_shares) at each
//     arrival, phase boundary and departure; completions go back
//     through the event queue.  It runs the Fig. 9/10 host-only pair,
//     every node CPU of the cluster simulator, and — as Resource —
//     every disk and link.
//   * Resource is the one-core case: `capacity` units of service per
//     second split equally among active jobs (processor sharing, the
//     fluid model of a fair NIC/disk).
//
// Processor sharing is exactly what TCP flows on one link or CFQ-ish disk
// scheduling approximate, and what the analytic `(1 - utilization)`
// factor linearises — making the two comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace mcsd::sim {

using SimTime = double;  ///< seconds of virtual time

class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute time `when` (>= now).
  void schedule_at(SimTime when, Handler handler);
  /// Schedules `handler` `delay` seconds from now.
  void schedule_in(SimTime delay, Handler handler);

  /// Runs until the event queue drains (or `until`, if positive).
  void run(SimTime until = -1.0);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t events_processed() const noexcept {
    return events_processed_;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  ///< FIFO among simultaneous events
    Handler handler;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
};

/// How a server splits its cores among resident tasks.
///   * kEqualShare   — the OS's fair scheduler: equal shares (capped,
///                     surplus redistributed), the classic malleable-
///                     task fluid model.
///   * kProportional — work-proportional partitioning in the style of
///                     SET-ISCA2023's Cluster::try_alloc: a task's share
///                     is weighted by its remaining work, so co-runners
///                     converge toward a common finish.
enum class ShareMode : std::uint8_t {
  kEqualShare,
  kProportional,
};

[[nodiscard]] constexpr const char* to_string(ShareMode mode) noexcept {
  switch (mode) {
    case ShareMode::kEqualShare: return "equal";
    case ShareMode::kProportional: return "proportional";
  }
  return "?";
}

/// One claimant in a share allocation round.
struct ShareSlot {
  double cap = 0.0;     ///< max cores this claimant can use (inf ok)
  double weight = 1.0;  ///< proportional weight (remaining work); ignored
                        ///< by kEqualShare
  double share = 0.0;   ///< out: granted cores (fractional)
};

/// Water-filling core allocator of MalleableCpu.  kEqualShare splits
/// `cores` equally (capped, surplus recycled); kProportional splits by
/// `weight` the way SET's try_alloc partitions cores by per-child ops.
/// Claimants with nonpositive cap or weight get share 0.
void fill_shares(std::vector<ShareSlot>& slots, double cores, ShareMode mode);

/// The fluid-share server.  A task is (serial wall-seconds, parallel
/// reference-core-seconds): serial work runs first on at most one core,
/// at wall rate min(share, 1); parallel work runs at share * core_speed,
/// divided by the co-runner interference factor
/// 1 + interference_per_job * (tasks - 1).
class MalleableCpu {
 public:
  using Completion = std::function<void()>;

  /// Throws std::invalid_argument unless cores > 0 and core_speed > 0.
  MalleableCpu(Simulator& sim, std::size_t cores, double core_speed,
               double interference_per_job, ShareMode mode);

  /// Submits a task; `done` fires at completion.  Completions are always
  /// dispatched through the event queue — a zero-work submit completes
  /// at `now`, in seq order with any other events scheduled for that
  /// instant, never synchronously inside submit().  Simultaneous
  /// finishes complete in submission order, so a replay is
  /// deterministic and a completion may submit more work without
  /// reentering the server.  Throws std::invalid_argument on negative
  /// work.
  void submit(double serial_wall_seconds, double parallel_ref_work,
              Completion done);

  /// Outstanding work in reference-core-seconds as of now — the backlog
  /// a placement policy sees.
  [[nodiscard]] double outstanding_ref_seconds();

  [[nodiscard]] double core_speed() const noexcept { return core_speed_; }
  [[nodiscard]] std::size_t active_tasks() const noexcept {
    return tasks_.size();
  }
  /// Core-seconds of occupancy accumulated so far (serial holds its
  /// core, parallel holds its full share even while interference slows
  /// it — busy-but-less-efficient cores are still busy).
  [[nodiscard]] double busy_core_seconds() const noexcept {
    return busy_core_seconds_;
  }

 private:
  struct Task {
    double serial_left;    ///< wall-seconds on one local core
    double parallel_left;  ///< reference-core-seconds
    double share = 0.0;    ///< granted cores under the current allocation
    Completion done;
  };

  [[nodiscard]] double interference_factor() const noexcept;
  /// Seconds until `task` ends its current phase at its current share.
  [[nodiscard]] double phase_seconds(const Task& task, double infl) const;
  void refill_shares();
  /// Advances every task to `sim_.now()`.
  void advance_to_now();
  /// Retires finished tasks and arms the timer for the next boundary.
  void reschedule();

  Simulator& sim_;
  double cores_;
  double core_speed_;
  double interference_;
  ShareMode mode_;
  std::map<std::uint64_t, Task> tasks_;
  std::vector<ShareSlot> slots_;
  std::uint64_t next_id_ = 0;
  SimTime last_update_ = 0.0;
  std::uint64_t timer_epoch_ = 0;  ///< invalidates stale boundary events
  double busy_core_seconds_ = 0.0;
};

/// A processor-sharing resource: `capacity` units of service per second,
/// split equally among all in-flight jobs.  Models a fair link (capacity
/// = MiB/s) or a time-sliced CPU (capacity = core-seconds/second).  It
/// is a one-core MalleableCpu running at speed `capacity` with parallel-
/// only work, so it inherits the server's dispatch discipline.
class Resource {
 public:
  using Completion = MalleableCpu::Completion;

  /// Throws std::invalid_argument unless capacity > 0.
  Resource(Simulator& sim, std::string name, double capacity)
      : name_(std::move(name)),
        server_(sim, 1, capacity, 0.0, ShareMode::kEqualShare) {}

  /// Submits a job needing `work` units; `done` fires at completion
  /// (see MalleableCpu::submit).
  void submit(double work, Completion done) {
    server_.submit(0.0, work, std::move(done));
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double capacity() const noexcept {
    return server_.core_speed();
  }
  [[nodiscard]] std::size_t active_jobs() const noexcept {
    return server_.active_tasks();
  }
  /// Total work served so far (for utilisation accounting).
  [[nodiscard]] double work_served() const noexcept {
    return server_.busy_core_seconds() * capacity();
  }
  /// Remaining work across in-flight jobs as of the current sim time.
  [[nodiscard]] double outstanding_work() {
    return server_.outstanding_ref_seconds();
  }

 private:
  std::string name_;
  MalleableCpu server_;
};

}  // namespace mcsd::sim
