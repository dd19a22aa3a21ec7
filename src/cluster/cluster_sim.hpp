// Cluster-scale scheduling simulator (ROADMAP item 5).
//
// Scales the scenario engine from the paper's 5-node mirror to hundreds
// of nodes and thousands of arriving jobs, driven event by event through
// the DES core (des.hpp) rather than closed forms alone.  The pieces:
//
//   * Nodes — `sd_nodes` smart-storage nodes (duo-core E4400 template;
//     their disks hold the inputs) and `host_nodes` compute hosts
//     (quad-core Q9400 template; always read remotely).  Each node owns
//     a processor-sharing disk (sim::Resource) and a sim::MalleableCpu
//     that reallocates fractional core shares (fill_shares) at every
//     arrival, phase change, and departure — equal-share or SET-style
//     work-proportional.
//   * Fabric — one shared processor-sharing resource standing in for the
//     switch bisection; remote reads and shuffles contend on it.
//   * Jobs — each trace arrival is placed by a PlacementPolicy, then
//     walks read -> map compute -> shuffle -> reduce compute, with the
//     shuffle/reduce split taken from the kernel's AppProfile.  CPU work
//     is inflated by a per-co-runner interference factor (the memory-bus
//     penalty the Fig. 9 host-only scenario measures at 1.3 for two
//     jobs).
//
// Everything is virtual-time deterministic: one seed, one byte-identical
// result — `ClusterSimResult::digest()` is the equality probe the tests
// and bench gates use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/des.hpp"
#include "cluster/placement.hpp"
#include "cluster/testbed.hpp"
#include "cluster/trace.hpp"

namespace mcsd::sim {

struct ClusterSpec {
  std::size_t sd_nodes = 160;
  std::size_t host_nodes = 40;
  NodeSpec sd_template = sd_node_duo();
  NodeSpec host_template = host_node();
  ShareMode share_mode = ShareMode::kProportional;
  /// CPU-rate penalty per co-resident job (shared LLC + memory bus).
  double interference_per_job = 0.05;
  /// Fabric capacity in MiB/s; 0 derives nodes * NIC / 4 — a 4:1
  /// oversubscribed switch, the usual cheap-cluster shape.
  double fabric_mibps = 0.0;

  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return sd_nodes + host_nodes;
  }
  [[nodiscard]] double derived_fabric_mibps() const;
};

struct JobOutcome {
  double arrival_seconds = 0.0;
  double finish_seconds = 0.0;
  /// Least alone time over every placement the engine could make: the
  /// slowdown denominator, so slowdown() >= 1.
  double ideal_seconds = 0.0;
  std::size_t node = 0;
  bool remote_read = false;
  Kernel kernel = Kernel::kWordCount;
  std::uint64_t input_bytes = 0;

  [[nodiscard]] double response_seconds() const noexcept {
    return finish_seconds - arrival_seconds;
  }
  [[nodiscard]] double slowdown() const noexcept {
    return ideal_seconds > 0.0 ? response_seconds() / ideal_seconds : 0.0;
  }
};

struct ClusterSimResult {
  std::string policy;
  double makespan_seconds = 0.0;
  /// Busy core-seconds over cores * makespan, across all nodes.
  double cpu_utilization = 0.0;
  double fabric_utilization = 0.0;
  double disk_utilization = 0.0;  ///< mean over SD-node disks
  std::size_t remote_reads = 0;
  std::size_t events = 0;
  std::vector<JobOutcome> jobs;

  /// Slowdown-CDF summary points (computed by run_cluster_sim).
  double slowdown_mean = 0.0;
  double slowdown_p50 = 0.0;
  double slowdown_p95 = 0.0;
  double slowdown_p99 = 0.0;

  /// Fixed-format rendering of makespan + every job finish time: two
  /// runs are byte-identical iff their digests compare equal.
  [[nodiscard]] std::string digest() const;
};

/// Runs `trace` through the cluster under `policy`.  `seed` feeds the
/// policy's random stream only (arrivals are already materialised in the
/// trace).  Throws std::invalid_argument on an empty cluster.
ClusterSimResult run_cluster_sim(const ClusterSpec& spec,
                                 const std::vector<TraceJob>& trace,
                                 PlacementPolicy& policy,
                                 std::uint64_t seed = 1);

/// Work-conservation lower bound on the makespan of `trace` on `spec`:
/// max over the CPU, aggregate-disk, and fabric bottlenecks, floored by
/// the last arrival.  The fluid closed form the DES is validated against
/// — a balanced schedule should land within a modest factor of it.
double fluid_makespan_lower_bound(const ClusterSpec& spec,
                                  const std::vector<TraceJob>& trace);

}  // namespace mcsd::sim
