// The paper's 5-node testbed (Table I).
//
//   Host      : Intel Core2 Quad Q9400 (4 cores, 2.66 GHz), 2 GB
//   SD node   : Intel Core2 Duo E4400 (2 cores, 2.00 GHz), 2 GB
//   Nodes x3  : Intel Celeron 450 (1 core, 2.2 GHz), 2 GB
//   Network   : 1000 Mbps switched Ethernet; NFS shares; Ubuntu 9.04.
//
// Core speeds are relative to one E4400 core (the reference core all
// AppProfile rates are quoted against).
#pragma once

#include <vector>

#include "cluster/models.hpp"
#include "cluster/smb.hpp"

namespace mcsd::sim {

/// Host computing node: Core2 Quad Q9400.
NodeSpec host_node();

/// McSD smart-storage node: Core2 Duo E4400.
NodeSpec sd_node_duo();

/// The same storage node restricted to one core — the "traditional
/// single-core SD" baseline of Fig. 9/10.
NodeSpec sd_node_single();

/// A quad-core storage platform (the Q9400 machine acting as SD) — the
/// "Quad" series of Fig. 8.
NodeSpec sd_node_quad();

/// General-purpose compute node: Celeron 450.
NodeSpec compute_node();

/// The complete testbed plus shared models.
struct Testbed {
  NodeSpec host;
  NodeSpec sd_duo;
  NodeSpec sd_single;
  NodeSpec sd_quad;
  std::vector<NodeSpec> compute;

  NfsModel nfs;
  SwapModel swap;
  SmbTraffic smb{SmbConfig{}};

  /// smartFAM invocation round trip: host writes the request log record,
  /// the SD drainer polls it up, the daemon dispatches, and the response
  /// record travels back.  Dominated by the two polling intervals.
  double fam_invocation_seconds = 0.02;

  /// Compute slowdown when two memory-hungry jobs co-run on one node
  /// (shared LLC and memory-bus contention) — applies to the host-only
  /// scenario, where MM and the data job fight over the same socket.
  double co_scheduling_interference = 1.3;
};

Testbed table1_testbed();

}  // namespace mcsd::sim
