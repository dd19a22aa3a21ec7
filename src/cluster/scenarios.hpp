// Execution scenarios of the evaluation (Section V).
//
// Single-application runs (Fig. 8): one data-intensive app on one storage
// platform (duo or quad), in sequential / parallel-native / partitioned
// mode.
//
// Multi-application runs (Fig. 9, Fig. 10): a computation-intensive job
// (MM) paired with a data-intensive job (WC or SM), executed under four
// system configurations:
//   1. kHostOnly          — both jobs on the host node, sharing its cores
//                           on the DES MalleableCpu; the data job's
//                           input is pulled from the SD node over NFS.
//   2. kTraditionalSd     — MM on the host; data job runs *sequentially*
//                           on a single-core smart-storage node.
//   3. kMcsdNoPartition   — MM on the host; data job parallel (stock
//                           Phoenix) on the duo-core McSD node.
//   4. kMcsdPartitioned   — the full McSD framework: MM on the host, data
//                           job partition-enabled on the duo-core McSD
//                           node.  This is the speedup reference.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/jobmodel.hpp"
#include "cluster/testbed.hpp"

namespace mcsd::sim {

// ---------------------------------------------------------------------
// Single application (Fig. 8)
// ---------------------------------------------------------------------

struct SingleAppResult {
  JobCost cost;
  [[nodiscard]] bool completed() const noexcept { return cost.completed; }
  [[nodiscard]] double seconds() const noexcept { return cost.total_seconds(); }
};

/// Runs `app` on storage `platform` in the given mode.
/// `partition_size` only applies to kParallelPartitioned (0 = auto).
SingleAppResult run_single_app(const Testbed& tb, const NodeSpec& platform,
                               const AppProfile& app, std::uint64_t input_bytes,
                               ExecMode mode, std::uint64_t partition_size = 0);

// ---------------------------------------------------------------------
// Multi application (Fig. 9 / Fig. 10)
// ---------------------------------------------------------------------

enum class PairScenario : std::uint8_t {
  kHostOnly,
  kTraditionalSd,
  kMcsdNoPartition,
  kMcsdPartitioned,
};

[[nodiscard]] constexpr const char* to_string(PairScenario s) noexcept {
  switch (s) {
    case PairScenario::kHostOnly: return "host-only";
    case PairScenario::kTraditionalSd: return "traditional-sd";
    case PairScenario::kMcsdNoPartition: return "mcsd-no-partition";
    case PairScenario::kMcsdPartitioned: return "mcsd-partitioned";
  }
  return "?";
}

struct PairResult {
  PairScenario scenario{};
  bool completed = true;
  std::string note;               ///< failure reason when !completed
  double makespan_seconds = 0.0;
  double compute_job_seconds = 0.0;  ///< MM finish time
  double data_job_seconds = 0.0;     ///< WC/SM finish time (incl. FAM + NFS)
  JobCost data_job_cost;             ///< detailed data-job breakdown
};

/// The MM partner's operand volume, as a fraction of the data job's input
/// (the paper sweeps only the data size; the compute job is fixed-shape —
/// we scale it along so both jobs stay comparable across the sweep).
inline constexpr double kComputeJobBytesFraction = 0.25;

/// Runs one MM + data-app pair under `scenario`.
/// `partition_size` is the fragment size used in partition-enabled modes
/// (the paper fixes 600 MB).
PairResult run_pair(const Testbed& tb, PairScenario scenario,
                    const AppProfile& compute_app, const AppProfile& data_app,
                    std::uint64_t data_bytes, std::uint64_t partition_size);

/// Speedup as the paper defines it: "the ratio of the elapsed time
/// without the optimization technique to that with the McSD technique".
/// Returns 0 when either run failed.
double speedup_vs(const PairResult& scenario, const PairResult& mcsd_reference);

}  // namespace mcsd::sim
