#include "cluster/scenarios.hpp"

#include <algorithm>

#include "cluster/des.hpp"

namespace mcsd::sim {

namespace {

/// NFS pull of the data job's input from the SD node to the host, under
/// SMB background load (the host participates in the routine work, the
/// SD node does not — Section V-A).
double nfs_pull_seconds(const Testbed& tb, std::uint64_t bytes) {
  const double background = tb.smb.utilization_for(
      /*a_participates=*/true, /*b_participates=*/false, tb.host.nic);
  return tb.nfs.transfer_seconds(bytes, tb.host.nic, tb.sd_duo.nic,
                                 background);
}

/// Reference-core-seconds of one job's parallelisable work.
double parallel_work_ref_seconds(const AppProfile& app,
                                 std::uint64_t input_bytes) {
  return static_cast<double>(input_bytes) / kMiBd * app.seconds_per_mib *
         app.parallel_fraction;
}

double serial_compute_ref_seconds(const AppProfile& app,
                                  std::uint64_t input_bytes) {
  return static_cast<double>(input_bytes) / kMiBd * app.seconds_per_mib *
         (1.0 - app.parallel_fraction);
}

}  // namespace

SingleAppResult run_single_app(const Testbed& tb, const NodeSpec& platform,
                               const AppProfile& app,
                               std::uint64_t input_bytes, ExecMode mode,
                               std::uint64_t partition_size) {
  JobSpec job;
  job.app = app;
  job.input_bytes = input_bytes;
  job.mode = mode;
  job.partition_size = partition_size;
  SingleAppResult result;
  result.cost = model_job(platform, job, platform.usable_memory(), tb.swap);
  return result;
}

PairResult run_pair(const Testbed& tb, PairScenario scenario,
                    const AppProfile& compute_app, const AppProfile& data_app,
                    std::uint64_t data_bytes, std::uint64_t partition_size) {
  PairResult result;
  result.scenario = scenario;

  const auto compute_bytes = static_cast<std::uint64_t>(
      kComputeJobBytesFraction * static_cast<double>(data_bytes));

  JobSpec compute_job;
  compute_job.app = compute_app;
  compute_job.input_bytes = compute_bytes;
  compute_job.mode = ExecMode::kParallelNative;

  JobSpec data_job;
  data_job.app = data_app;
  data_job.input_bytes = data_bytes;

  switch (scenario) {
    case PairScenario::kHostOnly: {
      // Both jobs co-scheduled on the host; the data input crosses NFS.
      data_job.mode = ExecMode::kParallelNative;
      const auto compute_footprint = static_cast<std::uint64_t>(
          compute_app.footprint_factor * static_cast<double>(compute_bytes));
      const std::uint64_t host_mem = tb.host.usable_memory();
      const std::uint64_t data_available =
          host_mem > compute_footprint ? host_mem - compute_footprint : 0;

      const JobCost compute_cost =
          model_job(tb.host, compute_job,
                    host_mem > 0 ? host_mem : 0, tb.swap);
      const JobCost data_cost =
          model_job(tb.host, data_job, data_available, tb.swap);
      result.data_job_cost = data_cost;
      if (!data_cost.completed) {
        result.completed = false;
        result.note = "data job: " + data_cost.failure;
        return result;
      }

      const double pull = nfs_pull_seconds(tb, data_bytes);
      // Both jobs' CPU work inflates by the shared-socket interference
      // factor (LLC + memory-bus contention between MM and WC/SM), so the
      // server itself runs with interference 0.
      const double interf = tb.co_scheduling_interference;
      const double speed = tb.host.cpu.core_speed;
      Simulator sim;
      MalleableCpu host_cpu{sim, tb.host.cpu.cores, speed, 0.0,
                            ShareMode::kEqualShare};
      host_cpu.submit(
          compute_cost.serial_seconds() +
              interf * serial_compute_ref_seconds(compute_app, compute_bytes) /
                  speed,
          interf * parallel_work_ref_seconds(compute_app, compute_bytes),
          [&] { result.compute_job_seconds = sim.now(); });
      // The data job's input arrives over NFS, not the host disk: its
      // serial share replaces the modelled local read with the pull.
      const double data_serial = pull + data_cost.thrash_seconds +
                                 data_cost.overhead_seconds +
                                 data_cost.write_seconds;
      host_cpu.submit(
          data_serial +
              interf * serial_compute_ref_seconds(data_app, data_bytes) /
                  speed,
          interf * parallel_work_ref_seconds(data_app, data_bytes),
          [&] { result.data_job_seconds = sim.now(); });
      sim.run();
      result.makespan_seconds =
          std::max(result.compute_job_seconds, result.data_job_seconds);
      return result;
    }

    case PairScenario::kTraditionalSd: {
      // MM alone on the host; the data job runs *sequentially* on the
      // single-core smart-storage node, invoked through smartFAM.
      data_job.mode = ExecMode::kSequential;
      const JobCost compute_cost = model_job(tb.host, compute_job);
      const JobCost data_cost = model_job(tb.sd_single, data_job,
                                          tb.sd_single.usable_memory(),
                                          tb.swap);
      result.data_job_cost = data_cost;
      result.compute_job_seconds = compute_cost.total_seconds();
      result.data_job_seconds =
          tb.fam_invocation_seconds + data_cost.total_seconds();
      result.completed = compute_cost.completed && data_cost.completed;
      if (!data_cost.completed) result.note = "data job: " + data_cost.failure;
      result.makespan_seconds =
          std::max(result.compute_job_seconds, result.data_job_seconds);
      return result;
    }

    case PairScenario::kMcsdNoPartition:
    case PairScenario::kMcsdPartitioned: {
      // MM alone on the host; the data job on the duo-core McSD node,
      // invoked through smartFAM.
      data_job.mode = scenario == PairScenario::kMcsdPartitioned
                          ? ExecMode::kParallelPartitioned
                          : ExecMode::kParallelNative;
      data_job.partition_size =
          scenario == PairScenario::kMcsdPartitioned ? partition_size : 0;
      const JobCost compute_cost = model_job(tb.host, compute_job);
      const JobCost data_cost = model_job(tb.sd_duo, data_job,
                                          tb.sd_duo.usable_memory(), tb.swap);
      result.data_job_cost = data_cost;
      result.compute_job_seconds = compute_cost.total_seconds();
      result.data_job_seconds =
          tb.fam_invocation_seconds + data_cost.total_seconds();
      result.completed = compute_cost.completed && data_cost.completed;
      if (!data_cost.completed) result.note = "data job: " + data_cost.failure;
      result.makespan_seconds =
          std::max(result.compute_job_seconds, result.data_job_seconds);
      return result;
    }
  }
  return result;
}

double speedup_vs(const PairResult& scenario,
                  const PairResult& mcsd_reference) {
  if (!scenario.completed || !mcsd_reference.completed ||
      mcsd_reference.makespan_seconds <= 0.0) {
    return 0.0;
  }
  return scenario.makespan_seconds / mcsd_reference.makespan_seconds;
}

}  // namespace mcsd::sim
