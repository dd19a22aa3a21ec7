#include "cluster/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/trace.hpp"

namespace mcsd::sim {
namespace {

// --- trace generators ---------------------------------------------------

TEST(Trace, ProducesRequestedJobCountTimeOrdered) {
  TraceOptions opt;
  opt.jobs = 500;
  opt.horizon_seconds = 100.0;
  const auto trace = generate_trace(opt, 16);
  ASSERT_EQ(trace.size(), 500u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival_seconds, trace[i - 1].arrival_seconds);
  }
  for (const TraceJob& job : trace) {
    EXPECT_LT(job.home_node, 16u);
    EXPECT_GE(job.input_bytes, opt.min_bytes);
    EXPECT_LE(job.input_bytes, opt.max_bytes);
  }
}

TEST(Trace, DeterministicUnderFixedSeed) {
  TraceOptions opt;
  opt.jobs = 200;
  opt.seed = 42;
  const auto a = generate_trace(opt, 8);
  const auto b = generate_trace(opt, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_EQ(a[i].input_bytes, b[i].input_bytes);
    EXPECT_EQ(a[i].home_node, b[i].home_node);
  }
}

TEST(Trace, SeedChangesTheTrace) {
  TraceOptions a_opt;
  a_opt.jobs = 100;
  a_opt.seed = 1;
  TraceOptions b_opt = a_opt;
  b_opt.seed = 2;
  const auto a = generate_trace(a_opt, 8);
  const auto b = generate_trace(b_opt, 8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival_seconds != b[i].arrival_seconds;
  }
  EXPECT_TRUE(differs);
}

/// Coefficient of variation of inter-arrival gaps: 1 for Poisson,
/// substantially above 1 for a bursty (MMPP) stream.
double interarrival_cov(const std::vector<TraceJob>& trace) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    gaps.push_back(trace[i].arrival_seconds - trace[i - 1].arrival_seconds);
  }
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  return std::sqrt(var) / mean;
}

TEST(Trace, BurstyStreamIsBurstierThanPoisson) {
  TraceOptions opt;
  opt.jobs = 4000;
  opt.horizon_seconds = 600.0;
  opt.kind = TraceKind::kPoisson;
  const double poisson_cov = interarrival_cov(generate_trace(opt, 32));
  opt.kind = TraceKind::kBursty;
  const double bursty_cov = interarrival_cov(generate_trace(opt, 32));
  EXPECT_NEAR(poisson_cov, 1.0, 0.15);
  EXPECT_GT(bursty_cov, poisson_cov * 1.3);
}

TEST(Trace, ZipfMixSkewsTowardSmallJobs) {
  TraceOptions opt;
  opt.jobs = 4000;
  opt.kind = TraceKind::kZipfMix;
  const auto trace = generate_trace(opt, 32);
  std::size_t at_min = 0;
  bool saw_large = false;
  for (const TraceJob& job : trace) {
    if (job.input_bytes == opt.min_bytes) ++at_min;
    if (job.input_bytes >= opt.max_bytes / 2) saw_large = true;
  }
  // Rank 0 of the zipf ladder dominates; the elephant tail still shows.
  EXPECT_GT(at_min, trace.size() / 3);
  EXPECT_TRUE(saw_large);
}

TEST(Trace, RejectsBadOptions) {
  TraceOptions opt;
  EXPECT_THROW(generate_trace(opt, 0), std::invalid_argument);
  opt.jobs = 0;
  EXPECT_THROW(generate_trace(opt, 4), std::invalid_argument);
  opt.jobs = 10;
  opt.min_bytes = 2 * opt.max_bytes;
  EXPECT_THROW(generate_trace(opt, 4), std::invalid_argument);
}

// --- placement policies -------------------------------------------------

std::vector<NodeView> two_node_views() {
  NodeView sd;
  sd.index = 0;
  sd.is_sd = true;
  sd.cores = 2;
  sd.core_speed = 1.0;
  sd.disk_mibps = 150.0;
  NodeView host;
  host.index = 1;
  host.is_sd = false;
  host.cores = 4;
  host.core_speed = 1.33;
  host.disk_mibps = 150.0;
  return {sd, host};
}

TEST(Placement, FactoryKnowsAllPolicies) {
  EXPECT_NE(make_policy("random"), nullptr);
  EXPECT_NE(make_policy("greedy"), nullptr);
  EXPECT_NE(make_policy("contention"), nullptr);
  EXPECT_EQ(make_policy("psychic"), nullptr);
}

TEST(Placement, GreedyPicksLeastLoadedLowestIndexOnTies) {
  auto views = two_node_views();
  views[0].running_jobs = 3;
  views[1].running_jobs = 1;
  TraceJob job;
  PlacementContext ctx;
  Rng rng{1};
  GreedyPlacement greedy;
  EXPECT_EQ(greedy.place(job, views, ctx, rng), 1u);
  views[0].running_jobs = 1;
  EXPECT_EQ(greedy.place(job, views, ctx, rng), 0u);
}

TEST(Placement, ContentionPrefersIdleLocalHome) {
  // Data on node 0, everything idle, a congested fabric: the local read
  // (512 MiB / 150 MiB/s ~ 3.4 s) plus duo compute beats a 10+ s fabric
  // pull even onto the faster host cores, so home wins.
  auto views = two_node_views();
  TraceJob job;
  job.kernel = Kernel::kWordCount;
  job.input_bytes = 512ULL << 20;
  job.home_node = 0;
  PlacementContext ctx;
  ctx.fabric_mibps = 50.0;
  Rng rng{1};
  ContentionAwarePlacement contention;
  EXPECT_EQ(contention.place(job, views, ctx, rng), 0u);
}

TEST(Placement, ContentionAvoidsBackloggedHome) {
  // Same job, but the home node is buried in CPU backlog: the estimate
  // must route it to the idle host even at the price of a remote read.
  auto views = two_node_views();
  views[0].running_jobs = 6;
  views[0].cpu_backlog_ref_seconds = 5000.0;
  TraceJob job;
  job.kernel = Kernel::kWordCount;
  job.input_bytes = 512ULL << 20;
  job.home_node = 0;
  PlacementContext ctx;
  ctx.fabric_mibps = 1000.0;
  ctx.interference_per_job = 0.05;
  Rng rng{1};
  ContentionAwarePlacement contention;
  EXPECT_EQ(contention.place(job, views, ctx, rng), 1u);
}

TEST(Placement, EstimateChargesBacklogAndInterference) {
  auto views = two_node_views();
  TraceJob job;
  job.kernel = Kernel::kWordCount;
  job.input_bytes = 512ULL << 20;
  job.home_node = 0;
  PlacementContext ctx;
  ctx.fabric_mibps = 1000.0;
  ctx.interference_per_job = 0.05;
  const double idle =
      ContentionAwarePlacement::estimate_seconds(job, views[0], ctx);
  views[0].running_jobs = 4;
  views[0].cpu_backlog_ref_seconds = 100.0;
  const double busy =
      ContentionAwarePlacement::estimate_seconds(job, views[0], ctx);
  EXPECT_GT(busy, idle);
}

// --- the cluster simulator ----------------------------------------------

ClusterSpec small_cluster() {
  ClusterSpec spec;
  spec.sd_nodes = 16;
  spec.host_nodes = 4;
  return spec;
}

std::vector<TraceJob> small_trace(TraceKind kind = TraceKind::kPoisson) {
  TraceOptions opt;
  opt.kind = kind;
  opt.jobs = 400;
  opt.horizon_seconds = 120.0;
  return generate_trace(opt, 16);
}

TEST(ClusterSim, EveryJobFinishesAfterItsArrival) {
  const ClusterSpec spec = small_cluster();
  const auto trace = small_trace();
  const auto policy = make_policy("contention");
  const ClusterSimResult r = run_cluster_sim(spec, trace, *policy);
  ASSERT_EQ(r.jobs.size(), trace.size());
  for (const JobOutcome& job : r.jobs) {
    EXPECT_GT(job.finish_seconds, job.arrival_seconds);
    EXPECT_LT(job.node, spec.total_nodes());
    EXPECT_GT(job.ideal_seconds, 0.0);
  }
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_GT(r.events, trace.size());
}

TEST(ClusterSim, SlowdownIsNeverBelowOne) {
  // The denominator is the least alone time over every placement the
  // engine can make, charged with the DES's own terms, so no job under
  // any policy can beat it.
  const ClusterSpec spec = small_cluster();
  for (const TraceKind kind :
       {TraceKind::kPoisson, TraceKind::kBursty, TraceKind::kZipfMix}) {
    const auto trace = small_trace(kind);
    for (const char* name : {"random", "greedy", "contention"}) {
      const auto policy = make_policy(name);
      const ClusterSimResult r = run_cluster_sim(spec, trace, *policy);
      for (const JobOutcome& job : r.jobs) {
        EXPECT_GE(job.slowdown(), 1.0 - 1e-9)
            << name << " " << to_string(kind) << " " << to_string(job.kernel)
            << " " << job.input_bytes << " B on node " << job.node;
      }
    }
  }
}

TEST(ClusterSim, UtilizationsAreSane) {
  const ClusterSpec spec = small_cluster();
  const auto trace = small_trace();
  const auto policy = make_policy("greedy");
  const ClusterSimResult r = run_cluster_sim(spec, trace, *policy);
  EXPECT_GT(r.cpu_utilization, 0.0);
  EXPECT_LE(r.cpu_utilization, 1.0 + 1e-9);
  EXPECT_GE(r.fabric_utilization, 0.0);
  EXPECT_LE(r.fabric_utilization, 1.0 + 1e-9);
  EXPECT_GE(r.disk_utilization, 0.0);
  EXPECT_LE(r.disk_utilization, 1.0 + 1e-9);
}

TEST(ClusterSim, MakespanRespectsFluidLowerBound) {
  const ClusterSpec spec = small_cluster();
  const auto trace = small_trace();
  const double bound = fluid_makespan_lower_bound(spec, trace);
  for (const char* name : {"random", "greedy", "contention"}) {
    const auto policy = make_policy(name);
    const ClusterSimResult r = run_cluster_sim(spec, trace, *policy);
    EXPECT_GE(r.makespan_seconds, bound * (1.0 - 1e-9)) << name;
  }
}

TEST(ClusterSim, ByteIdenticalAcrossRepeats) {
  const ClusterSpec spec = small_cluster();
  const auto trace = small_trace(TraceKind::kBursty);
  for (const char* name : {"random", "greedy", "contention"}) {
    const auto p1 = make_policy(name);
    const auto p2 = make_policy(name);
    const ClusterSimResult a = run_cluster_sim(spec, trace, *p1, 7);
    const ClusterSimResult b = run_cluster_sim(spec, trace, *p2, 7);
    EXPECT_EQ(a.digest(), b.digest()) << name;
  }
}

TEST(ClusterSim, ContentionAwareBeatsGreedyOnMakespan) {
  // The acceptance-scale comparison runs in the bench; this medium
  // trace pins the same ordering in the test suite.
  ClusterSpec spec;
  spec.sd_nodes = 40;
  spec.host_nodes = 10;
  TraceOptions opt;
  opt.jobs = 1200;
  opt.horizon_seconds = 300.0;
  const auto trace = generate_trace(opt, spec.sd_nodes);
  const auto greedy = make_policy("greedy");
  const auto contention = make_policy("contention");
  const double greedy_makespan =
      run_cluster_sim(spec, trace, *greedy).makespan_seconds;
  const double contention_makespan =
      run_cluster_sim(spec, trace, *contention).makespan_seconds;
  EXPECT_LT(contention_makespan, greedy_makespan);
}

TEST(ClusterSim, ShareModeChangesTheSchedule) {
  ClusterSpec equal = small_cluster();
  equal.share_mode = ShareMode::kEqualShare;
  ClusterSpec prop = small_cluster();
  prop.share_mode = ShareMode::kProportional;
  const auto trace = small_trace();
  const auto p1 = make_policy("greedy");
  const auto p2 = make_policy("greedy");
  const ClusterSimResult a = run_cluster_sim(equal, trace, *p1);
  const ClusterSimResult b = run_cluster_sim(prop, trace, *p2);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ClusterSim, ShuffleHeavyKernelsLoadTheFabric) {
  // An all-terasort trace (shuffle_ratio 1.0) must push more bytes over
  // the fabric than an all-matmul one (shuffle_ratio 0).
  ClusterSpec spec = small_cluster();
  TraceOptions opt;
  opt.jobs = 300;
  opt.horizon_seconds = 120.0;
  opt.kernel_weights = {0.0, 0.0, 0.0, 0.0, 1.0};  // terasort only
  const auto sort_trace = generate_trace(opt, spec.sd_nodes);
  opt.kernel_weights = {1.0, 0.0, 0.0, 0.0, 0.0};  // wordcount only
  const auto wc_trace = generate_trace(opt, spec.sd_nodes);
  const auto p1 = make_policy("contention");
  const auto p2 = make_policy("contention");
  const ClusterSimResult sorted = run_cluster_sim(spec, sort_trace, *p1);
  const ClusterSimResult wc = run_cluster_sim(spec, wc_trace, *p2);
  EXPECT_GT(sorted.fabric_utilization, wc.fabric_utilization);
}

TEST(ClusterSim, RejectsEmptyCluster) {
  ClusterSpec spec;
  spec.sd_nodes = 0;
  spec.host_nodes = 0;
  const auto policy = make_policy("greedy");
  EXPECT_THROW(run_cluster_sim(spec, {}, *policy), std::invalid_argument);
}

TEST(ClusterSim, KernelProfilesCoverTheMix) {
  EXPECT_DOUBLE_EQ(kernel_profile(Kernel::kHashJoin).shuffle_ratio, 1.0);
  EXPECT_DOUBLE_EQ(kernel_profile(Kernel::kTeraSort).shuffle_ratio, 1.0);
  EXPECT_LT(kernel_profile(Kernel::kWordCount).shuffle_ratio, 0.1);
  EXPECT_DOUBLE_EQ(kernel_profile(Kernel::kMatMul).shuffle_ratio, 0.0);
  EXPECT_GT(kernel_profile(Kernel::kTeraSort).reduce_fraction,
            kernel_profile(Kernel::kWordCount).reduce_fraction);
}

}  // namespace
}  // namespace mcsd::sim
