// The fluid-share server (MalleableCpu) driven the way the Fig. 9/10
// host-only scenario drives it: every job submitted at t = 0 on one
// node, run to completion over a local Simulator.
#include "cluster/des.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/models.hpp"

namespace mcsd::sim {
namespace {

const CpuModel kQuad{4, 1.0};
const CpuModel kDuo{2, 1.0};

struct Job {
  double serial_seconds;  ///< wall-clock on one core
  double parallel_work;   ///< reference-core-seconds
};

struct Schedule {
  std::vector<double> finish_seconds;  ///< same order as the input jobs
  SimTime clock_at_end = 0.0;
};

Schedule run_jobs(const std::vector<Job>& jobs, const CpuModel& cpu,
                  ShareMode mode = ShareMode::kEqualShare) {
  Simulator sim;
  MalleableCpu server{sim, cpu.cores, cpu.core_speed, 0.0, mode};
  Schedule out;
  out.finish_seconds.assign(jobs.size(), -1.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    server.submit(jobs[i].serial_seconds, jobs[i].parallel_work,
                  [&, i] { out.finish_seconds[i] = sim.now(); });
  }
  sim.run();
  out.clock_at_end = sim.now();
  return out;
}

TEST(Malleable, EmptyJobListIsInstant) {
  EXPECT_DOUBLE_EQ(run_jobs({}, kQuad).clock_at_end, 0.0);
}

TEST(Malleable, SingleSerialJob) {
  const auto r = run_jobs({{10.0, 0.0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);
}

TEST(Malleable, SingleParallelJobUsesAllCores) {
  const auto r = run_jobs({{0.0, 40.0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);  // 40 core-s / 4 cores
}

TEST(Malleable, CoreSpeedScalesParallelWork) {
  const CpuModel fast{4, 2.0};
  const auto r = run_jobs({{0.0, 40.0}}, fast);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 5.0);
}

TEST(Malleable, SerialThenParallelSequence) {
  const auto r = run_jobs({{4.0, 8.0}}, kDuo);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 8.0);  // 4 serial + 8/2 parallel
}

TEST(Malleable, TwoEqualJobsShareCoresFairly) {
  const auto r = run_jobs({{0.0, 20.0}, {0.0, 20.0}}, kQuad);
  // Each gets 2 cores: 20 / 2 = 10 s, both finish together.
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 10.0);
  EXPECT_DOUBLE_EQ(r.clock_at_end, 10.0);
}

TEST(Malleable, SurvivorInheritsFreedCores) {
  const auto r = run_jobs({{0.0, 8.0}, {0.0, 40.0}}, kQuad);
  // Phase 1: 2+2 cores.  Short finishes at 4 s (8/2).  Long has consumed
  // 8 of 40, then runs on 4 cores: 32/4 = 8 s more -> 12 s total.
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 4.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 12.0);
}

TEST(Malleable, SerialJobDoesNotStallParallelPeer) {
  const auto r = run_jobs({{12.0, 0.0}, {0.0, 12.0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 12.0);
  // The serial job holds one core; the parallel peer gets the other
  // three: 12/3 = 4 s.
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 4.0);
}

TEST(Malleable, ThreeJobsOnFourCores) {
  const auto r = run_jobs({{0.0, 12.0}, {0.0, 12.0}, {0.0, 12.0}}, kQuad);
  // 4/3 cores each: 12 / (4/3) = 9 s.
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 9.0, 1e-9);
}

TEST(Malleable, ZeroWorkJobFinishesAtZero) {
  const auto r = run_jobs({{0.0, 0.0}, {5.0, 0.0}}, kDuo);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 5.0);
}

TEST(Malleable, RejectsNegativeWork) {
  Simulator sim;
  MalleableCpu server{sim, 2, 1.0, 0.0, ShareMode::kEqualShare};
  EXPECT_THROW(server.submit(-1.0, 0.0, nullptr), std::invalid_argument);
  EXPECT_THROW(server.submit(0.0, -1.0, nullptr), std::invalid_argument);
}

TEST(Malleable, RejectsBadCpu) {
  Simulator sim;
  EXPECT_THROW((MalleableCpu{sim, 0, 1.0, 0.0, ShareMode::kEqualShare}),
               std::invalid_argument);
  EXPECT_THROW((MalleableCpu{sim, 4, 0.0, 0.0, ShareMode::kEqualShare}),
               std::invalid_argument);
}

TEST(Malleable, MakespanIsMaxFinish) {
  // The serial job holds one core for 1 s while the parallel one gets
  // three (3 of 100 done), then the survivor runs on all four: 97/4.
  const auto r = run_jobs({{1.0, 0.0}, {0.0, 100.0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 1.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 25.25);
  EXPECT_DOUBLE_EQ(r.clock_at_end, r.finish_seconds[1]);
}

// Regression for the serial-phase share bug: pre-fix, serial work burned
// at full wall rate no matter how small the job's core share was, so an
// over-subscribed set of pure-serial jobs all "finished" as if each had
// a whole core.  Serial progress must run at min(share, 1): eight
// serial jobs on four cores hold half a core each and take 20 s, not 10.
TEST(Malleable, OversubscribedSerialPhasesSerialize) {
  const auto r = run_jobs(std::vector<Job>(8, Job{10.0, 0.0}), kQuad);
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 20.0, 1e-6);
  EXPECT_NEAR(r.clock_at_end, 20.0, 1e-6);
}

TEST(Malleable, FractionalShareSlowsSerialPhaseBeforeParallel) {
  // Six identical serial+parallel jobs on a quad: share 2/3 each, so the
  // 2 s serial prefix stretches to 3 s, then 8 core-s of parallel work
  // at 2/3 core adds 12 s.
  const auto r = run_jobs(std::vector<Job>(6, Job{2.0, 8.0}), kQuad);
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 15.0, 1e-6);
}

TEST(FillShares, EqualSplitsEvenly) {
  std::vector<ShareSlot> slots(4);
  for (auto& s : slots) s.cap = 8.0;
  fill_shares(slots, 4.0, ShareMode::kEqualShare);
  for (const auto& s : slots) EXPECT_NEAR(s.share, 1.0, 1e-12);
}

TEST(FillShares, EqualRecyclesCapSurplus) {
  std::vector<ShareSlot> slots(3);
  slots[0].cap = 0.5;  // capped claimant frees 1/3 of a core
  slots[1].cap = 8.0;
  slots[2].cap = 8.0;
  fill_shares(slots, 4.0, ShareMode::kEqualShare);
  EXPECT_NEAR(slots[0].share, 0.5, 1e-12);
  EXPECT_NEAR(slots[1].share, 1.75, 1e-12);
  EXPECT_NEAR(slots[2].share, 1.75, 1e-12);
}

TEST(FillShares, ProportionalFollowsWeights) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {8.0, 3.0, 0.0};
  slots[1] = {8.0, 1.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_NEAR(slots[0].share, 3.0, 1e-12);
  EXPECT_NEAR(slots[1].share, 1.0, 1e-12);
}

TEST(FillShares, ProportionalRespectsCapsAndRecycles) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {1.0, 100.0, 0.0};  // heavy but capped at one core
  slots[1] = {8.0, 1.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_NEAR(slots[0].share, 1.0, 1e-12);
  EXPECT_NEAR(slots[1].share, 3.0, 1e-12);
}

TEST(FillShares, ZeroWeightGetsNothingUnderProportional) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {8.0, 0.0, 0.0};
  slots[1] = {8.0, 2.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_DOUBLE_EQ(slots[0].share, 0.0);
  EXPECT_NEAR(slots[1].share, 4.0, 1e-12);
}

TEST(Malleable, ProportionalModeConvergesCoRunners) {
  // Equal shares finish the light job first; proportional weights the
  // heavy job, so both finish together at the balanced optimum: 40
  // core-s over 4 cores = 10 s.
  const std::vector<Job> jobs{{0.0, 8.0}, {0.0, 32.0}};
  const auto equal = run_jobs(jobs, kQuad);
  const auto prop = run_jobs(jobs, kQuad, ShareMode::kProportional);
  EXPECT_NEAR(prop.clock_at_end, 10.0, 1e-6);
  EXPECT_LE(prop.clock_at_end, equal.clock_at_end + 1e-9);
  EXPECT_NEAR(prop.finish_seconds[0], prop.finish_seconds[1], 1e-6);
}

}  // namespace
}  // namespace mcsd::sim
