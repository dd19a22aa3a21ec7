#include "cluster/des.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "cluster/models.hpp"
#include "cluster/profiles.hpp"
#include "cluster/smb.hpp"
#include "cluster/testbed.hpp"

namespace mcsd::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersMaySchedule) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_in(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run(/*until=*/5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Resource, SingleJobRunsAtFullCapacity) {
  Simulator sim;
  Resource disk{sim, "disk", 100.0};  // 100 units/s
  SimTime finished = -1.0;
  disk.submit(250.0, [&] { finished = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 2.5);
}

TEST(Resource, TwoEqualJobsShareFairly) {
  Simulator sim;
  Resource link{sim, "link", 100.0};
  SimTime f1 = -1.0;
  SimTime f2 = -1.0;
  link.submit(100.0, [&] { f1 = sim.now(); });
  link.submit(100.0, [&] { f2 = sim.now(); });
  sim.run();
  // Each receives 50 units/s: both finish at t = 2.
  EXPECT_DOUBLE_EQ(f1, 2.0);
  EXPECT_DOUBLE_EQ(f2, 2.0);
}

TEST(Resource, ShortJobLeavesLongJobSpeedsUp) {
  Simulator sim;
  Resource link{sim, "link", 100.0};
  SimTime f_short = -1.0;
  SimTime f_long = -1.0;
  link.submit(50.0, [&] { f_short = sim.now(); });
  link.submit(200.0, [&] { f_long = sim.now(); });
  sim.run();
  // Shared until the short job's 50 units drain at 50 u/s: t = 1.
  EXPECT_DOUBLE_EQ(f_short, 1.0);
  // Long job then has 150 left at 100 u/s: t = 1 + 1.5.
  EXPECT_DOUBLE_EQ(f_long, 2.5);
}

TEST(Resource, LateArrivalSlowsInFlightJob) {
  Simulator sim;
  Resource link{sim, "link", 100.0};
  SimTime f1 = -1.0;
  SimTime f2 = -1.0;
  link.submit(100.0, [&] { f1 = sim.now(); });
  sim.schedule_at(0.5, [&] { link.submit(100.0, [&] { f2 = sim.now(); }); });
  sim.run();
  // Job 1: 50 units alone (0.5 s), then 50 at half rate (1.0 s) -> 1.5.
  EXPECT_NEAR(f1, 1.5, 1e-9);
  // Job 2: 50 at half rate (0.5..1.5), then 50 alone (0.5 s) -> 2.0.
  EXPECT_NEAR(f2, 2.0, 1e-9);
}

TEST(Resource, ZeroWorkCompletesImmediately) {
  Simulator sim;
  Resource r{sim, "r", 1.0};
  bool done = false;
  r.submit(0.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Resource, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW((Resource{sim, "r", 0.0}), std::invalid_argument);
  Resource r{sim, "r", 1.0};
  EXPECT_THROW(r.submit(-1.0, nullptr), std::invalid_argument);
}

TEST(Resource, ZeroWorkCompletesViaEventQueueNotSynchronously) {
  // The completion must be dispatched through the event queue at `now`,
  // never from inside submit() itself — a synchronous callback would
  // reenter the caller and scramble completion order.
  Simulator sim;
  Resource r{sim, "r", 1.0};
  bool done = false;
  sim.schedule_at(1.0, [&] {
    r.submit(0.0, [&] { done = true; });
    EXPECT_FALSE(done) << "completion fired inside submit()";
  });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Resource, SimultaneousCompletionsFinishInSubmissionOrder) {
  Simulator sim;
  Resource r{sim, "r", 10.0};
  std::vector<int> order;
  r.submit(10.0, [&] { order.push_back(0); });
  r.submit(10.0, [&] { order.push_back(1); });
  r.submit(10.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Resource, CompletionMaySubmitMoreWork) {
  Simulator sim;
  Resource r{sim, "r", 10.0};
  SimTime second_finish = -1.0;
  r.submit(10.0, [&] { r.submit(20.0, [&] { second_finish = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(second_finish, 3.0);
}

TEST(Resource, OutstandingWorkTracksBacklog) {
  Simulator sim;
  Resource r{sim, "r", 10.0};
  r.submit(30.0, nullptr);
  r.submit(10.0, nullptr);
  EXPECT_NEAR(r.outstanding_work(), 40.0, 1e-9);
  sim.schedule_at(1.0, [&] {
    // 10 units served in the first second, shared 5 + 5.
    EXPECT_NEAR(r.outstanding_work(), 30.0, 1e-9);
  });
  sim.run();
  EXPECT_NEAR(r.outstanding_work(), 0.0, 1e-9);
}

TEST(Resource, CompletionOrderIsDeterministicAcrossRepeats) {
  // Byte-identical replay: the same submissions produce the same
  // completion sequence, including ties resolved by submission order.
  auto run_once = [] {
    Simulator sim;
    Resource r{sim, "r", 7.0};
    std::vector<std::pair<int, SimTime>> log;
    for (int i = 0; i < 16; ++i) {
      const double work = static_cast<double>((i * 5) % 8) + 1.0;
      sim.schedule_at(0.1 * i, [&r, &log, &sim, i, work] {
        r.submit(work, [&log, &sim, i] { log.emplace_back(i, sim.now()); });
      });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Resource, ServedWorkAccounting) {
  Simulator sim;
  Resource r{sim, "r", 10.0};
  r.submit(30.0, nullptr);
  r.submit(20.0, nullptr);
  sim.run();
  EXPECT_NEAR(r.work_served(), 50.0, 1e-9);
}

// --- validation: DES vs the analytic background-utilisation model -------

TEST(DesValidation, BulkTransferUnderBackgroundLoadMatchesAnalytic) {
  // Analytic model: a bulk NFS transfer on a link with background
  // utilisation u completes in bytes / (bw * (1 - u)).  DES: the same
  // link as a processor-sharing resource, background load as a Poisson-
  // ish (here: uniform deterministic) stream of small messages keeping
  // the link u busy.  The two should agree within a few percent.
  const double link_mibps = 100.0;
  const double message_mib = 0.064;       // 64 KiB messages
  const double message_interval = 0.004;  // -> 16 MiB/s offered = u 0.16
  const double bulk_mib = 200.0;

  Simulator sim;
  Resource link{sim, "link", link_mibps};

  // Background traffic generator: one message every interval, forever
  // (stopped once the bulk completes by checking a flag).
  bool bulk_done = false;
  SimTime bulk_finish = -1.0;
  std::function<void()> pump = [&] {
    if (bulk_done) return;
    link.submit(message_mib, nullptr);
    sim.schedule_in(message_interval, pump);
  };
  sim.schedule_at(0.0, pump);
  link.submit(bulk_mib, [&] {
    bulk_done = true;
    bulk_finish = sim.now();
  });
  sim.run();

  const double utilization = message_mib / message_interval / link_mibps;
  const double analytic = bulk_mib / (link_mibps * (1.0 - utilization));
  ASSERT_GT(bulk_finish, 0.0);
  EXPECT_NEAR(bulk_finish / analytic, 1.0, 0.05)
      << "DES " << bulk_finish << "s vs analytic " << analytic << "s";
}

TEST(DesValidation, SmbModelUtilizationMatchesDes) {
  // The SmbTraffic helper turns message parameters into a utilisation
  // fraction; feed the same parameters through the DES and compare the
  // measured link busy share.
  SmbConfig cfg;
  cfg.messages_per_second = 500.0;
  cfg.message_bytes = 32 * 1024;
  cfg.overhead_bytes = 0;
  const SmbTraffic smb{cfg};
  NicModel nic;  // 1 GbE

  Simulator sim;
  Resource link{sim, "link", nic.raw_mibps()};
  const double horizon = 10.0;
  const double interval = 1.0 / cfg.messages_per_second;
  const double message_mib =
      static_cast<double>(cfg.message_bytes) / (1024.0 * 1024.0);
  std::function<void()> pump = [&] {
    if (sim.now() >= horizon) return;
    link.submit(message_mib, nullptr);
    sim.schedule_in(interval, pump);
  };
  sim.schedule_at(0.0, pump);
  sim.run();

  const double des_utilization =
      link.work_served() / (nic.raw_mibps() * sim.now());
  EXPECT_NEAR(des_utilization, smb.link_utilization(nic), 0.01);
}

TEST(DesValidation, LoneJobOnFluidServerMatchesCpuModel) {
  // A job alone on a node's fluid server must take exactly the closed
  // form model_job and Fig. 8 use: serial work on one core, parallel
  // work across all of them.
  for (const NodeSpec& node : {sd_node_duo(), host_node()}) {
    for (const AppProfile& app :
         {wordcount_profile(), stringmatch_profile(), matmul_profile()}) {
      const double work = 1024.0 * app.seconds_per_mib;
      const double pf = app.parallel_fraction;
      Simulator sim;
      MalleableCpu cpu{sim, node.cpu.cores, node.cpu.core_speed, 0.05,
                       ShareMode::kProportional};
      SimTime finish = -1.0;
      cpu.submit(work * (1.0 - pf) / node.cpu.core_speed, work * pf,
                 [&] { finish = sim.now(); });
      sim.run();
      const double closed = node.cpu.compute_seconds(work, node.cpu.cores, pf);
      EXPECT_NEAR(finish / closed, 1.0, 1e-12) << node.name << " " << app.name;
    }
  }
}

}  // namespace
}  // namespace mcsd::sim
