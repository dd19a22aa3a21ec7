#include "cluster/fam_model.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/io.hpp"
#include "core/stopwatch.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"

namespace mcsd::sim {
namespace {

using namespace std::chrono_literals;

TEST(FamModel, OverheadDominatedByPolling) {
  FamModel model;
  const double overhead = model.overhead_seconds();
  // With 2 ms SD poll and 1 ms host poll, the mean poll wait is 1.5 ms —
  // most of the channel cost.
  EXPECT_GT(overhead, 1.5e-3);
  EXPECT_LT(overhead, 5e-3);
}

TEST(FamModel, ModuleTimeAddsLinearly) {
  FamModel model;
  EXPECT_NEAR(model.round_trip_seconds(1.0) - model.round_trip_seconds(0.0),
              1.0, 1e-12);
}

TEST(FamModel, NfsAttributeCacheDominatesRemoteDeployments) {
  // The deployment insight the paper skips: on a default NFS mount
  // (acregmin = 3 s) the log-file channel costs seconds, not
  // milliseconds — which is why tuned mounts (noac / actimeo=0) or a
  // local staging folder matter for McSD-style invocation.
  FamModel local;
  FamModel nfs;
  nfs.nfs_attr_cache_seconds = 3.0;
  EXPECT_LT(local.overhead_seconds(), 0.01);
  EXPECT_GT(nfs.overhead_seconds(), 3.0);
}

TEST(FamModel, ScenarioConstantIsConservative) {
  // The Testbed's 20 ms fam_invocation_seconds must upper-bound the
  // modelled local-folder overhead (the scenarios charge the data job
  // with it once per offload).
  FamModel model;
  EXPECT_LT(model.overhead_seconds(), 0.02);
}

TEST(FamModel, MatchesRealRoundTripWithinAnOrderOfMagnitude) {
  // Validate the model against the real stack: a no-op module invoked
  // through actual log files with the model's poll intervals.
  TempDir dir{"fammodel"};
  fam::DaemonOptions options{dir.path(), 1};
  options.drain_interval = 2ms;
  fam::Daemon daemon{options};
  ASSERT_TRUE(daemon
                  .preload(std::make_shared<fam::FunctionModule>(
                      "noop",
                      [](const KeyValueMap& p) -> Result<KeyValueMap> {
                        return p;
                      }))
                  .is_ok());
  daemon.start();
  fam::Client client{fam::ClientOptions{dir.path(), 1ms, 10'000ms}};

  // Warm up, then time a few round trips.
  KeyValueMap params;
  params.set("k", "v");
  ASSERT_TRUE(client.invoke("noop", params).is_ok());
  Stopwatch watch;
  constexpr int kRounds = 10;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(client.invoke("noop", params).is_ok());
  }
  const double measured = watch.elapsed_seconds() / kRounds;

  FamModel model;
  const double predicted = model.overhead_seconds();
  // Scheduling noise on a loaded machine can stretch the measurement;
  // the model must at least share its order of magnitude.
  EXPECT_GT(measured, predicted / 10.0);
  EXPECT_LT(measured, predicted * 50.0);
}

}  // namespace
}  // namespace mcsd::sim
