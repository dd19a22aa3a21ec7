// End-to-end smartFAM: daemon and client sharing one log folder — the
// paper's Fig. 5 message sequence exercised over a real filesystem.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "fam/protocol.hpp"
#include "obs/counters.hpp"

namespace mcsd::fam {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<Module> echo_module() {
  return std::make_shared<FunctionModule>(
      "echo", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        KeyValueMap out = params;
        out.set("echoed", "true");
        return out;
      });
}

std::shared_ptr<Module> adder_module() {
  return std::make_shared<FunctionModule>(
      "adder", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        const auto a = params.get_int("a");
        const auto b = params.get_int("b");
        if (!a || !b) {
          return Error{ErrorCode::kInvalidArgument, "need a and b"};
        }
        KeyValueMap out;
        out.set_int("sum", a.value() + b.value());
        return out;
      });
}

struct FamFixture : ::testing::Test {
  FamFixture()
      : daemon(DaemonOptions{log_dir.path(), 2}),
        client(ClientOptions{log_dir.path(), 1ms, 30'000ms}) {}

  TempDir log_dir{"famtest"};
  Daemon daemon;
  Client client;
};

TEST_F(FamFixture, PreloadCreatesLogFile) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  EXPECT_TRUE(std::filesystem::exists(log_dir / "echo.log"));
  EXPECT_TRUE(client.module_available("echo"));
  EXPECT_FALSE(client.module_available("missing"));
}

TEST_F(FamFixture, PreloadRejectsDuplicates) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  EXPECT_FALSE(daemon.preload(echo_module()).is_ok());
}

TEST_F(FamFixture, InvokeRoundTrip) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  KeyValueMap params;
  params.set_int("a", 19);
  params.set_int("b", 23);
  const auto result = client.invoke("adder", params);
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get_int("sum").value(), 42);
  EXPECT_EQ(daemon.requests_handled(), 1u);
  EXPECT_EQ(daemon.errors_returned(), 0u);
}

TEST_F(FamFixture, SequentialInvocationsIncrementSeq) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  for (int i = 0; i < 5; ++i) {
    KeyValueMap params;
    params.set_int("a", i);
    params.set_int("b", 100);
    const auto result = client.invoke("adder", params);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().get_int("sum").value(), 100 + i);
  }
  EXPECT_EQ(daemon.requests_handled(), 5u);
}

TEST_F(FamFixture, ModuleErrorPropagatesToClient) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  KeyValueMap incomplete;
  incomplete.set_int("a", 1);
  const auto result = client.invoke("adder", incomplete);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.error().message().find("need a and b"), std::string::npos);
  EXPECT_EQ(daemon.errors_returned(), 1u);
}

TEST_F(FamFixture, ThrowingModuleBecomesErrorResponse) {
  // A module that throws must not kill the dispatch thread; the host
  // gets an error response and the daemon keeps serving afterwards.
  ASSERT_TRUE(daemon
                  .preload(std::make_shared<FunctionModule>(
                      "bomb",
                      [](const KeyValueMap&) -> Result<KeyValueMap> {
                        throw std::runtime_error("kaboom");
                      }))
                  .is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  const auto boom = client.invoke("bomb", KeyValueMap{});
  ASSERT_FALSE(boom.is_ok());
  EXPECT_NE(boom.error().message().find("kaboom"), std::string::npos);
  EXPECT_EQ(daemon.errors_returned(), 1u);

  // The daemon survived: the next request succeeds.
  KeyValueMap params;
  params.set_int("a", 1);
  params.set_int("b", 2);
  const auto sum = client.invoke("adder", params);
  ASSERT_TRUE(sum.is_ok());
  EXPECT_EQ(sum.value().get_int("sum").value(), 3);
}

TEST_F(FamFixture, InvokeUnknownModuleFailsFast) {
  daemon.start();
  const auto result = client.invoke("ghost", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kNotFound);
}

TEST_F(FamFixture, InvokeInvalidNameRejected) {
  const auto result = client.invoke("../etc/passwd", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FamFixture, TimeoutWhenDaemonStopped) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Daemon never started: nothing answers.
  Client impatient{ClientOptions{log_dir.path(), 1ms, 100ms}};
  const auto result = impatient.invoke("echo", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
}

TEST_F(FamFixture, TwoModulesIndependentChannels) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  KeyValueMap add;
  add.set_int("a", 2);
  add.set_int("b", 3);
  const auto sum = client.invoke("adder", add);
  KeyValueMap e;
  e.set("msg", "hi");
  const auto echoed = client.invoke("echo", e);
  ASSERT_TRUE(sum.is_ok());
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(sum.value().get_int("sum").value(), 5);
  EXPECT_EQ(echoed.value().get("msg"), "hi");
}

TEST_F(FamFixture, ConcurrentClientsOnDifferentModules) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();

  std::thread t1{[&] {
    for (int i = 0; i < 3; ++i) {
      KeyValueMap p;
      p.set_int("a", i);
      p.set_int("b", i);
      const auto r = client.invoke("adder", p);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().get_int("sum").value(), 2 * i);
    }
  }};
  std::thread t2{[&] {
    for (int i = 0; i < 3; ++i) {
      KeyValueMap p;
      p.set("n", std::to_string(i));
      const auto r = client.invoke("echo", p);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().get("n"), std::to_string(i));
    }
  }};
  t1.join();
  t2.join();
  EXPECT_EQ(daemon.requests_handled(), 6u);
}

TEST_F(FamFixture, ConcurrentCallersOnSameModuleSerialise) {
  ASSERT_TRUE(daemon.preload(adder_module()).is_ok());
  daemon.start();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      KeyValueMap p;
      p.set_int("a", t);
      p.set_int("b", 10);
      const auto r = client.invoke("adder", p);
      if (r.is_ok() && r.value().get_int("sum").value() == 10 + t) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 4);
  EXPECT_EQ(daemon.requests_handled(), 4u);
}

// Two Client objects on one folder at channel_shards = 1 — the paper's
// multi-host scenario on its single log: both hosts append to the same
// shards/shard-0.log.  Per-client seq spaces keep the interleaved frames
// apart, so every invoke succeeds with exactly one reply.
TEST(SeqCollision, TwoClientsSharingOneModuleLogBothSucceed) {
  TempDir dir{"famcollide"};
  DaemonOptions dopts{dir.path(), 2};
  dopts.channel_shards = 1;
  Daemon daemon{dopts};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();

  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.timeout = 5'000ms;
  Client a{copts};
  Client b{copts};
  constexpr int kRounds = 10;
  const auto host = [&](Client& client, const std::string& who) {
    for (int i = 0; i < kRounds; ++i) {
      KeyValueMap params;
      params.set("who", who + std::to_string(i));
      const auto result = client.invoke("echo", params);
      ASSERT_TRUE(result.is_ok()) << result.error().to_string();
      EXPECT_EQ(result.value().get("who"), who + std::to_string(i));
    }
  };
  std::thread host_a{host, std::ref(a), "a"};
  std::thread host_b{host, std::ref(b), "b"};
  host_a.join();
  host_b.join();
  daemon.stop();

  EXPECT_EQ(daemon.requests_handled(), 2u * kRounds);
  EXPECT_EQ(daemon.reply_conflicts(), 0u);
  const auto shards = daemon.shard_stats();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].drained, 2u * kRounds);
}

// stop() drains: every frame appended to a mailbox before stop() gets a
// reply — including one appended just before the call, which only the
// drainer's final pass can see — and nothing is dropped.
TEST(DaemonStop, DrainsAcceptedRequestsBeforeStopping) {
  TempDir dir{"famdrain"};
  DaemonOptions dopts{dir.path(), 1};
  dopts.channel_shards = 1;
  Daemon daemon{dopts};
  const std::vector<std::string> modules{"drain1", "drain2", "drain3"};
  for (const std::string& name : modules) {
    ASSERT_TRUE(daemon
                    .preload(std::make_shared<FunctionModule>(
                        name,
                        [](const KeyValueMap&) -> Result<KeyValueMap> {
                          std::this_thread::sleep_for(150ms);
                          KeyValueMap out;
                          out.set("drained", "true");
                          return out;
                        }))
                    .is_ok());
  }
  daemon.start();
  const auto mailbox = dir / std::string{kShardDirName} / shard_file_name(0);
  const auto send = [&](std::size_t k) {
    Record request;
    request.type = RecordType::kRequest;
    request.seq = 1;
    request.module = modules[k];
    request.client_id = k + 1;
    ASSERT_TRUE(append_file(mailbox, encode_record(request)).is_ok());
  };
  send(0);
  send(1);
  // One batch worker, 150 ms per module: by now both requests are queued
  // but at most one is done.  The third frame lands right before stop().
  std::this_thread::sleep_for(100ms);
  send(2);
  daemon.stop();

  EXPECT_EQ(daemon.requests_handled(), 3u);
  EXPECT_EQ(daemon.dropped_on_shutdown(), 0u);
  for (std::size_t k = 0; k < modules.size(); ++k) {
    const auto contents =
        read_file(dir / std::string{kReplyDirName} / reply_file_name(k + 1));
    ASSERT_TRUE(contents.is_ok()) << modules[k];
    const FrameStream replies = decode_frame_stream(contents.value());
    ASSERT_EQ(replies.records.size(), 1u) << modules[k];
    const Record& reply = replies.records[0];
    EXPECT_EQ(reply.type, RecordType::kResponse) << modules[k];
    EXPECT_EQ(reply.seq, 1u) << modules[k];
    EXPECT_EQ(reply.payload.get("drained"), "true") << modules[k];
  }
}

// A reply the daemon has delivered must survive failed reads of the reply
// log.  The reply lands once and the file never changes again, so a
// client that marked the log "seen" after a failed (or torn) read would
// wait out its timeout with the answer on disk.
std::shared_ptr<Module> slow_echo_module() {
  return std::make_shared<FunctionModule>(
      "slow", [](const KeyValueMap& params) -> Result<KeyValueMap> {
        std::this_thread::sleep_for(100ms);
        return params;
      });
}

Result<KeyValueMap> invoke_once_under(const std::string& fault_spec) {
  TempDir dir{"famreplyread"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  EXPECT_TRUE(daemon.preload(slow_echo_module()).is_ok());
  daemon.start();
  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.timeout = 2'000ms;
  copts.max_attempts = 1;
  Client client{copts};
  fault::FaultScope scope{fault::FaultPlan::from_spec(fault_spec).value()};
  KeyValueMap params;
  params.set("who", "delivered");
  return client.invoke("slow", params);
}

TEST(ClientRetry, ReplyReadFailureDoesNotLoseDeliveredReply) {
  for (const char* spec : {"read.eio=@1+2,path_filter=replies",
                           "read.torn=@1+2,path_filter=replies"}) {
    const auto result = invoke_once_under(spec);
    ASSERT_TRUE(result.is_ok()) << spec << ": " << result.error().to_string();
    EXPECT_EQ(result.value().get("who"), "delivered") << spec;
  }
}

TEST(ClientRetry, SecondAttemptSucceedsAfterLateDaemonStart) {
  TempDir dir{"famretry"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Daemon not started yet: the first attempt must time out.

  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 1ms;
  copts.timeout = 250ms;
  copts.max_attempts = 4;
  Client client{copts};

  std::thread late_start{[&] {
    std::this_thread::sleep_for(400ms);  // after attempt 1 expires
    daemon.start();
  }};
  KeyValueMap params;
  params.set("msg", "eventually");
  const auto result = client.invoke("echo", params);
  late_start.join();
  ASSERT_TRUE(result.is_ok()) << result.error().to_string();
  EXPECT_EQ(result.value().get("msg"), "eventually");
}

TEST(ClientRetry, ExhaustedAttemptsReportAttemptCount) {
  TempDir dir{"famretry"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  // Never started.
  ClientOptions copts;
  copts.log_dir = dir.path();
  copts.poll_interval = 1ms;
  copts.timeout = 50ms;
  copts.max_attempts = 3;
  Client client{copts};
  const auto result = client.invoke("echo", KeyValueMap{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_NE(result.error().message().find("attempt 3/3"), std::string::npos);
}

// A cacheable module: declares its input file via cache_inputs and
// counts real executions, so the tests can tell "served from cache"
// (counter flat) from "dispatched" (counter bumped).
std::shared_ptr<Module> counting_module(std::atomic<int>& executions) {
  auto module = std::make_shared<FunctionModule>(
      "counted", [&executions](const KeyValueMap& params) -> Result<KeyValueMap> {
        executions.fetch_add(1);
        KeyValueMap out;
        out.set("input", params.get_or("input", ""));
        out.set_int("runs", executions.load());
        return out;
      });
  module->set_cache_inputs(
      [](const KeyValueMap& params)
          -> std::optional<std::vector<std::filesystem::path>> {
        const auto input = params.get("input");
        if (!input) return std::nullopt;
        return std::vector<std::filesystem::path>{*input};
      });
  return module;
}

TEST_F(FamFixture, RepeatedInvokeServedFromResultCache) {
  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();

  const auto corpus = log_dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "the quick brown fox").is_ok());
  KeyValueMap params;
  params.set("input", corpus.string());

  InvokeInfo first_info;
  const auto first = client.invoke("counted", params, &first_info);
  ASSERT_TRUE(first.is_ok()) << first.error().to_string();
  EXPECT_EQ(first_info.cache, CacheState::kMiss);
  EXPECT_NE(first_info.cache_epoch, 0u);
  EXPECT_EQ(executions.load(), 1);

  InvokeInfo second_info;
  const auto second = client.invoke("counted", params, &second_info);
  ASSERT_TRUE(second.is_ok()) << second.error().to_string();
  EXPECT_EQ(second_info.cache, CacheState::kHit);
  EXPECT_EQ(second_info.cache_epoch, first_info.cache_epoch);
  EXPECT_EQ(executions.load(), 1) << "hit must not re-run the module";
  // Byte-identical result: the hit replays the miss's payload exactly.
  EXPECT_EQ(second.value().serialize(), first.value().serialize());
  EXPECT_EQ(daemon.cache_hits(), 1u);
  EXPECT_EQ(daemon.cache_misses(), 1u);

  // Different params → different slot → miss and a real execution.
  params.set_int("extra", 7);
  InvokeInfo third_info;
  ASSERT_TRUE(client.invoke("counted", params, &third_info).is_ok());
  EXPECT_EQ(third_info.cache, CacheState::kMiss);
  EXPECT_EQ(executions.load(), 2);
}

TEST_F(FamFixture, RewritingInputInvalidatesCachedResult) {
  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();

  const auto corpus = log_dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "version one").is_ok());
  KeyValueMap params;
  params.set("input", corpus.string());

  InvokeInfo miss_info;
  ASSERT_TRUE(client.invoke("counted", params, &miss_info).is_ok());
  InvokeInfo hit_info;
  ASSERT_TRUE(client.invoke("counted", params, &hit_info).is_ok());
  ASSERT_EQ(hit_info.cache, CacheState::kHit);
  ASSERT_EQ(executions.load(), 1);

  // Rewrite with a different size: the identity triple changes even if
  // the mtime tick is coarse, so the cached entry must die.
  ASSERT_TRUE(write_file(corpus, "version two, now longer").is_ok());
  InvokeInfo invalidated_info;
  const auto recomputed = client.invoke("counted", params, &invalidated_info);
  ASSERT_TRUE(recomputed.is_ok());
  EXPECT_EQ(invalidated_info.cache, CacheState::kMiss);
  EXPECT_GT(invalidated_info.cache_epoch, hit_info.cache_epoch);
  EXPECT_EQ(executions.load(), 2);
  ASSERT_NE(daemon.result_cache(), nullptr);
  EXPECT_EQ(daemon.result_cache()->stats().invalidations, 1u);

  // The refilled entry serves hits again.
  InvokeInfo rehit_info;
  ASSERT_TRUE(client.invoke("counted", params, &rehit_info).is_ok());
  EXPECT_EQ(rehit_info.cache, CacheState::kHit);
  EXPECT_EQ(rehit_info.cache_epoch, invalidated_info.cache_epoch);
  EXPECT_EQ(executions.load(), 2);
}

TEST_F(FamFixture, ModuleWithoutCacheInputsNeverCached) {
  ASSERT_TRUE(daemon.preload(echo_module()).is_ok());
  daemon.start();
  KeyValueMap params;
  params.set("msg", "hi");
  for (int i = 0; i < 2; ++i) {
    InvokeInfo info;
    ASSERT_TRUE(client.invoke("echo", params, &info).is_ok());
    EXPECT_EQ(info.cache, CacheState::kNone);
    EXPECT_EQ(info.cache_epoch, 0u);
  }
  EXPECT_EQ(daemon.cache_hits(), 0u);
  EXPECT_EQ(daemon.cache_misses(), 0u);
}

TEST(ResultCacheConfig, ZeroBytesDisablesTheCache) {
  TempDir dir{"famnocache"};
  DaemonOptions options{dir.path(), 2};
  options.result_cache_bytes = 0;
  Daemon daemon{options};
  EXPECT_EQ(daemon.result_cache(), nullptr);

  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();
  const auto corpus = dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "uncached").is_ok());
  Client client{ClientOptions{dir.path(), std::chrono::milliseconds{1},
                              std::chrono::milliseconds{30'000}}};
  KeyValueMap params;
  params.set("input", corpus.string());
  for (int i = 0; i < 2; ++i) {
    InvokeInfo info;
    ASSERT_TRUE(client.invoke("counted", params, &info).is_ok());
    EXPECT_EQ(info.cache, CacheState::kNone);
  }
  EXPECT_EQ(executions.load(), 2);
  daemon.stop();
}

TEST(ResultCacheConfig, ParsesAndRejectsConfigValues) {
  const auto parsed = KeyValueMap::parse("result_cache_bytes=8M\n");
  ASSERT_TRUE(parsed.is_ok());
  const auto options = daemon_options_from_config(parsed.value());
  ASSERT_TRUE(options.is_ok());
  EXPECT_EQ(options.value().result_cache_bytes, 8u << 20);

  const auto disabled = KeyValueMap::parse("result_cache_bytes=0\n");
  ASSERT_TRUE(disabled.is_ok());
  EXPECT_EQ(daemon_options_from_config(disabled.value())
                .value()
                .result_cache_bytes,
            0u);

  const auto bad = KeyValueMap::parse("result_cache_bytes=lots\n");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(daemon_options_from_config(bad.value()).is_ok());
}

TEST(ModuleRegistry, Basics) {
  ModuleRegistry registry;
  EXPECT_TRUE(registry.add(echo_module()).is_ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.find("echo"), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_FALSE(registry.add(nullptr).is_ok());
  EXPECT_FALSE(registry.add(std::make_shared<FunctionModule>(
                                "bad name", nullptr))
                   .is_ok());
  EXPECT_EQ(registry.names(), std::vector<std::string>{"echo"});
}

TEST(DaemonConfig, ParsesAllKeys) {
  const auto parsed = KeyValueMap::parse(
      "log_dir=/srv/mcsd\n"
      "dispatch_threads=4\n"
      "pool_bytes=8MiB\n"
      "result_cache_bytes=1MiB\n"
      "channel_shards=1\n"
      "admission_queue_limit=16\n"
      "drain_interval_ms=3\n");
  ASSERT_TRUE(parsed.is_ok());
  const auto options = daemon_options_from_config(parsed.value());
  ASSERT_TRUE(options.is_ok()) << options.error().to_string();
  EXPECT_EQ(options.value().log_dir, "/srv/mcsd");
  EXPECT_EQ(options.value().dispatch_threads, 4u);
  EXPECT_EQ(options.value().pool_bytes, 8u << 20);
  EXPECT_EQ(options.value().result_cache_bytes, 1u << 20);
  EXPECT_EQ(options.value().channel_shards, 1u);
  EXPECT_EQ(options.value().admission_queue_limit, 16u);
  EXPECT_EQ(options.value().drain_interval, std::chrono::milliseconds{3});
}

TEST(DaemonConfig, DefaultsApplyForOmittedKeys) {
  const auto options = daemon_options_from_config(KeyValueMap{});
  ASSERT_TRUE(options.is_ok());
  EXPECT_EQ(options.value().dispatch_threads, 1u);
  EXPECT_EQ(options.value().channel_shards, 8u);
  EXPECT_EQ(options.value().admission_queue_limit, 256u);
  EXPECT_EQ(options.value().drain_interval, std::chrono::milliseconds{1});
}

TEST(DaemonConfig, RejectsBadValuesAndUnknownKeys) {
  for (const char* bad : {"drain_interval_ms=0\n", "dispatch_threads=0\n",
                          "pol_interval_ms=2\n",
                          // Keys of the retired module-log watcher.
                          "poll_interval_ms=2\n", "backend=inotify\n"}) {
    const auto parsed = KeyValueMap::parse(bad);
    ASSERT_TRUE(parsed.is_ok()) << bad;
    EXPECT_FALSE(daemon_options_from_config(parsed.value()).is_ok()) << bad;
  }
}

// The mailbox channel is the only channel: zero shards would leave the
// daemon unreachable, so both the config parser and the constructor
// refuse it.
TEST(DaemonConfig, ZeroShardsRejected) {
  const auto parsed = KeyValueMap::parse("channel_shards=0\n");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_FALSE(daemon_options_from_config(parsed.value()).is_ok());

  TempDir dir{"famzeroshards"};
  DaemonOptions options{dir.path(), 1};
  options.channel_shards = 0;
  EXPECT_THROW(Daemon{options}, std::runtime_error);
}

// The daemon splits its module-run histogram by result-cache outcome, so
// a trace shows what a hit saves over a cold run.
#if MCSD_OBS_ENABLED
TEST(DaemonObs, DispatchHistogramsSplitHitFromCold) {
  const auto count_of = [](std::string_view name) {
    for (const auto& h : obs::Registry::instance().snapshot().histograms) {
      if (h.name == name) return h.data.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t hits_before = count_of("fam.dispatch_hit_us");
  const std::uint64_t cold_before = count_of("fam.dispatch_cold_us");

  TempDir dir{"famobs"};
  Daemon daemon{DaemonOptions{dir.path(), 1}};
  std::atomic<int> executions{0};
  ASSERT_TRUE(daemon.preload(counting_module(executions)).is_ok());
  daemon.start();
  const auto corpus = dir / "corpus.txt";
  ASSERT_TRUE(write_file(corpus, "hit or miss").is_ok());
  ClientOptions copts;
  copts.log_dir = dir.path();
  Client client{copts};
  KeyValueMap params;
  params.set("input", corpus.string());
  InvokeInfo miss;
  ASSERT_TRUE(client.invoke("counted", params, &miss).is_ok());
  InvokeInfo hit;
  ASSERT_TRUE(client.invoke("counted", params, &hit).is_ok());
  daemon.stop();
  ASSERT_EQ(miss.cache, CacheState::kMiss);
  ASSERT_EQ(hit.cache, CacheState::kHit);

  EXPECT_GE(count_of("fam.dispatch_cold_us") - cold_before, 1u);
  EXPECT_GE(count_of("fam.dispatch_hit_us") - hits_before, 1u);
}
#endif

}  // namespace
}  // namespace mcsd::fam
