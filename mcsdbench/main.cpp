// mcsdbench: the McSD offload benchmark, end to end through smartFAM.
//
//   mcsdbench --workload scan_hot|ooc_mixed|serve_zipf --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//             [--corrupt-reference]
//
// One process runs an in-process fam::Daemon with the standard apps
// modules preloaded on its buffer pool (engine workers = cores) and the
// workload's fam::Client threads in a closed loop: a host that offloads a
// kernel blocks on the reply.  Every reply is checked against a reference
// computed before set-up.
//
// After set-up an untimed warm-up window brings the result cache and the
// pool to their steady state.  --trace 0 then measures the end-to-end
// metrics with the benchmark's spans off (the program's obs stays at its
// default, on); throughput and latencies are medians over equal
// intervals of the timed window.  --trace 1 runs four
// slices, untraced and traced alternately, and derives the per-layer
// metrics from the traced ones: the benchmark's spans, the Daemon /
// PoolStats / CacheStats accessors, the replies, and obs::Registry
// deltas.  It also writes a chrome://tracing file to --out-dir.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (the set every workload reports), extra_metrics (percentiles,
// per-op latencies, and those defined on only some workloads), host
// fingerprint and memcpy roofline.  Exit 1 when any reply differed from
// its reference, 2 on a set-up error.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/modules.hpp"
#include "core/random.hpp"
#include "core/stopwatch.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"
#include "host.hpp"
#include "json.hpp"
#include "obs/counters.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace mcsdbench {
namespace {

namespace fs = std::filesystem;
using mcsd::KeyValueMap;

constexpr int kSetups = 9;  ///< set-ups per run (all but the last in a child)
constexpr int kTraceSlices = 4;  ///< untraced, traced, untraced, traced
/// The timed window is cut into up to kMaxIntervals intervals of equal
/// length, each holding at least kMinIntervalSamples replies.  Throughput
/// and latencies are taken per interval and reported as the median over
/// intervals, so a burst of load from outside the benchmark
/// that covers less than half of the window does not move them.
constexpr std::size_t kMaxIntervals = 15;
constexpr std::size_t kMinIntervalSamples = 64;
/// An untimed closed-loop window between set-up and timing, a tenth of
/// the timed window (at most 3 s): the result cache, the pool and the
/// host's caches reach their steady state before the first timed reply.
constexpr double kWarmShare = 0.1;
constexpr double kWarmMaxSeconds = 3.0;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_out/work";
  fs::path out_dir = ".bench_out";
  bool corrupt = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--out-dir") a.out_dir = v;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// Linear-interpolated quantile (the "type 7" estimator); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of an obs log2 histogram, interpolated linearly inside the
/// bucket that holds it (the histogram only knows the bucket).
double hist_quantile(const mcsd::obs::HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t b = 0; b < mcsd::obs::HistogramData::kBuckets; ++b) {
    const auto n = static_cast<double>(h.buckets[b]);
    if (n == 0) continue;
    if (seen + n >= rank) {
      if (b == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo + lo * (rank - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

double status_mib(const std::string& field) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0.0;
}

double peak_rss_mib() { return status_mib("VmHWM:"); }

/// CPU time of every thread of this process.  On a guest whose kernel
/// accounts steal time this leaves out the time the host ran something
/// else, which wall-clock timings cannot.
double process_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Restarts the peak-RSS watermark at the current footprint, so the peak
/// covers the timed run on top of what set-up left resident, and not
/// input generation, references or the set-ups' churn.
void reset_peak_rss() {
  malloc_trim(0);  // hand back what input generation freed
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5";
}

struct Sample {
  Op op = Op::kWordcount;
  double ms = 0;
  std::uint64_t input_bytes = 0;
  double done_s = 0;  ///< reply time, in seconds from the window's start
};

/// What one or more closed-loop windows observed.
struct Window {
  std::vector<Sample> ok;  ///< successful replies that matched
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;      ///< error replies and timeouts
  std::uint64_t mismatches = 0;  ///< replies that differed from the reference
  std::uint64_t backpressure_retries = 0;
  std::uint64_t sort_runs = 0;
  std::uint64_t sort_bytes_written = 0;
  std::uint64_t sort_input_bytes = 0;
  std::uint64_t select_bytes_out = 0;
  std::uint64_t select_input_bytes = 0;
  double seconds = 0;
  double cpu_seconds = 0;  ///< this process's CPU time: daemon and clients
  std::vector<std::string> problems;  ///< first few, for the report

  /// Appends `o`; its samples' times continue from this window's end.
  void add(const Window& o) {
    for (Sample s : o.ok) {
      s.done_s += seconds;
      ok.push_back(s);
    }
    attempted += o.attempted;
    errors += o.errors;
    mismatches += o.mismatches;
    backpressure_retries += o.backpressure_retries;
    sort_runs += o.sort_runs;
    sort_bytes_written += o.sort_bytes_written;
    sort_input_bytes += o.sort_input_bytes;
    select_bytes_out += o.select_bytes_out;
    select_input_bytes += o.select_input_bytes;
    seconds += o.seconds;
    cpu_seconds += o.cpu_seconds;
    for (const auto& p : o.problems) {
      if (problems.size() < 5) problems.push_back(p);
    }
  }
  [[nodiscard]] double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(ok.size()) / seconds : 0.0;
  }
  [[nodiscard]] std::vector<double> latencies(std::optional<Op> op = {}) const {
    std::vector<double> ms;
    for (const auto& s : ok) {
      if (!op || s.op == *op) ms.push_back(s.ms);
    }
    return ms;
  }
};

/// Daemon-side counters read through the program's own accessors.
struct ServeCounters {
  std::uint64_t accepted = 0, coalesced = 0, batches_run = 0, rejected = 0,
                deadline_shed = 0, superseded = 0, reply_conflicts = 0;
};

/// Everything the traced slices read from the program, as deltas.
struct LayerTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, mcsd::obs::HistogramData> hists;
  mcsd::storage::PoolStats pool;
  mcsd::cache::CacheStats cache;
  ServeCounters serve;
  std::int64_t queue_depth_max = 0;
};

struct ProgramState {
  mcsd::obs::MetricsSnapshot obs;
  mcsd::storage::PoolStats pool;
  mcsd::cache::CacheStats cache;
  ServeCounters serve;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const auto& m : metrics) {
    JsonObject v;
    v.add_number("value", m.value);
    v.add_string("unit", m.unit);
    o.add_raw(m.name, v.str());
  }
  return o.str();
}

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)), wl_(std::move(workload)) {
    // zipf rank -> ask: the seed shuffles the asks of each op, and the
    // ranks take the ops in turn.  Which asks are hot depends on the
    // seed; the op mix of the hot head (and so the bytes and compute a
    // miss costs) does not.
    mcsd::Rng shuffle{args_.seed * 7919 + 17};
    std::vector<std::vector<std::size_t>> by_op(kOps);
    for (std::size_t i = 0; i < wl_.asks.size(); ++i) {
      by_op[static_cast<std::size_t>(wl_.asks[i].op)].push_back(i);
    }
    for (auto& asks : by_op) {
      for (std::size_t i = asks.size(); i > 1; --i) {
        std::swap(asks[i - 1], asks[shuffle.next_below(i)]);
      }
    }
    for (std::size_t round = 0; order_.size() < wl_.asks.size(); ++round) {
      for (const auto& asks : by_op) {
        if (round < asks.size()) order_.push_back(asks[round]);
      }
    }
    for (std::size_t c = 0; c < wl_.clients; ++c) {
      rngs_.emplace_back(args_.seed * 1'000'003 + c);
      cursors_.push_back(c);
    }
  }

  /// Builds a daemon and its clients from scratch and warms them up.
  /// Returns the seconds it took.
  double set_up(int round) {
    clients_.clear();
    daemon_.reset();
    const fs::path log_dir = args_.work_dir / ("logs-" + std::to_string(round));
    fs::remove_all(log_dir);
    mcsd::Stopwatch watch;

    mcsd::fam::DaemonOptions options;
    options.log_dir = log_dir;
    options.dispatch_threads = 2;  // mcsd_daemon's default
    options.pool_bytes = wl_.pool_bytes;
    if (wl_.result_cache_bytes != 0) {
      options.result_cache_bytes = wl_.result_cache_bytes;
    }
    daemon_ = std::make_unique<mcsd::fam::Daemon>(options);
    const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
    const mcsd::Status preloaded = mcsd::apps::preload_standard_modules(
        [&](std::shared_ptr<mcsd::fam::Module> module) {
          return daemon_->preload(
              std::make_shared<TracedModule>(std::move(module), spans_));
        },
        cores, daemon_->buffer_pool());
    if (!preloaded) throw std::runtime_error("preload: " + preloaded.to_string());
    daemon_->start();

    for (std::size_t c = 0; c < wl_.clients; ++c) {
      mcsd::fam::ClientOptions client;
      client.log_dir = log_dir;
      client.poll_interval = std::chrono::milliseconds{1};
      client.timeout = std::chrono::milliseconds{60'000};
      clients_.push_back(std::make_unique<mcsd::fam::Client>(client));
    }
    // Every client sends at least one warm-up ask, so each has found the
    // channel before timing starts.
    const std::size_t sends = std::max(wl_.warmup.size(), wl_.clients);
    for (std::size_t k = 0; k < sends; ++k) {
      const Ask& ask = wl_.asks[wl_.warmup[k % wl_.warmup.size()]];
      KeyValueMap params = ask.params;
      params.set("nonce", "warmup-" + std::to_string(round) + "-" +
                              std::to_string(k));
      auto reply = clients_[k % wl_.clients]->invoke(op_name(ask.op), params);
      if (!reply) throw std::runtime_error("warm-up: " + reply.error().to_string());
      if (auto bad = check_reply(ask, reply.value());
          !bad.empty() && !args_.corrupt) {
        throw std::runtime_error("warm-up reply wrong: " + bad);
      }
    }
    if (auto* cache = daemon_->result_cache()) cache->clear();
    return watch.elapsed_seconds();
  }

  /// One closed-loop window of `seconds` over every client.
  Window run_window(double seconds, bool traced) {
    spans_.set_enabled(traced);
    std::vector<Window> per_client(wl_.clients);
    std::vector<std::thread> threads;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    mcsd::Stopwatch watch;
    const double cpu_start = process_cpu_seconds();
    const std::int64_t start_ns = spans_.now_ns();
    for (std::size_t c = 0; c < wl_.clients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(c, start_ns, deadline, traced, per_client[c]);
      });
    }
    for (auto& t : threads) t.join();
    spans_.set_enabled(false);
    Window all;
    for (const auto& w : per_client) all.add(w);
    all.seconds = watch.elapsed_seconds();
    all.cpu_seconds = process_cpu_seconds() - cpu_start;
    return all;
  }

  ProgramState program_state() const {
    ProgramState s;
    s.obs = mcsd::obs::Registry::instance().snapshot();
    s.pool = daemon_->buffer_pool()->stats();
    if (auto* cache = daemon_->result_cache()) s.cache = cache->stats();
    s.serve = {daemon_->accepted(),     daemon_->coalesced(),
               daemon_->batches_run(),  daemon_->rejected(),
               daemon_->deadline_shed(), daemon_->superseded(),
               daemon_->reply_conflicts()};
    return s;
  }

  [[nodiscard]] const SpanLog& spans() const { return spans_; }

  void tear_down() {
    clients_.clear();
    daemon_.reset();
  }

 private:
  const Ask& next_ask(std::size_t c) {
    if (wl_.zipf) return wl_.asks[order_[zipf_.sample(rngs_[c])]];
    return wl_.asks[cursors_[c]++ % wl_.asks.size()];
  }

  void client_loop(std::size_t c, std::int64_t start_ns,
                   std::chrono::steady_clock::time_point deadline,
                   bool traced, Window& w) {
    mcsd::fam::Client& client = *clients_[c];
    while (std::chrono::steady_clock::now() < deadline) {
      const Ask& ask = next_ask(c);
      KeyValueMap params = ask.params;
      if (ask.unique) {
        params.set("nonce", std::to_string(args_.seed) + "-" +
                                std::to_string(nonce_.fetch_add(1)));
      }
      mcsd::fam::InvokeInfo info;
      const std::int64_t t0 = spans_.now_ns();
      auto reply = client.invoke(op_name(ask.op), params, &info);
      const std::int64_t t1 = spans_.now_ns();
      ++w.attempted;
      if (!reply) {
        ++w.errors;
        if (w.problems.size() < 5) w.problems.push_back(reply.error().to_string());
        continue;
      }
      w.backpressure_retries += static_cast<std::uint64_t>(info.backpressure_retries);
      if (auto bad = check_reply(ask, reply.value()); !bad.empty()) {
        ++w.mismatches;
        if (w.problems.size() < 5) {
          w.problems.push_back(std::string{op_name(ask.op)} + ": " + bad);
        }
        continue;
      }
      w.ok.push_back({ask.op, static_cast<double>(t1 - t0) / 1e6, ask.input_bytes,
                      static_cast<double>(t1 - start_ns) / 1e9});
      if (ask.op == Op::kSort) {
        const auto runs = reply.value().get_uint("runs").value_or(0);
        const auto bytes = reply.value().get_uint("bytes").value_or(0);
        w.sort_runs += runs;
        // Spilled runs (when there is more than one) plus the output.
        w.sort_bytes_written += bytes * (runs > 1 ? 2 : 1);
        w.sort_input_bytes += ask.input_bytes;
      } else if (ask.op == Op::kSelect) {
        w.select_bytes_out += reply.value().get_uint("bytes_out").value_or(0);
        w.select_input_bytes += ask.input_bytes;
      }
      if (traced) {
        Span span;
        span.name = std::string{"client:"} + op_name(ask.op);
        span.id = params.serialize();
        span.start_ns = t0;
        span.end_ns = t1;
        span.tid = this_thread_tid();
        span.cache = info.cache == mcsd::fam::CacheState::kHit    ? "hit"
                     : info.cache == mcsd::fam::CacheState::kMiss ? "miss"
                                                                  : "none";
        spans_.record(std::move(span));
      }
    }
  }

  Args args_;
  Workload wl_;
  SpanLog spans_;
  std::unique_ptr<mcsd::fam::Daemon> daemon_;
  std::vector<std::unique_ptr<mcsd::fam::Client>> clients_;
  std::vector<std::size_t> order_;  ///< zipf rank -> ask index
  mcsd::ZipfSampler zipf_{std::max<std::size_t>(wl_.asks.size(), 1), 1.0};
  std::vector<mcsd::Rng> rngs_;
  std::vector<std::size_t> cursors_;
  std::atomic<std::uint64_t> nonce_{0};
};

/// Times one set-up in a child process.  The program keeps per-thread
/// state for the life of the process (obs trace rings, malloc arenas),
/// so set-ups repeated in this process would inflate the footprint the
/// timed run starts from.  Call only while this process has one thread.
double set_up_in_child(Bench& bench, int round) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1;
    try {
      seconds = bench.set_up(round);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcsdbench: set-up %d: %s\n", round, e.what());
    }
    const bool sent = write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    _exit(sent ? 0 : 1);  // the daemon's threads end with the process
  }
  close(fds[1]);
  double seconds = -1;
  const bool got = read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || seconds < 0) throw std::runtime_error("set-up failed");
  return seconds;
}

void add_delta(LayerTotals& acc, const ProgramState& before,
               const ProgramState& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& c : before.obs.counters) base[c.name] = c.value;
  for (const auto& c : after.obs.counters) {
    acc.counters[c.name] += c.value - base[c.name];
  }
  std::map<std::string, const mcsd::obs::HistogramData*> hbase;
  for (const auto& h : before.obs.histograms) hbase[h.name] = &h.data;
  for (const auto& h : after.obs.histograms) {
    auto& d = acc.hists[h.name];
    const auto* b = hbase.count(h.name) ? hbase[h.name] : nullptr;
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] += h.data.buckets[i] - (b ? b->buckets[i] : 0);
    }
    d.count += h.data.count - (b ? b->count : 0);
    d.sum += h.data.sum - (b ? b->sum : 0);
    d.max = std::max(d.max, h.data.max);
  }
  const auto& p0 = before.pool;
  const auto& p1 = after.pool;
  acc.pool.hits += p1.hits - p0.hits;
  acc.pool.misses += p1.misses - p0.misses;
  acc.pool.evictions += p1.evictions - p0.evictions;
  acc.pool.prefetches += p1.prefetches - p0.prefetches;
  acc.pool.read_retries += p1.read_retries - p0.read_retries;
  acc.cache.hits += after.cache.hits - before.cache.hits;
  acc.cache.misses += after.cache.misses - before.cache.misses;
  acc.cache.evictions += after.cache.evictions - before.cache.evictions;
  acc.cache.bytes = after.cache.bytes;
  const auto& s0 = before.serve;
  const auto& s1 = after.serve;
  acc.serve.accepted += s1.accepted - s0.accepted;
  acc.serve.coalesced += s1.coalesced - s0.coalesced;
  acc.serve.batches_run += s1.batches_run - s0.batches_run;
  acc.serve.rejected += s1.rejected - s0.rejected;
  acc.serve.deadline_shed += s1.deadline_shed - s0.deadline_shed;
  acc.serve.superseded += s1.superseded - s0.superseded;
  acc.serve.reply_conflicts += s1.reply_conflicts - s0.reply_conflicts;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct LayerMetrics {
  std::vector<Metric> metrics;  ///< defined on every workload
  std::vector<Metric> extras;   ///< defined only where samples exist
};

LayerMetrics layer_metrics(const Window& traced,
                           const Window& untraced, const LayerTotals& t,
                           const std::vector<Span>& spans,
                           double memcpy_gbps_1t, double memcpy_gbps_nt) {
  LayerMetrics out;
  auto add = [&](std::string name, double v, std::string unit) {
    out.metrics.push_back({std::move(name), v, std::move(unit)});
  };
  auto extra = [&](std::string name, double v, std::string unit) {
    out.extras.push_back({std::move(name), v, std::move(unit)});
  };
  auto counter = [&](const std::string& n) {
    auto it = t.counters.find(n);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist = [&](const std::string& n) {
    auto it = t.hists.find(n);
    return it == t.hists.end() ? mcsd::obs::HistogramData{} : it->second;
  };

  // fam: the channel is the client span less the module span(s) that ran
  // for it (same id, inside its interval); hits and coalesced joiners
  // subtract only what ran.
  std::map<std::string, std::vector<const Span*>> modules_by_id;
  std::map<std::string, std::vector<double>> module_ms;
  for (const Span& s : spans) {
    if (s.name.rfind("module:", 0) == 0) {
      modules_by_id[s.id].push_back(&s);
      module_ms[s.name.substr(7)].push_back(s.ms());
    }
  }
  std::vector<double> channel_ms;
  std::vector<double> hit_us;
  for (const Span& s : spans) {
    if (s.name.rfind("client:", 0) != 0) continue;
    double inside_ms = 0;
    for (const Span* m : modules_by_id[s.id]) {
      if (m->start_ns >= s.start_ns && m->end_ns <= s.end_ns) inside_ms += m->ms();
    }
    channel_ms.push_back(s.ms() - inside_ms);
    if (s.cache == "hit") hit_us.push_back(s.ms() * 1e3);
  }
  add("fam.channel_ms.p50", quantile(channel_ms, 0.5), "ms");
  add("fam.channel_ms.p90", quantile(channel_ms, 0.9), "ms");
  const auto& sv = t.serve;
  add("fam.coalesce_rate",
      ratio(static_cast<double>(sv.coalesced),
            static_cast<double>(sv.accepted + sv.coalesced)), "ratio");
  add("fam.accepted", static_cast<double>(sv.accepted), "count");
  add("fam.coalesced", static_cast<double>(sv.coalesced), "count");
  add("fam.batches_run", static_cast<double>(sv.batches_run), "count");
  add("fam.rejected", static_cast<double>(sv.rejected), "count");
  add("fam.client_backpressure_retries",
      static_cast<double>(traced.backpressure_retries), "count");
  add("fam.deadline_shed", static_cast<double>(sv.deadline_shed), "count");
  add("fam.superseded", static_cast<double>(sv.superseded), "count");
  add("fam.reply_conflicts", static_cast<double>(sv.reply_conflicts), "count");
  add("fam.batch_us.p50", hist_quantile(hist("fam.serve.batch_us"), 0.5), "us");
  add("fam.reply_write_us.p50",
      hist_quantile(hist("fam.serve.reply_write_us"), 0.5), "us");
  add("fam.queue_depth.max", static_cast<double>(t.queue_depth_max), "count");

  // cache
  add("cache.hit_rate", t.cache.hit_rate(), "ratio");
  add("cache.hits", static_cast<double>(t.cache.hits), "count");
  add("cache.misses", static_cast<double>(t.cache.misses), "count");
  add("cache.evictions", static_cast<double>(t.cache.evictions), "count");
  add("cache.bytes", static_cast<double>(t.cache.bytes), "bytes");
  if (!hit_us.empty()) extra("cache.hit_dispatch_us.p50", quantile(hit_us, 0.5), "us");

  // storage: bytes read = page loads x frame size, against the input the
  // pool-backed scans (wordcount, stringmatch) named.
  std::uint64_t scan_input = 0;
  for (const auto& s : traced.ok) {
    if (s.op == Op::kWordcount || s.op == Op::kStringmatch) {
      scan_input += s.input_bytes;
    }
  }
  add("storage.hit_rate", t.pool.hit_rate(), "ratio");
  add("storage.misses", static_cast<double>(t.pool.misses), "count");
  add("storage.evictions", static_cast<double>(t.pool.evictions), "count");
  add("storage.prefetches", static_cast<double>(t.pool.prefetches), "count");
  add("storage.read_retries", static_cast<double>(t.pool.read_retries), "count");
  add("storage.read_bytes_per_input_byte",
      ratio(static_cast<double>(t.pool.misses) *
                static_cast<double>(mcsd::storage::PoolOptions{}.frame_bytes),
            static_cast<double>(scan_input)),
      "ratio");
  if (hist("storage.fill_us").count != 0) {
    extra("storage.fill_us.p50", hist_quantile(hist("storage.fill_us"), 0.5), "us");
  }

  // partition
  const double scan_runs = static_cast<double>(module_ms["wordcount"].size() +
                                               module_ms["stringmatch"].size());
  add("partition.fragments_per_invoke", ratio(counter("part.fragments"), scan_runs),
      "count");
  add("partition.fragment_us.p50", hist_quantile(hist("part.fragment_us"), 0.5),
      "us");
  add("partition.integrity_scan_bytes",
      static_cast<double>(hist("part.integrity_scan_bytes").sum), "bytes");

  // mapreduce
  const double input_mib = counter("mr.input_bytes") / kMiB;
  const double map_us = static_cast<double>(hist("mr.map_phase_us").sum);
  const double emits = counter("mr.map_emits");
  add("mapreduce.map_ms_per_mib", ratio(map_us / 1e3, input_mib), "ms/MiB");
  add("mapreduce.reduce_ms_per_mib",
      ratio(static_cast<double>(hist("mr.reduce_phase_us").sum) / 1e3, input_mib),
      "ms/MiB");
  add("mapreduce.combine_ratio", ratio(emits, emits - counter("mr.combine_hits")),
      "ratio");
  add("mapreduce.map_cpu_over_wall",
      ratio(static_cast<double>(hist("mr.map_worker_cpu_us").sum), map_us), "ratio");
  const double scan_gbps = ratio(counter("mr.input_bytes") / 1e9, map_us / 1e6);
  add("mapreduce.scan_over_memcpy", ratio(scan_gbps, memcpy_gbps_nt), "ratio");

  // apps
  for (const Op op : {Op::kWordcount, Op::kStringmatch, Op::kSort, Op::kSelect}) {
    const auto& ms = module_ms[op_name(op)];
    const std::string name = std::string{"apps.module_ms.p50."} + op_name(op);
    if (op == Op::kWordcount || op == Op::kStringmatch) {
      add(name, quantile(ms, 0.5), "ms");
    } else if (!ms.empty()) {
      extra(name, quantile(ms, 0.5), "ms");
    }
  }
  add("apps.sort_runs", static_cast<double>(traced.sort_runs), "count");
  add("apps.sort_bytes_written_per_input_byte",
      ratio(static_cast<double>(traced.sort_bytes_written),
            static_cast<double>(traced.sort_input_bytes)),
      "ratio");
  add("apps.select_bytes_out_per_input_byte",
      ratio(static_cast<double>(traced.select_bytes_out),
            static_cast<double>(traced.select_input_bytes)),
      "ratio");

  // obs: what the benchmark's own spans cost (traced vs untraced slices)
  add("obs.trace_overhead_pct",
      100.0 * ratio(untraced.ops_per_s() - traced.ops_per_s(), untraced.ops_per_s()),
      "%");

  add("host.memcpy_gbps_1t", memcpy_gbps_1t, "GB/s");
  add("host.memcpy_gbps_nt", memcpy_gbps_nt, "GB/s");
  return out;
}

/// The window's replies cut into intervals of equal length by reply time.
std::vector<Window> intervals(const Window& w) {
  const std::size_t n = std::clamp<std::size_t>(w.ok.size() / kMinIntervalSamples,
                                                1, kMaxIntervals);
  std::vector<Window> out(n);
  for (auto& part : out) part.seconds = w.seconds / static_cast<double>(n);
  for (const auto& s : w.ok) {
    const auto k = static_cast<std::size_t>(s.done_s / w.seconds * static_cast<double>(n));
    out[std::min(k, n - 1)].ok.push_back(s);
  }
  return out;
}

/// Median over intervals of `f(interval)`, skipping those where it is
/// undefined.
template <typename F>
double interval_median(const std::vector<Window>& parts, F f) {
  std::vector<double> values;
  for (const auto& part : parts) {
    if (auto v = f(part)) values.push_back(*v);
  }
  return quantile(values, 0.5);
}

std::optional<double> latency_quantile(const Window& w, double q,
                                       std::optional<Op> op = {}) {
  const auto ms = w.latencies(op);
  if (ms.empty()) return std::nullopt;
  return quantile(ms, q);
}

/// Mean of the sorted latencies from share `lo` to share `hi` of their
/// ranks (0.25, 0.75: the interquartile mean); undefined when there are
/// none.  Requires lo < hi.
std::optional<double> latency_mean(const Window& w, std::optional<Op> op = {},
                                   double lo = 0.0, double hi = 1.0) {
  auto ms = w.latencies(op);
  if (ms.empty()) return std::nullopt;
  std::sort(ms.begin(), ms.end());
  const auto n = static_cast<double>(ms.size());
  const auto first = static_cast<std::size_t>(std::floor(lo * n));
  const auto last = static_cast<std::size_t>(std::ceil(hi * n));
  double sum = 0;
  for (std::size_t i = first; i < last; ++i) sum += ms[i];
  return sum / static_cast<double>(last - first);
}

std::vector<Metric> end_to_end(const Window& w, double setup_s,
                               std::vector<Metric>& extras) {
  const auto parts = intervals(w);
  auto input_mib_per_s = [](const Window& part) -> std::optional<double> {
    std::uint64_t input = 0;
    for (const auto& s : part.ok) input += s.input_bytes;
    return ratio(static_cast<double>(input) / kMiB, part.seconds);
  };
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"ops_per_s",
               interval_median(parts, [](const Window& p) -> std::optional<double> {
                 return p.ops_per_s();
               }),
               "1/s"});
  m.push_back({"input_mb_per_s", interval_median(parts, input_mib_per_s), "MiB/s"});
  auto latency = [&](double q, std::optional<Op> op = {}) {
    return interval_median(parts, [&](const Window& p) { return latency_quantile(p, q, op); });
  };
  auto mean = [&](std::optional<Op> op = {}, double lo = 0.0, double hi = 1.0) {
    return interval_median(parts,
                           [&](const Window& p) { return latency_mean(p, op, lo, hi); });
  };
  // The interquartile mean: like p50 it ignores the stalls in the tails,
  // and like a mean it moves smoothly when the share of round trips that
  // take one more client poll period (~1.1 ms) changes, where p50 jumps.
  m.push_back({"mid_mean_ms", mean({}, 0.25, 0.75), "ms"});
  m.push_back({"cpu_ms_per_op",
               ratio(w.cpu_seconds * 1e3, static_cast<double>(w.ok.size())), "ms"});
  m.push_back({"ok_frac",
               ratio(static_cast<double>(w.ok.size()),
                     static_cast<double>(w.attempted)),
               "ratio"});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  extras.push_back({"mean_ms", mean(), "ms"});
  extras.push_back({"p50_ms", latency(0.5), "ms"});
  extras.push_back({"p90_ms", latency(0.9), "ms"});
  for (const Op op : {Op::kWordcount, Op::kStringmatch}) {
    const std::string name = op_name(op);
    extras.push_back({name + "_mean_ms", mean(op), "ms"});
    extras.push_back({name + "_p50_ms", latency(0.5, op), "ms"});
  }
  // The highest percentile with at least ten samples beyond it, over the
  // whole window.
  const auto all = w.latencies();
  if (all.size() >= 1000) extras.push_back({"p99_ms", quantile(all, 0.99), "ms"});
  for (const Op op : {Op::kSort, Op::kSelect}) {
    if (auto v = latency(0.5, op); v > 0) {
      extras.push_back({std::string{op_name(op)} + "_p50_ms", v, "ms"});
    }
  }
  extras.push_back({"failed_frac",
                    ratio(static_cast<double>(w.attempted - w.ok.size()),
                          static_cast<double>(w.attempted)),
                    "ratio"});
  extras.push_back({"samples", static_cast<double>(all.size()), "count"});
  extras.push_back({"intervals", static_cast<double>(parts.size()), "count"});
  return m;
}

int run(const Args& args) {
  const fs::path work = args.work_dir;
  fs::remove_all(work);
  Workload wl = make_workload(args.workload, args.seed, work / "data");
  if (args.corrupt) corrupt_references(wl);

  const HostFingerprint host = host_fingerprint();
  const double gbps_1t = memcpy_gbps(1);
  const double gbps_nt = memcpy_gbps(host.cores);

  Bench bench{args, std::move(wl)};
  std::vector<double> setups;
  for (int round = 0; round + 1 < kSetups; ++round) {
    setups.push_back(set_up_in_child(bench, round));
  }
  setups.push_back(bench.set_up(kSetups - 1));
  const double setup_s = quantile(setups, 0.5);
  const Window warm =
      bench.run_window(std::min(kWarmMaxSeconds, kWarmShare * args.seconds), false);
  reset_peak_rss();

  Window untraced;
  Window traced;
  LayerTotals totals;
  if (!args.trace) {
    untraced = bench.run_window(args.seconds, false);
  } else {
    auto& depth = mcsd::obs::Registry::instance().gauge("fam.serve.queue_depth");
    for (int slice = 0; slice < kTraceSlices; ++slice) {
      const double seconds = args.seconds / kTraceSlices;
      if (slice % 2 == 0) {
        untraced.add(bench.run_window(seconds, false));
        continue;
      }
      std::atomic<bool> sampling{true};
      std::thread sampler{[&] {
        while (sampling.load()) {
          totals.queue_depth_max = std::max(totals.queue_depth_max, depth.value());
          std::this_thread::sleep_for(std::chrono::microseconds{200});
        }
      }};
      const ProgramState before = bench.program_state();
      traced.add(bench.run_window(seconds, true));
      const ProgramState after = bench.program_state();
      sampling = false;
      sampler.join();
      add_delta(totals, before, after);
    }
  }
  bench.tear_down();

  Window all = untraced;
  if (args.trace) all.add(traced);
  std::vector<Metric> extras;
  std::vector<Metric> metrics = end_to_end(untraced, setup_s, extras);
  if (args.trace) {
    const auto layers = layer_metrics(traced, untraced, totals,
                                      bench.spans().spans(), gbps_1t, gbps_nt);
    metrics = layers.metrics;
    extras = layers.extras;
  }

  JsonObject roofline;
  roofline.add_number("memcpy_gbps_1t", gbps_1t);
  roofline.add_number("memcpy_gbps_nt", gbps_nt);
  roofline.add_number("threads", host.cores);

  std::printf("# mcsdbench workload=%s seed=%llu trace=%d seconds=%g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.seconds);
  std::printf("# host: %s\n", host.id().c_str());
  std::printf("# roofline: memcpy %.2f GB/s at 1 thread, %.2f GB/s at %u\n",
              gbps_1t, gbps_nt, host.cores);
  std::printf("# replies: %llu attempted, %llu ok, %llu errors, %llu wrong\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.ok.size()),
              static_cast<unsigned long long>(all.errors),
              static_cast<unsigned long long>(all.mismatches));
  if (warm.attempted != warm.ok.size()) {
    std::printf("# warm-up: %llu of %llu replies failed\n",
                static_cast<unsigned long long>(warm.attempted - warm.ok.size()),
                static_cast<unsigned long long>(warm.attempted));
  }
  for (const auto& p : warm.problems) std::printf("# problem: %s\n", p.c_str());
  for (const auto& p : all.problems) std::printf("# problem: %s\n", p.c_str());
  for (const auto* list : {&metrics, &extras}) {
    for (const auto& m : *list) {
      std::printf("%-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  if (args.trace) {
    fs::create_directories(args.out_dir);
    const fs::path trace_file =
        args.out_dir / (args.workload + "-seed" + std::to_string(args.seed) +
                        ".trace.json");
    JsonObject meta;
    meta.add_string("workload", args.workload);
    meta.add_raw("per_layer", metrics_json(metrics));
    meta.add_raw("extra", metrics_json(extras));
    if (!bench.spans().write_chrome_trace(trace_file, meta.str())) {
      throw std::runtime_error("cannot write " + trace_file.string());
    }
    std::printf("# trace: %s (%zu spans)\n", trace_file.c_str(),
                bench.spans().spans().size());
  }
  fs::remove_all(work);

  const bool correct =
      warm.mismatches == 0 && all.mismatches == 0 && all.attempted > 0;
  JsonObject result;
  result.add_bool("correct", correct);
  result.add_number("attempted", static_cast<double>(all.attempted));
  result.add_number("failed", static_cast<double>(all.attempted - all.ok.size()));
  result.add_raw("metrics", metrics_json(metrics));
  result.add_raw("extra_metrics", metrics_json(extras));
  result.add_string("workload", args.workload);
  result.add_number("seed", static_cast<double>(args.seed));
  result.add_number("trace", args.trace ? 1 : 0);
  result.add_raw("host", host.to_json());
  result.add_raw("roofline", roofline.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mcsdbench

int main(int argc, char** argv) {
  try {
    return mcsdbench::run(mcsdbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcsdbench: %s\n", e.what());
    return 2;
  }
}
