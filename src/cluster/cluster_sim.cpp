#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/des.hpp"
#include "cluster/models.hpp"
#include "core/random.hpp"

namespace mcsd::sim {

double ClusterSpec::derived_fabric_mibps() const {
  if (fabric_mibps > 0.0) return fabric_mibps;
  return static_cast<double>(total_nodes()) * sd_template.nic.raw_mibps() /
         4.0;
}

namespace {

struct Node {
  std::size_t index = 0;
  bool is_sd = false;
  const NodeSpec* spec = nullptr;
  std::unique_ptr<Resource> disk;  ///< SD nodes only
  std::unique_ptr<MalleableCpu> cpu;
  std::size_t running_jobs = 0;
};

class ClusterEngine {
 public:
  ClusterEngine(const ClusterSpec& spec, const std::vector<TraceJob>& trace,
                PlacementPolicy& policy, std::uint64_t seed)
      : spec_(spec),
        trace_(trace),
        policy_(policy),
        rng_(seed),
        fabric_mibps_(spec.derived_fabric_mibps()),
        fabric_(sim_, "fabric", fabric_mibps_) {
    if (spec.total_nodes() == 0) {
      throw std::invalid_argument("run_cluster_sim: empty cluster");
    }
    nodes_.reserve(spec.total_nodes());
    for (std::size_t i = 0; i < spec.total_nodes(); ++i) {
      const bool is_sd = i < spec.sd_nodes;
      const NodeSpec& tmpl = is_sd ? spec.sd_template : spec.host_template;
      Node node;
      node.index = i;
      node.is_sd = is_sd;
      node.spec = &tmpl;
      if (is_sd) {
        node.disk = std::make_unique<Resource>(
            sim_, "disk" + std::to_string(i), tmpl.disk.seq_read_mibps);
      }
      node.cpu = std::make_unique<MalleableCpu>(
          sim_, tmpl.cpu.cores, tmpl.cpu.core_speed,
          spec.interference_per_job, spec.share_mode);
      nodes_.push_back(std::move(node));
    }
  }

  ClusterSimResult run() {
    result_.policy = policy_.name();
    result_.jobs.resize(trace_.size());
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      sim_.schedule_at(trace_[i].arrival_seconds, [this, i] { start(i); });
    }
    sim_.run();
    finalise();
    return std::move(result_);
  }

 private:
  void start(std::size_t i) {
    const TraceJob& tj = trace_[i];
    const std::size_t n = place(tj);
    Node& node = nodes_[n];
    ++node.running_jobs;

    JobOutcome& out = result_.jobs[i];
    out.arrival_seconds = tj.arrival_seconds;
    out.node = n;
    out.kernel = tj.kernel;
    out.input_bytes = tj.input_bytes;
    out.ideal_seconds = ideal_seconds(tj);

    const double mib = static_cast<double>(tj.input_bytes) / kMiBd;
    const bool local = node.is_sd && n == tj.home_node;
    out.remote_read = !local;
    if (!local) ++result_.remote_reads;

    // Phase chain: read -> map -> shuffle -> reduce -> done.
    Resource& reader = local ? *node.disk : fabric_;
    reader.submit(mib, [this, i, n, mib] { map_phase(i, n, mib); });
  }

  void map_phase(std::size_t i, std::size_t n, double mib) {
    const AppProfile& p = kernel_profile(trace_[i].kernel);
    const double total = mib * p.seconds_per_mib;
    const double map_work = total * (1.0 - p.reduce_fraction);
    submit_compute(n, map_work, p.parallel_fraction,
                   [this, i, n, mib] { shuffle_phase(i, n, mib); });
  }

  void shuffle_phase(std::size_t i, std::size_t n, double mib) {
    const AppProfile& p = kernel_profile(trace_[i].kernel);
    const double shuffle_mib = mib * p.shuffle_ratio;
    if (shuffle_mib > 1e-9) {
      fabric_.submit(shuffle_mib,
                     [this, i, n, mib] { reduce_phase(i, n, mib); });
    } else {
      reduce_phase(i, n, mib);
    }
  }

  void reduce_phase(std::size_t i, std::size_t n, double mib) {
    const AppProfile& p = kernel_profile(trace_[i].kernel);
    const double reduce_work = mib * p.seconds_per_mib * p.reduce_fraction;
    if (reduce_work > 1e-12) {
      submit_compute(n, reduce_work, p.parallel_fraction,
                     [this, i, n] { finish(i, n); });
    } else {
      finish(i, n);
    }
  }

  void finish(std::size_t i, std::size_t n) {
    result_.jobs[i].finish_seconds = sim_.now();
    --nodes_[n].running_jobs;
  }

  /// Splits `ref_work` reference-core-seconds into the fluid server's
  /// (serial wall-seconds, parallel ref-seconds) pair.
  void submit_compute(std::size_t n, double ref_work, double parallel_fraction,
                      MalleableCpu::Completion done) {
    Node& node = nodes_[n];
    const double serial_wall =
        ref_work * (1.0 - parallel_fraction) / node.spec->cpu.core_speed;
    const double parallel = ref_work * parallel_fraction;
    node.cpu->submit(serial_wall, parallel, std::move(done));
  }

  std::size_t place(const TraceJob& tj) {
    views_.clear();
    views_.reserve(nodes_.size());
    for (Node& node : nodes_) {
      NodeView view;
      view.index = node.index;
      view.is_sd = node.is_sd;
      view.cores = node.spec->cpu.cores;
      view.core_speed = node.spec->cpu.core_speed;
      view.running_jobs = node.running_jobs;
      view.cpu_backlog_ref_seconds = node.cpu->outstanding_ref_seconds();
      view.disk_backlog_mib = node.disk ? node.disk->outstanding_work() : 0.0;
      view.disk_mibps = node.spec->disk.seq_read_mibps;
      views_.push_back(view);
    }
    PlacementContext ctx;
    ctx.fabric_backlog_mib = fabric_.outstanding_work();
    ctx.fabric_mibps = fabric_mibps_;
    ctx.interference_per_job = spec_.interference_per_job;
    const std::size_t n = policy_.place(tj, views_, ctx, rng_);
    if (n >= nodes_.size()) {
      throw std::out_of_range("placement policy returned a bad node index");
    }
    return n;
  }

  /// Slowdown denominator: the least alone time over the placements the
  /// engine can make — the home SD reading its own disk, or any SD or
  /// host node reading over an idle fabric — charged with the terms the
  /// DES charges (seek-free streaming read, compute with the serial
  /// phase on one core, shuffle over the fabric).  No schedule beats it.
  [[nodiscard]] double ideal_seconds(const TraceJob& tj) const {
    const AppProfile& p = kernel_profile(tj.kernel);
    const double mib = static_cast<double>(tj.input_bytes) / kMiBd;
    const double work = mib * p.seconds_per_mib;
    const double fabric_read = mib / fabric_mibps_;
    const auto compute = [&](const NodeSpec& node) {
      return node.cpu.compute_seconds(work, node.cpu.cores,
                                      p.parallel_fraction);
    };
    double best = std::numeric_limits<double>::infinity();
    if (spec_.sd_nodes > 0) {
      const NodeSpec& sd = spec_.sd_template;
      best = std::min(mib / sd.disk.seq_read_mibps, fabric_read) +
             compute(sd);
    }
    if (spec_.host_nodes > 0) {
      best = std::min(best, fabric_read + compute(spec_.host_template));
    }
    return best + mib * p.shuffle_ratio / fabric_mibps_;
  }

  void finalise() {
    double makespan = 0.0;
    for (const JobOutcome& out : result_.jobs) {
      makespan = std::max(makespan, out.finish_seconds);
    }
    result_.makespan_seconds = makespan;
    result_.events = sim_.events_processed();

    if (makespan > 0.0) {
      double busy = 0.0;
      double cores = 0.0;
      double disk_served = 0.0;
      double disk_cap = 0.0;
      for (const Node& node : nodes_) {
        busy += node.cpu->busy_core_seconds();
        cores += static_cast<double>(node.spec->cpu.cores);
        if (node.disk) {
          disk_served += node.disk->work_served();
          disk_cap += node.disk->capacity();
        }
      }
      result_.cpu_utilization = busy / (cores * makespan);
      result_.fabric_utilization =
          fabric_.work_served() / (fabric_mibps_ * makespan);
      if (disk_cap > 0.0) {
        result_.disk_utilization = disk_served / (disk_cap * makespan);
      }
    }

    std::vector<double> slowdowns;
    slowdowns.reserve(result_.jobs.size());
    double sum = 0.0;
    for (const JobOutcome& out : result_.jobs) {
      slowdowns.push_back(out.slowdown());
      sum += slowdowns.back();
    }
    if (!slowdowns.empty()) {
      std::sort(slowdowns.begin(), slowdowns.end());
      result_.slowdown_mean = sum / static_cast<double>(slowdowns.size());
      result_.slowdown_p50 = percentile(slowdowns, 0.50);
      result_.slowdown_p95 = percentile(slowdowns, 0.95);
      result_.slowdown_p99 = percentile(slowdowns, 0.99);
    }
  }

  static double percentile(const std::vector<double>& sorted, double q) {
    const auto n = sorted.size();
    std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    idx = idx > 0 ? idx - 1 : 0;
    return sorted[std::min(idx, n - 1)];
  }

  const ClusterSpec& spec_;
  const std::vector<TraceJob>& trace_;
  PlacementPolicy& policy_;
  Rng rng_;
  Simulator sim_;
  double fabric_mibps_;
  Resource fabric_;
  std::vector<Node> nodes_;
  std::vector<NodeView> views_;
  ClusterSimResult result_;
};

}  // namespace

std::string ClusterSimResult::digest() const {
  std::string out;
  out.reserve(20 + 18 * jobs.size());
  char buf[64];
  std::snprintf(buf, sizeof buf, "m=%.9e", makespan_seconds);
  out += buf;
  for (const JobOutcome& job : jobs) {
    std::snprintf(buf, sizeof buf, ";%.9e", job.finish_seconds);
    out += buf;
  }
  return out;
}

ClusterSimResult run_cluster_sim(const ClusterSpec& spec,
                                 const std::vector<TraceJob>& trace,
                                 PlacementPolicy& policy,
                                 std::uint64_t seed) {
  ClusterEngine engine{spec, trace, policy, seed};
  return engine.run();
}

double fluid_makespan_lower_bound(const ClusterSpec& spec,
                                  const std::vector<TraceJob>& trace) {
  const double cpu_cap =
      static_cast<double>(spec.sd_nodes) *
          static_cast<double>(spec.sd_template.cpu.cores) *
          spec.sd_template.cpu.core_speed +
      static_cast<double>(spec.host_nodes) *
          static_cast<double>(spec.host_template.cpu.cores) *
          spec.host_template.cpu.core_speed;
  const double disk_cap = static_cast<double>(spec.sd_nodes) *
                          spec.sd_template.disk.seq_read_mibps;
  const double fabric_cap = spec.derived_fabric_mibps();

  double ref_work = 0.0;
  double read_mib = 0.0;
  double shuffle_mib = 0.0;
  double last_arrival = 0.0;
  for (const TraceJob& job : trace) {
    const AppProfile& p = kernel_profile(job.kernel);
    const double mib = static_cast<double>(job.input_bytes) / kMiBd;
    ref_work += mib * p.seconds_per_mib;
    read_mib += mib;
    shuffle_mib += mib * p.shuffle_ratio;
    last_arrival = std::max(last_arrival, job.arrival_seconds);
  }

  double bound = last_arrival;
  if (cpu_cap > 0.0) bound = std::max(bound, ref_work / cpu_cap);
  if (disk_cap > 0.0) bound = std::max(bound, read_mib / disk_cap);
  if (fabric_cap > 0.0) bound = std::max(bound, shuffle_mib / fabric_cap);
  return bound;
}

}  // namespace mcsd::sim
