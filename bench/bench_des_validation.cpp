// Validation — discrete-event simulation vs the analytic models.
//
// The figure benches use closed-form models; this harness replays two of
// their core assumptions event by event and reports the error:
//   1. background-load slowdown: analytic `(1 - u)` bandwidth discount
//      vs a processor-sharing link carrying the actual message stream;
//   2. compute time: a lone wc/sm/mm job on a node's fluid-share server
//      (the DES MalleableCpu every scenario runs on) vs the closed form
//      CpuModel::compute_seconds that model_job and Fig. 8 use.
#include <cstdio>
#include <functional>

#include "cluster/des.hpp"
#include "cluster/profiles.hpp"
#include "cluster/testbed.hpp"
#include "core/table.hpp"

using namespace mcsd;
using namespace mcsd::sim;

namespace {

/// DES completion time of a bulk transfer under background messaging.
double des_bulk_seconds(double link_mibps, double bulk_mib,
                        double message_mib, double interval_s) {
  Simulator sim;
  Resource link{sim, "link", link_mibps};
  bool done = false;
  double finish = 0.0;
  std::function<void()> pump = [&] {
    if (done) return;
    link.submit(message_mib, nullptr);
    sim.schedule_in(interval_s, pump);
  };
  sim.schedule_at(0.0, pump);
  link.submit(bulk_mib, [&] {
    done = true;
    finish = sim.now();
  });
  sim.run();
  return finish;
}

}  // namespace

int main() {
  std::puts("=== DES validation 1: background-load bandwidth discount ===");
  std::puts("(200 MiB bulk transfer on a 100 MiB/s link; 64 KiB messages)\n");
  {
    Table t{{"background u", "analytic (s)", "DES (s)", "error"}};
    for (const double u : {0.05, 0.10, 0.20, 0.35, 0.50}) {
      const double message_mib = 0.0625;
      const double interval = message_mib / (u * 100.0);
      const double des = des_bulk_seconds(100.0, 200.0, message_mib, interval);
      const double analytic = 200.0 / (100.0 * (1.0 - u));
      t.add_row({Table::num(u, 2), Table::num(analytic, 2),
                 Table::num(des, 2),
                 Table::num((des - analytic) / analytic * 100.0, 1) + "%"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\ncheck: the linear (1-u) discount tracks processor sharing"
              "\nwithin a few percent across the load range the SMB model"
              "\nuses.");
  }

  std::puts("\n=== DES validation 2: lone-job compute time ===");
  std::puts("(1 GiB of input, alone on the node's fluid-share server)\n");
  {
    Table t{{"node", "app", "closed form (s)", "DES (s)", "error"}};
    for (const NodeSpec& node : {sd_node_duo(), host_node()}) {
      for (const AppProfile& app :
           {wordcount_profile(), stringmatch_profile(), matmul_profile()}) {
        const double work = 1024.0 * app.seconds_per_mib;
        const double pf = app.parallel_fraction;
        Simulator sim;
        MalleableCpu cpu{sim, node.cpu.cores, node.cpu.core_speed, 0.0,
                         ShareMode::kEqualShare};
        double des = 0.0;
        cpu.submit(work * (1.0 - pf) / node.cpu.core_speed, work * pf,
                   [&] { des = sim.now(); });
        sim.run();
        const double closed =
            node.cpu.compute_seconds(work, node.cpu.cores, pf);
        t.add_row({node.name, app.name, Table::num(closed, 2),
                   Table::num(des, 2),
                   Table::num((des - closed) / closed * 100.0, 1) + "%"});
      }
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("\ncheck: identical — the server runs serial work on one core"
              "\nand parallel work across all of them, which is the Amdahl"
              "\nclosed form the figure models use.");
  }
  return 0;
}
