// Fig. 10 — speedups of the Matrix-Multiplication / String-Match pair.
//
// Same four configurations as Fig. 9, with SM as the data-intensive job.
// Paper shape: no Fig. 9-style blow-up — "the speedups of the MM/SM,
// which represents less data-intensive applications, are both averagely
// 2X" — because SM's overflow is mostly clean input pages.  Here every
// alternative stays within ~0.9-2.5x.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "cluster/scenarios.hpp"

using namespace mcsd;
using namespace mcsd::sim;
using namespace mcsd::literals;

int main(int argc, char** argv) {
  const benchutil::BenchEnv env =
      benchutil::parse_bench_env(argc, argv);
  const Testbed& tb = env.tb;
  const std::uint64_t partition = env.partition_size;
  const std::vector<std::uint64_t> sizes{500_MiB, 750_MiB, 1_GiB,
                                         1_GiB + 256_MiB};
  const AppProfile& mm = env.mm;
  const AppProfile& sm = env.sm;

  std::puts("=== Fig. 10: MM/SM multi-application speedups ===");
  std::puts("(reference: McSD partitioned, 600M fragments)\n");

  Table t{{"size", "McSD part. (s)", "host-only (s)", "trad SD (s)",
           "no-part (s)", "(a) host-only x", "(b) trad SD x",
           "(c) no-part x"}};
  for (const std::uint64_t bytes : sizes) {
    const auto reference = run_pair(tb, PairScenario::kMcsdPartitioned, mm,
                                    sm, bytes, partition);
    const auto host =
        run_pair(tb, PairScenario::kHostOnly, mm, sm, bytes, partition);
    const auto trad =
        run_pair(tb, PairScenario::kTraditionalSd, mm, sm, bytes, partition);
    const auto nopart = run_pair(tb, PairScenario::kMcsdNoPartition, mm, sm,
                                 bytes, partition);
    const auto cell = [](const PairResult& r) {
      return r.completed ? Table::num(r.makespan_seconds, 1) : "OOM";
    };
    const auto ratio = [&](const PairResult& r) {
      return r.completed ? Table::num(speedup_vs(r, reference), 2) : "-";
    };
    t.add_row({format_bytes(bytes), Table::num(reference.makespan_seconds, 1),
               cell(host), cell(trad), cell(nopart), ratio(host), ratio(trad),
               ratio(nopart)});
  }
  benchutil::emit(env, t);
  std::puts("\npaper check: every alternative within ~0.9-2.5x at every"
            "\nsize, trad SD ~2.4x flat — no Fig. 9-style blow-up for the"
            "\nSM pair.");
  return 0;
}
