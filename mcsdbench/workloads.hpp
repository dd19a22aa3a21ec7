// The three workloads: inputs generated from the seed, the asks a client
// sends, and each ask's reference reply computed before any timing.
//
//   scan_hot    1 client sends two wordcounts per stringmatch over inputs
//               resident in the daemon's pool; a unique nonce per invoke
//               makes every ask a result-cache miss.  The map kernel and
//               the fragment merge do the work.
//   ooc_mixed   1 client cycles wordcount, stringmatch, sort, wordcount,
//               stringmatch, select.
//               wordcount/stringmatch read inputs 3x the (small) pool
//               from an emulated 40 MiB/s disk, several fragments per
//               invoke; sort spills runs under a memory budget below its
//               input; select writes its matching rows.  Storage sets the
//               time.
//   serve_zipf  4 clients, one fam::Client each, draw zipf(1.0) over a
//               universe of small cacheable asks whose replies total ~2x
//               the result-cache budget.  The serving channel and the
//               cache set the time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mcsdbench {

enum class Op : std::uint8_t { kWordcount, kStringmatch, kSort, kSelect };
inline constexpr std::size_t kOps = 4;
const char* op_name(Op op);

/// One invoke a client can send, with what its reply must say.
struct Ask {
  Op op = Op::kWordcount;
  mcsd::KeyValueMap params;
  /// Send with a fresh `nonce` parameter each time: the modules ignore
  /// it, the result cache keys on it, so the ask always runs the module.
  bool unique = false;
  /// Bytes of input the ask names (its input file's size).
  std::uint64_t input_bytes = 0;
  /// Reply fields that must match exactly.
  mcsd::KeyValueMap expect;
  /// select: the exact bytes the output file must hold.
  std::string expect_output;
};

struct Workload {
  std::string name;
  std::size_t clients = 1;
  /// Daemon sizing; 0 keeps the daemon's default.
  std::size_t pool_bytes = 0;
  std::size_t result_cache_bytes = 0;
  std::vector<Ask> asks;
  /// true: each client draws asks zipf(1.0) over a seeded permutation;
  /// false: each client cycles through `asks` in order.
  bool zipf = false;
  /// Asks sent (with a nonce) during set-up: they load the pool and the
  /// modules' resident engines.  The result cache is cleared afterwards.
  std::vector<std::size_t> warmup;
};

/// Writes the workload's inputs under `data_dir` and computes every
/// ask's reference.  Deterministic in (name, seed).  Throws
/// std::runtime_error on an unknown name or an I/O failure.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::filesystem::path& data_dir);

/// Breaks every reference so that every reply must be flagged; the
/// benchmark's self-test uses it to show the checks can fail.
void corrupt_references(Workload& workload);

/// Checks one successful reply against the ask's reference (reading the
/// output file for sort and select).  Returns "" when it matches, else
/// what differed.
std::string check_reply(const Ask& ask, const mcsd::KeyValueMap& reply);

}  // namespace mcsdbench
