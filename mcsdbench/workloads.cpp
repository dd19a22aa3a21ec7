#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "core/strings.hpp"

namespace mcsdbench {

namespace fs = std::filesystem;
using mcsd::KeyValueMap;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

/// Derives independent generator seeds from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  mcsd::SplitMix64 mix{seed * 0x9E3779B97F4A7C15ULL + salt};
  return mix.next();
}

void write_input(const fs::path& path, const std::string& bytes) {
  if (mcsd::Status s = mcsd::write_file(path, bytes); !s) {
    throw std::runtime_error("cannot write " + path.string() + ": " +
                             s.to_string());
  }
}

std::string corpus(std::uint64_t bytes, std::uint64_t seed) {
  mcsd::apps::CorpusOptions options;
  options.bytes = bytes;
  options.vocabulary = 20'000;
  options.seed = seed;
  return mcsd::apps::generate_corpus(options);
}

/// An SM line file with planted keys; returns the keys.
std::vector<std::string> line_file(std::uint64_t bytes, std::uint64_t seed,
                                   std::string& text) {
  mcsd::apps::LineFileOptions lines;
  lines.bytes = bytes;
  lines.seed = seed;
  text = mcsd::apps::generate_line_file(lines);
  mcsd::apps::KeysOptions keys;
  keys.seed = seed + 1;
  return mcsd::apps::generate_and_plant_keys(text, keys);
}

Ask wordcount_ask(const fs::path& input, const std::string& text,
                  std::size_t top, std::uint64_t partition_size,
                  double throttle_mibps) {
  Ask ask;
  ask.op = Op::kWordcount;
  ask.params.set("input", input.string());
  ask.params.set_uint("top", top);
  if (partition_size != 0) ask.params.set_uint("partition_size", partition_size);
  if (throttle_mibps > 0) ask.params.set_double("read_throttle_mibps", throttle_mibps);
  ask.input_bytes = text.size();
  auto counts = mcsd::apps::wordcount_sequential(text);
  mcsd::apps::sort_by_frequency_desc(counts);
  ask.expect.set_uint("total", mcsd::apps::total_occurrences(counts));
  ask.expect.set_uint("unique", counts.size());
  for (std::size_t i = 0; i < std::min(top, counts.size()); ++i) {
    ask.expect.set("top" + std::to_string(i), counts[i].key);
    ask.expect.set_uint("top" + std::to_string(i) + "_count", counts[i].value);
  }
  return ask;
}

Ask stringmatch_ask(const fs::path& input, const std::string& text,
                    const std::vector<std::string>& keys,
                    std::uint64_t partition_size, double throttle_mibps) {
  Ask ask;
  ask.op = Op::kStringmatch;
  ask.params.set("input", input.string());
  std::string csv;
  for (const auto& key : keys) csv += (csv.empty() ? "" : ",") + key;
  ask.params.set("keys", csv);
  if (partition_size != 0) ask.params.set_uint("partition_size", partition_size);
  if (throttle_mibps > 0) ask.params.set_double("read_throttle_mibps", throttle_mibps);
  ask.input_bytes = text.size();
  ask.expect.set_uint("matches",
                      mcsd::apps::stringmatch_sequential(text, keys).size());
  return ask;
}

std::uint64_t count_lines(std::string_view text) {
  std::uint64_t lines = 0;
  for (const auto line : mcsd::split(text, '\n')) lines += line.empty() ? 0 : 1;
  return lines;
}

Workload scan_hot(std::uint64_t seed, const fs::path& dir) {
  // Four fragments merge per invoke, and both inputs together (32 MiB)
  // sit inside the default 64 MiB pool with room to spare.  stringmatch
  // scans ~10x faster than wordcount counts, so its input is 3x larger:
  // over 8 MiB an invoke took ~9 ms, and its four fork-joins of ~0.6 ms
  // per worker read mostly how late the host woke each core.
  constexpr std::uint64_t kCorpus = 8 * kMiB;
  constexpr std::uint64_t kLines = 24 * kMiB;
  Workload w;
  w.name = "scan_hot";
  w.clients = 1;
  const std::string text = corpus(kCorpus, derive(seed, 1));
  write_input(dir / "corpus.txt", text);
  std::string lines;
  const auto keys = line_file(kLines, derive(seed, 2), lines);
  write_input(dir / "lines.txt", lines);
  // Two wordcounts per stringmatch: p50 and p90 then fall inside one
  // op's distribution, not in the gap between the two.
  const Ask wc = wordcount_ask(dir / "corpus.txt", text, 10, kCorpus / 4, 0);
  w.asks = {wc, stringmatch_ask(dir / "lines.txt", lines, keys, kLines / 4, 0), wc};
  for (auto& ask : w.asks) ask.unique = true;
  w.warmup = {0, 1};
  return w;
}

Workload ooc_mixed(std::uint64_t seed, const fs::path& dir) {
  // Scans read 12 MiB through a 4 MiB pool in 1 MiB fragments from an
  // emulated 40 MiB/s disk.  At that rate every scan waits on the disk
  // (300 ms) rather than on the map kernel (~150 ms here), so storage,
  // not the kernel, sets the time.  sort gets a 1 MiB budget for a 4 MiB
  // input, so it spills four runs and merges them.
  constexpr std::uint64_t kScan = 12 * kMiB;
  constexpr std::uint64_t kFragment = 1 * kMiB;
  constexpr double kDiskMiBps = 40.0;
  constexpr std::uint64_t kTable = 4 * kMiB;
  Workload w;
  w.name = "ooc_mixed";
  w.clients = 1;
  w.pool_bytes = 4 * kMiB;
  const std::string text = corpus(kScan, derive(seed, 1));
  write_input(dir / "corpus.txt", text);
  std::string lines;
  const auto keys = line_file(kScan, derive(seed, 2), lines);
  write_input(dir / "lines.txt", lines);

  mcsd::apps::LineFileOptions sort_options;
  sort_options.bytes = kTable;
  sort_options.seed = derive(seed, 3);
  const std::string unsorted = mcsd::apps::generate_line_file(sort_options);
  write_input(dir / "unsorted.txt", unsorted);

  // A CSV table: id, category (1 in 10 rows is c3), value, word.
  mcsd::Rng rng{derive(seed, 4)};
  std::string table;
  std::string selected;
  for (std::uint64_t row = 0; table.size() < kTable; ++row) {
    const std::string category = "c" + std::to_string(rng.next_below(10));
    const std::string line = "r" + std::to_string(row) + "," + category + "," +
                             std::to_string(rng.next_below(1'000'000)) + ",w" +
                             std::to_string(rng.next_below(5'000)) + "\n";
    table += line;
    if (category == "c3") selected += line;
  }
  write_input(dir / "table.csv", table);

  const Ask wc =
      wordcount_ask(dir / "corpus.txt", text, 10, kFragment, kDiskMiBps);
  const Ask sm =
      stringmatch_ask(dir / "lines.txt", lines, keys, kFragment, kDiskMiBps);
  Ask sort;
  sort.op = Op::kSort;
  sort.params.set("input", (dir / "unsorted.txt").string());
  sort.params.set("out", (dir / "sorted.txt").string());
  sort.params.set_uint("memory_budget", kTable / 4);
  sort.input_bytes = unsorted.size();
  sort.expect.set_uint("lines", count_lines(unsorted));
  Ask select;
  select.op = Op::kSelect;
  select.params.set("input", (dir / "table.csv").string());
  select.params.set("out", (dir / "selected.csv").string());
  select.params.set_uint("column", 1);
  select.params.set("op", "eq");
  select.params.set("value", "c3");
  select.input_bytes = table.size();
  select.expect.set_uint("rows_out", count_lines(selected));
  select.expect.set_uint("bytes_out", selected.size());
  select.expect_output = std::move(selected);

  // Scans are two thirds of the invokes, so p50 and p90 fall inside the
  // scans' distribution rather than between op types.
  w.asks = {wc, sm, std::move(sort), wc, sm, std::move(select)};
  // The scans are cacheable; a nonce keeps every one a real read.
  for (auto& ask : w.asks) ask.unique = true;
  w.warmup = {0, 1, 2, 5};
  return w;
}

Workload serve_zipf(std::uint64_t seed, const fs::path& dir) {
  // 32 small corpora and 32 line files, 4 asks over each: 256 asks whose
  // misses cost a few ms of compute each.  The line files are larger
  // because stringmatch scans ~10x faster than wordcount counts: every
  // miss then costs about the same, p90 falls inside the misses, and it
  // does not depend on which asks the seed makes hot.
  constexpr std::size_t kFiles = 32;
  constexpr std::uint64_t kCorpusBytes = 64 * 1024;
  constexpr std::uint64_t kLineBytes = 640 * 1024;
  Workload w;
  w.name = "serve_zipf";
  w.clients = 4;
  w.zipf = true;
  for (std::size_t f = 0; f < kFiles; ++f) {
    const auto text = corpus(kCorpusBytes, derive(seed, 100 + f));
    const auto path = dir / ("corpus-" + std::to_string(f) + ".txt");
    write_input(path, text);
    for (const std::size_t top : {3, 5, 8, 12}) {
      w.asks.push_back(wordcount_ask(path, text, top, 0, 0));
    }
    w.warmup.push_back(w.asks.size() - 1);
  }
  for (std::size_t f = 0; f < kFiles; ++f) {
    std::string lines;
    const auto keys = line_file(kLineBytes, derive(seed, 200 + f), lines);
    const auto path = dir / ("lines-" + std::to_string(f) + ".txt");
    write_input(path, lines);
    // Four key subsets: the first 2, 4, 6 and 8 planted keys.
    for (const std::size_t n : {2, 4, 6, 8}) {
      const std::vector<std::string> subset(
          keys.begin(), keys.begin() + std::min(n, keys.size()));
      w.asks.push_back(stringmatch_ask(path, lines, subset, 0, 0));
    }
    w.warmup.push_back(w.asks.size() - 1);
  }
  // Cache budget: half of what every reply would occupy, using the
  // cache's own accounting (fixed per-entry overhead, the slot key, and
  // each reply field).  Reply fields the reference does not predict
  // (fragments, pipelined, peak_resident_bytes) are counted at a typical
  // width.
  std::size_t universe_bytes = 0;
  for (const Ask& ask : w.asks) {
    std::size_t entry = 160 + 32 + ask.params.serialize().size();
    std::size_t fields = ask.expect.size();
    for (const auto& [key, value] : ask.expect.entries()) {
      entry += key.size() + value.size();
    }
    if (ask.op == Op::kWordcount) {
      entry += 9 + 1 + 9 + 1 + 19 + 6;
      fields += 3;
    } else {
      entry += 9 + 1;
      fields += 1;
    }
    universe_bytes += entry + fields * 2 * sizeof(std::string);
  }
  w.result_cache_bytes = universe_bytes / 2;
  return w;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kWordcount: return "wordcount";
    case Op::kStringmatch: return "stringmatch";
    case Op::kSort: return "sort";
    case Op::kSelect: return "select";
  }
  return "?";
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const fs::path& data_dir) {
  fs::create_directories(data_dir);
  if (name == "scan_hot") return scan_hot(seed, data_dir);
  if (name == "ooc_mixed") return ooc_mixed(seed, data_dir);
  if (name == "serve_zipf") return serve_zipf(seed, data_dir);
  throw std::runtime_error("unknown workload: " + name);
}

void corrupt_references(Workload& workload) {
  for (Ask& ask : workload.asks) {
    // Every ask checks at least one count; one more than the truth.
    const KeyValueMap truth = ask.expect;
    for (const auto& [key, value] : truth.entries()) {
      if (auto n = truth.get_uint(key); n.is_ok()) {
        ask.expect.set_uint(key, n.value() + 1);
        break;
      }
    }
  }
}

std::string check_reply(const Ask& ask, const KeyValueMap& reply) {
  for (const auto& [key, want] : ask.expect.entries()) {
    const auto got = reply.get(key);
    if (!got || *got != want) {
      return key + "=" + got.value_or("<absent>") + ", want " + want;
    }
  }
  if (ask.op == Op::kSort) {
    auto out = mcsd::read_file(*ask.params.get("out"));
    if (!out) return "sort output unreadable: " + out.error().to_string();
    std::uint64_t lines = 0;
    std::string_view previous;
    for (const auto line : mcsd::split(out.value(), '\n')) {
      if (line.empty()) continue;
      if (lines != 0 && line < previous) {
        return "sort output out of order at line " + std::to_string(lines);
      }
      previous = line;
      ++lines;
    }
    if (lines != ask.expect.get_uint("lines").value_or(0)) {
      return "sort output has " + std::to_string(lines) + " lines, want " +
             ask.expect.get_or("lines", "?");
    }
  }
  if (ask.op == Op::kSelect) {
    auto out = mcsd::read_file(*ask.params.get("out"));
    if (!out) return "select output unreadable: " + out.error().to_string();
    if (out.value() != ask.expect_output) {
      return "select output bytes differ from the reference";
    }
  }
  return "";
}

}  // namespace mcsdbench
