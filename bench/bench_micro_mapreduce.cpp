// Microbenchmarks of the MapReduce runtime (google-benchmark).
//
// Not a paper artifact — engineering sanity for the engine itself: map
// throughput, combine effectiveness, identity-reduce path, worker sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/matmul.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/hash.hpp"
#include "core/strings.hpp"
#include "mapreduce/engine.hpp"

namespace {

using namespace mcsd;

const std::string& corpus_1mib() {
  static const std::string text = [] {
    apps::CorpusOptions opts;
    opts.bytes = 1 << 20;
    opts.vocabulary = 5'000;
    return apps::generate_corpus(opts);
  }();
  return text;
}

void BM_WordCountSequential(benchmark::State& state) {
  const std::string& text = corpus_1mib();
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::wordcount_sequential(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_WordCountSequential);

void BM_WordCountEngine(benchmark::State& state) {
  const std::string& text = corpus_1mib();
  mr::Options opts;
  opts.num_workers = static_cast<std::size_t>(state.range(0));
  mr::Engine<apps::WordCountSpec> engine{opts};
  const auto chunks = mr::split_text(text, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(apps::WordCountSpec{}, chunks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_WordCountEngine)->Arg(1)->Arg(2)->Arg(4);

void BM_StringMatchEngine(benchmark::State& state) {
  static const auto data = [] {
    apps::LineFileOptions lf;
    lf.bytes = 1 << 20;
    std::string text = apps::generate_line_file(lf);
    apps::KeysOptions ko;
    ko.count = 8;
    auto keys = apps::generate_and_plant_keys(text, ko);
    return std::pair{std::move(text), std::move(keys)};
  }();
  apps::StringMatchSpec spec;
  spec.keys = data.second;
  mr::Options opts;
  opts.num_workers = static_cast<std::size_t>(state.range(0));
  mr::Engine<apps::StringMatchSpec> engine{opts};
  const auto chunks = mr::split_lines(data.first, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(spec, chunks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.first.size()));
}
BENCHMARK(BM_StringMatchEngine)->Arg(1)->Arg(2);

void BM_MatMulEngine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const apps::Matrix a = apps::generate_matrix(n, n, 1);
  const apps::Matrix b = apps::generate_matrix(n, n, 2);
  apps::MatMulSpec spec;
  spec.a = &a;
  spec.b = &b;
  mr::Options opts;
  opts.num_workers = 2;
  mr::Engine<apps::MatMulSpec> engine{opts};
  const auto chunks = mr::split_index(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(spec, chunks));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMulEngine)->Arg(32)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------------
// Emit-path A/B: the seed emit path (owned std::string key per emit, pushed
// into flat bucket vectors, duplicates collapsed by a final sort-based fold)
// against the current emitter (string_view emit, per-bucket open-addressing
// hash combine).  Same token stream, same bucket count, both ending in fully
// combined per-bucket pairs — only the emit/combine mechanism differs.
// ---------------------------------------------------------------------------

/// Replica of the seed's emit+fold data path, kept here as the baseline.
struct LegacyEmitPath {
  using Pair = mr::KV<std::string, std::uint64_t>;

  explicit LegacyEmitPath(std::size_t num_buckets) : buckets(num_buckets) {}

  void emit(std::string key, std::uint64_t value) {
    const std::size_t b =
        static_cast<std::size_t>(KeyHash<std::string>{}(key)) % buckets.size();
    buckets[b].push_back(Pair{std::move(key), value});
  }

  void fold_all() {
    for (auto& bucket : buckets) {
      if (bucket.size() < 2) continue;
      std::sort(bucket.begin(), bucket.end(),
                [](const Pair& a, const Pair& b) { return a.key < b.key; });
      std::vector<Pair> folded;
      folded.reserve(bucket.size() / 2 + 1);
      std::size_t i = 0;
      while (i < bucket.size()) {
        std::size_t j = i + 1;
        std::uint64_t sum = bucket[i].value;
        while (j < bucket.size() && bucket[j].key == bucket[i].key) {
          sum += bucket[j].value;
          ++j;
        }
        folded.push_back(Pair{std::move(bucket[i].key), sum});
        i = j;
      }
      bucket = std::move(folded);
    }
  }

  std::vector<std::vector<Pair>> buckets;
};

template <typename EmitFn>
void for_each_word(std::string_view text, EmitFn emit) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !is_word_char(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && is_word_char(text[i])) ++i;
    if (i > start) emit(text.substr(start, i - start));
  }
}

void BM_EmitPathLegacySortFold(benchmark::State& state) {
  const std::string& text = corpus_1mib();
  const auto buckets = static_cast<std::size_t>(state.range(0));
  std::size_t pairs = 0;
  for (auto _ : state) {
    LegacyEmitPath emitter{buckets};
    for_each_word(text, [&](std::string_view word) {
      emitter.emit(std::string{word}, 1);
    });
    emitter.fold_all();
    pairs = 0;
    for (const auto& b : emitter.buckets) pairs += b.size();
    benchmark::DoNotOptimize(pairs);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["combined_pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_EmitPathLegacySortFold)->Arg(8)->Arg(32);

void BM_EmitPathHashCombine(benchmark::State& state) {
  const std::string& text = corpus_1mib();
  const auto buckets = static_cast<std::size_t>(state.range(0));
  std::size_t pairs = 0;
  for (auto _ : state) {
    mr::Emitter<std::string, std::uint64_t> emitter{buckets};
    emitter.set_combiner(
        nullptr,
        [](const void*, const std::string_view&, const std::uint64_t& acc,
           const std::uint64_t& incoming) { return acc + incoming; });
    for_each_word(text,
                  [&](std::string_view word) { emitter.emit(word, 1); });
    pairs = emitter.stored();
    benchmark::DoNotOptimize(pairs);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["combined_pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_EmitPathHashCombine)->Arg(8)->Arg(32);

// ---------------------------------------------------------------------------
// Repeated engine runs over a fragment-sized input with the per-worker
// state reused (arenas rewound, buckets and gather buffers keep capacity):
// the per-fragment cost an out-of-core run pays once per fragment.
// ---------------------------------------------------------------------------

const std::string& fragment_256kib() {
  static const std::string text = [] {
    apps::CorpusOptions opts;
    opts.bytes = 256 * 1024;
    opts.vocabulary = 5'000;
    return apps::generate_corpus(opts);
  }();
  return text;
}

void BM_EngineRunReusedState(benchmark::State& state) {
  const std::string& text = fragment_256kib();
  mr::Options opts;
  opts.num_workers = static_cast<std::size_t>(state.range(0));
  mr::Engine<apps::WordCountSpec> engine{opts};
  const auto chunks = mr::split_text(text, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(apps::WordCountSpec{}, chunks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_EngineRunReusedState)->Arg(1)->Arg(4);

void BM_TextSplit(benchmark::State& state) {
  const std::string& text = corpus_1mib();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mr::split_text(text, static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TextSplit)->Arg(4 << 10)->Arg(64 << 10)->Arg(256 << 10);

}  // namespace
