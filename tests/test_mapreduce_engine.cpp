#include "mapreduce/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "apps/datagen.hpp"
#include "apps/stringmatch.hpp"
#include "apps/wordcount.hpp"
#include "core/units.hpp"

namespace mcsd::mr {
namespace {

using apps::WordCountSpec;
using namespace mcsd::literals;

std::map<std::string, std::uint64_t> to_map(
    const std::vector<KV<std::string, std::uint64_t>>& pairs) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& kv : pairs) m[kv.key] += kv.value;
  return m;
}

TEST(Engine, WordCountMatchesSequentialReference) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  corpus.vocabulary = 500;
  const std::string text = apps::generate_corpus(corpus);

  Options opts;
  opts.num_workers = 3;
  Engine<WordCountSpec> engine{opts};
  const auto chunks = split_text(text, 16 * 1024);
  const auto parallel = engine.run(WordCountSpec{}, chunks);
  const auto reference = apps::wordcount_sequential(text);

  EXPECT_EQ(to_map(parallel), to_map(reference));
}

TEST(Engine, EmptyInputYieldsEmptyOutput) {
  Engine<WordCountSpec> engine{Options{}};
  const std::vector<TextChunk> none;
  EXPECT_TRUE(engine.run(WordCountSpec{}, none).empty());
}

TEST(Engine, SortedOutputIsSortedByKey) {
  Options opts;
  opts.num_workers = 2;
  opts.sort_output_by_key = true;
  Engine<WordCountSpec> engine{opts};
  const std::string text = "pear apple mango apple pear apple";
  const auto out = engine.run(WordCountSpec{}, split_text(text, 8));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "apple");
  EXPECT_EQ(out[0].value, 3u);
  EXPECT_EQ(out[1].key, "mango");
  EXPECT_EQ(out[2].key, "pear");
  EXPECT_EQ(out[2].value, 2u);
}

TEST(Engine, MetricsArePopulated) {
  Options opts;
  opts.num_workers = 2;
  Engine<WordCountSpec> engine{opts};
  const std::string text = "one two two three three three";
  Metrics metrics;
  engine.run(WordCountSpec{}, split_text(text, 8), 0, &metrics);
  EXPECT_GT(metrics.chunks, 0u);
  EXPECT_GT(metrics.map_emits, 0u);
  EXPECT_EQ(metrics.unique_keys, 3u);
  EXPECT_GT(metrics.peak_intermediate_bytes, 0u);
}

TEST(Engine, OptionsValidation) {
  Options bad;
  bad.num_workers = 0;
  EXPECT_THROW(Engine<WordCountSpec>{bad}, std::invalid_argument);

  Options bad_fraction;
  bad_fraction.usable_memory_fraction = 0.0;
  EXPECT_THROW(Engine<WordCountSpec>{bad_fraction}, std::invalid_argument);
}

TEST(Engine, ReduceBucketsDefaultIsWorkerCountIndependent) {
  // A fixed default keyspace split keeps bucket geometry — and therefore
  // bucket-order output — identical at any parallelism level, and stops
  // per-job reduce work from growing as workers are added.
  Options opts;
  opts.num_workers = 3;
  EXPECT_EQ(opts.effective_reduce_buckets(), Options::kDefaultReduceBuckets);
  opts.num_workers = 8;
  EXPECT_EQ(opts.effective_reduce_buckets(), Options::kDefaultReduceBuckets);
  opts.num_reduce_buckets = 5;
  EXPECT_EQ(opts.effective_reduce_buckets(), 5u);
}

TEST(Engine, MemoryOverflowWhenInputExceedsUsableBudget) {
  Options opts;
  opts.num_workers = 2;
  opts.memory_budget_bytes = 1_MiB;
  opts.usable_memory_fraction = 0.6;  // 614 KiB usable
  Engine<WordCountSpec> engine{opts};

  apps::CorpusOptions corpus;
  corpus.bytes = 700 * 1024;  // > usable
  const std::string text = apps::generate_corpus(corpus);
  EXPECT_THROW(engine.run(WordCountSpec{}, split_text(text, 32 * 1024)),
               MemoryOverflowError);
}

TEST(Engine, MemoryOverflowReportsRequiredAndBudget) {
  Options opts;
  opts.memory_budget_bytes = 1_MiB;
  Engine<WordCountSpec> engine{opts};
  const std::string text(800 * 1024, 'a');
  try {
    engine.run(WordCountSpec{}, split_text(text, 64 * 1024));
    FAIL() << "expected MemoryOverflowError";
  } catch (const MemoryOverflowError& e) {
    EXPECT_GT(e.required_bytes(), e.budget_bytes());
    EXPECT_EQ(e.budget_bytes(),
              static_cast<std::uint64_t>(0.6 * 1_MiB));
  }
}

TEST(Engine, IntermediateGrowthTriggersOverflow) {
  // Input fits the usable budget, but WC's emitted pairs push the
  // footprint past it mid-map: the engine must notice and throw — the
  // exact Phoenix behaviour the paper's partition module works around.
  Options opts;
  opts.num_workers = 2;
  opts.memory_budget_bytes = 600 * 1024;
  opts.usable_memory_fraction = 0.6;  // 360 KiB usable
  Engine<WordCountSpec> engine{opts};

  apps::CorpusOptions corpus;
  corpus.bytes = 300 * 1024;  // fits, until intermediates pile on
  corpus.vocabulary = 40'000; // high-entropy keys defeat combining
  corpus.seed = 9;
  const std::string text = apps::generate_corpus(corpus);
  EXPECT_THROW(engine.run(WordCountSpec{}, split_text(text, 16 * 1024)),
               MemoryOverflowError);
}

TEST(Engine, UnlimitedBudgetNeverOverflows) {
  Options opts;
  opts.memory_budget_bytes = 0;
  Engine<WordCountSpec> engine{opts};
  const std::string text(128 * 1024, 'x');  // one giant "word"
  EXPECT_NO_THROW(engine.run(WordCountSpec{}, split_text(text, 8 * 1024)));
}

TEST(Engine, IdentityReduceWhenSpecHasNone) {
  // StringMatchSpec has no reduce: every emitted pair must pass through.
  apps::LineFileOptions lf;
  lf.bytes = 64 * 1024;
  std::string text = apps::generate_line_file(lf);
  apps::KeysOptions ko;
  ko.plant_rate = 0.05;
  const auto keys = apps::generate_and_plant_keys(text, ko);

  apps::StringMatchSpec spec;
  spec.keys = keys;
  Options opts;
  opts.num_workers = 2;
  Engine<apps::StringMatchSpec> engine{opts};
  const auto pairs = engine.run(spec, split_lines(text, 8 * 1024));
  const auto expected = apps::stringmatch_sequential(text, keys);
  EXPECT_EQ(apps::to_sorted_matches(pairs), expected);
  EXPECT_FALSE(expected.empty());
}

// ---------------------------------------------------------------------------
// Emitter: emit-time hash combining and byte accounting.
// ---------------------------------------------------------------------------

// Combiners receive the emitter's *stored* key: a string_view into the
// worker arena for std::string keys.
std::uint64_t sum_combiner(const void*, const std::string_view&,
                           const std::uint64_t& acc,
                           const std::uint64_t& incoming) {
  return acc + incoming;
}

std::map<std::string, std::uint64_t> emitter_contents(
    Emitter<std::string, std::uint64_t>& emitter) {
  std::map<std::string, std::uint64_t> m;
  for (std::size_t b = 0; b < emitter.bucket_count(); ++b) {
    for (const auto& p : emitter.bucket(b)) m[std::string(p.key)] += p.value;
  }
  return m;
}

TEST(Emitter, EmitTimeCombineFoldsDuplicates) {
  Emitter<std::string, std::uint64_t> emitter{4};
  emitter.set_combiner(nullptr, sum_combiner);
  emitter.emit(std::string{"apple"}, 1);
  emitter.emit(std::string_view{"apple"}, 2);
  emitter.emit(std::string_view{"pear"}, 5);
  emitter.emit(std::string{"apple"}, 4);

  EXPECT_EQ(emitter.count(), 4u);   // raw emits
  EXPECT_EQ(emitter.stored(), 2u);  // combined pairs
  const auto m = emitter_contents(emitter);
  EXPECT_EQ(m.at("apple"), 7u);
  EXPECT_EQ(m.at("pear"), 5u);
}

TEST(Emitter, ViewKeysAreMaterialisedOnInsert) {
  // The emitter must own its keys: emitting views into a buffer that is
  // rewritten between emits must not corrupt stored pairs.
  Emitter<std::string, std::uint64_t> emitter{2};
  emitter.set_combiner(nullptr, sum_combiner);
  std::string buffer;
  for (const char* word : {"alpha", "beta", "alpha", "gamma", "beta"}) {
    buffer.assign(word);
    emitter.emit(std::string_view{buffer}, 1);
    buffer.assign(buffer.size(), '#');  // scribble over the emitted bytes
  }
  const auto m = emitter_contents(emitter);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("alpha"), 2u);
  EXPECT_EQ(m.at("beta"), 2u);
  EXPECT_EQ(m.at("gamma"), 1u);
}

TEST(Emitter, BytesTrackStoredPairsNotRawEmits) {
  Emitter<std::string, std::uint64_t> emitter{4};
  emitter.set_combiner(nullptr, sum_combiner);
  emitter.emit(std::string_view{"word"}, 1);
  const std::uint64_t after_first = emitter.bytes();
  EXPECT_GT(after_first, 0u);
  for (int i = 0; i < 100; ++i) emitter.emit(std::string_view{"word"}, 1);
  // Re-emits of a known key fold in place: no byte growth.
  EXPECT_EQ(emitter.bytes(), after_first);

  // Byte meter equals the sum of per-pair footprints: the pair itself
  // plus the arena bytes its key copy consumed.
  std::uint64_t expected = 0;
  for (std::size_t b = 0; b < emitter.bucket_count(); ++b) {
    for (const auto& p : emitter.bucket(b)) {
      expected += sizeof(p) + p.key.size();
    }
  }
  EXPECT_EQ(emitter.bytes(), expected);
}

TEST(Emitter, TableGrowthPreservesAllPairs) {
  // Push one bucket far past the initial table size to force rehashes.
  Emitter<std::string, std::uint64_t> emitter{1};
  emitter.set_combiner(nullptr, sum_combiner);
  constexpr int kKeys = 10'000;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      emitter.emit(std::string_view{"key-" + std::to_string(i)}, 1);
    }
  }
  EXPECT_EQ(emitter.stored(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(emitter.count(), static_cast<std::size_t>(2 * kKeys));
  const auto m = emitter_contents(emitter);
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kKeys));
  for (const auto& [key, value] : m) EXPECT_EQ(value, 2u) << key;
}

TEST(Emitter, WithoutCombinerEveryEmitIsStored) {
  Emitter<std::string, std::uint64_t> emitter{2};
  for (int i = 0; i < 5; ++i) emitter.emit(std::string_view{"same"}, 1);
  EXPECT_EQ(emitter.stored(), 5u);
  EXPECT_EQ(emitter.count(), 5u);
}

TEST(Emitter, ResetAndReuseProducesIdenticalContents) {
  // The reuse lifecycle the engine relies on: reset() rewinds the arena
  // and clears the buckets; a second, identical round of emits must
  // produce identical contents and identical byte accounting.
  Emitter<std::string, std::uint64_t> emitter{4};
  const auto feed = [&] {
    emitter.set_combiner(nullptr, sum_combiner);
    for (const char* word :
         {"delta", "echo", "delta", "fox", "echo", "delta"}) {
      emitter.emit(std::string_view{word}, 1);
    }
  };
  feed();
  const auto first = emitter_contents(emitter);
  const std::uint64_t first_bytes = emitter.bytes();
  const std::size_t first_stored = emitter.stored();
  ASSERT_EQ(first.at("delta"), 3u);

  emitter.reset();
  EXPECT_EQ(emitter.count(), 0u);
  EXPECT_EQ(emitter.bytes(), 0u);
  for (std::size_t b = 0; b < emitter.bucket_count(); ++b) {
    EXPECT_TRUE(emitter.bucket(b).empty());
  }

  feed();
  EXPECT_EQ(emitter_contents(emitter), first);
  EXPECT_EQ(emitter.bytes(), first_bytes);
  EXPECT_EQ(emitter.stored(), first_stored);
}

TEST(Emitter, BatchedEmitMatchesPerTokenEmit) {
  // emit_batch must be observationally identical to per-token emit():
  // same contents, same counters, same byte accounting — it only changes
  // how hashing and probing are scheduled.
  std::vector<std::string> corpus;
  for (int i = 0; i < 300; ++i) {
    corpus.push_back("tok-" + std::to_string(i % 37));
  }
  std::vector<std::string_view> views{corpus.begin(), corpus.end()};

  Emitter<std::string, std::uint64_t> scalar{8};
  scalar.set_combiner(nullptr, sum_combiner);
  for (const auto& v : views) scalar.emit(v, 1);

  Emitter<std::string, std::uint64_t> batched{8};
  batched.set_combiner(nullptr, sum_combiner);
  std::size_t i = 0;
  while (i < views.size()) {
    const std::size_t n = std::min<std::size_t>(
        Emitter<std::string, std::uint64_t>::kMaxBatch, views.size() - i);
    batched.emit_batch(std::span<const std::string_view>{&views[i], n}, 1);
    i += n;
  }

  EXPECT_EQ(batched.count(), scalar.count());
  EXPECT_EQ(batched.stored(), scalar.stored());
  EXPECT_EQ(batched.bytes(), scalar.bytes());
  EXPECT_EQ(emitter_contents(batched), emitter_contents(scalar));
}

TEST(Emitter, AbsorbBucketFoldsAcrossEmitters) {
  // The reduce phase's cross-worker merge: absorbing src's bucket must
  // yield the same per-key sums as emitting everything into one emitter.
  Emitter<std::string, std::uint64_t> a{4};
  Emitter<std::string, std::uint64_t> b{4};
  a.set_combiner(nullptr, sum_combiner);
  b.set_combiner(nullptr, sum_combiner);
  for (int i = 0; i < 500; ++i) {
    a.emit(std::string_view{"key-" + std::to_string(i % 60)}, 1);
    b.emit(std::string_view{"key-" + std::to_string(i % 90)}, 2);
  }
  std::map<std::string, std::uint64_t> expected = emitter_contents(a);
  for (const auto& [key, value] : emitter_contents(b)) expected[key] += value;

  for (std::size_t bucket = 0; bucket < a.bucket_count(); ++bucket) {
    a.absorb_bucket(bucket, b);
  }
  EXPECT_EQ(emitter_contents(a), expected);
}

TEST(Emitter, BudgetMetersArenaBytesNotStringCapacity) {
  // Arena accounting: the meter charges exactly the key bytes copied into
  // the arena (plus the pair), never std::string header/capacity, and the
  // arena's own usage must cover every charged key byte.
  Emitter<std::string, std::uint64_t> emitter{2};
  emitter.set_combiner(nullptr, sum_combiner);
  const std::string long_key(200, 'k');  // would round up under capacity()
  emitter.emit(std::string_view{long_key}, 1);
  emitter.emit(std::string_view{"ab"}, 1);
  emitter.emit(std::string_view{long_key}, 1);  // combine hit: no growth

  using P = Emitter<std::string, std::uint64_t>::Pair;
  EXPECT_EQ(emitter.bytes(), 2 * sizeof(P) + long_key.size() + 2);
}

// ---------------------------------------------------------------------------
// DynamicScheduler: batched claiming.
// ---------------------------------------------------------------------------

TEST(DynamicScheduler, BatchesPartitionTheIndexSpaceExactlyOnce) {
  DynamicScheduler sched{103};
  std::vector<int> seen(103, 0);
  while (auto b = sched.next_batch(8)) {
    EXPECT_LT(b->begin, b->end);
    EXPECT_LE(b->end, 103u);
    for (std::size_t i = b->begin; i < b->end; ++i) ++seen[i];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  EXPECT_FALSE(sched.next_batch(8).has_value());
  EXPECT_FALSE(sched.next().has_value());
}

TEST(DynamicScheduler, ZeroBatchSizeClaimsOne) {
  DynamicScheduler sched{2};
  const auto b = sched.next_batch(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->end - b->begin, 1u);
}

TEST(DynamicScheduler, SuggestedBatchKeepsStealingGranularity) {
  // ~8 batches per worker; never below one task.
  EXPECT_EQ(DynamicScheduler::suggested_batch(0, 4), 1u);
  EXPECT_EQ(DynamicScheduler::suggested_batch(10, 4), 1u);
  EXPECT_EQ(DynamicScheduler::suggested_batch(64, 4), 2u);
  EXPECT_EQ(DynamicScheduler::suggested_batch(1024, 4), 32u);
  EXPECT_EQ(DynamicScheduler::suggested_batch(1024, 0), 128u);
}

// ---------------------------------------------------------------------------
// LocalityScheduler: contiguous slabs, owner-front claims, thief-back
// steals.
// ---------------------------------------------------------------------------

TEST(LocalityScheduler, EveryIndexClaimedExactlyOnce) {
  LocalityScheduler sched{103, 4};
  std::vector<int> seen(103, 0);
  // Round-robin the workers so everyone both drains its slab and steals.
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t w = 0; w < 4; ++w) {
      bool stolen = false;
      if (auto b = sched.claim(w, 5, &stolen)) {
        any = true;
        EXPECT_LT(b->begin, b->end);
        EXPECT_LE(b->end, 103u);
        for (std::size_t i = b->begin; i < b->end; ++i) ++seen[i];
      }
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  bool stolen = false;
  EXPECT_FALSE(sched.claim(0, 5, &stolen).has_value());
}

TEST(LocalityScheduler, OwnSlabClaimsAreContiguousAndFrontToBack) {
  // 40 tasks, 4 workers: worker 1 owns [10, 20) and must walk it in
  // order — the sequential-streaming property the map phase relies on.
  LocalityScheduler sched{40, 4};
  std::size_t expected = 10;
  bool stolen = true;
  while (expected < 20) {
    const auto b = sched.claim(1, 3, &stolen);
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(stolen);
    EXPECT_EQ(b->begin, expected);
    expected = b->end;
    ASSERT_LE(expected, 20u);
  }
  EXPECT_EQ(expected, 20u);
}

TEST(LocalityScheduler, DrySlabStealsFromBackOfFullestVictim) {
  LocalityScheduler sched{32, 2};  // worker 0: [0,16), worker 1: [16,32)
  // Drain worker 1's slab: four claims of four tasks each.
  bool stolen = false;
  for (int i = 0; i < 4; ++i) {
    const auto b = sched.claim(1, 4, &stolen);
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(stolen);
  }
  // Worker 1's next claims must be steals from the *back* of worker 0's
  // untouched slab, at most half the remainder at a time.
  stolen = false;
  const auto theft = sched.claim(1, 4, &stolen);
  ASSERT_TRUE(theft.has_value());
  EXPECT_TRUE(stolen);
  EXPECT_EQ(theft->end, 16u);  // back end of victim's slab
  EXPECT_LE(theft->end - theft->begin, 8u);  // at most half of 16 left
  // The owner still claims its front unperturbed.
  const auto own = sched.claim(0, 4, &stolen);
  ASSERT_TRUE(own.has_value());
  EXPECT_FALSE(stolen);
  EXPECT_EQ(own->begin, 0u);
}

TEST(LocalityScheduler, HandlesFewerTasksThanWorkers) {
  LocalityScheduler sched{3, 8};
  std::vector<int> seen(3, 0);
  for (std::size_t w = 0; w < 8; ++w) {
    while (auto b = sched.claim(w, 2)) {
      for (std::size_t i = b->begin; i < b->end; ++i) ++seen[i];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(LocalityScheduler, EmptyTaskSpaceYieldsNothing) {
  LocalityScheduler sched{0, 4};
  EXPECT_FALSE(sched.claim(0, 8).has_value());
  EXPECT_FALSE(sched.claim(3, 8).has_value());
}

// ---------------------------------------------------------------------------
// Engine worker-state reuse.
// ---------------------------------------------------------------------------

TEST(Engine, ReusedWorkerStateProducesIdenticalOutputAcrossRuns) {
  // The out-of-core driver calls run() once per fragment on one engine;
  // run N+1 must be byte-identical to a fresh engine's run, for both the
  // same input (reset correctness) and different inputs (no leakage).
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  corpus.vocabulary = 250;
  const std::string text_a = apps::generate_corpus(corpus);
  corpus.seed = 17;
  const std::string text_b = apps::generate_corpus(corpus);

  Options opts;
  opts.num_workers = 3;
  opts.sort_output_by_key = true;
  Engine<WordCountSpec> engine{opts};
  const auto chunks_a = split_text(text_a, 4 * 1024);
  const auto chunks_b = split_text(text_b, 4 * 1024);

  const auto first_a = engine.run(WordCountSpec{}, chunks_a);
  const auto first_b = engine.run(WordCountSpec{}, chunks_b);  // reused state
  const auto second_a = engine.run(WordCountSpec{}, chunks_a);

  Engine<WordCountSpec> fresh{opts};
  const auto fresh_b = fresh.run(WordCountSpec{}, chunks_b);

  EXPECT_EQ(to_map(second_a), to_map(first_a));
  EXPECT_EQ(to_map(first_b), to_map(fresh_b));
  EXPECT_EQ(to_map(first_a), to_map(apps::wordcount_sequential(text_a)));
}

TEST(Engine, OutputByteIdenticalAcrossWorkerCounts) {
  // Acceptance property: with the default (fixed) bucket geometry, the
  // engine's bucket-order output — not just its key->count map — must be
  // identical at 1, 2 and 4 workers, and stable across runs on a reused
  // engine.
  apps::CorpusOptions corpus;
  corpus.bytes = 128 * 1024;
  corpus.vocabulary = 400;
  const std::string text = apps::generate_corpus(corpus);
  const auto chunks = split_text(text, 8 * 1024);

  std::vector<std::vector<KV<std::string, std::uint64_t>>> outputs;
  for (std::size_t workers : {1u, 2u, 4u}) {
    Options opts;
    opts.num_workers = workers;
    Engine<WordCountSpec> engine{opts};
    auto first = engine.run(WordCountSpec{}, chunks);
    const auto second = engine.run(WordCountSpec{}, chunks);  // reused state
    EXPECT_EQ(first, second) << "reused-engine drift at workers=" << workers;
    outputs.push_back(std::move(first));
  }
  EXPECT_EQ(outputs[1], outputs[0]) << "2 workers != 1 worker";
  EXPECT_EQ(outputs[2], outputs[0]) << "4 workers != 1 worker";
}

TEST(Engine, MapWorkerStatsAttributeTheMapPhase) {
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  corpus.vocabulary = 500;
  const std::string text = apps::generate_corpus(corpus);

  Options opts;
  opts.num_workers = 2;
  opts.attribute_map_cycles = true;
  Engine<WordCountSpec> engine{opts};
  Metrics metrics;
  engine.run(WordCountSpec{}, split_text(text, 8 * 1024), 0, &metrics);

  ASSERT_EQ(metrics.map_workers.size(), 2u);
  std::size_t chunks = 0, emits = 0;
  double attributed = 0.0;
  for (const auto& w : metrics.map_workers) {
    chunks += w.chunks;
    emits += w.emits;
    attributed += w.tokenize_seconds + w.hash_seconds + w.probe_seconds;
    EXPECT_GE(w.wall_seconds, 0.0);
  }
  EXPECT_EQ(chunks, metrics.chunks);
  EXPECT_EQ(emits, metrics.map_emits);
  EXPECT_GT(attributed, 0.0);
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(metrics.map_cpu_seconds(), 0.0);
#endif
  // Attribution is strictly opt-in: without the flag the split stays 0.
  Options plain = opts;
  plain.attribute_map_cycles = false;
  Engine<WordCountSpec> plain_engine{plain};
  Metrics plain_metrics;
  plain_engine.run(WordCountSpec{}, split_text(text, 8 * 1024), 0,
                   &plain_metrics);
  double plain_attributed = 0.0;
  for (const auto& w : plain_metrics.map_workers) {
    plain_attributed += w.tokenize_seconds + w.hash_seconds + w.probe_seconds +
                        w.claim_seconds;
  }
  EXPECT_EQ(plain_attributed, 0.0);
}

TEST(Engine, BudgetObservesCombinedVolume) {
  // Low-entropy input: raw emits dwarf unique keys, and the byte meter
  // must see only the combined (unique-key) volume.
  apps::CorpusOptions corpus;
  corpus.bytes = 256 * 1024;
  corpus.vocabulary = 50;
  const std::string text = apps::generate_corpus(corpus);

  Options opts;
  opts.num_workers = 2;
  Engine<WordCountSpec> engine{opts};
  Metrics metrics;
  engine.run(WordCountSpec{}, split_text(text, 16 * 1024), 0, &metrics);

  ASSERT_GT(metrics.map_emits, 10'000u);
  const std::uint64_t intermediate =
      metrics.peak_intermediate_bytes - text.size();
  // Raw (uncombined) volume would be ~map_emits * sizeof(pair); combined
  // volume is bounded by unique keys per worker.
  EXPECT_LT(intermediate, 64 * 1024u);
  EXPECT_LT(intermediate,
            metrics.map_emits * sizeof(HKV<std::string, std::uint64_t>) / 8);
}

// Cross-product sweep: engine output equals the sequential reference for
// any worker count x bucket count x chunk size combination.
TEST(Engine, WordCountInvariantAcrossWorkersBucketsChunks) {
  apps::CorpusOptions corpus;
  corpus.bytes = 48 * 1024;
  corpus.vocabulary = 150;
  const std::string text = apps::generate_corpus(corpus);
  const auto reference = to_map(apps::wordcount_sequential(text));

  for (std::size_t workers : {1u, 2u, 5u}) {
    for (std::size_t buckets : {1u, 2u, 7u, 32u}) {
      for (std::size_t chunk : {512u, 16u * 1024u}) {
        Options opts;
        opts.num_workers = workers;
        opts.num_reduce_buckets = buckets;
        Engine<WordCountSpec> engine{opts};
        const auto out = engine.run(WordCountSpec{}, split_text(text, chunk));
        EXPECT_EQ(to_map(out), reference)
            << "workers=" << workers << " buckets=" << buckets
            << " chunk=" << chunk;
      }
    }
  }
}

// Worker-count sweep: output must be identical for any parallelism level.
class EngineWorkerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineWorkerSweep, WordCountInvariantUnderParallelism) {
  apps::CorpusOptions corpus;
  corpus.bytes = 96 * 1024;
  corpus.vocabulary = 300;
  corpus.seed = GetParam();  // vary data with workers too
  const std::string text = apps::generate_corpus(corpus);

  Options opts;
  opts.num_workers = GetParam();
  opts.sort_output_by_key = true;
  Engine<WordCountSpec> engine{opts};
  const auto out = engine.run(WordCountSpec{}, split_text(text, 4 * 1024));
  const auto reference = apps::wordcount_sequential(text);
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, reference[i].key);
    EXPECT_EQ(out[i].value, reference[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, EngineWorkerSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

// Chunk-size sweep: result independent of map granularity.
class EngineChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineChunkSweep, ResultIndependentOfChunkSize) {
  apps::CorpusOptions corpus;
  corpus.bytes = 64 * 1024;
  corpus.vocabulary = 200;
  const std::string text = apps::generate_corpus(corpus);
  Options opts;
  opts.num_workers = 2;
  Engine<WordCountSpec> engine{opts};
  const auto out = engine.run(WordCountSpec{}, split_text(text, GetParam()));
  EXPECT_EQ(to_map(out), to_map(apps::wordcount_sequential(text)));
}

INSTANTIATE_TEST_SUITE_P(ChunkBytes, EngineChunkSweep,
                         ::testing::Values(128, 1024, 8192, 65536, 1 << 20));

}  // namespace
}  // namespace mcsd::mr
