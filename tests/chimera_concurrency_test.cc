// Concurrency tests for the snapshot-isolated serving core: parallel
// batch classification must be byte-identical to the sequential path, and rule
// maintenance (AddRules / ScaleDownType / Memoize / RetrainLearning) must
// never block or corrupt in-flight classification. Run these under
// -DRULEKIT_SANITIZE=thread to verify the reader/writer protocol is
// race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <filesystem>

#include "src/chimera/analyst.h"
#include "src/chimera/pipeline.h"
#include "src/data/catalog_generator.h"
#include "src/replication/follower.h"
#include "src/replication/shipper.h"
#include "src/rules/rule_parser.h"
#include "src/serving/client.h"
#include "src/serving/server.h"
#include "src/serving/wire.h"
#include "src/storage/codec.h"
#include "src/storage/rule_store.h"

#include "tests/classify_shims.h"

namespace rulekit::chimera {
namespace {

struct Corpus {
  data::GeneratorConfig config;
  std::unique_ptr<data::CatalogGenerator> gen;
  std::unique_ptr<SimulatedAnalyst> analyst;
  std::vector<data::ProductItem> items;

  explicit Corpus(size_t num_items, uint64_t seed = 1234,
                  size_t num_types = 24) {
    config.seed = seed;
    config.num_types = num_types;
    gen = std::make_unique<data::CatalogGenerator>(config);
    analyst = std::make_unique<SimulatedAnalyst>(*gen);
    for (auto& li : gen->GenerateMany(num_items)) {
      items.push_back(std::move(li.item));
    }
  }
};

/// Sets up rules + memo + suppression + trained learning identically on a
/// pipeline, so two pipelines configured this way serve the same model.
void Provision(ChimeraPipeline& pipeline, Corpus& corpus) {
  for (const auto& spec : corpus.gen->specs()) {
    ASSERT_TRUE(
        pipeline.AddRules(corpus.analyst->WriteRulesForType(spec.name), "a")
            .ok());
  }
  auto blacklist = rules::ParseRules(
      "blacklist bl-toe: toe rings? => rings\n");
  ASSERT_TRUE(blacklist.ok());
  ASSERT_TRUE(pipeline.AddRules(std::move(blacklist).value(), "a").ok());
  pipeline.Memoize(corpus.items[0].title, "memoized type");
  pipeline.ScaleDownType(corpus.gen->specs()[1].name, "oncall", "test");
  data::GeneratorConfig train_config = corpus.config;
  train_config.seed = corpus.config.seed + 1;
  data::CatalogGenerator train_gen(train_config);
  pipeline.AddTrainingData(train_gen.GenerateMany(1200));
  pipeline.RetrainLearning();
}

void ExpectReportsEqual(const BatchReport& a, const BatchReport& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.gate_classified, b.gate_classified);
  EXPECT_EQ(a.gate_rejected, b.gate_rejected);
  EXPECT_EQ(a.classified, b.classified);
  EXPECT_EQ(a.filtered, b.filtered);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.declined, b.declined);
  EXPECT_EQ(a.rules_executed, b.rules_executed);
  EXPECT_EQ(a.rule_items, b.rule_items);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_stale_drops, b.cache_stale_drops);
  EXPECT_EQ(a.cache_promotions, b.cache_promotions);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "item " << i;
  }
}

// The headline acceptance check: a 4-worker batch Classify over a 10k-item
// synthetic catalog produces predictions and counters identical to the
// single-threaded path.
TEST(SnapshotServingTest, ParallelBatchIdenticalToSequentialOn10k) {
  Corpus corpus(10000);

  PipelineConfig sequential_config;
  sequential_config.batch_threads = 0;
  ChimeraPipeline sequential(sequential_config);
  Provision(sequential, corpus);

  PipelineConfig parallel_config;
  parallel_config.batch_threads = 4;
  ChimeraPipeline parallel(parallel_config);
  Provision(parallel, corpus);

  BatchReport seq_report = RunBatch(sequential, corpus.items);
  BatchReport par_report = RunBatch(parallel, corpus.items);

  // Sanity: the batch exercises every stage.
  EXPECT_GT(seq_report.classified, 0u);
  EXPECT_GT(seq_report.gate_classified, 0u);
  EXPECT_GT(seq_report.suppressed, 0u);
  ExpectReportsEqual(seq_report, par_report);
}

// Batch classification agrees with the per-item path (same snapshot).
TEST(SnapshotServingTest, BatchAgreesWithPerItemClassify) {
  Corpus corpus(2000);
  PipelineConfig config;
  config.batch_threads = 4;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  BatchReport report = RunBatch(pipeline, corpus.items);
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    EXPECT_EQ(report.predictions[i], ClassifyOne(pipeline, corpus.items[i]))
        << "item " << i;
  }
}

// Writers publish new snapshots; versions move forward and readers always
// see a fully-built state.
TEST(SnapshotServingTest, WritersBumpSnapshotVersion) {
  ChimeraPipeline pipeline;
  uint64_t v0 = pipeline.snapshot_version();
  auto parsed = rules::ParseRules("whitelist r1: rings? => rings\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(pipeline.AddRules(std::move(parsed).value(), "a").ok());
  uint64_t v1 = pipeline.snapshot_version();
  EXPECT_GT(v1, v0);
  pipeline.ScaleDownType("rings", "oncall", "test");
  EXPECT_GT(pipeline.snapshot_version(), v1);
  // Memoize is its own copy-on-write path; no snapshot republish needed,
  // but the memo is visible to the next decision.
  pipeline.Memoize("some known title", "books");
  data::ProductItem item;
  item.title = "some known title";
  EXPECT_EQ(ClassifyOne(pipeline, item).value_or(""), "books");
}

// The stress test from the issue: N threads run batch Classify in a loop
// while another thread interleaves AddRules / ScaleDownType / ScaleUpType
// / Memoize / RetrainLearning. Every in-flight report must stay
// internally consistent (counters partition the batch), and once writers
// quiesce, parallel output must be byte-identical to the sequential
// baseline. TSan-clean by construction: readers only touch immutable
// snapshots.
TEST(SnapshotServingTest, ConcurrentMaintenanceNeverCorruptsServing) {
  Corpus corpus(1000, 77, 16);
  PipelineConfig config;
  config.batch_threads = 4;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> batches_served{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int b = 0; b < kBatchesPerReader; ++b) {
        BatchReport report = RunBatch(pipeline, corpus.items);
        ASSERT_EQ(report.total, corpus.items.size());
        ASSERT_EQ(report.predictions.size(), corpus.items.size());
        // The stage counters partition the batch exactly.
        ASSERT_EQ(report.gate_classified + report.gate_rejected +
                      report.classified + report.filtered +
                      report.suppressed + report.declined,
                  report.total);
        batches_served.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    const auto& specs = corpus.gen->specs();
    for (int round = 0; round < 40; ++round) {
      switch (round % 4) {
        case 0: {
          auto rule = rules::Rule::Whitelist(
              "stress-" + std::to_string(round),
              "(zzz|stress)[a-z]*" + std::to_string(round),
              specs[round % specs.size()].name);
          ASSERT_TRUE(rule.ok());
          ASSERT_TRUE(pipeline.AddRules({*rule}, "writer").ok());
          break;
        }
        case 1:
          pipeline.ScaleDownType(specs[(round / 4) % specs.size()].name,
                                 "writer", "stress");
          break;
        case 2:
          pipeline.Memoize("stress title " + std::to_string(round),
                           specs[0].name);
          break;
        case 3:
          pipeline.ScaleUpType(specs[(round / 4) % specs.size()].name);
          break;
      }
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  for (auto& t : readers) t.join();
  writer.join();
  ASSERT_TRUE(writer_done.load());
  EXPECT_EQ(batches_served.load(),
            static_cast<size_t>(kReaders) * kBatchesPerReader);

  // Quiesced: parallel serving equals a fresh sequential baseline built
  // on the final repository state via the per-item path.
  BatchReport final_report = RunBatch(pipeline, corpus.items);
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    EXPECT_EQ(final_report.predictions[i],
              ClassifyOne(pipeline, corpus.items[i]))
        << "item " << i;
  }
}

// Concurrent batches share the serving pool; each waits only on its own
// task group, so batches complete even when interleaved.
TEST(SnapshotServingTest, ConcurrentBatchesShareThePool) {
  Corpus corpus(600, 5, 12);
  PipelineConfig config;
  config.batch_threads = 2;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  BatchReport expected = RunBatch(pipeline, corpus.items);
  constexpr int kThreads = 6;
  std::vector<BatchReport> reports(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { reports[t] = RunBatch(pipeline, corpus.items); });
  }
  for (auto& t : threads) t.join();
  for (const auto& report : reports) {
    ExpectReportsEqual(expected, report);
  }
}

// Cache records are deferred until every chunk of a batch has finished
// and then run in item order: a repeated title never hits a winner
// recorded by its own batch, and the cache ends the batch in the same
// state whatever the chunking. A small cache (evictions) with admission on
// the second sighting makes both visible in the next round's counters.
TEST(SnapshotServingTest, CachedBatchIdenticalAcrossThreadCounts) {
  Corpus corpus(800, 31, 16);
  std::vector<data::ProductItem> batch = corpus.items;
  batch.insert(batch.end(), corpus.items.begin(), corpus.items.end());

  auto cached_config = [](size_t threads) {
    PipelineConfig config;
    config.batch_threads = threads;
    config.hot_cache.enabled = true;
    config.hot_cache.capacity = 256;
    config.hot_cache.admit_after = 2;
    return config;
  };
  ChimeraPipeline sequential(cached_config(0));
  Provision(sequential, corpus);
  ChimeraPipeline parallel(cached_config(4));
  Provision(parallel, corpus);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    BatchReport seq_report = RunBatch(sequential, batch);
    BatchReport par_report = RunBatch(parallel, batch);
    if (round == 0) {
      EXPECT_EQ(seq_report.cache_hits, 0u);
      EXPECT_GT(seq_report.cache_promotions, 0u);
      EXPECT_GT(seq_report.cache_evictions, 0u);
    } else {
      EXPECT_GT(seq_report.cache_hits, 0u);
    }
    ExpectReportsEqual(seq_report, par_report);
  }
}

// Output must be invariant under the shard count: a 16-shard parallel
// pipeline and a 1-shard (historical monolithic) sequential pipeline
// provisioned identically produce byte-identical reports. This pins the
// propose/veto merge semantics of the sharded classifiers.
TEST(ShardedServingTest, ShardCountDoesNotChangeOutput) {
  Corpus corpus(4000, 99, 20);

  PipelineConfig mono_config;
  mono_config.batch_threads = 0;
  mono_config.rule_shards = 1;
  ChimeraPipeline monolithic(mono_config);
  Provision(monolithic, corpus);

  PipelineConfig sharded_config;
  sharded_config.batch_threads = 4;
  sharded_config.rule_shards = 16;
  ChimeraPipeline sharded(sharded_config);
  Provision(sharded, corpus);

  BatchReport mono_report = RunBatch(monolithic, corpus.items);
  BatchReport shard_report = RunBatch(sharded, corpus.items);
  EXPECT_GT(mono_report.classified, 0u);
  ExpectReportsEqual(mono_report, shard_report);
}

// Two writers mutating rules that live in different shards must be able
// to rebuild their shards at the same time. We prove actual overlap with
// a rendezvous in the publish probe (which fires while the rebuild runs
// outside every pipeline lock): each writer waits inside the probe until
// the other arrives. Timing-free, so it holds on a single-core box — a
// blocked prober yields the CPU to the other writer. If shard rebuilds
// were serialised by a shared lock, the rendezvous would never complete
// and the 5-second grace would fail the test.
TEST(ShardedServingTest, DisjointShardWritersOverlap) {
  constexpr size_t kShards = 16;
  // Two target types routed to different shards.
  const std::string type_a = "alpha";
  std::string type_b;
  for (char c = 'a'; c <= 'z'; ++c) {
    std::string candidate = std::string("beta-") + c;
    if (!(rules::ShardKey::ForType(candidate, kShards) ==
          rules::ShardKey::ForType(type_a, kShards))) {
      type_b = candidate;
      break;
    }
  }
  ASSERT_FALSE(type_b.empty());

  std::atomic<bool> armed{false};
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  bool met = false;

  PipelineConfig config;
  config.batch_threads = 0;
  config.use_learning = false;
  config.rule_shards = kShards;
  config.publish_probe = [&](uint32_t) {
    if (!armed.load()) return;  // ignore setup-phase publishes
    std::unique_lock<std::mutex> lock(mu);
    ++inside;
    if (inside >= 2) {
      met = true;
      cv.notify_all();
    } else {
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return met; });
    }
    --inside;
  };
  ChimeraPipeline pipeline(config);

  armed.store(true);
  auto writer = [&](const std::string& type, const std::string& id) {
    auto rule = rules::Rule::Whitelist(id, "tok" + id + "[a-z]*", type);
    ASSERT_TRUE(rule.ok());
    ASSERT_TRUE(pipeline.AddRules({*rule}, "writer").ok());
  };
  std::thread wa(writer, type_a, "wa");
  std::thread wb(writer, type_b, "wb");
  wa.join();
  wb.join();
  armed.store(false);

  EXPECT_TRUE(met) << "shard rebuilds for " << type_a << " and " << type_b
                   << " never ran concurrently";
}

// Many writers on disjoint shards interleaved with readers: every commit
// must land (no lost updates between concurrent per-shard publishes and
// snapshot composition) and the final serving state must reflect all of
// them.
TEST(ShardedServingTest, MultiWriterDisjointShardsStress) {
  Corpus corpus(400, 31, 12);
  PipelineConfig config;
  config.batch_threads = 2;
  config.rule_shards = 16;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  constexpr int kWriters = 4;
  constexpr int kRoundsPerWriter = 10;
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Each writer owns one synthetic type => one shard; ids are
      // namespaced per writer so commits never conflict.
      const std::string type = "stress-type-" + std::to_string(w);
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        const std::string id =
            "w" + std::to_string(w) + "-r" + std::to_string(round);
        Status status = pipeline.Mutate(
            "writer-" + std::to_string(w),
            [&](rules::RuleTransaction& txn) {
              auto rule = rules::Rule::Whitelist(
                  id, "stresstok" + id + "[a-z]*", type);
              if (!rule.ok()) return rule.status();
              if (auto st = txn.Add(std::move(rule).value()); !st.ok()) {
                return st;
              }
              if (round > 0) {
                return txn.Disable(
                    rules::RuleId("w" + std::to_string(w) + "-r" +
                                  std::to_string(round - 1)),
                    "superseded");
              }
              return Status::OK();
            });
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load()) {
        BatchReport report = RunBatch(pipeline, corpus.items);
        ASSERT_EQ(report.total, corpus.items.size());
      }
    });
  }
  for (auto& t : threads) t.join();
  stop_readers.store(true);
  for (auto& t : readers) t.join();

  // All 40 commits landed; exactly the last rule of each writer is active.
  const auto& repo = pipeline.repository();
  for (int w = 0; w < kWriters; ++w) {
    for (int round = 0; round < kRoundsPerWriter; ++round) {
      const std::string id =
          "w" + std::to_string(w) + "-r" + std::to_string(round);
      const rules::Rule* rule = pipeline.rule_set().Find(id);
      ASSERT_NE(rule, nullptr) << id;
      EXPECT_EQ(rule->is_active(), round == kRoundsPerWriter - 1) << id;
    }
    EXPECT_EQ(repo.HistoryOf("w" + std::to_string(w) + "-r0").size(), 2u);
  }
  // And the published snapshot agrees with the per-item path.
  BatchReport final_report = RunBatch(pipeline, corpus.items);
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    ASSERT_EQ(final_report.predictions[i], ClassifyOne(pipeline, corpus.items[i]))
        << "item " << i;
  }
}

// The hot-result cache under fire: readers hammer batch Classify (warming
// and hitting the cache) while writers interleave every invalidation
// source — AddRules, ScaleDownType/ScaleUpType, RetrainLearning, Memoize.
// Every report must keep the counter partition (cache hits count as
// classified), and no batch may serve a type that was suppressed in the
// snapshot it pinned. Run under -DRULEKIT_SANITIZE=thread: the striped
// cache is the only shared mutable state on the read path.
TEST(HotCacheConcurrencyTest, CachedServingSurvivesConcurrentMaintenance) {
  Corpus corpus(800, 21, 12);
  PipelineConfig config;
  config.batch_threads = 4;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 2048;
  config.hot_cache.stripes = 8;
  config.hot_cache.admit_after = 1;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);
  ASSERT_NE(pipeline.hot_cache(), nullptr);

  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 10;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int b = 0; b < kBatchesPerReader; ++b) {
        BatchReport report = RunBatch(pipeline, corpus.items);
        ASSERT_EQ(report.total, corpus.items.size());
        ASSERT_EQ(report.gate_classified + report.gate_rejected +
                      report.classified + report.filtered +
                      report.suppressed + report.declined,
                  report.total);
        ASSERT_LE(report.cache_hits, report.classified);
      }
    });
  }

  std::thread writer([&] {
    const auto& specs = corpus.gen->specs();
    for (int round = 0; round < 30; ++round) {
      switch (round % 5) {
        case 0: {
          auto rule = rules::Rule::Whitelist(
              "cache-stress-" + std::to_string(round),
              "(qqq|cachestress)[a-z]*" + std::to_string(round),
              specs[round % specs.size()].name);
          ASSERT_TRUE(rule.ok());
          ASSERT_TRUE(pipeline.AddRules({*rule}, "writer").ok());
          break;
        }
        case 1:
          pipeline.ScaleDownType(specs[(round / 5) % specs.size()].name,
                                 "writer", "stress");
          break;
        case 2:
          pipeline.ScaleUpType(specs[(round / 5) % specs.size()].name);
          break;
        case 3:
          pipeline.Memoize("cache stress title " + std::to_string(round),
                           specs[0].name);
          break;
        case 4:
          pipeline.RetrainLearning();
          break;
      }
      std::this_thread::yield();
    }
  });

  for (auto& t : readers) t.join();
  writer.join();

  // Quiesced: the cache may hold winners from any superseded snapshot,
  // but every one of them is dropped on read — batch output equals the
  // per-item path against the final state.
  BatchReport final_report = RunBatch(pipeline, corpus.items);
  BatchReport again = RunBatch(pipeline, corpus.items);
  EXPECT_GT(again.cache_hits, 0u);
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    ASSERT_EQ(final_report.predictions[i], again.predictions[i])
        << "item " << i;
    ASSERT_EQ(final_report.predictions[i], ClassifyOne(pipeline, corpus.items[i]))
        << "item " << i;
  }
}

// Background retraining under fire: readers batch-classify (with the hot
// cache on) while one writer commits rules/labels and another fires
// RequestRetrain continuously. Every reader asserts the published
// semantic_generation never moves backwards, every retrain future must
// resolve, and — because retrains bump the generation — no reader may be
// served a hot-cache winner computed under a superseded ensemble (the
// quiesced byte-identity check at the end would catch a stale serve).
TEST(BackgroundRetrainTest, RetrainUnderFireKeepsServingCoherent) {
  Corpus corpus(600, 97, 12);
  PipelineConfig config;
  config.batch_threads = 2;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 2048;
  config.hot_cache.admit_after = 1;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  constexpr int kReaders = 2;
  constexpr int kBatchesPerReader = 12;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_gen = 0;
      for (int b = 0; b < kBatchesPerReader; ++b) {
        const uint64_t gen = pipeline.semantic_generation();
        ASSERT_GE(gen, last_gen) << "semantic_generation went backwards";
        last_gen = gen;
        BatchReport report = RunBatch(pipeline, corpus.items);
        ASSERT_EQ(report.total, corpus.items.size());
        ASSERT_EQ(report.gate_classified + report.gate_rejected +
                      report.classified + report.filtered +
                      report.suppressed + report.declined,
                  report.total);
      }
    });
  }

  std::thread rule_writer([&] {
    const auto& specs = corpus.gen->specs();
    data::GeneratorConfig label_config = corpus.config;
    label_config.seed = corpus.config.seed + 7;
    data::CatalogGenerator label_gen(label_config);
    for (int round = 0; round < 20; ++round) {
      if (round % 2 == 0) {
        auto rule = rules::Rule::Whitelist(
            "retrain-fire-" + std::to_string(round),
            "(zzz|retrainfire)[a-z]*" + std::to_string(round),
            specs[round % specs.size()].name);
        ASSERT_TRUE(rule.ok());
        ASSERT_TRUE(pipeline.AddRules({*rule}, "writer").ok());
      } else {
        pipeline.AddTrainingData(label_gen.GenerateMany(40));
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::shared_future<RetrainReport>> retrains;
  std::thread retrainer([&] {
    for (int i = 0; i < 15; ++i) {
      retrains.push_back(pipeline.RequestRetrain());
      std::this_thread::yield();
    }
  });

  rule_writer.join();
  retrainer.join();
  size_t published = 0;
  for (auto& f : retrains) {
    RetrainReport report = f.get();  // every future must resolve
    if (report.published) {
      ++published;
      EXPECT_GT(report.publish_generation, 0u);
      EXPECT_GT(report.trained_on, 0u);
    }
  }
  EXPECT_GE(published, 1u);
  for (auto& t : readers) t.join();

  // Quiesced: repeats now hit the cache, and everything served — cached
  // or computed — matches the per-item path against the final snapshot,
  // so no stale entry survived the retrain generation bumps.
  BatchReport final_report = RunBatch(pipeline, corpus.items);
  BatchReport again = RunBatch(pipeline, corpus.items);
  EXPECT_GT(again.cache_hits, 0u);
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    ASSERT_EQ(final_report.predictions[i], again.predictions[i])
        << "item " << i;
    ASSERT_EQ(final_report.predictions[i], ClassifyOne(pipeline, corpus.items[i]))
        << "item " << i;
  }
}

// MemoizeAll publishes one memo version for a whole confirmed batch, and
// concurrent bulk memoizers never lose each other's entries.
TEST(HotCacheConcurrencyTest, ConcurrentMemoizeAllLosesNothing) {
  ChimeraPipeline pipeline;
  constexpr int kWriters = 4;
  constexpr int kPairsPerWriter = 50;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::vector<std::pair<std::string, std::string>> pairs;
      pairs.reserve(kPairsPerWriter);
      for (int i = 0; i < kPairsPerWriter; ++i) {
        pairs.emplace_back(
            "bulk title " + std::to_string(w) + "-" + std::to_string(i),
            "type-" + std::to_string(w));
      }
      pipeline.MemoizeAll(pairs);
    });
  }
  for (auto& t : writers) t.join();

  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPairsPerWriter; ++i) {
      data::ProductItem item;
      item.title = "Bulk Title " + std::to_string(w) + "-" + std::to_string(i);
      ASSERT_EQ(ClassifyOne(pipeline, item).value_or(""),
                "type-" + std::to_string(w));
    }
  }
}

// Multi-tenant serving under fire: per-tenant readers batch-classify
// through their own views (each with its own cache partition) while a
// writer commits tenant-scoped rules and flips tenant suppressions, and a
// third thread fires per-tenant retrains that drain round-robin on the
// trainer thread. Under TSan this verifies the tenant-partition protocol
// (per-tenant shard versions, composed views, cache partitions, trainer
// slots) is race-free; the quiesced checks verify isolation held.
TEST(MultiTenantConcurrencyTest, TenantViewsStayIsolatedUnderMaintenance) {
  Corpus corpus(600, 77, 12);
  PipelineConfig config;
  config.batch_threads = 2;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 2048;
  config.hot_cache.admit_after = 1;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  const std::vector<std::string> tenants = {"alpha", "beta", "gamma"};
  data::GeneratorConfig tenant_train = corpus.config;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const rules::TenantId id(tenants[i]);
    // A sentinel rule only this tenant's view may serve.
    auto sentinel = rules::Rule::Whitelist("sentinel-" + tenants[i],
                                           tenants[i] + "sentinels?",
                                           "sentinel of " + tenants[i]);
    ASSERT_TRUE(sentinel.ok());
    ASSERT_TRUE(pipeline.AddRules({*sentinel}, "seed", id).ok());
    tenant_train.seed = corpus.config.seed + 100 + i;
    data::CatalogGenerator gen(tenant_train);
    pipeline.AddTrainingData(gen.GenerateMany(400), id);
  }

  std::vector<std::thread> readers;
  for (const std::string& tenant : tenants) {
    readers.emplace_back([&, tenant] {
      const rules::TenantId id(tenant);
      for (int b = 0; b < 8; ++b) {
        BatchReport report = RunBatch(pipeline, corpus.items, id);
        ASSERT_EQ(report.total, corpus.items.size());
        ASSERT_EQ(report.gate_classified + report.gate_rejected +
                      report.classified + report.filtered +
                      report.suppressed + report.declined,
                  report.total);
        ASSERT_LE(report.cache_hits, report.classified);
      }
    });
  }
  // The default view serves concurrently with every tenant's.
  readers.emplace_back([&] {
    for (int b = 0; b < 8; ++b) {
      BatchReport report = RunBatch(pipeline, corpus.items);
      ASSERT_EQ(report.total, corpus.items.size());
    }
  });

  std::thread writer([&] {
    const auto& specs = corpus.gen->specs();
    for (int round = 0; round < 24; ++round) {
      const rules::TenantId id(tenants[round % tenants.size()]);
      switch (round % 3) {
        case 0: {
          auto rule = rules::Rule::Whitelist(
              "stress-" + std::to_string(round),
              "(zzz|tenantstress)[a-z]*" + std::to_string(round),
              specs[round % specs.size()].name);
          ASSERT_TRUE(rule.ok());
          ASSERT_TRUE(pipeline.AddRules({*rule}, "writer", id).ok());
          break;
        }
        case 1:
          pipeline.ScaleDownType(specs[(round / 3) % specs.size()].name,
                                 "writer", "stress", id);
          break;
        case 2:
          pipeline.ScaleUpType(specs[(round / 3) % specs.size()].name, id);
          break;
      }
      std::this_thread::yield();
    }
  });

  std::thread retrainer([&] {
    std::vector<std::shared_future<RetrainReport>> futures;
    futures.reserve(9);
    for (int round = 0; round < 9; ++round) {
      futures.push_back(pipeline.RequestRetrain(
          rules::TenantId(tenants[round % tenants.size()])));
    }
    for (auto& future : futures) {
      RetrainReport report = future.get();  // every future must resolve
      ASSERT_NE(report.outcome, RetrainReport::Outcome::kAbandoned);
    }
  });

  for (auto& t : readers) t.join();
  writer.join();
  retrainer.join();

  // Quiesced isolation: each tenant's sentinel classifies only in its
  // own view, and each view's batch path agrees with its per-item path.
  for (const std::string& tenant : tenants) {
    const rules::TenantId id(tenant);
    data::ProductItem probe;
    probe.title = tenant + "sentinel probe";
    EXPECT_EQ(ClassifyOne(pipeline, probe, id).value_or(""),
              "sentinel of " + tenant);
    EXPECT_NE(ClassifyOne(pipeline, probe).value_or(""),
              "sentinel of " + tenant);
    BatchReport report = RunBatch(pipeline, corpus.items, id);
    for (size_t i = 0; i < corpus.items.size(); ++i) {
      ASSERT_EQ(report.predictions[i],
                ClassifyOne(pipeline, corpus.items[i], id))
          << tenant << " item " << i;
    }
  }
}

// The network front-end under fire: concurrent clients stream requests
// over loopback while one thread churns rules and another runs
// background retrains. Exercises every cross-thread edge at once —
// reader tasks decoding and admitting, the dispatcher coalescing and
// running the pipeline against snapshots that are being republished
// beneath it, and the monitor absorbing ServingActivity records — so a
// TSan build proves the server shares the pipeline's reader/writer
// protocol. Every admitted request must be answered kOk (admission is
// disabled: no rate limit, roomy queue), and Stop() must drain cleanly
// with clients still connected.
TEST(ServingConcurrencyTest, ServerUnderRuleChurnAndRetrainStaysCoherent) {
  Corpus corpus(200, 4242, 8);
  PipelineConfig config;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 1024;
  config.hot_cache.admit_after = 1;
  ChimeraPipeline pipeline(config);
  Provision(pipeline, corpus);

  QualityMonitor monitor;
  serving::ServerConfig server_config;
  server_config.io_threads = 4;
  server_config.coalesce_window = std::chrono::microseconds(1000);
  server_config.monitor = &monitor;
  serving::RuleServer server(pipeline, server_config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 15;
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = serving::RuleClient::Connect(server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        serving::WireClassifyRequest request;
        request.request_id = static_cast<uint64_t>(c * 1000 + r);
        if (r % 5 == 4) {
          // An occasional multi-item batch rides the no-coalesce path.
          for (int i = 0; i < 3; ++i) {
            request.items.push_back(
                corpus.items[(c + r + i) % corpus.items.size()]);
          }
        } else {
          request.items.push_back(
              corpus.items[(c * 37 + r) % corpus.items.size()]);
        }
        auto response = client->Call(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->code, serving::WireCode::kOk)
            << response->message;
        ASSERT_EQ(response->predictions.size(), request.items.size());
        ASSERT_EQ(response->total, request.items.size());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread rule_writer([&] {
    const auto& specs = corpus.gen->specs();
    for (int round = 0; round < 12; ++round) {
      auto rule = rules::Rule::Whitelist(
          "serve-churn-" + std::to_string(round),
          "(yyy|servechurn)[a-z]*" + std::to_string(round),
          specs[round % specs.size()].name);
      ASSERT_TRUE(rule.ok());
      ASSERT_TRUE(pipeline.AddRules({*rule}, "writer").ok());
      std::this_thread::yield();
    }
  });

  std::vector<std::shared_future<RetrainReport>> retrains;
  std::thread retrainer([&] {
    data::GeneratorConfig label_config = corpus.config;
    label_config.seed = corpus.config.seed + 11;
    data::CatalogGenerator label_gen(label_config);
    for (int i = 0; i < 6; ++i) {
      pipeline.AddTrainingData(label_gen.GenerateMany(30));
      retrains.push_back(pipeline.RequestRetrain());
      std::this_thread::yield();
    }
  });

  for (auto& t : clients) t.join();
  rule_writer.join();
  retrainer.join();
  for (auto& f : retrains) (void)f.get();  // every future must resolve

  // Stop with the clients' connections still open: the drain must not
  // lose or double-answer anything.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(answered.load(), kClients * kRequestsPerClient);

  serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_admitted,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.overload_rejects(), 0u);
  EXPECT_EQ(stats.invalid_requests, 0u);
  EXPECT_EQ(stats.latency_us.count(), stats.requests_admitted);

  // The monitor saw every dispatch: summing its per-dispatch request
  // counts reproduces the server's admitted total exactly.
  uint64_t monitored = 0;
  for (const auto& activity : monitor.serving_history()) {
    monitored += activity.requests;
  }
  EXPECT_EQ(monitored, stats.requests_admitted);

  // Quiesced, the served results must match the in-process entry point.
  auto client = serving::RuleClient::Connect(server.port());
  EXPECT_FALSE(client.ok());  // and the socket is really gone
  ASSERT_TRUE(server.Start().ok());
  auto verify = serving::RuleClient::Connect(server.port());
  ASSERT_TRUE(verify.ok());
  for (size_t i = 0; i < 20; ++i) {
    const auto& item = corpus.items[i * 7 % corpus.items.size()];
    serving::WireClassifyRequest request;
    request.request_id = i;
    request.items.push_back(item);
    auto response = verify->Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, serving::WireCode::kOk);
    EXPECT_EQ(response->predictions[0], ClassifyOne(pipeline, item))
        << "item " << i;
  }
  server.Stop();
}

// A follower streams the primary's commit log while writers churn rules
// and background retrains publish — the apply path (ApplyReplicated ->
// Replay -> RepublishAll) races the follower's own serving reads, and
// the shipper's per-follower cursor races the primary's journal
// appends. TSan runs this tier; the invariant checked after quiesce is
// byte-identical rule state.
TEST(ReplicationConcurrencyTest, StreamingUnderChurnConvergesByteIdentically) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "rulekit_replication_churn";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Corpus corpus(400, 31, 12);
  PipelineConfig primary_config;
  primary_config.storage_dir = dir.string();
  ChimeraPipeline primary(primary_config);
  ASSERT_TRUE(primary.storage_status().ok());
  Provision(primary, corpus);

  replication::LogShipper shipper(*primary.storage(), {});
  ASSERT_TRUE(shipper.Start().ok());

  replication::FollowerConfig follower_config;
  follower_config.primary_port = shipper.port();
  follower_config.pipeline.use_learning = false;
  auto follower = replication::ReplicaFollower::Open(follower_config);
  ASSERT_TRUE(follower.ok()) << follower.status().message();
  (*follower)->Start();

  // Writers churn the primary's rules while the stream is live.
  constexpr int kWriters = 2;
  constexpr int kRoundsPerWriter = 25;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto& specs = corpus.gen->specs();
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        auto rule = rules::Rule::Whitelist(
            "churn-" + std::to_string(w) + "-" + std::to_string(round),
            "(qqq|replchurn)[a-z]*" + std::to_string(w * 100 + round),
            specs[(w + round) % specs.size()].name);
        ASSERT_TRUE(rule.ok());
        ASSERT_TRUE(primary.AddRules({*rule}, "writer").ok());
        std::this_thread::yield();
      }
    });
  }

  // Retrains run on the primary concurrently (learned state does not
  // replicate; the race under test is retrain commits vs the journal
  // tail the shipper's cursor is reading).
  std::thread retrainer([&] {
    for (int i = 0; i < 6; ++i) {
      primary.RequestRetrain().wait();
      std::this_thread::yield();
    }
  });

  // The follower serves reads the whole time — racing ApplyReplicated's
  // snapshot republishes.
  std::atomic<bool> stop_reading{false};
  std::thread follower_reader([&] {
    while (!stop_reading.load(std::memory_order_acquire)) {
      BatchReport report = RunBatch((*follower)->pipeline(), corpus.items);
      ASSERT_EQ(report.total, corpus.items.size());
    }
  });

  for (auto& t : writers) t.join();
  retrainer.join();

  // Quiesce: everything committed on the primary must arrive.
  ASSERT_TRUE((*follower)->WaitForPosition(primary.storage()->position(),
                                           std::chrono::seconds(60)));
  stop_reading.store(true, std::memory_order_release);
  follower_reader.join();
  (*follower)->Stop();
  shipper.Stop();

  auto state_bytes = [](const rules::RuleRepository& repo) {
    Encoder enc;
    storage::EncodePersistedState(repo.ExportState(), enc);
    return enc.Release();
  };
  EXPECT_EQ(state_bytes(primary.repository()),
            state_bytes((*follower)->pipeline().repository()));
  EXPECT_TRUE((*follower)->stats().halt_error.empty());

  // And the served answers agree.
  BatchReport primary_rules_only = RunBatch(primary, corpus.items);
  BatchReport follower_report = RunBatch((*follower)->pipeline(), corpus.items);
  ASSERT_EQ(follower_report.total, primary_rules_only.total);
}

}  // namespace
}  // namespace rulekit::chimera
