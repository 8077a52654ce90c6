// rule_maintenance: an analyst's write path on a durable store. A rule
// base of 12.5K regex rules over 200 types (the bench_optimizer shape,
// at the size whose set-up, two compactions and cold reopen fit the
// benchmark's run budget) is parsed from DSL text; single-rule edits
// through Mutate then run beside a rules-only reader classifying
// first-sight items; the store compacts twice and the pipeline reopens
// cold from it; last, a fresh replica tries to join the compacted
// primary.
#include <cstdio>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/fixtures.h"
#include "perfbench/src/staged.h"
#include "src/common/string_util.h"
#include "src/data/catalog_generator.h"
#include "src/replication/follower.h"
#include "src/replication/shipper.h"

namespace perfbench {

namespace chimera = rulekit::chimera;
namespace data = rulekit::data;
namespace replication = rulekit::replication;

namespace {

constexpr size_t kTypes = 200;
constexpr size_t kTargetRules = 12000;
constexpr size_t kDeadRules = 500;
constexpr size_t kBatch = 256;
constexpr size_t kFeedBatches = 16;
constexpr size_t kWorldPool = 12000;
/// A fixed count, so every run attempts the same operations whatever
/// its length; the edits are paced over the run.
constexpr size_t kEdits = 40;
constexpr int kCompactions = 2;
constexpr auto kJoinWait = std::chrono::seconds(5);
constexpr size_t kTraceCompileRules = 2000;

/// The bench_optimizer rule-base shape: per type a broad head-noun rule
/// and its equivalent twin (two types in three), single-qualifier
/// refinements, then qualifier-pair refinements until the target count,
/// plus dead rules that match nothing (at full confidence: the DSL has
/// no confidence field).
std::string RuleBaseDsl(const std::vector<data::TypeSpec>& specs) {
  std::string dsl;
  size_t count = 0;
  auto add = [&](const std::string& id, const std::string& pattern,
                 const std::string& type) {
    dsl += "whitelist " + id + ": " + pattern + " => " + type + "\n";
    ++count;
  };
  for (size_t round = 0; count < kTargetRules; ++round) {
    const size_t before = count;
    for (size_t s = 0; s < specs.size() && count < kTargetRules; ++s) {
      const data::TypeSpec& spec = specs[s];
      if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
      const std::string noun = rulekit::RegexEscape(spec.head_nouns[0]);
      const std::string tag = "t" + std::to_string(s);
      if (round == 0) {
        if (s % 3 == 2) continue;
        add(tag + "-broad", noun, spec.name);
        add(tag + "-dup", noun, spec.name);
      } else if (round <= spec.qualifiers.size()) {
        add(tag + "-q" + std::to_string(round - 1),
            rulekit::RegexEscape(spec.qualifiers[round - 1]) + ".*" + noun,
            spec.name);
      } else {
        const size_t a = (round - 1) % spec.qualifiers.size();
        const size_t b = (round / 2) % spec.qualifiers.size();
        add(tag + "-p" + std::to_string(round),
            rulekit::RegexEscape(spec.qualifiers[a]) + ".*" +
                rulekit::RegexEscape(spec.qualifiers[b]) + ".*" + noun,
            spec.name);
      }
    }
    if (count == before) break;  // vocabulary exhausted
  }
  for (size_t i = 0; i < kDeadRules; ++i) {
    add("dead-" + std::to_string(i), "deadtok" + std::to_string(i),
        specs[i % specs.size()].name);
  }
  return dsl;
}

}  // namespace

int RunRuleMaintenance(const Args& args, Report& report) {
  // ---- inputs (not timed) ---------------------------------------------------
  data::CatalogGenerator gen(WorldConfig(kTypes));
  const std::string dsl = RuleBaseDsl(gen.specs());
  const LabeledFeed feed =
      DrawFeed(gen, kWorldPool, kBatch * kFeedBatches, args.seed);

  chimera::PipelineConfig config;
  config.use_learning = false;
  // The reader runs inline: the editor then has a core of its own, and
  // the reader's figures do not swing with where the pool's threads land.
  config.batch_threads = 0;
  config.rule_shards = 8;
  config.storage_dir = args.work_dir + "/rule_maintenance-store";

  // ---- set-up: parse + compile, store open, AddRules ------------------------
  EndToEnd e2e;
  Layers layers;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  std::vector<rulekit::rules::Rule> rules;
  FreshDir(config.storage_dir);
  {
    ScopedSpan span("setup");
    const auto start = Clock::now();
    rules = ParseDsl(dsl, report);
    pipeline = std::make_unique<chimera::ChimeraPipeline>(config);
    rulekit::Status added = pipeline->AddRules(rules, "analyst");
    report.Check(added.ok(), "AddRules: " + added.ToString());
    e2e.setup_s = SecondsSince(start);
  }
  report.Check(pipeline->storage() != nullptr,
               "store opens: " + pipeline->storage_status().ToString());
  if (pipeline->storage() == nullptr) return 1;
  std::fprintf(stderr, "rule_maintenance: %zu rules, set-up %.2f s\n",
               rules.size(), e2e.setup_s);

  // ---- timed phase: paced single-rule edits beside a reader ---------------
  std::atomic<bool> editing{true};
  Timeline timeline;
  Quality quality;
  size_t items = 0;
  bool reader_ok = true;
  double reader_seconds = 0;
  const double cpu_start = ProcessCpuSeconds();
  std::thread reader([&] {
    const auto start = Clock::now();
    do {
      for (size_t b = 0; b < kFeedBatches; ++b) {
        std::span<const data::ProductItem> batch(
            feed.items.data() + b * kBatch, kBatch);
        const auto t = Clock::now();
        chimera::ClassifyResponse response;
        {
          ScopedSpan span("chimera.classify");
          response = ClassifyItems(*pipeline, batch);
        }
        timeline.Add(SecondsSince(start), SecondsSince(t) * 1e6,
                     batch.size());
        const chimera::BatchReport& r = response.report;
        reader_ok = reader_ok && response.ok() &&
                    r.gate_classified + r.gate_rejected + r.classified +
                            r.filtered + r.suppressed + r.declined ==
                        r.total;
        for (size_t i = 0; i < batch.size(); ++i) {
          quality.Add(r.predictions[i], feed.labels[b * kBatch + i]);
        }
        items += batch.size();
      }
    } while (editing.load());
    reader_seconds = SecondsSince(start);
  });
  std::vector<double> edit_s;
  {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args.seconds / double(kEdits)));
    auto next = Clock::now();
    for (size_t k = 0; k < kEdits; ++k) {
      std::this_thread::sleep_until(next);
      next += period;
      const std::string& type = gen.specs()[(k / 2) % kTypes].name;
      edit_s.push_back(
          SingleRuleEdit(*pipeline, "rm-edit-", "zqmaint", type, k, report));
      report.Attempted();
    }
    std::this_thread::sleep_until(next);
  }
  editing.store(false);
  reader.join();
  const Timeline::Summary summary = timeline.Summarize(reader_seconds);
  e2e.items_per_s = summary.items_per_s;
  e2e.cpu_us_per_item =
      (ProcessCpuSeconds() - cpu_start) * 1e6 / double(std::max<size_t>(items, 1));
  e2e.latency_p50_us = summary.p50_us;
  NoteLatencyTail(args.workload, timeline);
  layers.edit_p50_us = Median(edit_s) * 1e6;
  e2e.precision = quality.precision();
  e2e.coverage = quality.coverage();
  report.Check(reader_ok, "reader batches return OK with outcome counts "
                          "summing to total");

  if (args.trace) {
    StagedPipeline staged(*pipeline, {});
    std::vector<std::vector<data::ProductItem>> batches;
    for (size_t b = 0; b < 4; ++b) {
      batches.emplace_back(feed.items.begin() + b * kBatch,
                           feed.items.begin() + (b + 1) * kBatch);
    }
    TraceStages(*pipeline, staged, batches, layers, report);
    std::vector<std::string> edit_types;
    for (size_t k = 0; k < kEdits; k += 2) {
      edit_types.push_back(gen.specs()[(k / 2) % kTypes].name);
    }
    ProbeWritePath(*pipeline, rules, kTraceCompileRules, edit_types,
                   layers.edit_p50_us, args, layers);
  }

  // ---- compaction, cold reopen, replica join -------------------------------
  const std::vector<data::ProductItem> sample(feed.items.begin(),
                                              feed.items.begin() + kBatch);
  const auto expected = ClassifyItems(*pipeline, sample).report.predictions;
  const std::string state = RuleStateText(pipeline->repository());
  layers.wal_mb = double(pipeline->storage()->wal_bytes()) / (1 << 20);
  layers.compact_s = CompactSeconds(*pipeline, kCompactions, report);
  pipeline.reset();
  if (args.trace) StoreLayers(config, layers);
  std::unique_ptr<chimera::ChimeraPipeline> reopened;
  layers.recover_s =
      TimedReopen(config, state, sample, expected, args, report, reopened);

  // A fresh follower subscribes from the start of the log, which the two
  // compactions removed; the shipper refuses it on every run today. The
  // join counts as one attempted operation, failed when refused.
  if (reopened != nullptr && reopened->storage() != nullptr) {
    replication::LogShipper shipper(*reopened->storage(), {});
    rulekit::Status started = shipper.Start();
    report.Check(started.ok(), "log shipper starts: " + started.ToString());
    replication::FollowerConfig follower_config;
    follower_config.primary_port = shipper.port();
    follower_config.pipeline.use_learning = false;
    follower_config.pipeline.rule_shards = config.rule_shards;
    auto follower = replication::ReplicaFollower::Open(follower_config);
    report.Check(follower.ok(), "follower opens");
    if (started.ok() && follower.ok()) {
      ScopedSpan span("replication.join");
      (*follower)->Start();
      const auto deadline = Clock::now() + kJoinWait;
      bool joined = false;
      while (Clock::now() < deadline) {
        const replication::FollowerStats fs = (*follower)->stats();
        if (fs.connect_failures > 0) break;
        if ((*follower)->WaitForPosition(reopened->storage()->position(),
                                         std::chrono::milliseconds(20))) {
          joined = true;
          break;
        }
      }
      (*follower)->Stop();
      const replication::FollowerStats fs = (*follower)->stats();
      report.Attempted();
      if (joined) {
        report.Check(RuleStateText((*follower)->pipeline().repository()) ==
                         RuleStateText(reopened->repository()),
                     "a joined follower's rule state equals the primary's");
      } else {
        report.Failed();
      }
      layers.join_attempts = double(fs.connects + fs.connect_failures);
      layers.join_refused = double(shipper.stats().subscriptions_refused);
    }
    shipper.Stop();
  }
  std::fprintf(stderr,
               "rule_maintenance: edit p50 %.0f us, compact %.2f s, "
               "recover %.2f s\n",
               layers.edit_p50_us, layers.compact_s, layers.recover_s);
  reopened.reset();
  RemoveDir(config.storage_dir);

  if (args.trace) {
    NoteTracedEndToEnd(e2e);
    EmitLayers(layers, report);
    WriteSpans(args);
  } else {
    EmitEndToEnd(e2e, report);
  }
  return 0;
}

}  // namespace perfbench
