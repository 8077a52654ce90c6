// catalog_feed: a vendor feed of first-sight titles classified in
// batches through ChimeraPipeline::Classify with analyst rules and the
// learned ensemble, on a pooled 8-shard pipeline with the hot cache off.
// The ensemble does most of the work; serving, storage, edits and the
// cache do none.
#include "perfbench/src/bench.h"
#include "perfbench/src/fixtures.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/staged.h"
#include "src/data/catalog_generator.h"

namespace perfbench {

namespace chimera = rulekit::chimera;
namespace data = rulekit::data;

namespace {

constexpr size_t kTypes = 48;
constexpr size_t kTrainingItems = 2000;
constexpr size_t kBatch = 256;
constexpr size_t kFeedBatches = 32;
constexpr size_t kWorldPool = 30000;
constexpr int kSetups = 9;
constexpr size_t kSampleItems = 64;

}  // namespace

int RunCatalogFeed(const Args& args, Report& report) {
  // ---- inputs (not timed) ---------------------------------------------------
  data::CatalogGenerator gen(WorldConfig(kTypes));
  const std::string dsl = AnalystRuleDsl(gen);
  LabeledFeed feed = DrawFeed(gen, kWorldPool, kTrainingItems + kBatch * kFeedBatches,
                              args.seed);
  std::vector<data::LabeledItem> training;
  for (size_t i = 0; i < kTrainingItems; ++i) {
    training.push_back({std::move(feed.items[i]), std::move(feed.labels[i])});
  }
  feed.items.erase(feed.items.begin(), feed.items.begin() + kTrainingItems);
  feed.labels.erase(feed.labels.begin(), feed.labels.begin() + kTrainingItems);

  chimera::PipelineConfig config;
  config.batch_threads = HardwareThreads();
  config.rule_shards = 8;

  // ---- set-up: parse + compile, AddRules, training --------------------------
  EndToEnd e2e;
  Layers layers;
  std::vector<double> setup_s, train_s;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  std::vector<rulekit::rules::Rule> rules;
  for (int i = 0; i < kSetups; ++i) {
    pipeline.reset();
    ScopedSpan span("setup");
    const auto start = Clock::now();
    rules = ParseDsl(dsl, report);
    pipeline = std::make_unique<chimera::ChimeraPipeline>(config);
    rulekit::Status added = pipeline->AddRules(rules, "analyst");
    report.Check(added.ok(), "AddRules: " + added.ToString());
    pipeline->AddTrainingData(training);
    const auto train_start = Clock::now();
    pipeline->RetrainLearning();
    train_s.push_back(SecondsSince(train_start));
    setup_s.push_back(SecondsSince(start));
  }
  e2e.setup_s = Median(setup_s);
  layers.train_s = Median(train_s);

  // ---- timed phase: whole passes over the feed ------------------------------
  std::vector<std::optional<std::string>> first_pass;
  Timeline timeline;
  Quality quality;
  size_t items = 0;
  bool counts_sum = true, all_ok = true;
  const double cpu_start = ProcessCpuSeconds();
  const auto start = Clock::now();
  do {
    for (size_t b = 0; b < kFeedBatches; ++b) {
      std::span<const data::ProductItem> batch(feed.items.data() + b * kBatch,
                                               kBatch);
      chimera::ClassifyResponse response;
      const auto t = Clock::now();
      {
        ScopedSpan span("chimera.classify");
        response = ClassifyItems(*pipeline, batch);
      }
      timeline.Add(SecondsSince(start), SecondsSince(t) * 1e6, batch.size());
      report.Attempted();
      all_ok = all_ok && response.ok();
      const chimera::BatchReport& r = response.report;
      counts_sum = counts_sum &&
                   r.gate_classified + r.gate_rejected + r.classified +
                           r.filtered + r.suppressed + r.declined ==
                       r.total &&
                   r.total == batch.size();
      for (size_t i = 0; i < batch.size(); ++i) {
        quality.Add(r.predictions[i], feed.labels[b * kBatch + i]);
      }
      if (first_pass.size() < feed.items.size()) {
        first_pass.insert(first_pass.end(), r.predictions.begin(),
                          r.predictions.end());
      }
      items += batch.size();
    }
  } while (SecondsSince(start) < args.seconds);
  const double elapsed = SecondsSince(start);
  const Timeline::Summary summary = timeline.Summarize(elapsed);
  e2e.items_per_s = summary.items_per_s;
  e2e.cpu_us_per_item = (ProcessCpuSeconds() - cpu_start) * 1e6 / double(items);
  e2e.latency_p50_us = summary.p50_us;
  NoteLatencyTail(args.workload, timeline);
  e2e.precision = quality.precision();
  e2e.coverage = quality.coverage();

  // ---- output checks --------------------------------------------------------
  report.Check(all_ok, "every Classify returns OK");
  report.Check(counts_sum, "BatchReport outcome counts sum to total");
  report.Check(e2e.precision >= 0.92,
               "precision against the generator's labels >= 0.92 (got " +
                   std::to_string(e2e.precision) + ")");
  if (args.inject == "prediction") first_pass[0] = "injected-type";
  bool single_equal = true;
  for (size_t i = 0; i < kSampleItems; ++i) {
    auto one = ClassifyItems(*pipeline, std::span(&feed.items[i], 1));
    single_equal = single_equal && one.report.predictions[0] == first_pass[i];
  }
  report.Check(single_equal,
               "batched pooled predictions equal one-item Classify calls");
  {
    StagedPipeline staged(*pipeline, training);
    const size_t check_batches = args.trace ? 16 : 2;
    std::vector<std::vector<data::ProductItem>> batches;
    for (size_t b = 0; b < check_batches; ++b) {
      batches.emplace_back(feed.items.begin() + b * kBatch,
                           feed.items.begin() + (b + 1) * kBatch);
    }
    TraceStages(*pipeline, staged, batches, layers, report);
  }

  if (args.trace) {
    // The one pooled workload: the pool's fixed cost is measured here.
    layers.parallel_for_1_us = ParallelForUs(config.batch_threads, 1);
    layers.parallel_for_8_us = ParallelForUs(config.batch_threads, 8);
    layers.compile_us_per_rule = RegexCompileUsPerRule(rules);
  }

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
