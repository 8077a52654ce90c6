#include "perfbench/src/fixtures.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "perfbench/src/probes.h"
#include "perfbench/src/staged.h"
#include "src/chimera/analyst.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/rules/rule_parser.h"

namespace perfbench {

namespace chimera = rulekit::chimera;
namespace data = rulekit::data;
namespace rules = rulekit::rules;

std::string AnalystRuleDsl(const data::CatalogGenerator& gen) {
  chimera::SimulatedAnalyst analyst(gen);
  std::string dsl;
  for (const data::TypeSpec& spec : gen.specs()) {
    for (const rules::Rule& rule : analyst.WriteRulesForType(spec.name)) {
      dsl += rule.ToDsl() + "\n";
    }
  }
  return dsl;
}

std::vector<rules::Rule> ParseDsl(const std::string& dsl, Report& report) {
  auto parsed = rules::ParseRules(dsl);
  report.Check(parsed.ok(), "rule DSL parses: " + parsed.status().ToString());
  return parsed.ok() ? std::move(parsed).value() : std::vector<rules::Rule>{};
}

std::vector<std::string> TypeNames(const data::CatalogGenerator& gen) {
  std::vector<std::string> names;
  for (const data::TypeSpec& spec : gen.specs()) names.push_back(spec.name);
  return names;
}

data::GeneratorConfig WorldConfig(size_t types) {
  data::GeneratorConfig config;
  config.seed = 2015;  // the world, not the draw: see the header
  config.num_types = types;
  return config;
}

LabeledFeed DrawFeed(data::CatalogGenerator& world, size_t pool, size_t n,
                     uint64_t seed, bool distinct_titles) {
  std::vector<data::LabeledItem> all = world.GenerateMany(pool);
  if (distinct_titles) {
    std::unordered_set<std::string> seen;
    std::erase_if(all, [&](const data::LabeledItem& li) {
      return !seen.insert(rulekit::ToLowerAscii(li.item.title)).second;
    });
  }
  rulekit::Rng rng(seed);
  std::vector<size_t> picked = rng.SampleWithoutReplacement(all.size(), n);
  std::sort(picked.begin(), picked.end());  // set order is unspecified
  rng.Shuffle(picked);
  LabeledFeed feed;
  for (size_t i : picked) {
    feed.items.push_back(std::move(all[i].item));
    feed.labels.push_back(std::move(all[i].label));
  }
  return feed;
}

double SingleRuleEdit(chimera::ChimeraPipeline& pipeline,
                      const std::string& prefix, const std::string& token,
                      const std::string& type, size_t k, Report& report) {
  const std::string n = std::to_string(k / 2);
  const std::string id = prefix + n;
  const bool add = k % 2 == 0;
  ScopedSpan span("chimera.mutate");
  const auto start = Clock::now();
  rulekit::Status status = pipeline.Mutate(
      "perfbench", [&](rules::RuleTransaction& txn) -> rulekit::Status {
        if (!add) return txn.Retire(rules::RuleId(id), "perfbench edit");
        auto rule = rules::Rule::Whitelist(id, token + n, type);
        if (!rule.ok()) return rule.status();
        return txn.Add(std::move(rule).value());
      });
  const double seconds = SecondsSince(start);
  report.Check(status.ok(), "edit " + id + " commits: " + status.ToString());
  const rules::Rule* rule = pipeline.repository().rules().Find(id);
  report.Check(rule != nullptr && rule->is_active() == add,
               "repository shows edit " + id);
  report.Check(!pipeline.repository().HistoryOf(id).empty(),
               "history records edit " + id);
  return seconds;
}

double CompactSeconds(chimera::ChimeraPipeline& pipeline, int times,
                      Report& report) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    ScopedSpan span("storage.compact");
    const auto start = Clock::now();
    rulekit::Status status = pipeline.storage()->Compact();
    seconds.push_back(SecondsSince(start));
    report.Check(status.ok(), "compaction: " + status.ToString());
    report.Attempted();
  }
  return Median(seconds);
}

double TimedReopen(const chimera::PipelineConfig& config,
                   const std::string& expected_state,
                   const std::vector<data::ProductItem>& sample,
                   const std::vector<std::optional<std::string>>& expected,
                   const Args& args, Report& report,
                   std::unique_ptr<chimera::ChimeraPipeline>& reopened) {
  double seconds = 0;
  {
    ScopedSpan span("chimera.recover");
    const auto start = Clock::now();
    reopened = std::make_unique<chimera::ChimeraPipeline>(config);
    auto first = ClassifyItems(*reopened, std::span(sample.data(), 1));
    seconds = SecondsSince(start);
    report.Check(first.ok(), "first classification after reopen");
  }
  report.Attempted();
  report.Check(reopened->storage_status().ok(),
               "reopen: " + reopened->storage_status().ToString());
  std::string state = RuleStateText(reopened->repository());
  if (args.inject == "recovery") state += "injected\n";
  report.Check(state == expected_state,
               "recovered rule state equals the state before shutdown");
  if (!expected.empty()) {
    auto after = ClassifyItems(*reopened, sample);
    report.Check(after.report.predictions == expected,
                 "recovered predictions equal those before shutdown");
  }
  return seconds;
}

void EmitEndToEnd(const EndToEnd& e, Report& report) {
  report.Metric("setup_s", e.setup_s, "s");
  report.Metric("items_per_s", e.items_per_s, "items/s");
  report.Metric("latency_p50_us", e.latency_p50_us, "us");
  report.Metric("cpu_us_per_item", e.cpu_us_per_item, "us");
  report.Metric("precision", e.precision, "ratio");
  report.Metric("coverage", e.coverage, "ratio");
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

void EmitLayers(const Layers& l, Report& report) {
  report.Metric("serving.codec_ns_per_request", l.codec_ns_per_request, "ns");
  report.Metric("serving.queue_wait_p50_us", l.queue_wait_p50_us, "us");
  report.Metric("serving.server_p50_us", l.server_p50_us, "us");
  report.Metric("serving.transport_p50_us", l.transport_p50_us, "us");
  report.Metric("serving.batch_size_mean", l.batch_size_mean, "requests");
  report.Metric("common.parallel_for_1_us", l.parallel_for_1_us, "us");
  report.Metric("common.parallel_for_8_us", l.parallel_for_8_us, "us");
  report.Metric("chimera.gate_ns_per_item", l.gate_ns_per_item, "ns");
  report.Metric("chimera.vote_ns_per_item", l.vote_ns_per_item, "ns");
  report.Metric("chimera.filter_ns_per_item", l.filter_ns_per_item, "ns");
  report.Metric("chimera.overhead_ns_per_item", l.overhead_ns_per_item, "ns");
  report.Metric("chimera.edit_p50_us", l.edit_p50_us, "us");
  report.Metric("chimera.publish_ms", l.publish_ms, "ms");
  report.Metric("chimera.recover_s", l.recover_s, "s");
  report.Metric("engine.match_ns_per_item", l.match_ns_per_item, "ns");
  report.Metric("engine.rules_per_item", l.rules_per_item, "rules");
  report.Metric("engine.score_ns_per_item", l.score_ns_per_item, "ns");
  report.Metric("engine.cache_lookup_ns", l.cache_lookup_ns, "ns");
  report.Metric("engine.cache_record_ns", l.cache_record_ns, "ns");
  report.Metric("engine.cache_hit_ratio", l.cache_hit_ratio, "ratio");
  report.Metric("engine.shard_build_ms", l.shard_build_ms, "ms");
  report.Metric("ml.features_ns_per_item", l.features_ns_per_item, "ns");
  report.Metric("ml.knn_ns_per_item", l.knn_ns_per_item, "ns");
  report.Metric("ml.naive_bayes_ns_per_item", l.naive_bayes_ns_per_item, "ns");
  report.Metric("ml.logreg_ns_per_item", l.logreg_ns_per_item, "ns");
  report.Metric("ml.train_s", l.train_s, "s");
  report.Metric("regex.compile_us_per_rule", l.compile_us_per_rule, "us");
  report.Metric("rules.commit_us", l.commit_us, "us");
  report.Metric("storage.wal_append_us", l.wal_append_us, "us");
  report.Metric("storage.compact_s", l.compact_s, "s");
  report.Metric("storage.open_s", l.open_s, "s");
  report.Metric("storage.snapshot_mb", l.snapshot_mb, "MiB");
  report.Metric("storage.wal_mb", l.wal_mb, "MiB");
  report.Metric("replication.join_attempts", l.join_attempts, "count");
  report.Metric("replication.join_refused", l.join_refused, "count");
}

void TraceStages(chimera::ChimeraPipeline& pipeline, StagedPipeline& staged,
                 const std::vector<std::vector<data::ProductItem>>& batches,
                 Layers& layers, Report& report) {
  const int64_t since = Tracer::NowNs();
  size_t items = 0;
  bool equal = true;
  for (const auto& batch : batches) {
    chimera::ClassifyResponse response;
    {
      ScopedSpan span("chimera.classify");
      response = ClassifyItems(pipeline, batch);
    }
    equal = equal && staged.Run(batch) == response.report.predictions;
    staged.LookupFeatures(batch);
    items += batch.size();
  }
  report.Check(equal, "staged copy of RunBatch equals the pipeline");
  std::vector<Span> spans = Tracer::All();
  std::erase_if(spans, [&](const Span& s) { return s.start_ns < since; });
  const double n = double(std::max<size_t>(items, 1));
  const double passed = double(std::max<uint64_t>(staged.rule_items(), 1));
  layers.gate_ns_per_item = Tracer::TotalNs(spans, "chimera.gate") / n;
  layers.match_ns_per_item = Tracer::TotalNs(spans, "engine.match") / passed;
  layers.rules_per_item = double(staged.rules_executed()) / passed;
  layers.score_ns_per_item = Tracer::TotalNs(spans, "engine.score") / passed;
  layers.vote_ns_per_item = Tracer::SelfNs(spans, "chimera.vote") / passed;
  layers.filter_ns_per_item = Tracer::TotalNs(spans, "chimera.filter") / passed;
  layers.knn_ns_per_item = Tracer::TotalNs(spans, "ml.knn") / passed;
  layers.naive_bayes_ns_per_item =
      Tracer::TotalNs(spans, "ml.naive_bayes") / passed;
  layers.logreg_ns_per_item = Tracer::TotalNs(spans, "ml.logreg") / passed;
  layers.features_ns_per_item = Tracer::TotalNs(spans, "ml.features") / n;
  if (staged.cache_lookups() > 0) {
    layers.cache_lookup_ns = Tracer::TotalNs(spans, "engine.cache_lookup") /
                             double(staged.cache_lookups());
    layers.cache_hit_ratio =
        double(staged.cache_hits()) / double(staged.cache_lookups());
  }
  if (staged.cache_records() > 0) {
    layers.cache_record_ns = Tracer::TotalNs(spans, "engine.cache_record") /
                             double(staged.cache_records());
  }
  double stages = 0;
  for (const char* stage :
       {"chimera.stage_gate", "engine.match", "engine.score_stage",
        "chimera.vote", "chimera.stage_finalize"}) {
    stages += Tracer::TotalNs(spans, stage);
  }
  layers.overhead_ns_per_item =
      (Tracer::TotalNs(spans, "chimera.classify") - stages) / n;
}

void ProbeWritePath(const chimera::ChimeraPipeline& pipeline,
                    const std::vector<rules::Rule>& rules,
                    size_t compile_rules,
                    const std::vector<std::string>& edit_types,
                    double edit_p50_us, const Args& args, Layers& layers) {
  const chimera::PipelineConfig& config = pipeline.config();
  if (config.batch_threads > 1) {
    layers.parallel_for_1_us = ParallelForUs(config.batch_threads, 1);
    layers.parallel_for_8_us = ParallelForUs(config.batch_threads, 8);
  }
  layers.compile_us_per_rule = RegexCompileUsPerRule(
      {rules.begin(), rules.begin() + std::min(rules.size(), compile_rules)});
  const CommitCosts commit =
      MeasureCommits(rules, config.rule_shards, edit_types.front(),
                     args.work_dir + "/commit-probe");
  layers.commit_us = commit.commit_us;
  layers.wal_append_us = commit.wal_append_us;
  layers.shard_build_ms = ShardBuildMs(pipeline, edit_types);
  const bool fsync_per_commit =
      !config.storage_dir.empty() &&
      config.storage.fsync_policy == rulekit::storage::FsyncPolicy::kEveryCommit;
  layers.publish_ms =
      edit_p50_us / 1e3 - layers.commit_us / 1e3 -
      (fsync_per_commit ? layers.wal_append_us / 1e3 : 0.0) -
      layers.shard_build_ms;
}

void StoreLayers(const chimera::PipelineConfig& config, Layers& layers) {
  rulekit::storage::StoreOptions options = config.storage;
  options.shard_count = config.rule_shards;
  {
    ScopedSpan span("storage.open");
    const auto start = Clock::now();
    auto store = rulekit::storage::DurableRuleStore::Open(config.storage_dir,
                                                          options);
    layers.open_s = SecondsSince(start);
  }
  uint64_t snapshot = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.storage_dir)) {
    if (entry.path().filename().string().rfind("snap", 0) == 0) {
      snapshot = std::max<uint64_t>(snapshot, FileBytes(entry.path().string()));
    }
  }
  layers.snapshot_mb = double(snapshot) / (1 << 20);
}

void WriteSpans(const Args& args) {
  if (!Tracer::enabled()) return;
  Tracer::Write(args.work_dir + "/spans-" + args.workload + "-" +
                std::to_string(args.seed) + ".jsonl");
}

void NoteLatencyTail(const std::string& workload, const Timeline& timeline) {
  std::fprintf(stderr, "%s: latency p90 %.1f us, p99 %.1f us (n=%zu)\n",
               workload.c_str(), timeline.LatencyQuantile(0.9),
               timeline.LatencyQuantile(0.99), timeline.ops());
}

void NoteTracedEndToEnd(const EndToEnd& e) {
  Report shadow;
  EmitEndToEnd(e, shadow);
  std::fprintf(stderr, "traced end-to-end: %s\n", shadow.MetricsJson().c_str());
}

}  // namespace perfbench
