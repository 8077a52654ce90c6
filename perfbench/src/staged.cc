#include "perfbench/src/staged.h"

#include <algorithm>

#include "perfbench/src/bench.h"
#include "src/common/string_util.h"
#include "src/ml/ensemble.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/naive_bayes.h"

namespace perfbench {

using rulekit::ThreadPool;
using rulekit::chimera::GateDecision;
using rulekit::chimera::GateKeeper;
namespace data = rulekit::data;
namespace engine = rulekit::engine;
namespace ml = rulekit::ml;

namespace {

/// A voting or ensemble member whose calls are recorded as spans. While
/// its batch call runs, spans opened on pool workers (the inner members'
/// per-item calls) are recorded as its children.
class TracedClassifier : public ml::Classifier {
 public:
  TracedClassifier(std::shared_ptr<ml::Classifier> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}

  std::vector<ml::ScoredLabel> Predict(
      const data::ProductItem& item) const override {
    ScopedSpan span(span_);
    return inner_->Predict(item);
  }
  std::vector<std::vector<ml::ScoredLabel>> PredictBatch(
      const std::vector<const data::ProductItem*>& items,
      ThreadPool* pool) const override {
    ScopedSpan span(span_);
    Tracer::SetAmbient(span.id());
    auto out = inner_->PredictBatch(items, pool);
    Tracer::SetAmbient(0);
    return out;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<ml::Classifier> inner_;
  const char* span_;
};

/// fn(begin, end) over [0, n): on the pool in chunks, or inline for one
/// item or no pool — the same split RunBatch makes.
void RunChunked(ThreadPool* pool, size_t n,
                const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    fn(0, n);
    return;
  }
  pool->ParallelFor(n, fn);
}

/// A stage span on the calling thread that also parents the spans its
/// pool workers open.
class StageSpan {
 public:
  explicit StageSpan(const char* name) : span_(name) {
    Tracer::SetAmbient(span_.id());
  }
  ~StageSpan() { Tracer::SetAmbient(0); }

 private:
  ScopedSpan span_;
};

}  // namespace

StagedPipeline::StagedPipeline(
    rulekit::chimera::ChimeraPipeline& pipeline,
    const std::vector<data::LabeledItem>& training)
    : config_(pipeline.config()),
      memo_(pipeline.gate_keeper().snapshot()),
      voting_(pipeline.config().voting) {
  const rulekit::rules::RuleRepository& repo = pipeline.repository();
  std::vector<std::shared_ptr<const engine::RuleBasedClassifier>> rule_shards;
  std::vector<std::shared_ptr<const engine::AttrValueClassifier>> attr_shards;
  std::vector<std::shared_ptr<const rulekit::chimera::Filter>> filter_shards;
  for (size_t s = 0; s < repo.shard_count(); ++s) {
    auto snap = repo.ShardSnapshotOf(
        rulekit::rules::ShardKey(static_cast<uint32_t>(s)));
    rule_shards.push_back(std::make_shared<engine::RuleBasedClassifier>(
        snap.rules, engine::RuleClassifierOptions{
                        .use_index = true,
                        .index_sample = config_.index_sample_titles}));
    attr_shards.push_back(
        std::make_shared<engine::AttrValueClassifier>(snap.rules));
    filter_shards.push_back(
        std::make_shared<rulekit::chimera::Filter>(snap.rules));
  }
  rule_classifier_ =
      std::make_shared<engine::ShardedRuleClassifier>(std::move(rule_shards));
  filter_ =
      std::make_shared<rulekit::chimera::ShardedFilter>(std::move(filter_shards));
  if (config_.use_rules) {
    voting_.AddMember(rule_classifier_, config_.rule_weight);
    voting_.AddMember(
        std::make_shared<TracedClassifier>(
            std::make_shared<engine::ShardedAttrValueClassifier>(
                std::move(attr_shards)),
            "ml.attr_value"),
        config_.attr_weight);
  }
  if (config_.use_learning && !training.empty()) {
    // The trainer's recipe: fresh extractor, members trained in this
    // order on the same data, equal member weights.
    features_ = std::make_shared<ml::FeatureExtractor>();
    auto nb = std::make_shared<ml::NaiveBayesClassifier>(features_);
    nb->Train(training);
    auto knn = std::make_shared<ml::KnnClassifier>(features_, 7);
    knn->Train(training);
    auto logreg = std::make_shared<ml::LogRegClassifier>(features_);
    logreg->Train(training);
    auto ensemble = std::make_shared<ml::EnsembleClassifier>();
    ensemble->AddMember(
        std::make_shared<TracedClassifier>(std::move(nb), "ml.naive_bayes"));
    ensemble->AddMember(
        std::make_shared<TracedClassifier>(std::move(knn), "ml.knn"));
    ensemble->AddMember(
        std::make_shared<TracedClassifier>(std::move(logreg), "ml.logreg"));
    voting_.AddMember(
        std::make_shared<TracedClassifier>(std::move(ensemble), "ml.ensemble"),
        config_.learning_weight);
  }
  if (config_.hot_cache.enabled && config_.hot_cache.capacity > 0) {
    cache_ = std::make_unique<engine::HotResultCache>(config_.hot_cache);
  }
  if (config_.batch_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.batch_threads);
  }
}

std::vector<std::optional<std::string>> StagedPipeline::Run(
    std::span<const data::ProductItem> items) {
  ThreadPool* pool = pool_.get();
  const engine::VersionTag tag{1, 1};  // the rule state never changes here
  std::vector<std::optional<std::string>> predictions(items.size());
  if (items.empty()) return predictions;
  ScopedSpan batch_span("staged.batch");

  // ---- gate decisions + cache probes ---------------------------------------
  enum : uint8_t { kPass = 0, kDone };
  std::vector<uint8_t> outcome(items.size(), kPass);
  std::vector<std::string> lowered(items.size());
  std::atomic<uint64_t> lookups{0}, hits{0};
  {
    StageSpan stage("chimera.stage_gate");
    RunChunked(pool, items.size(), [&](size_t begin, size_t end) {
      {
        ScopedSpan span("chimera.gate");
        for (size_t i = begin; i < end; ++i) {
          lowered[i] = rulekit::ToLowerAscii(items[i].title);
          GateDecision d = GateKeeper::DecideLowered(*memo_, items[i], lowered[i]);
          if (d.kind == GateDecision::Kind::kPass) continue;
          outcome[i] = kDone;
          if (d.kind == GateDecision::Kind::kClassified) {
            predictions[i] = std::move(d.type);
          }
        }
      }
      if (cache_ == nullptr) return;
      ScopedSpan span("engine.cache_lookup");
      uint64_t n = 0, h = 0;
      for (size_t i = begin; i < end; ++i) {
        if (outcome[i] != kPass) continue;
        ++n;
        engine::CacheLookup cached = cache_->Lookup(lowered[i], tag);
        if (!cached.hit) continue;
        ++h;
        outcome[i] = kDone;
        predictions[i] = std::move(cached.type);
      }
      lookups += n;
      hits += h;
    });
  }
  cache_lookups_ += lookups.load();
  cache_hits_ += hits.load();

  std::vector<size_t> pass_idx;
  std::vector<const data::ProductItem*> pass_ptrs;
  for (size_t i = 0; i < items.size(); ++i) {
    if (outcome[i] != kPass) continue;
    pass_idx.push_back(i);
    pass_ptrs.push_back(&items[i]);
  }
  if (pass_ptrs.empty()) return predictions;

  // ---- rule match, scoring, voting ---------------------------------------
  engine::ShardedExecution exec;
  {
    ScopedSpan span("engine.match");
    exec = rule_classifier_->MatchBatch(pass_ptrs, pool);
  }
  rules_executed_ += exec.total_evaluations();
  rule_items_ += pass_ptrs.size();
  std::vector<std::vector<ml::ScoredLabel>> rule_scored(pass_ptrs.size());
  if (config_.use_rules) {
    StageSpan stage("engine.score_stage");
    RunChunked(pool, pass_ptrs.size(), [&](size_t begin, size_t end) {
      ScopedSpan span("engine.score");
      for (size_t j = begin; j < end; ++j) {
        rule_scored[j] = rule_classifier_->ScoreMatches(exec, j);
      }
    });
  }
  std::vector<std::optional<ml::ScoredLabel>> votes;
  {
    ScopedSpan span("chimera.vote");
    votes = voting_.VoteBatch(
        pass_ptrs, pool, config_.use_rules ? rule_classifier_.get() : nullptr,
        config_.use_rules ? &rule_scored : nullptr);
  }

  // ---- suppression-free finalize: filter, then offer to the cache ---------
  std::atomic<uint64_t> records{0};
  {
    StageSpan stage("chimera.stage_finalize");
    RunChunked(pool, pass_ptrs.size(), [&](size_t begin, size_t end) {
      std::vector<size_t> admitted;
      {
        ScopedSpan span("chimera.filter");
        for (size_t j = begin; j < end; ++j) {
          if (!votes[j].has_value()) continue;
          if (!filter_->AdmitWithMatches(*pass_ptrs[j], votes[j]->label, exec,
                                         j)) {
            continue;
          }
          predictions[pass_idx[j]] = votes[j]->label;
          admitted.push_back(j);
        }
      }
      if (cache_ == nullptr) return;
      ScopedSpan span("engine.cache_record");
      for (size_t j : admitted) {
        (void)cache_->Record(lowered[pass_idx[j]], votes[j]->label, tag);
      }
      records += admitted.size();
    });
  }
  cache_records_ += records.load();
  return predictions;
}

void StagedPipeline::LookupFeatures(std::span<const data::ProductItem> items) {
  if (features_ == nullptr) return;
  ScopedSpan span("ml.features");
  size_t ids = 0;
  for (const data::ProductItem& item : items) {
    ids += features_->LookupFeatureIds(item).size();
  }
  volatile size_t sink = ids;
  (void)sink;
}

}  // namespace perfbench
