// A staged copy of ChimeraPipeline::RunBatch built from the library's
// public parts, so a traced run can time each stage and each voting
// member from the benchmark's own code. Its predictions must equal the
// pipeline's on the same items.
#ifndef PERFBENCH_STAGED_H_
#define PERFBENCH_STAGED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/common/thread_pool.h"
#include "src/data/product.h"
#include "src/engine/hot_cache.h"

namespace perfbench {

class StagedPipeline {
 public:
  /// Builds the stages against the pipeline's current rule state (every
  /// shard of its repository) and, when `training` is non-empty, trains
  /// an ensemble on it exactly as the pipeline's trainer does. The pool
  /// has the pipeline's batch_threads; the cache, when the pipeline has
  /// one, is a fresh cache of the same configuration.
  StagedPipeline(rulekit::chimera::ChimeraPipeline& pipeline,
                 const std::vector<rulekit::data::LabeledItem>& training);

  /// Classifies one batch stage by stage, recording a span per stage
  /// (and per member call) when tracing is on.
  std::vector<std::optional<std::string>> Run(
      std::span<const rulekit::data::ProductItem> items);

  /// Feature lookup alone, once per item (the cost each ensemble member
  /// pays before scoring).
  void LookupFeatures(std::span<const rulekit::data::ProductItem> items);

  uint64_t rules_executed() const { return rules_executed_; }
  uint64_t rule_items() const { return rule_items_; }
  uint64_t cache_lookups() const { return cache_lookups_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_records() const { return cache_records_; }

 private:
  const rulekit::chimera::PipelineConfig config_;
  std::shared_ptr<const rulekit::chimera::GateMemo> memo_;
  std::shared_ptr<rulekit::engine::ShardedRuleClassifier> rule_classifier_;
  std::shared_ptr<rulekit::chimera::ShardedFilter> filter_;
  std::shared_ptr<rulekit::ml::FeatureExtractor> features_;
  rulekit::chimera::VotingMaster voting_;
  std::unique_ptr<rulekit::engine::HotResultCache> cache_;
  std::unique_ptr<rulekit::ThreadPool> pool_;
  uint64_t rules_executed_ = 0, rule_items_ = 0;
  uint64_t cache_lookups_ = 0, cache_hits_ = 0, cache_records_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGED_H_
