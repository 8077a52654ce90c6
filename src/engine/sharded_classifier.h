#ifndef RULEKIT_ENGINE_SHARDED_CLASSIFIER_H_
#define RULEKIT_ENGINE_SHARDED_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/rule_classifier.h"
#include "src/ml/classifier.h"

namespace rulekit::engine {

/// Regex match results for one batch across every shard, item-major:
/// Matches(j, s) holds item j's matches in shard s (indices into that
/// shard's RuleSet; empty for a shard with no active regex rules).
struct ShardedExecution {
  size_t shard_count = 0;
  std::vector<std::vector<size_t>> matches;  // [item * shard_count + shard]
  size_t evaluations = 0;

  const std::vector<size_t>& Matches(size_t item, size_t shard) const {
    return matches[item * shard_count + shard];
  }

  /// Sum of regex evaluations actually performed across shards.
  size_t total_evaluations() const { return evaluations; }
};

/// The rule-based classifier over a sharded repository: one per-shard
/// RuleBasedClassifier (each with its own index/executor built against
/// that shard's pinned snapshot), merged through TypeProposals so the
/// output is byte-identical to a monolithic classifier over the union of
/// the shards — proposals max-merge per type, vetoes union, one shared
/// finalize with the deterministic tie-break.
///
/// Construction is cheap when only some shards changed: the serving layer
/// reuses the unchanged shards' classifiers (index builds and all) and
/// rebuilds only the republished ones.
class ShardedRuleClassifier : public ml::Classifier {
 public:
  explicit ShardedRuleClassifier(
      std::vector<std::shared_ptr<const RuleBasedClassifier>> shards)
      : shards_(std::move(shards)) {}

  /// Matches every item against every shard in one pass over the items
  /// (parallel over `pool` when given); shards with zero active regex
  /// rules are skipped.
  ShardedExecution MatchBatch(
      const std::vector<const data::ProductItem*>& items,
      ThreadPool* pool) const;

  /// Merges every shard's proposals/vetoes for item `index` of `exec`.
  std::vector<ml::ScoredLabel> ScoreMatches(const ShardedExecution& exec,
                                            size_t index) const;

  std::vector<ml::ScoredLabel> Predict(
      const data::ProductItem& item) const override;

  // Matches the monolithic classifier so ensemble reports are stable.
  std::string name() const override { return "rule_based"; }

 private:
  std::vector<std::shared_ptr<const RuleBasedClassifier>> shards_;
};

/// Attribute/value classifier over a sharded repository; same merge
/// protocol as ShardedRuleClassifier (and the same byte-identical-output
/// guarantee versus a monolithic AttrValueClassifier).
class ShardedAttrValueClassifier : public ml::Classifier {
 public:
  explicit ShardedAttrValueClassifier(
      std::vector<std::shared_ptr<const AttrValueClassifier>> shards)
      : shards_(std::move(shards)) {}

  std::vector<ml::ScoredLabel> Predict(
      const data::ProductItem& item) const override;

  std::string name() const override { return "attr_value"; }

 private:
  std::vector<std::shared_ptr<const AttrValueClassifier>> shards_;
};

}  // namespace rulekit::engine

#endif  // RULEKIT_ENGINE_SHARDED_CLASSIFIER_H_
