#include "src/engine/sharded_classifier.h"

namespace rulekit::engine {

ShardedExecution ShardedRuleClassifier::MatchBatch(
    const std::vector<const data::ProductItem*>& items,
    ThreadPool* pool) const {
  ShardedExecution out;
  out.per_shard.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->active_rule_count() == 0) {
      // Nothing to run; keep per-item indexing uniform for consumers.
      out.per_shard[s].matches_per_item.resize(items.size());
      continue;
    }
    out.per_shard[s] = shards_[s]->MatchBatch(items, pool);
  }
  return out;
}

std::vector<ml::ScoredLabel> ShardedRuleClassifier::ScoreMatches(
    const ShardedExecution& exec, size_t index) const {
  TypeProposals proposals;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->AccumulateMatches(exec.per_shard[s].matches_per_item[index],
                                  &proposals);
  }
  return proposals.Finalize();
}

std::vector<ml::ScoredLabel> ShardedRuleClassifier::Predict(
    const data::ProductItem& item) const {
  std::vector<const data::ProductItem*> one{&item};
  ShardedExecution exec = MatchBatch(one, nullptr);
  return ScoreMatches(exec, 0);
}

std::vector<std::vector<ml::ScoredLabel>> ShardedRuleClassifier::PredictBatch(
    const std::vector<const data::ProductItem*>& items,
    ThreadPool* pool) const {
  ShardedExecution exec = MatchBatch(items, pool);
  std::vector<std::vector<ml::ScoredLabel>> out(items.size());
  auto score = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = ScoreMatches(exec, i);
    }
  };
  ParallelFor(pool, items.size(), score);
  return out;
}

std::vector<ml::ScoredLabel> ShardedAttrValueClassifier::Predict(
    const data::ProductItem& item) const {
  TypeProposals proposals;
  for (const auto& shard : shards_) {
    if (shard->active_rule_count() == 0) continue;
    shard->Accumulate(item, &proposals);
  }
  return proposals.Finalize();
}

}  // namespace rulekit::engine
