#include "src/engine/sharded_classifier.h"

#include <atomic>

namespace rulekit::engine {

ShardedExecution ShardedRuleClassifier::MatchBatch(
    const std::vector<const data::ProductItem*>& items,
    ThreadPool* pool) const {
  ShardedExecution out;
  out.shard_count = shards_.size();
  out.matches.resize(items.size() * shards_.size());
  std::atomic<size_t> evaluations{0};
  ParallelFor(pool, items.size(), [&](size_t begin, size_t end) {
    RuleIndex::Scratch scratch;
    std::vector<size_t> candidates;
    size_t local = 0;
    // Shard-major within the chunk, so one shard's index and regexes stay
    // warm in cache across the chunk's items.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->active_rule_count() == 0) continue;
      for (size_t j = begin; j < end; ++j) {
        local += shards_[s]->Match(*items[j], scratch, candidates,
                                   out.matches[j * out.shard_count + s]);
      }
    }
    evaluations.fetch_add(local, std::memory_order_relaxed);
  });
  out.evaluations = evaluations.load();
  return out;
}

std::vector<ml::ScoredLabel> ShardedRuleClassifier::ScoreMatches(
    const ShardedExecution& exec, size_t index) const {
  TypeProposals proposals;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->AccumulateMatches(exec.Matches(index, s), &proposals);
  }
  return proposals.Finalize();
}

std::vector<ml::ScoredLabel> ShardedRuleClassifier::Predict(
    const data::ProductItem& item) const {
  RuleIndex::Scratch scratch;
  std::vector<size_t> candidates, matched;
  TypeProposals proposals;
  for (const auto& shard : shards_) {
    if (shard->active_rule_count() == 0) continue;
    shard->Match(item, scratch, candidates, matched);
    shard->AccumulateMatches(matched, &proposals);
  }
  return proposals.Finalize();
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
