#ifndef RULEKIT_CHIMERA_VOTING_H_
#define RULEKIT_CHIMERA_VOTING_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/engine/sharded_classifier.h"
#include "src/ml/classifier.h"
#include "src/rules/rule_set.h"

namespace rulekit::chimera {

/// Voting-master knobs. Defaults are tuned for "high precision first":
/// decline rather than guess (§2.2: precision >= 92% at all times, recall
/// can start low).
struct VotingOptions {
  /// Minimum combined score of the winner; below it the master declines.
  double confidence_threshold = 0.45;
  /// Minimum lead of the winner over the runner-up.
  double min_margin = 0.05;
};

/// Combines the classifiers' weighted predictions into a final type or a
/// decline (Figure 2's Voting Master). Immutable after the members are
/// added, so a const master is safe for concurrent voting.
class VotingMaster {
 public:
  explicit VotingMaster(VotingOptions options = {});

  /// Adds a voting member. Rule-based members typically get weight >= 1,
  /// learning members < 1, mirroring Chimera's trust in analyst rules.
  void AddMember(std::shared_ptr<ml::Classifier> member, double weight);

  /// The combined decision; nullopt = low confidence, item stays
  /// unclassified.
  std::optional<ml::ScoredLabel> Vote(const data::ProductItem& item) const;

  /// Batch voting: asks every member for batch predictions (each member
  /// may parallelize over `pool`), then combines per item. When the
  /// caller already ran one member's batch prediction (the serving
  /// pipeline precomputes the rule-based member through the indexed
  /// executor), pass that member and its per-item scores to avoid
  /// recomputation. Per-item results are identical to Vote().
  std::vector<std::optional<ml::ScoredLabel>> VoteBatch(
      const std::vector<const data::ProductItem*>& items, ThreadPool* pool,
      const ml::Classifier* precomputed_member = nullptr,
      const std::vector<std::vector<ml::ScoredLabel>>* precomputed_scores =
          nullptr) const;

  /// The full combined ranking (for diagnostics).
  std::vector<ml::ScoredLabel> CombinedScores(
      const data::ProductItem& item) const;

 private:
  /// Weighted-average combination of one scored list per member (weights
  /// of abstaining members do not dilute the result).
  std::vector<ml::ScoredLabel> CombineLists(
      const std::vector<const std::vector<ml::ScoredLabel>*>& per_member)
      const;

  /// Threshold + margin decision on a combined ranking.
  std::optional<ml::ScoredLabel> DecideFromCombined(
      const std::vector<ml::ScoredLabel>& combined) const;

  VotingOptions options_;
  std::vector<std::pair<std::shared_ptr<ml::Classifier>, double>> members_;
};

/// Figure 2's Filter: last-line vetoes on the voting master's choice.
/// Applies active blacklist rules ("here the analysts use mostly blacklist
/// rules") and attribute-value consistency (a Brand->candidate-set rule
/// that fires must contain the final type).
///
/// The relevant active rules are gathered once at construction (veto cost
/// scales with the number of blacklist/attrval/predicate rules, not the
/// whole repository); build a fresh Filter per rule-set snapshot.
class Filter {
 public:
  explicit Filter(std::shared_ptr<const rules::RuleSet> rules);

  /// True if `predicted` survives the vetoes for this item.
  bool Admit(const data::ProductItem& item,
             const std::string& predicted) const;

  /// Batch-path variant: `matched_regex` holds the indices of the active
  /// regex rules whose pattern matched this item's title (from the
  /// executor run the rule stage already performed), so blacklist vetoes
  /// need no further regex evaluation. Same result as Admit().
  bool AdmitWithMatches(const data::ProductItem& item,
                        const std::string& predicted,
                        const std::vector<size_t>& matched_regex) const;

 private:
  bool NonRegexVetoes(const data::ProductItem& item,
                      const std::string& predicted) const;

  std::shared_ptr<const rules::RuleSet> rules_;
  std::vector<size_t> blacklist_;  // active kBlacklist rules
  std::vector<size_t> attrval_;    // active kAttributeValue rules
  std::vector<size_t> negpred_;    // active negative kPredicate rules
};

/// Filter over a sharded repository: admits only when every shard's Filter
/// admits. A veto is a veto no matter which shard hosts the rule, so the
/// conjunction is exactly the monolithic Filter over the union of shards.
/// Per-shard Filters are built against the same pinned snapshots as the
/// classifiers and reused across publishes when their shard is unchanged.
class ShardedFilter {
 public:
  explicit ShardedFilter(std::vector<std::shared_ptr<const Filter>> shards)
      : shards_(std::move(shards)) {}

  /// Each shard's Filter gets that shard's regex matches for item `index`
  /// of `exec`.
  bool AdmitWithMatches(const data::ProductItem& item,
                        const std::string& predicted,
                        const engine::ShardedExecution& exec,
                        size_t index) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->AdmitWithMatches(item, predicted,
                                        exec.Matches(index, s))) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::shared_ptr<const Filter>> shards_;
};

}  // namespace rulekit::chimera

#endif  // RULEKIT_CHIMERA_VOTING_H_
