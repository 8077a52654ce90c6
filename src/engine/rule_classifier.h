#ifndef RULEKIT_ENGINE_RULE_CLASSIFIER_H_
#define RULEKIT_ENGINE_RULE_CLASSIFIER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/executor.h"
#include "src/engine/rule_index.h"
#include "src/ml/classifier.h"
#include "src/rules/rule_set.h"

namespace rulekit::engine {

/// Intermediate state of the two-phase propose/veto protocol, exposed so
/// per-shard classifiers can be merged exactly: proposals max-merge per
/// type and vetoes union, which makes scoring over S shards byte-identical
/// to scoring over the monolithic rule set (a veto in one shard kills a
/// proposal from any shard, just as it would in one pass).
struct TypeProposals {
  std::unordered_map<std::string, double> proposed;
  std::unordered_set<std::string> vetoed;

  void Propose(const std::string& type, double score) {
    double& current = proposed[type];
    current = std::max(current, score);
  }
  void Veto(const std::string& type) { vetoed.insert(type); }

  /// Drops vetoed proposals and sorts (score desc, label asc — the
  /// deterministic tie-break every scoring path shares).
  std::vector<ml::ScoredLabel> Finalize() const;
};

/// Options for the rule-based classifier.
struct RuleClassifierOptions {
  /// Prune candidate rules with the literal prefilter index.
  bool use_index = true;
  /// Optional title sample for the corpus-aware index build (forwarded to
  /// ExecutorOptions::index_sample). Output is identical either way; only
  /// candidate-list sizes change.
  std::shared_ptr<const std::vector<std::string>> index_sample = nullptr;
};

/// Chimera's rule-based classifier (§3.3): whitelist rules propose types,
/// blacklist rules veto them, and — as the paper requires for
/// order-independence (§4 "Rule System Properties") — ALL whitelist rules
/// run before ANY blacklist rule, so execution order within each phase
/// cannot change the output.
///
/// Built against one immutable rule-set snapshot; the serving pipeline
/// constructs a fresh classifier per published snapshot, so a const
/// classifier is safe for concurrent use. The regex matching itself is
/// delegated to a RuleExecutor (one literal-prefilter index per snapshot).
class RuleBasedClassifier : public ml::Classifier {
 public:
  RuleBasedClassifier(std::shared_ptr<const rules::RuleSet> rules,
                      RuleClassifierOptions options = {});

  std::vector<ml::ScoredLabel> Predict(
      const data::ProductItem& item) const override;

  /// Raw regex matches for one item (rule indices into the rule set; see
  /// RuleExecutor::Match). The serving pipeline matches once per item and
  /// feeds the matches to both voting (via AccumulateMatches) and the
  /// Filter, so blacklist regexes are evaluated once per item per batch.
  size_t Match(const data::ProductItem& item, RuleIndex::Scratch& scratch,
               std::vector<size_t>& candidates,
               std::vector<size_t>& out) const {
    return executor_.Match(item, scratch, candidates, out);
  }

  /// Accumulates one item's matches into `out` without finalizing, so a
  /// sharded classifier can merge several shards' proposals/vetoes before
  /// the single finalize. Predict == match, accumulate, then Finalize.
  void AccumulateMatches(const std::vector<size_t>& matched,
                         TypeProposals* out) const;

  std::string name() const override { return "rule_based"; }

  /// Active regex rules behind this classifier (0 = Match finds nothing
  /// and the sharded path skips it).
  size_t active_rule_count() const { return executor_.active_rule_count(); }

 private:
  std::shared_ptr<const rules::RuleSet> rules_;
  RuleExecutor executor_;
};

/// Chimera's attribute/value-based classifier (§3.3): attribute-existence
/// rules ("has ISBN => books"), attribute-value rules ("Brand apple =>
/// phone | laptop"), and predicate rules. Positive rules propose types;
/// negative predicate rules veto them.
///
/// The relevant (non-regex) active rules are gathered once at
/// construction over an immutable snapshot, so prediction cost scales with
/// the number of attribute/predicate rules, not the whole repository.
class AttrValueClassifier : public ml::Classifier {
 public:
  explicit AttrValueClassifier(std::shared_ptr<const rules::RuleSet> rules);

  std::vector<ml::ScoredLabel> Predict(
      const data::ProductItem& item) const override;

  /// Accumulates this shard's attribute/predicate proposals and vetoes
  /// into `out`; Predict == accumulate-then-Finalize.
  void Accumulate(const data::ProductItem& item, TypeProposals* out) const;

  std::string name() const override { return "attr_value"; }

  /// Active attribute/predicate rules (0 = nothing to evaluate).
  size_t active_rule_count() const { return attr_rules_.size(); }

 private:
  std::shared_ptr<const rules::RuleSet> rules_;
  std::vector<size_t> attr_rules_;  // kAttributeExists/kAttributeValue/kPredicate
};

}  // namespace rulekit::engine

#endif  // RULEKIT_ENGINE_RULE_CLASSIFIER_H_
