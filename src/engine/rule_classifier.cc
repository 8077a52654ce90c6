#include "src/engine/rule_classifier.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rulekit::engine {

namespace {

void SortScored(std::vector<ml::ScoredLabel>& out) {
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.label < b.label;
  });
}

}  // namespace

std::vector<ml::ScoredLabel> TypeProposals::Finalize() const {
  std::vector<ml::ScoredLabel> out;
  for (const auto& [type, score] : proposed) {
    if (vetoed.count(type)) continue;
    out.push_back({type, score});
  }
  SortScored(out);
  return out;
}

RuleBasedClassifier::RuleBasedClassifier(
    std::shared_ptr<const rules::RuleSet> rules,
    RuleClassifierOptions options)
    : rules_(std::move(rules)),
      executor_(*rules_,
                ExecutorOptions{.use_index = options.use_index,
                                .index_sample = options.index_sample}) {}

void RuleBasedClassifier::AccumulateMatches(const std::vector<size_t>& matched,
                                            TypeProposals* out) const {
  const auto& all = rules_->rules();

  // Phase 1: whitelist rules propose types (max confidence per type).
  // Phase 2: blacklist rules veto types. The two-phase order makes the
  // output independent of rule ordering within each phase. Vetoes are
  // collected even when this shard proposed nothing — another shard may
  // propose the type, and a veto must kill it regardless of which shard
  // hosts each rule.
  for (size_t i : matched) {
    const rules::Rule& rule = all[i];
    if (!rule.is_active()) continue;
    if (rule.kind() == rules::RuleKind::kWhitelist) {
      out->Propose(rule.target_type(), rule.metadata().confidence);
    }
  }
  for (size_t i : matched) {
    const rules::Rule& rule = all[i];
    if (!rule.is_active()) continue;
    if (rule.kind() == rules::RuleKind::kBlacklist) {
      out->Veto(rule.target_type());
    }
  }
}

std::vector<ml::ScoredLabel> RuleBasedClassifier::Predict(
    const data::ProductItem& item) const {
  RuleIndex::Scratch scratch;
  std::vector<size_t> candidates, matched;
  Match(item, scratch, candidates, matched);
  TypeProposals proposals;
  AccumulateMatches(matched, &proposals);
  return proposals.Finalize();
}

AttrValueClassifier::AttrValueClassifier(
    std::shared_ptr<const rules::RuleSet> rules)
    : rules_(std::move(rules)) {
  const auto& all = rules_->rules();
  for (size_t i = 0; i < all.size(); ++i) {
    const rules::Rule& rule = all[i];
    if (!rule.is_active()) continue;
    switch (rule.kind()) {
      case rules::RuleKind::kAttributeExists:
      case rules::RuleKind::kAttributeValue:
      case rules::RuleKind::kPredicate:
        attr_rules_.push_back(i);
        break;
      case rules::RuleKind::kWhitelist:
      case rules::RuleKind::kBlacklist:
        break;  // handled by RuleBasedClassifier
    }
  }
}

void AttrValueClassifier::Accumulate(const data::ProductItem& item,
                                     TypeProposals* out) const {
  const auto& all = rules_->rules();
  for (size_t i : attr_rules_) {
    const rules::Rule& rule = all[i];
    switch (rule.kind()) {
      case rules::RuleKind::kAttributeExists: {
        if (!rule.Applies(item)) break;
        out->Propose(rule.target_type(), rule.metadata().confidence);
        break;
      }
      case rules::RuleKind::kAttributeValue: {
        if (!rule.Applies(item)) break;
        // The value only narrows the item to a candidate set; weight is
        // split across candidates.
        double share = rule.metadata().confidence /
                       static_cast<double>(rule.candidate_types().size());
        for (const auto& type : rule.candidate_types()) {
          out->Propose(type, share);
        }
        break;
      }
      case rules::RuleKind::kPredicate: {
        if (!rule.Applies(item)) break;
        if (rule.is_positive()) {
          out->Propose(rule.target_type(), rule.metadata().confidence);
        } else {
          out->Veto(rule.target_type());
        }
        break;
      }
      case rules::RuleKind::kWhitelist:
      case rules::RuleKind::kBlacklist:
        break;
    }
  }
}

std::vector<ml::ScoredLabel> AttrValueClassifier::Predict(
    const data::ProductItem& item) const {
  TypeProposals proposals;
  Accumulate(item, &proposals);
  return proposals.Finalize();
}

}  // namespace rulekit::engine
