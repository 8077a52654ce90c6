#include "src/chimera/voting.h"

#include <algorithm>
#include <unordered_map>

namespace rulekit::chimera {

VotingMaster::VotingMaster(VotingOptions options) : options_(options) {}

void VotingMaster::AddMember(std::shared_ptr<ml::Classifier> member,
                             double weight) {
  members_.emplace_back(std::move(member), weight);
}

std::vector<ml::ScoredLabel> VotingMaster::CombineLists(
    const std::vector<const std::vector<ml::ScoredLabel>*>& per_member)
    const {
  std::unordered_map<std::string, double> sums;
  double participating_weight = 0.0;
  for (size_t m = 0; m < members_.size(); ++m) {
    const auto& scored = *per_member[m];
    if (scored.empty()) continue;
    participating_weight += members_[m].second;
    for (const auto& s : scored) {
      sums[s.label] += members_[m].second * s.score;
    }
  }
  std::vector<ml::ScoredLabel> out;
  if (participating_weight <= 0.0) return out;
  out.reserve(sums.size());
  for (const auto& [label, sum] : sums) {
    out.push_back({label, sum / participating_weight});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.label < b.label;
  });
  return out;
}

std::optional<ml::ScoredLabel> VotingMaster::DecideFromCombined(
    const std::vector<ml::ScoredLabel>& combined) const {
  if (combined.empty()) return std::nullopt;
  if (combined[0].score < options_.confidence_threshold) return std::nullopt;
  if (combined.size() > 1 &&
      combined[0].score - combined[1].score < options_.min_margin) {
    return std::nullopt;
  }
  return combined[0];
}

std::vector<ml::ScoredLabel> VotingMaster::CombinedScores(
    const data::ProductItem& item) const {
  std::vector<std::vector<ml::ScoredLabel>> scored;
  scored.reserve(members_.size());
  for (const auto& [member, weight] : members_) {
    scored.push_back(member->Predict(item));
  }
  std::vector<const std::vector<ml::ScoredLabel>*> ptrs;
  ptrs.reserve(scored.size());
  for (const auto& s : scored) ptrs.push_back(&s);
  return CombineLists(ptrs);
}

std::optional<ml::ScoredLabel> VotingMaster::Vote(
    const data::ProductItem& item) const {
  return DecideFromCombined(CombinedScores(item));
}

std::vector<std::optional<ml::ScoredLabel>> VotingMaster::VoteBatch(
    const std::vector<const data::ProductItem*>& items, ThreadPool* pool,
    const ml::Classifier* precomputed_member,
    const std::vector<std::vector<ml::ScoredLabel>>* precomputed_scores)
    const {
  std::vector<std::optional<ml::ScoredLabel>> votes(items.size());
  if (items.empty()) return votes;

  // One batch prediction per member (members parallelize internally).
  std::vector<std::vector<std::vector<ml::ScoredLabel>>> owned;
  owned.reserve(members_.size());
  std::vector<const std::vector<std::vector<ml::ScoredLabel>>*> member_scores;
  member_scores.reserve(members_.size());
  for (const auto& [member, weight] : members_) {
    if (precomputed_member != nullptr && member.get() == precomputed_member) {
      member_scores.push_back(precomputed_scores);
    } else {
      owned.push_back(member->PredictBatch(items, pool));
      member_scores.push_back(&owned.back());
    }
  }

  // Combine per item; same arithmetic (member order, weighted average) as
  // the per-item Vote path.
  auto combine = [&](size_t begin, size_t end) {
    std::vector<const std::vector<ml::ScoredLabel>*> ptrs(members_.size());
    for (size_t i = begin; i < end; ++i) {
      for (size_t m = 0; m < members_.size(); ++m) {
        ptrs[m] = &(*member_scores[m])[i];
      }
      votes[i] = DecideFromCombined(CombineLists(ptrs));
    }
  };
  ParallelFor(pool, items.size(), combine);
  return votes;
}

Filter::Filter(std::shared_ptr<const rules::RuleSet> rules)
    : rules_(std::move(rules)) {
  const auto& all = rules_->rules();
  for (size_t i = 0; i < all.size(); ++i) {
    const rules::Rule& rule = all[i];
    if (!rule.is_active()) continue;
    switch (rule.kind()) {
      case rules::RuleKind::kBlacklist:
        blacklist_.push_back(i);
        break;
      case rules::RuleKind::kAttributeValue:
        attrval_.push_back(i);
        break;
      case rules::RuleKind::kPredicate:
        if (!rule.is_positive()) negpred_.push_back(i);
        break;
      default:
        break;
    }
  }
}

bool Filter::NonRegexVetoes(const data::ProductItem& item,
                            const std::string& predicted) const {
  const auto& all = rules_->rules();
  for (size_t i : attrval_) {
    const rules::Rule& rule = all[i];
    if (!rule.Applies(item)) continue;
    const auto& candidates = rule.candidate_types();
    if (std::find(candidates.begin(), candidates.end(), predicted) ==
        candidates.end()) {
      return true;  // prediction inconsistent with the narrowed set
    }
  }
  for (size_t i : negpred_) {
    const rules::Rule& rule = all[i];
    if (rule.target_type() == predicted && rule.Applies(item)) return true;
  }
  return false;
}

bool Filter::Admit(const data::ProductItem& item,
                   const std::string& predicted) const {
  const auto& all = rules_->rules();
  for (size_t i : blacklist_) {
    const rules::Rule& rule = all[i];
    if (rule.target_type() == predicted && rule.Applies(item)) return false;
  }
  return !NonRegexVetoes(item, predicted);
}

bool Filter::AdmitWithMatches(const data::ProductItem& item,
                              const std::string& predicted,
                              const std::vector<size_t>& matched_regex) const {
  const auto& all = rules_->rules();
  for (size_t i : matched_regex) {
    const rules::Rule& rule = all[i];
    if (rule.kind() == rules::RuleKind::kBlacklist &&
        rule.target_type() == predicted) {
      return false;
    }
  }
  return !NonRegexVetoes(item, predicted);
}

}  // namespace rulekit::chimera
