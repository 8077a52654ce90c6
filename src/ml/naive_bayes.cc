#include "src/ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace rulekit::ml {

NaiveBayesClassifier::NaiveBayesClassifier(
    std::shared_ptr<FeatureExtractor> extractor, double alpha)
    : extractor_(std::move(extractor)), alpha_(alpha) {}

void NaiveBayesClassifier::Train(const std::vector<data::LabeledItem>& data) {
  labels_ = LabelSpace();
  std::vector<std::unordered_map<text::TokenId, size_t>> counts;
  std::vector<size_t> class_totals;
  std::vector<size_t> class_docs;

  for (const auto& li : data) {
    uint32_t c = labels_.Intern(li.label);
    if (c >= counts.size()) {
      counts.resize(c + 1);
      class_totals.resize(c + 1, 0);
      class_docs.resize(c + 1, 0);
    }
    ++class_docs[c];
    for (text::TokenId t : extractor_->InternFeatureIds(li.item)) {
      ++counts[c][t];
      ++class_totals[c];
    }
  }

  const double vocab_size =
      static_cast<double>(extractor_->vocabulary().size()) + 1.0;
  const double total_docs = static_cast<double>(data.size());
  log_prior_.assign(counts.size(), 0.0);
  log_likelihood_.assign(extractor_->vocabulary().size(), {});
  default_log_likelihood_.assign(counts.size(), 0.0);
  for (size_t c = 0; c < counts.size(); ++c) {
    log_prior_[c] =
        std::log(static_cast<double>(class_docs[c]) / total_docs);
    const double denom =
        static_cast<double>(class_totals[c]) + alpha_ * vocab_size;
    default_log_likelihood_[c] = std::log(alpha_ / denom);
    for (const auto& [t, n] : counts[c]) {
      log_likelihood_[t].push_back(
          {static_cast<uint32_t>(c),
           std::log((static_cast<double>(n) + alpha_) / denom)});
    }
  }
}

std::vector<ScoredLabel> NaiveBayesClassifier::Predict(
    const data::ProductItem& item) const {
  if (log_prior_.empty()) return {};
  auto ids = extractor_->LookupFeatureIds(item);
  if (ids.empty()) return {};

  // Each class's joint log score adds one term per id, in id order.
  std::vector<double> scores = log_prior_;
  for (text::TokenId t : ids) {
    const ClassLogP* seen = nullptr;
    const ClassLogP* seen_end = nullptr;
    if (t < log_likelihood_.size()) {
      seen = log_likelihood_[t].data();
      seen_end = seen + log_likelihood_[t].size();
    }
    for (size_t c = 0; c < scores.size(); ++c) {
      if (seen != seen_end && seen->cls == c) {
        scores[c] += (seen++)->log_p;
      } else {
        scores[c] += default_log_likelihood_[c];
      }
    }
  }

  // Softmax-normalize the joint log scores into [0, 1] confidences.
  double max_score = *std::max_element(scores.begin(), scores.end());
  double z = 0.0;
  for (double s : scores) z += std::exp(s - max_score);

  std::vector<ScoredLabel> out;
  for (size_t c = 0; c < scores.size(); ++c) {
    double p = std::exp(scores[c] - max_score) / z;
    if (p > 0.01) {
      out.push_back({labels_.NameOf(static_cast<uint32_t>(c)), p});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  if (out.size() > 5) out.resize(5);
  return out;
}

}  // namespace rulekit::ml
