#include "src/ml/logreg.h"

#include <algorithm>
#include <cmath>

namespace rulekit::ml {

LogRegClassifier::LogRegClassifier(
    std::shared_ptr<FeatureExtractor> extractor, LogRegOptions options)
    : extractor_(std::move(extractor)), options_(options) {}

void LogRegClassifier::Train(const std::vector<data::LabeledItem>& data) {
  labels_ = LabelSpace();
  // First pass: intern features and labels.
  std::vector<std::vector<text::TokenId>> xs;
  std::vector<uint32_t> ys;
  xs.reserve(data.size());
  ys.reserve(data.size());
  for (const auto& li : data) {
    xs.push_back(extractor_->InternFeatureIds(li.item));
    ys.push_back(labels_.Intern(li.label));
  }
  num_features_ = extractor_->vocabulary().size();
  const size_t num_classes = labels_.size();
  // Token-major: w(t, c) = weights_[t * num_classes + c], the bias row
  // (t = num_features_) last.
  weights_.assign((num_features_ + 1) * num_classes, 0.0);
  double* bias = weights_.data() + num_features_ * num_classes;

  Rng rng(options_.seed);
  std::vector<size_t> order(xs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> logits(num_classes);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr =
        options_.learning_rate / (1.0 + 0.5 * static_cast<double>(epoch));
    for (size_t idx : order) {
      const auto& x = xs[idx];
      if (x.empty()) continue;
      const double inv_len = 1.0 / static_cast<double>(x.size());
      // logits = W x (x entries have weight inv_len; bias always on).
      for (size_t c = 0; c < num_classes; ++c) {
        double z = bias[c];
        for (text::TokenId t : x) z += weights_[t * num_classes + c] * inv_len;
        logits[c] = z;
      }
      double max_z = *std::max_element(logits.begin(), logits.end());
      double sum = 0.0;
      for (size_t c = 0; c < num_classes; ++c) {
        logits[c] = std::exp(logits[c] - max_z);
        sum += logits[c];
      }
      for (size_t c = 0; c < num_classes; ++c) {
        const double p = logits[c] / sum;
        const double grad = p - (ys[idx] == c ? 1.0 : 0.0);
        if (std::abs(grad) < 1e-9) continue;
        bias[c] -= lr * grad;
        const double step = lr * grad * inv_len;
        for (text::TokenId t : x) {
          double& w = weights_[t * num_classes + c];
          w -= step + lr * options_.l2 * w;
        }
      }
    }
  }
}

std::vector<ScoredLabel> LogRegClassifier::Predict(
    const data::ProductItem& item) const {
  const size_t num_classes = labels_.size();
  if (num_classes == 0) return {};
  auto ids = extractor_->LookupFeatureIds(item);
  if (ids.empty()) return {};
  // Features interned after training have no weights.
  std::vector<text::TokenId> usable;
  for (text::TokenId t : ids) {
    if (t < num_features_) usable.push_back(t);
  }
  if (usable.empty()) return {};
  const double inv_len = 1.0 / static_cast<double>(usable.size());

  // Each class's logit starts from its bias and adds one term per id, in
  // id order.
  const double* bias = &weights_[num_features_ * num_classes];
  std::vector<double> logits(bias, bias + num_classes);
  for (text::TokenId t : usable) {
    const double* w = &weights_[t * num_classes];
    for (size_t c = 0; c < num_classes; ++c) logits[c] += w[c] * inv_len;
  }
  double max_z = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& z : logits) {
    z = std::exp(z - max_z);
    sum += z;
  }
  std::vector<ScoredLabel> out;
  for (size_t c = 0; c < num_classes; ++c) {
    double p = logits[c] / sum;
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
