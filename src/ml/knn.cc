#include "src/ml/knn.h"

#include <algorithm>
#include <unordered_map>

namespace rulekit::ml {

KnnClassifier::KnnClassifier(std::shared_ptr<FeatureExtractor> extractor,
                             size_t k)
    : extractor_(std::move(extractor)), k_(std::max<size_t>(1, k)) {}

void KnnClassifier::Train(const std::vector<data::LabeledItem>& data) {
  labels_ = LabelSpace();
  tfidf_ = text::TfIdfModel();
  doc_labels_.clear();
  std::vector<std::vector<text::TokenId>> id_lists;
  id_lists.reserve(data.size());
  for (const auto& li : data) {
    id_lists.push_back(extractor_->InternFeatureIds(li.item));
    tfidf_.AddDocument(id_lists.back());
  }
  postings_.assign(extractor_->vocabulary().size(), {});
  doc_labels_.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto doc = static_cast<uint32_t>(i);
    const text::SparseVector vector = tfidf_.VectorizeNormalized(id_lists[i]);
    for (const auto& [t, w] : vector.entries()) postings_[t].push_back({doc, w});
    doc_labels_.push_back(labels_.Intern(data[i].label));
  }
}

std::vector<ScoredLabel> KnnClassifier::Predict(
    const data::ProductItem& item) const {
  if (doc_labels_.empty()) return {};
  auto ids = extractor_->LookupFeatureIds(item);
  if (ids.empty()) return {};
  text::SparseVector query = tfidf_.VectorizeNormalized(ids);

  // Accumulate dot products over postings (vectors are normalized, so the
  // dot product is the cosine). Each doc's sum runs in ascending token
  // order; `touched` lists every doc sharing a token with the query, even
  // one whose sum is 0.
  std::vector<double> similarity(doc_labels_.size(), 0.0);
  std::vector<uint8_t> is_touched(doc_labels_.size(), 0);
  std::vector<uint32_t> touched;
  for (const auto& [t, w] : query.entries()) {
    if (t >= postings_.size()) continue;
    for (const Posting& p : postings_[t]) {
      if (is_touched[p.doc] == 0) {
        is_touched[p.doc] = 1;
        touched.push_back(p.doc);
      }
      similarity[p.doc] += w * p.weight;
    }
  }
  if (touched.empty()) return {};

  // Top-k by (similarity, doc) descending, kept as a sorted window.
  using Neighbor = std::pair<double, uint32_t>;
  const auto descending = [](const Neighbor& a, const Neighbor& b) {
    return a > b;
  };
  const size_t k = std::min(k_, touched.size());
  std::vector<Neighbor> top;
  top.reserve(k + 1);
  for (uint32_t doc : touched) {
    Neighbor candidate{similarity[doc], doc};
    if (top.size() == k && !descending(candidate, top.back())) continue;
    top.insert(std::upper_bound(top.begin(), top.end(), candidate, descending),
               candidate);
    if (top.size() > k) top.pop_back();
  }

  // Similarity-weighted vote among the neighbors.
  std::unordered_map<uint32_t, double> votes;
  double total = 0.0;
  for (const auto& [sim, doc] : top) {
    votes[doc_labels_[doc]] += sim;
    total += sim;
  }
  if (total <= 0.0) return {};

  std::vector<ScoredLabel> out;
  for (const auto& [label, v] : votes) {
    out.push_back({labels_.NameOf(label), v / total});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  return out;
}

}  // namespace rulekit::ml
