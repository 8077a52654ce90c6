#ifndef RULEKIT_ML_KNN_H_
#define RULEKIT_ML_KNN_H_

#include <memory>
#include <vector>

#include "src/ml/classifier.h"
#include "src/ml/features.h"
#include "src/text/tfidf.h"

namespace rulekit::ml {

/// k-nearest-neighbors over TF-IDF cosine similarity, accelerated by an
/// inverted index from token to training documents (only documents sharing
/// at least one token with the query are scored). Another stock member of
/// Chimera's learning ensemble.
class KnnClassifier : public Classifier {
 public:
  KnnClassifier(std::shared_ptr<FeatureExtractor> extractor, size_t k = 7);

  /// Replaces the model with one over `data`.
  void Train(const std::vector<data::LabeledItem>& data);

  std::vector<ScoredLabel> Predict(
      const data::ProductItem& item) const override;
  std::string name() const override { return "knn"; }

  size_t num_examples() const { return doc_labels_.size(); }

 private:
  /// A training document's L2-normalized TF-IDF weight for one token.
  struct Posting {
    uint32_t doc;
    double weight;
  };

  std::shared_ptr<FeatureExtractor> extractor_;
  size_t k_;
  LabelSpace labels_;
  text::TfIdfModel tfidf_;
  std::vector<uint32_t> doc_labels_;
  std::vector<std::vector<Posting>> postings_;  // by token id, doc ascending
};

}  // namespace rulekit::ml

#endif  // RULEKIT_ML_KNN_H_
