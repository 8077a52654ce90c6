#ifndef RULEKIT_ML_NAIVE_BAYES_H_
#define RULEKIT_ML_NAIVE_BAYES_H_

#include <memory>
#include <vector>

#include "src/ml/classifier.h"
#include "src/ml/features.h"

namespace rulekit::ml {

/// Multinomial Naive Bayes over token features with Laplace smoothing —
/// one of the stock learners in Chimera's ensemble (§3.1/§3.3).
class NaiveBayesClassifier : public Classifier {
 public:
  /// `extractor` is shared with the other ensemble members so all see the
  /// same vocabulary; it must outlive the classifier.
  explicit NaiveBayesClassifier(std::shared_ptr<FeatureExtractor> extractor,
                                double alpha = 0.1);

  /// Fits class priors and token likelihoods, replacing the model.
  void Train(const std::vector<data::LabeledItem>& data);

  std::vector<ScoredLabel> Predict(
      const data::ProductItem& item) const override;
  std::string name() const override { return "naive_bayes"; }

  size_t num_classes() const { return labels_.size(); }

 private:
  struct ClassLogP {
    uint32_t cls;
    double log_p;
  };

  std::shared_ptr<FeatureExtractor> extractor_;
  double alpha_;
  LabelSpace labels_;
  std::vector<double> log_prior_;
  // Per token id: log P(token | class) for each class the token occurred
  // in, sorted by class. Any other class takes its default log-prob of an
  // unseen token.
  std::vector<std::vector<ClassLogP>> log_likelihood_;
  std::vector<double> default_log_likelihood_;
};

}  // namespace rulekit::ml

#endif  // RULEKIT_ML_NAIVE_BAYES_H_
