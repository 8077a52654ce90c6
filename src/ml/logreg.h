#ifndef RULEKIT_ML_LOGREG_H_
#define RULEKIT_ML_LOGREG_H_

#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/ml/classifier.h"
#include "src/ml/features.h"

namespace rulekit::ml {

/// Hyperparameters of the softmax-regression learner.
struct LogRegOptions {
  size_t epochs = 15;
  double learning_rate = 0.6;
  double l2 = 1e-6;
  uint64_t seed = 31;
};

/// Multinomial (softmax) logistic regression trained with SGD over sparse
/// token counts. Serves as the maximum-margin-style member of Chimera's
/// ensemble (standing in for the paper's SVM; a linear decision boundary
/// over the same features exercises the same pipeline role).
class LogRegClassifier : public Classifier {
 public:
  LogRegClassifier(std::shared_ptr<FeatureExtractor> extractor,
                   LogRegOptions options = {});

  /// Fits the weights by SGD, replacing the model.
  void Train(const std::vector<data::LabeledItem>& data);

  std::vector<ScoredLabel> Predict(
      const data::ProductItem& item) const override;
  std::string name() const override { return "logreg"; }

 private:
  std::shared_ptr<FeatureExtractor> extractor_;
  LogRegOptions options_;
  LabelSpace labels_;
  size_t num_features_ = 0;
  // Token-major: (num_features + 1 bias) rows of num_classes weights, the
  // bias row last.
  std::vector<double> weights_;
};

}  // namespace rulekit::ml

#endif  // RULEKIT_ML_LOGREG_H_
