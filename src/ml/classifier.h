#ifndef RULEKIT_ML_CLASSIFIER_H_
#define RULEKIT_ML_CLASSIFIER_H_

#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/data/product.h"

namespace rulekit::ml {

/// A candidate product type with a weight in [0, 1]. Classifiers return a
/// (possibly empty) ranked list; the Chimera voting master combines lists
/// from several classifiers (paper §3.3: "each prediction is a list of
/// product types together with weights").
struct ScoredLabel {
  std::string label;
  double score = 0.0;
};

/// Common interface of all Chimera classifiers — learning-based (this
/// module) and rule-based (src/engine).
///
/// Predict/PredictBatch must be safe to call from several threads at once
/// on a const classifier: trained/built state is immutable after
/// construction, and implementations keep no mutable per-call caches.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Ranked candidate types for an item; empty = declines to predict.
  virtual std::vector<ScoredLabel> Predict(
      const data::ProductItem& item) const = 0;

  /// Batch prediction, one ranked list per item. The default parallelizes
  /// per-item Predict over `pool` (null = sequential). Results are
  /// identical to calling Predict on each item.
  virtual std::vector<std::vector<ScoredLabel>> PredictBatch(
      const std::vector<const data::ProductItem*>& items,
      ThreadPool* pool) const {
    std::vector<std::vector<ScoredLabel>> out(items.size());
    auto run = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = Predict(*items[i]);
    };
    ParallelFor(pool, items.size(), run);
    return out;
  }

  /// Human-readable classifier name for reports.
  virtual std::string name() const = 0;
};

/// Convenience: the top-scoring label, or nullopt if the classifier
/// declined.
inline const ScoredLabel* TopLabel(const std::vector<ScoredLabel>& scored) {
  const ScoredLabel* best = nullptr;
  for (const auto& s : scored) {
    if (best == nullptr || s.score > best->score) best = &s;
  }
  return best;
}

}  // namespace rulekit::ml

#endif  // RULEKIT_ML_CLASSIFIER_H_
