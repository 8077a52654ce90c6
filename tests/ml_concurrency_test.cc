// Concurrent prediction on one trained ensemble: the learners keep their
// scoring scratch per call, so threads sharing a const model must see
// exactly the single-thread results (and TSan must see no race).

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/data/catalog_generator.h"
#include "src/ml/ensemble.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/naive_bayes.h"

namespace rulekit::ml {
namespace {

bool SameList(const std::vector<ScoredLabel>& a,
              const std::vector<ScoredLabel>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

TEST(MlConcurrencyTest, SharedEnsembleMatchesSingleThread) {
  data::GeneratorConfig config;
  config.seed = 606;
  config.num_types = 24;
  data::CatalogGenerator gen(config);
  auto all = gen.GenerateMany(1400);
  std::vector<data::LabeledItem> train(all.begin(), all.begin() + 1000);

  auto fx = std::make_shared<FeatureExtractor>();
  auto nb = std::make_shared<NaiveBayesClassifier>(fx);
  nb->Train(train);
  auto knn = std::make_shared<KnnClassifier>(fx, 7);
  knn->Train(train);
  auto logreg = std::make_shared<LogRegClassifier>(fx);
  logreg->Train(train);
  EnsembleClassifier ensemble;
  ensemble.AddMember(nb);
  ensemble.AddMember(knn);
  ensemble.AddMember(logreg);

  std::vector<const data::ProductItem*> items;
  for (size_t i = 1000; i < all.size(); ++i) items.push_back(&all[i].item);
  const auto expected = ensemble.PredictBatch(items, nullptr);

  constexpr size_t kThreads = 4;
  ThreadPool pool(2);
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        // Even threads take the batch path (one of them on a shared pool),
        // odd threads walk the items one by one from a staggered start.
        if (t % 2 == 0) {
          auto got = ensemble.PredictBatch(items, t == 0 ? &pool : nullptr);
          for (size_t i = 0; i < items.size(); ++i) {
            if (!SameList(got[i], expected[i])) ++mismatches[t];
          }
        } else {
          for (size_t n = 0; n < items.size(); ++n) {
            size_t i = (n + t * 97) % items.size();
            if (!SameList(ensemble.Predict(*items[i]), expected[i])) {
              ++mismatches[t];
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace rulekit::ml
