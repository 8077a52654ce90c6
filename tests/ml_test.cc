#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/data/catalog_generator.h"
#include "src/ml/ensemble.h"
#include "src/ml/features.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/metrics.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/split.h"
#include "src/text/tfidf.h"

namespace rulekit::ml {
namespace {

// Shared fixture data: a small catalog plus train/test split.
class LearnersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config;
    config.seed = 1234;
    config.num_types = 12;
    data::CatalogGenerator gen(config);
    auto items = gen.GenerateMany(3000);
    Rng rng(55);
    auto [train, test] = StratifiedSplit(items, 0.25, rng);
    train_ = new std::vector<data::LabeledItem>(std::move(train));
    test_ = new std::vector<data::LabeledItem>(std::move(test));
  }

  template <typename C>
  double AccuracyOf(const C& classifier) {
    size_t correct = 0, predicted = 0;
    for (const auto& li : *test_) {
      auto scored = classifier.Predict(li.item);
      if (scored.empty()) continue;
      ++predicted;
      if (scored.front().label == li.label) ++correct;
    }
    EXPECT_GT(predicted, test_->size() * 8 / 10);
    return predicted == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(predicted);
  }

  static std::vector<data::LabeledItem>* train_;
  static std::vector<data::LabeledItem>* test_;
};

std::vector<data::LabeledItem>* LearnersTest::train_ = nullptr;
std::vector<data::LabeledItem>* LearnersTest::test_ = nullptr;

// -------------------------------------------------------------- Features --

TEST(FeatureExtractorTest, InternThenLookupRoundTrips) {
  FeatureExtractor fx;
  data::ProductItem item;
  item.title = "blue denim jeans";
  item.SetAttribute("Brand", "levis");
  auto train_ids = fx.InternFeatureIds(item);
  auto test_ids = fx.LookupFeatureIds(item);
  EXPECT_EQ(train_ids, test_ids);
  EXPECT_FALSE(train_ids.empty());
}

TEST(FeatureExtractorTest, UnseenTokensDroppedAtLookup) {
  FeatureExtractor fx;
  data::ProductItem seen;
  seen.title = "red shirt";
  fx.InternFeatureIds(seen);
  data::ProductItem unseen;
  unseen.title = "completely novel words";
  EXPECT_TRUE(fx.LookupFeatureIds(unseen).empty());
}

TEST(FeatureExtractorTest, AttributeFeaturesToggle) {
  data::ProductItem item;
  item.title = "x";
  item.SetAttribute("ISBN", "9781234567890");
  FeatureOptions with;
  FeatureExtractor fx_with(with);
  size_t n_with = fx_with.InternFeatureIds(item).size();
  FeatureOptions without;
  without.use_attributes = false;
  FeatureExtractor fx_without(without);
  size_t n_without = fx_without.InternFeatureIds(item).size();
  EXPECT_GT(n_with, n_without);
}

// -------------------------------------------------------------- Learners --

TEST_F(LearnersTest, NaiveBayesLearnsTheCatalog) {
  auto fx = std::make_shared<FeatureExtractor>();
  NaiveBayesClassifier nb(fx);
  nb.Train(*train_);
  EXPECT_EQ(nb.num_classes(), 12u);
  EXPECT_GT(AccuracyOf(nb), 0.85);
}

TEST_F(LearnersTest, KnnLearnsTheCatalog) {
  auto fx = std::make_shared<FeatureExtractor>();
  KnnClassifier knn(fx, 7);
  knn.Train(*train_);
  EXPECT_EQ(knn.num_examples(), train_->size());
  EXPECT_GT(AccuracyOf(knn), 0.85);
}

TEST_F(LearnersTest, LogRegLearnsTheCatalog) {
  auto fx = std::make_shared<FeatureExtractor>();
  LogRegClassifier lr(fx);
  lr.Train(*train_);
  EXPECT_GT(AccuracyOf(lr), 0.85);
}

TEST_F(LearnersTest, EnsembleAtLeastMatchesMembers) {
  auto fx = std::make_shared<FeatureExtractor>();
  auto nb = std::make_shared<NaiveBayesClassifier>(fx);
  nb->Train(*train_);
  auto knn = std::make_shared<KnnClassifier>(fx, 7);
  knn->Train(*train_);
  EnsembleClassifier ensemble;
  ensemble.AddMember(nb);
  ensemble.AddMember(knn);
  EXPECT_EQ(ensemble.num_members(), 2u);
  double acc = AccuracyOf(ensemble);
  EXPECT_GT(acc, 0.85);
}

TEST_F(LearnersTest, PredictionsAreSortedAndBounded) {
  auto fx = std::make_shared<FeatureExtractor>();
  NaiveBayesClassifier nb(fx);
  nb.Train(*train_);
  for (size_t i = 0; i < 20 && i < test_->size(); ++i) {
    auto scored = nb.Predict((*test_)[i].item);
    for (size_t j = 1; j < scored.size(); ++j) {
      EXPECT_GE(scored[j - 1].score, scored[j].score);
    }
    for (const auto& s : scored) {
      EXPECT_GE(s.score, 0.0);
      EXPECT_LE(s.score, 1.0 + 1e-9);
    }
  }
}

TEST(ClassifierTest, UntrainedDeclines) {
  auto fx = std::make_shared<FeatureExtractor>();
  NaiveBayesClassifier nb(fx);
  KnnClassifier knn(fx);
  LogRegClassifier lr(fx);
  data::ProductItem item;
  item.title = "anything";
  EXPECT_TRUE(nb.Predict(item).empty());
  EXPECT_TRUE(knn.Predict(item).empty());
  EXPECT_TRUE(lr.Predict(item).empty());
}

TEST(ClassifierTest, EmptyFeaturesDecline) {
  auto fx = std::make_shared<FeatureExtractor>();
  NaiveBayesClassifier nb(fx);
  std::vector<data::LabeledItem> tiny(2);
  tiny[0].item.title = "red ring";
  tiny[0].label = "rings";
  tiny[1].item.title = "blue rug";
  tiny[1].label = "area rugs";
  nb.Train(tiny);
  data::ProductItem item;  // empty title, no attrs
  EXPECT_TRUE(nb.Predict(item).empty());
}

// ------------------------------------------------- Retraining, exactness --

std::vector<data::LabeledItem> GenerateCatalog(uint64_t seed, size_t n) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.num_types = 24;
  data::CatalogGenerator gen(config);
  return gen.GenerateMany(n);
}

/// True when two ranked lists carry the same labels in the same order with
/// bit-identical scores.
::testing::AssertionResult SameList(const std::vector<ScoredLabel>& a,
                                    const std::vector<ScoredLabel>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << a[i].label << "=" << a[i].score
             << " vs " << b[i].label << "=" << b[i].score;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Trains `Model` on `first` and then on `second`, and a fresh model on
/// `second` alone over an extractor that interned `first` beforehand (the
/// same vocabulary history); the two must predict identically.
template <typename Model>
void ExpectSecondTrainReplaces() {
  auto all = GenerateCatalog(77, 1600);
  // Some labels only in the first set, some only in the second, the rest
  // split between both: a model that keeps the first call's label space,
  // examples or per-class statistics cannot match the fresh one.
  std::vector<data::LabeledItem> first, second, queries;
  for (size_t i = 0; i < all.size(); ++i) {
    const size_t bucket = std::hash<std::string>{}(all[i].label) % 3;
    if (i >= 1300) {
      queries.push_back(all[i]);
    } else if (bucket == 0 || (bucket == 2 && i % 2 == 0)) {
      first.push_back(all[i]);
    } else {
      second.push_back(all[i]);
    }
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());

  auto fx_retrained = std::make_shared<FeatureExtractor>();
  Model retrained(fx_retrained);
  retrained.Train(first);
  retrained.Train(second);

  auto fx_fresh = std::make_shared<FeatureExtractor>();
  for (const auto& li : first) fx_fresh->InternFeatureIds(li.item);
  Model fresh(fx_fresh);
  fresh.Train(second);

  size_t mismatches = 0;
  for (const auto& q : queries) {
    if (!SameList(retrained.Predict(q.item), fresh.Predict(q.item))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << queries.size() << " queries";
}

TEST(RetrainTest, NaiveBayesSecondTrainReplacesTheModel) {
  ExpectSecondTrainReplaces<NaiveBayesClassifier>();
}

TEST(RetrainTest, KnnSecondTrainReplacesTheModel) {
  ExpectSecondTrainReplaces<KnnClassifier>();
  auto fx = std::make_shared<FeatureExtractor>();
  KnnClassifier knn(fx);
  auto data = GenerateCatalog(78, 300);
  knn.Train(data);
  knn.Train(data);
  EXPECT_EQ(knn.num_examples(), data.size());
}

TEST(RetrainTest, LogRegSecondTrainReplacesTheModel) {
  ExpectSecondTrainReplaces<LogRegClassifier>();
}

// An independent kNN: TF-IDF doc vectors rebuilt with a fresh extractor
// that interns in the same order, every doc sharing a token with the
// query scored by SparseVector::Dot (the same token-order sum), top-k by
// (similarity, doc) descending, then the vote Predict performs.
TEST(KnnClassifierTest, MatchesExactReference) {
  constexpr size_t kK = 7;
  auto all = GenerateCatalog(4242, 1800);
  std::vector<data::LabeledItem> train(all.begin(), all.begin() + 1500);
  std::vector<data::LabeledItem> queries(all.begin() + 1500, all.end());

  auto fx = std::make_shared<FeatureExtractor>();
  KnnClassifier knn(fx, kK);
  knn.Train(train);

  FeatureExtractor ref_fx;
  text::TfIdfModel tfidf;
  LabelSpace labels;
  std::vector<std::vector<text::TokenId>> id_lists;
  for (const auto& li : train) {
    id_lists.push_back(ref_fx.InternFeatureIds(li.item));
    tfidf.AddDocument(id_lists.back());
  }
  std::vector<text::SparseVector> docs;
  std::vector<uint32_t> doc_labels;
  for (size_t d = 0; d < train.size(); ++d) {
    docs.push_back(tfidf.VectorizeNormalized(id_lists[d]));
    doc_labels.push_back(labels.Intern(train[d].label));
  }

  auto shares_token = [](const text::SparseVector& a,
                         const text::SparseVector& b) {
    for (const auto& [t, w] : a.entries()) {
      for (const auto& [u, v] : b.entries()) {
        if (t == u) return true;
      }
    }
    return false;
  };

  size_t predicted = 0;
  for (const auto& q : queries) {
    std::vector<ScoredLabel> expected;
    auto ids = ref_fx.LookupFeatureIds(q.item);
    if (!ids.empty()) {
      text::SparseVector query = tfidf.VectorizeNormalized(ids);
      std::vector<std::pair<double, uint32_t>> scored;
      for (uint32_t d = 0; d < docs.size(); ++d) {
        if (shares_token(query, docs[d])) {
          scored.emplace_back(query.Dot(docs[d]), d);
        }
      }
      std::sort(scored.begin(), scored.end(),
                [](const auto& a, const auto& b) { return a > b; });
      if (scored.size() > kK) scored.resize(kK);
      std::unordered_map<uint32_t, double> votes;
      double total = 0.0;
      for (const auto& [sim, d] : scored) {
        votes[doc_labels[d]] += sim;
        total += sim;
      }
      if (total > 0.0) {
        for (const auto& [label, v] : votes) {
          expected.push_back({labels.NameOf(label), v / total});
        }
        std::sort(expected.begin(), expected.end(),
                  [](const auto& a, const auto& b) { return a.score > b.score; });
      }
    }
    if (!expected.empty()) ++predicted;
    EXPECT_TRUE(SameList(knn.Predict(q.item), expected)) << q.item.title;
  }
  EXPECT_GT(predicted, queries.size() * 9 / 10);
}

// ---------------------------------------------------- Pinned learned scores --

/// FNV-1a over every list's length, label bytes and score bit patterns.
class ScoreDigest {
 public:
  void Add(const std::vector<ScoredLabel>& list) {
    Mix(list.size());
    for (const auto& s : list) {
      for (char c : s.label) Byte(static_cast<uint8_t>(c));
      Byte(0);
      Mix(std::bit_cast<uint64_t>(s.score));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  uint64_t h_ = 14695981039346656037ULL;
};

/// The pipeline trainer's recipe on a fixed-seed catalog: one extractor,
/// Naive Bayes, kNN (k = 7) and logreg trained in that order, and their
/// equal-weight ensemble.
struct TrainedMembers {
  std::shared_ptr<FeatureExtractor> fx = std::make_shared<FeatureExtractor>();
  std::shared_ptr<NaiveBayesClassifier> nb;
  std::shared_ptr<KnnClassifier> knn;
  std::shared_ptr<LogRegClassifier> logreg;
  std::shared_ptr<EnsembleClassifier> ensemble =
      std::make_shared<EnsembleClassifier>();
  std::vector<data::LabeledItem> queries;

  TrainedMembers() {
    auto all = GenerateCatalog(9001, 6000);
    std::vector<data::LabeledItem> train(all.begin(), all.begin() + 2000);
    queries.assign(all.begin() + 2000, all.end());
    nb = std::make_shared<NaiveBayesClassifier>(fx);
    nb->Train(train);
    knn = std::make_shared<KnnClassifier>(fx, 7);
    knn->Train(train);
    logreg = std::make_shared<LogRegClassifier>(fx);
    logreg->Train(train);
    ensemble->AddMember(nb);
    ensemble->AddMember(knn);
    ensemble->AddMember(logreg);
  }
};

/// Forwards Predict only, as a tracing wrapper around a member does
/// (perfbench/src/staged.cc); an ensemble of such members must score
/// exactly like one holding the learners themselves.
class Forwarding : public Classifier {
 public:
  explicit Forwarding(std::shared_ptr<Classifier> inner)
      : inner_(std::move(inner)) {}
  std::vector<ScoredLabel> Predict(
      const data::ProductItem& item) const override {
    return inner_->Predict(item);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<Classifier> inner_;
};

// The digests were captured from the learners before their prediction
// paths were rewritten for speed; any change to a label, its order or a
// score bit changes them.
TEST(LearnedScoresTest, DigestIsPinned) {
  TrainedMembers m;
  ScoreDigest nb, knn, logreg, ensemble;
  for (const auto& q : m.queries) {
    nb.Add(m.nb->Predict(q.item));
    knn.Add(m.knn->Predict(q.item));
    logreg.Add(m.logreg->Predict(q.item));
    ensemble.Add(m.ensemble->Predict(q.item));
  }
  EXPECT_EQ(nb.value(), 0x9be3373c8bb5b123ULL);
  EXPECT_EQ(knn.value(), 0x877f4c721705f013ULL);
  EXPECT_EQ(logreg.value(), 0xd989250db102b240ULL);
  EXPECT_EQ(ensemble.value(), 0xe894d1f49b040167ULL);
}

TEST(LearnedScoresTest, ForwardingMembersMatchNativeEnsemble) {
  TrainedMembers m;
  EnsembleClassifier forwarded;
  forwarded.AddMember(std::make_shared<Forwarding>(m.nb));
  forwarded.AddMember(std::make_shared<Forwarding>(m.knn));
  forwarded.AddMember(std::make_shared<Forwarding>(m.logreg));
  std::vector<const data::ProductItem*> items;
  for (const auto& q : m.queries) items.push_back(&q.item);
  auto native = m.ensemble->PredictBatch(items, nullptr);
  auto fallback = forwarded.PredictBatch(items, nullptr);
  ASSERT_EQ(native.size(), fallback.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(SameList(native[i], fallback[i])) << items[i]->title;
    EXPECT_TRUE(SameList(native[i], m.ensemble->Predict(*items[i])));
  }
}

// --------------------------------------------------------------- Metrics --

TEST(MetricsTest, SummarizeCountsDeclines) {
  std::vector<Observation> obs = {
      {"a", "a"}, {"a", "b"}, {"b", std::nullopt}, {"b", "b"}};
  EvalSummary s = Summarize(obs);
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.predicted, 3u);
  EXPECT_EQ(s.correct, 2u);
  EXPECT_NEAR(s.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.recall(), 0.5, 1e-12);
  EXPECT_NEAR(s.coverage(), 0.75, 1e-12);
  EXPECT_GT(s.f1(), 0.0);
}

TEST(MetricsTest, EmptyObservations) {
  EvalSummary s = Summarize({});
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
}

TEST(MetricsTest, PerClassBreakdown) {
  std::vector<Observation> obs = {
      {"a", "a"}, {"a", "b"}, {"b", "b"}, {"b", std::nullopt}};
  auto per_class = PerClass(obs);
  EXPECT_EQ(per_class["a"].gold_count, 2u);
  EXPECT_EQ(per_class["a"].predicted_count, 1u);
  EXPECT_EQ(per_class["a"].correct, 1u);
  EXPECT_DOUBLE_EQ(per_class["a"].precision(), 1.0);
  EXPECT_DOUBLE_EQ(per_class["a"].recall(), 0.5);
  EXPECT_EQ(per_class["b"].predicted_count, 2u);
}

// ----------------------------------------------------------------- Split --

TEST(SplitTest, RandomSplitSizes) {
  std::vector<data::LabeledItem> items(100);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].label = i % 2 ? "a" : "b";
  }
  Rng rng(3);
  auto [train, test] = RandomSplit(items, 0.2, rng);
  EXPECT_EQ(test.size(), 20u);
  EXPECT_EQ(train.size(), 80u);
}

TEST(SplitTest, StratifiedKeepsClassBalance) {
  std::vector<data::LabeledItem> items;
  for (int i = 0; i < 90; ++i) {
    data::LabeledItem li;
    li.label = "big";
    items.push_back(li);
  }
  for (int i = 0; i < 10; ++i) {
    data::LabeledItem li;
    li.label = "small";
    items.push_back(li);
  }
  Rng rng(3);
  auto [train, test] = StratifiedSplit(items, 0.3, rng);
  size_t small_test = 0;
  for (const auto& li : test) small_test += li.label == "small";
  EXPECT_EQ(small_test, 3u);
  EXPECT_EQ(test.size(), 30u);
}

TEST(SplitTest, StratifiedKeepsOneInTrain) {
  std::vector<data::LabeledItem> items(1);
  items[0].label = "only";
  Rng rng(3);
  auto [train, test] = StratifiedSplit(items, 0.99, rng);
  EXPECT_EQ(train.size(), 1u);
  EXPECT_TRUE(test.empty());
}

}  // namespace
}  // namespace rulekit::ml
