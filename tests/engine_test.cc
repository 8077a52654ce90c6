#include <gtest/gtest.h>

#include <memory>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/data/catalog_generator.h"
#include "src/engine/data_index.h"
#include "src/engine/executor.h"
#include "src/engine/rule_classifier.h"
#include "src/engine/rule_index.h"
#include "src/rules/rule_parser.h"
#include "src/text/aho_corasick.h"

namespace rulekit::engine {
namespace {

data::ProductItem MakeItem(std::string title) {
  data::ProductItem item;
  item.title = std::move(title);
  return item;
}

std::shared_ptr<rules::RuleSet> MakeRuleSet(std::string_view dsl) {
  auto parsed = rules::ParseRuleSet(dsl);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::make_shared<rules::RuleSet>(std::move(parsed).value());
}

// ------------------------------------------------------------ AhoCorasick --

TEST(AhoCorasickTest, FindsOverlappingPatterns) {
  text::AhoCorasick ac;
  ac.Add("he", 1);
  ac.Add("she", 2);
  ac.Add("hers", 3);
  ac.Build();
  auto hits = ac.CollectUnique("ushers");
  EXPECT_EQ(hits, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(AhoCorasickTest, NoFalsePositives) {
  text::AhoCorasick ac;
  ac.Add("ring", 1);
  ac.Build();
  EXPECT_TRUE(ac.CollectUnique("earring").size() == 1);
  EXPECT_TRUE(ac.CollectUnique("rng rig").empty());
  EXPECT_FALSE(ac.AnyMatch("necklace"));
  EXPECT_TRUE(ac.AnyMatch("spring sale"));
}

TEST(AhoCorasickTest, SamePayloadManyPatterns) {
  text::AhoCorasick ac;
  ac.Add("oil", 7);
  ac.Add("lubricant", 7);
  ac.Build();
  EXPECT_EQ(ac.CollectUnique("motor oil and lubricant"),
            (std::vector<uint32_t>{7}));
}

TEST(AhoCorasickTest, EmptyAutomatonMatchesNothing) {
  text::AhoCorasick ac;
  ac.Build();
  EXPECT_FALSE(ac.AnyMatch("anything"));
}

// -------------------------------------------------------------- RuleIndex --

TEST(RuleIndexTest, CandidatesAreSupersetOfMatches) {
  auto set = MakeRuleSet(R"(
whitelist r1: rings? => rings
whitelist r2: (motor | engine) oils? => motor oil
whitelist r3: denim.*jeans? => jeans
whitelist r4: \w+ cables? => computer cables
blacklist b1: toe rings? => rings
)");
  RuleIndex index;
  index.Build(*set);
  // r4 has no usable literal ("\w+ cable..." does have "cable"!), so check
  // stats make sense overall.
  EXPECT_GE(index.stats().indexed_rules + index.stats().unindexed_rules, 5u);

  const char* titles[] = {
      "diamond ring 10kt", "castrol motor oil", "relaxed denim jeans",
      "usb cable 6ft", "silver toe ring", "unrelated product"};
  for (const char* title : titles) {
    auto candidates = index.Candidates(title);
    // Every actually-matching rule must be in the candidate set.
    const auto& all = set->rules();
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i].pattern_regex()->PartialMatch(
              rulekit::ToLowerAscii(title))) {
        EXPECT_NE(std::find(candidates.begin(), candidates.end(), i),
                  candidates.end())
            << all[i].id() << " missing for " << title;
      }
    }
  }
}

TEST(RuleIndexTest, PrunesIrrelevantRules) {
  auto set = MakeRuleSet(R"(
whitelist r1: rings? => rings
whitelist r2: jeans? => jeans
whitelist r3: laptops? => laptop computers
)");
  RuleIndex index;
  index.Build(*set);
  EXPECT_EQ(index.stats().indexed_rules, 3u);
  auto candidates = index.Candidates("gold ring");
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(RuleIndexTest, SkipsInactiveRules) {
  auto set = MakeRuleSet("whitelist r1: rings? => rings\n");
  ASSERT_TRUE(set->Disable("r1").ok());
  RuleIndex index;
  index.Build(*set);
  EXPECT_TRUE(index.Candidates("gold ring").empty());
}

// ---------------------------------------------------- RuleBasedClassifier --

TEST(RuleBasedClassifierTest, WhitelistProposesBlacklistVetoes) {
  auto set = MakeRuleSet(R"(
whitelist w1: rings? => rings
blacklist b1: toe rings? => rings
)");
  RuleBasedClassifier clf(set);
  auto scored = clf.Predict(MakeItem("diamond ring"));
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].label, "rings");
  EXPECT_TRUE(clf.Predict(MakeItem("silver toe ring")).empty());
  EXPECT_TRUE(clf.Predict(MakeItem("necklace")).empty());
}

TEST(RuleBasedClassifierTest, OrderIndependenceProperty) {
  // §4: "the output of the system remains the same regardless of the order
  // in which the rules are being executed." Build the same logical rule
  // set in shuffled orders and check identical predictions.
  const char* rule_lines[] = {
      "whitelist w1: rings? => rings",
      "whitelist w2: wedding bands? => rings",
      "whitelist w3: jeans? => jeans",
      "whitelist w4: denim => jeans",
      "blacklist b1: toe rings? => rings",
      "blacklist b2: jeans? jackets? => jeans",
  };
  const char* titles[] = {
      "diamond ring",      "toe ring",       "wedding band",
      "skinny jeans",      "denim jacket",   "denim jeans jacket",
      "jeans jacket",      "plain shirt",
  };
  Rng rng(17);
  std::vector<std::string> lines(std::begin(rule_lines),
                                 std::end(rule_lines));
  std::vector<std::vector<ml::ScoredLabel>> reference;
  for (int perm = 0; perm < 12; ++perm) {
    std::string dsl;
    for (const auto& l : lines) dsl += l + std::string("\n");
    auto set = MakeRuleSet(dsl);
    RuleBasedClassifier clf(set, {.use_index = perm % 2 == 0});
    std::vector<std::vector<ml::ScoredLabel>> outputs;
    for (const char* t : titles) outputs.push_back(clf.Predict(MakeItem(t)));
    if (perm == 0) {
      reference = outputs;
    } else {
      for (size_t i = 0; i < outputs.size(); ++i) {
        ASSERT_EQ(outputs[i].size(), reference[i].size()) << titles[i];
        for (size_t j = 0; j < outputs[i].size(); ++j) {
          EXPECT_EQ(outputs[i][j].label, reference[i][j].label) << titles[i];
        }
      }
    }
    rng.Shuffle(lines);
  }
}

TEST(RuleBasedClassifierTest, ConfidenceCarriesThrough) {
  auto set = MakeRuleSet("whitelist w1: rings? => rings\n");
  set->FindMutable("w1")->metadata().confidence = 0.6;
  RuleBasedClassifier clf(set);
  auto scored = clf.Predict(MakeItem("gold ring"));
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_DOUBLE_EQ(scored[0].score, 0.6);
}

TEST(RuleBasedClassifierTest, IndexAndScanAgree) {
  data::GeneratorConfig config;
  config.seed = 3;
  data::CatalogGenerator gen(config);
  auto items = gen.GenerateMany(300);

  auto set = MakeRuleSet(R"(
whitelist r1: rugs? => area rugs
whitelist r2: (ring|wedding band)s? => rings
whitelist r3: jeans? => jeans
whitelist r4: (laptop|ultrabook)s? => laptop computers
blacklist b1: laptop (bag|case|sleeve)s? => laptop computers
)");
  RuleBasedClassifier indexed(set, {.use_index = true});
  RuleBasedClassifier scanned(set, {.use_index = false});
  for (const auto& li : items) {
    auto a = indexed.Predict(li.item);
    auto b = scanned.Predict(li.item);
    ASSERT_EQ(a.size(), b.size()) << li.item.title;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label);
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    }
  }
}

// ----------------------------------------------------- AttrValueClassifier --

TEST(AttrValueClassifierTest, IsbnRule) {
  auto set = MakeRuleSet("attr a1: has(ISBN) => books\n");
  AttrValueClassifier clf(set);
  data::ProductItem book = MakeItem("mystery novel");
  book.SetAttribute("ISBN", "9781234567897");
  auto scored = clf.Predict(book);
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].label, "books");
  EXPECT_TRUE(clf.Predict(MakeItem("mystery novel")).empty());
}

TEST(AttrValueClassifierTest, BrandNarrowsToCandidateSet) {
  auto set = MakeRuleSet(
      "attrval a1: Brand = \"apple\" => smart phones | laptop computers\n");
  AttrValueClassifier clf(set);
  data::ProductItem item = MakeItem("device 64gb");
  item.SetAttribute("Brand", "Apple");
  auto scored = clf.Predict(item);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_DOUBLE_EQ(scored[0].score, 0.5);  // confidence split across 2
}

TEST(AttrValueClassifierTest, NegativePredicateVetoes) {
  auto set = MakeRuleSet(R"(
attrval a1: Brand = "apple" => smart phones
pred p1: title has "apple" and price < 100 => not smart phones
)");
  AttrValueClassifier clf(set);
  data::ProductItem case_item = MakeItem("apple phone case");
  case_item.SetAttribute("Brand", "apple");
  case_item.SetAttribute("Price", "15.00");
  EXPECT_TRUE(clf.Predict(case_item).empty());
  data::ProductItem phone = MakeItem("apple iphone");
  phone.SetAttribute("Brand", "apple");
  phone.SetAttribute("Price", "650.00");
  EXPECT_EQ(clf.Predict(phone).size(), 1u);
}

// -------------------------------------------------------------- DataIndex --

TEST(DataIndexTest, MatchesAgreeWithFullScan) {
  data::GeneratorConfig config;
  config.seed = 9;
  data::CatalogGenerator gen(config);
  auto items = gen.GenerateMany(500);
  std::vector<std::string> titles;
  for (const auto& li : items) titles.push_back(li.item.title);

  DataIndex index;
  index.Build(titles);
  ASSERT_EQ(index.num_titles(), titles.size());

  for (const char* pattern :
       {"rings?", "(motor|engine) oils?", "denim.*jeans?", "area rugs?"}) {
    auto re = regex::Regex::CompileCaseFolded(pattern);
    ASSERT_TRUE(re.ok());
    DataIndexQueryStats stats;
    auto matches = index.MatchingTitles(*re, &stats);
    // Reference: full scan.
    std::vector<size_t> expected;
    for (size_t i = 0; i < titles.size(); ++i) {
      if (re->PartialMatch(rulekit::ToLowerAscii(titles[i]))) expected.push_back(i);
    }
    EXPECT_EQ(matches, expected) << pattern;
    EXPECT_TRUE(stats.used_index) << pattern;
    EXPECT_LE(stats.matches, stats.candidates);
    EXPECT_LT(stats.candidates, titles.size()) << pattern;
  }
}

TEST(DataIndexTest, FallsBackToScanWithoutPrefilter) {
  DataIndex index;
  index.Build({"abc def", "xyz"});
  auto re = regex::Regex::CompileCaseFolded("\\w+");
  ASSERT_TRUE(re.ok());
  DataIndexQueryStats stats;
  auto matches = index.MatchingTitles(*re, &stats);
  EXPECT_FALSE(stats.used_index);
  EXPECT_EQ(matches.size(), 2u);
}

// --------------------------------------------------------------- Executor --

TEST(ExecutorTest, IndexedScanAndParallelAllAgree) {
  data::GeneratorConfig config;
  config.seed = 21;
  data::CatalogGenerator gen(config);
  auto labeled = gen.GenerateMany(400);
  std::vector<data::ProductItem> items;
  for (auto& li : labeled) items.push_back(li.item);

  auto set = MakeRuleSet(R"(
whitelist r1: rugs? => area rugs
whitelist r2: rings? => rings
whitelist r3: jeans? => jeans
whitelist r4: (oil|lubricant)s? => motor oil
whitelist r5: gloves? => athletic gloves
blacklist b1: toe rings? => rings
)");

  RuleExecutor scan(*set, {.use_index = false});
  RuleExecutor indexed(*set, {.use_index = true});
  ThreadPool pool(4);

  auto r1 = scan.Execute(items);
  auto r2 = indexed.Execute(items);
  auto r3 = indexed.Execute(items, &pool);

  EXPECT_EQ(r1.matches_per_item, r2.matches_per_item);
  EXPECT_EQ(r1.matches_per_item, r3.matches_per_item);
  EXPECT_EQ(r1.stats.matches, r2.stats.matches);
  // The index must strictly reduce evaluations on this workload.
  EXPECT_LT(r2.stats.rule_evaluations, r1.stats.rule_evaluations);
  EXPECT_EQ(r1.stats.rule_evaluations, items.size() * 6);
}

TEST(ExecutorTest, EmptyBatch) {
  auto set = MakeRuleSet("whitelist r1: rings? => rings\n");
  RuleExecutor exec(*set);
  auto result = exec.Execute({});
  EXPECT_EQ(result.stats.items, 0u);
  EXPECT_TRUE(result.matches_per_item.empty());
}

}  // namespace
}  // namespace rulekit::engine
