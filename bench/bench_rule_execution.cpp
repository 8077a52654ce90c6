// §4 "Rule Execution and Optimization": scaling the execution of
// thousands-to-tens-of-thousands of rules over a batch. Compares the
// full-scan baseline, the literal-prefilter rule index, and parallel
// execution, plus the data index for the rule-development loop.
// (google-benchmark binary; also prints an index-stats table first.)

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/data/catalog_generator.h"
#include "src/engine/data_index.h"
#include "src/engine/executor.h"
#include "src/rules/rule.h"
#include "src/rules/rule_set.h"

namespace {

using namespace rulekit;

// Builds a rule set of roughly `target` whitelist rules from the catalog
// vocabulary: qualifier x noun patterns across all types, then qualifier
// pair patterns, mirroring what analysts + the miner accumulate.
std::shared_ptr<rules::RuleSet> BuildRules(data::CatalogGenerator& gen,
                                           size_t target) {
  auto set = std::make_shared<rules::RuleSet>();
  size_t id = 0;
  auto add = [&](const std::string& pattern, const std::string& type) {
    if (set->size() >= target) return;
    auto rule = rules::Rule::Whitelist("r" + std::to_string(id++), pattern,
                                       type);
    if (rule.ok()) (void)set->Add(std::move(rule).value());
  };
  for (int round = 0; set->size() < target && round < 64; ++round) {
    for (const auto& spec : gen.specs()) {
      if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
      const std::string& noun = spec.head_nouns[0];
      if (round == 0) {
        add(RegexEscape(noun) + "s?", spec.name);
      } else if (static_cast<size_t>(round) <= spec.qualifiers.size()) {
        add(RegexEscape(spec.qualifiers[round - 1]) + ".*" +
                RegexEscape(noun) + "s?",
            spec.name);
      } else {
        size_t a = (round - 1) % spec.qualifiers.size();
        size_t b = (round / 2) % spec.qualifiers.size();
        add(RegexEscape(spec.qualifiers[a]) + ".*" +
                RegexEscape(spec.qualifiers[b]) + ".*" +
                RegexEscape(noun) + "s?",
            spec.name);
      }
    }
  }
  return set;
}

struct Fixture {
  std::shared_ptr<rules::RuleSet> rules;
  std::vector<data::ProductItem> items;
};

Fixture& GetFixture(size_t num_rules) {
  static std::map<size_t, Fixture>* cache = new std::map<size_t, Fixture>();
  auto it = cache->find(num_rules);
  if (it != cache->end()) return it->second;
  data::GeneratorConfig config;
  config.seed = 1004;
  config.num_types = 400;  // vocabulary volume for many distinct rules
  data::CatalogGenerator gen(config);
  Fixture fixture;
  fixture.rules = BuildRules(gen, num_rules);
  for (auto& li : gen.GenerateMany(bench::SmokeN(1000, 200))) {
    fixture.items.push_back(std::move(li.item));
  }
  return cache->emplace(num_rules, std::move(fixture)).first->second;
}

void BM_FullScan(benchmark::State& state) {
  Fixture& fixture = GetFixture(static_cast<size_t>(state.range(0)));
  engine::RuleExecutor executor(*fixture.rules, {.use_index = false});
  size_t evals = 0;
  for (auto _ : state) {
    auto result = executor.Execute(fixture.items);
    evals = result.stats.rule_evaluations;
    benchmark::DoNotOptimize(result.matches_per_item);
  }
  state.counters["rule_evals"] = static_cast<double>(evals);
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(fixture.items.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Indexed(benchmark::State& state) {
  Fixture& fixture = GetFixture(static_cast<size_t>(state.range(0)));
  engine::RuleExecutor executor(*fixture.rules, {.use_index = true});
  size_t evals = 0;
  for (auto _ : state) {
    auto result = executor.Execute(fixture.items);
    evals = result.stats.rule_evaluations;
    benchmark::DoNotOptimize(result.matches_per_item);
  }
  state.counters["rule_evals"] = static_cast<double>(evals);
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(fixture.items.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_IndexedParallel(benchmark::State& state) {
  Fixture& fixture = GetFixture(static_cast<size_t>(state.range(0)));
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  engine::RuleExecutor executor(*fixture.rules, {.use_index = true});
  for (auto _ : state) {
    auto result = executor.Execute(fixture.items, &pool);
    benchmark::DoNotOptimize(result.matches_per_item);
  }
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(fixture.items.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_DataIndexRuleDev(benchmark::State& state) {
  // The §4 rule-development loop: evaluate one evolving rule repeatedly
  // over a dev set D, with and without the trigram data index.
  Fixture& fixture = GetFixture(1000);
  std::vector<std::string> titles;
  for (const auto& item : fixture.items) titles.push_back(item.title);
  engine::DataIndex index;
  index.Build(titles);
  auto re = regex::Regex::CompileCaseFolded("(motor|engine) oils?");
  bool use_index = state.range(0) != 0;
  for (auto _ : state) {
    if (use_index) {
      auto matches = index.MatchingTitles(*re);
      benchmark::DoNotOptimize(matches);
    } else {
      std::vector<size_t> matches;
      for (size_t i = 0; i < titles.size(); ++i) {
        if (re->PartialMatch(ToLowerAscii(titles[i]))) matches.push_back(i);
      }
      benchmark::DoNotOptimize(matches);
    }
  }
}

BENCHMARK(BM_FullScan)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Indexed)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexedParallel)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DataIndexRuleDev)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=========================================================\n");
  std::printf("bench_rule_execution — §4 Rule Execution and Optimization\n");
  std::printf("index vs full scan over 1000 items; [paper]: executing tens\n");
  std::printf("of thousands of rules needs indexing and parallelism.\n");
  std::printf("=========================================================\n");
  for (size_t n : {1000u, 5000u, 20000u}) {
    Fixture& fixture = GetFixture(n);
    engine::RuleExecutor indexed(*fixture.rules, {.use_index = true});
    std::printf("rules=%-6zu indexed=%zu unindexed=%zu literals=%zu\n",
                fixture.rules->size(), indexed.index_stats().indexed_rules,
                indexed.index_stats().unindexed_rules,
                indexed.index_stats().literals);
  }
  argv = rulekit::bench::SmokeBenchmarkArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
