#include "src/engine/executor.h"

#include <atomic>
#include <utility>

#include "src/common/stopwatch.h"

namespace rulekit::engine {

RuleExecutor::RuleExecutor(const rules::RuleSet& set,
                           ExecutorOptions options)
    : set_(set), options_(std::move(options)) {
  if (options_.use_index) {
    if (options_.index_sample != nullptr && !options_.index_sample->empty()) {
      index_.Build(set_, {}, *options_.index_sample);
    } else {
      index_.Build(set_);
    }
  }
  const auto& all = set_.rules();
  for (size_t i = 0; i < all.size(); ++i) {
    const rules::Rule& r = all[i];
    if (r.is_active() && (r.kind() == rules::RuleKind::kWhitelist ||
                          r.kind() == rules::RuleKind::kBlacklist)) {
      active_regex_rules_.push_back(i);
    }
  }
}

size_t RuleExecutor::Match(const data::ProductItem& item,
                           RuleIndex::Scratch& scratch,
                           std::vector<size_t>& candidates,
                           std::vector<size_t>& out) const {
  out.clear();
  if (options_.use_index) index_.Candidates(item.title, scratch, candidates);
  const std::vector<size_t>& to_try =
      options_.use_index ? candidates : active_regex_rules_;
  const auto& all = set_.rules();
  for (size_t rule_idx : to_try) {
    if (all[rule_idx].pattern_regex()->PartialMatch(item.title)) {
      out.push_back(rule_idx);
    }
  }
  return to_try.size();
}

ExecutionResult RuleExecutor::Execute(
    const std::vector<data::ProductItem>& items, ThreadPool* pool) const {
  ExecutionResult result;
  result.matches_per_item.resize(items.size());
  std::atomic<size_t> evals{0};
  std::atomic<size_t> matches{0};

  Stopwatch timer;
  ParallelFor(pool, items.size(), [&](size_t begin, size_t end) {
    size_t local_evals = 0, local_matches = 0;
    // One scratch + candidate vector per worker: the indexed path reuses
    // their capacity across every item in the range.
    RuleIndex::Scratch scratch;
    std::vector<size_t> candidates;
    for (size_t i = begin; i < end; ++i) {
      auto& out = result.matches_per_item[i];
      local_evals += Match(items[i], scratch, candidates, out);
      local_matches += out.size();
    }
    evals.fetch_add(local_evals, std::memory_order_relaxed);
    matches.fetch_add(local_matches, std::memory_order_relaxed);
  });

  result.stats.items = items.size();
  result.stats.rule_evaluations = evals.load();
  result.stats.matches = matches.load();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace rulekit::engine
