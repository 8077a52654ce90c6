#ifndef RULEKIT_ENGINE_EXECUTOR_H_
#define RULEKIT_ENGINE_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/data/product.h"
#include "src/engine/rule_index.h"
#include "src/rules/rule_set.h"

namespace rulekit::engine {

/// Execution strategy knobs for the §4 execution/optimization experiments.
struct ExecutorOptions {
  /// Prune candidate rules through the literal prefilter index; false =
  /// evaluate every active regex rule on every item (the baseline).
  bool use_index = true;
  /// Optional title sample for the corpus-aware index build (see
  /// RuleIndex::Build's three-arg overload): rules are re-bucketed onto
  /// their rarest required-literal set. Null/empty = structural build.
  /// Shared so snapshot republishes don't copy the sample per shard.
  std::shared_ptr<const std::vector<std::string>> index_sample = nullptr;
};

/// Aggregate counters from one execution.
struct ExecutionStats {
  size_t items = 0;
  size_t rule_evaluations = 0;  // regex evaluations actually performed
  size_t matches = 0;
  double seconds = 0.0;
};

/// Result of executing a rule set over a batch: for each item, the indices
/// (into RuleSet::rules()) of the active regex rules that matched its
/// title.
struct ExecutionResult {
  std::vector<std::vector<size_t>> matches_per_item;
  ExecutionStats stats;
};

/// Batch executor for regex (whitelist/blacklist) rules. The two strategies
/// — full scan vs indexed — produce identical matches; benchmarks compare
/// their cost.
///
/// The executor is built against one rule set and never mutates it, so a
/// const executor over an immutable snapshot is safe to share across
/// threads; concurrent Execute calls may share one ThreadPool (each call
/// waits only on its own chunks).
class RuleExecutor {
 public:
  RuleExecutor(const rules::RuleSet& set, ExecutorOptions options = {});

  /// Runs all active regex rules over the items, in parallel over `pool`
  /// when given (the paper's "execute the rules in parallel on a cluster
  /// of machines", scaled to one machine). Null = single-threaded.
  ExecutionResult Execute(const std::vector<data::ProductItem>& items,
                          ThreadPool* pool = nullptr) const;

  /// Matches one item: sets `out` to the indices of the active regex rules
  /// whose pattern matches its title, in ascending order, and returns the
  /// number of regex evaluations performed. `scratch` and `candidates` are
  /// the caller's reusable buffers (one per thread).
  size_t Match(const data::ProductItem& item, RuleIndex::Scratch& scratch,
               std::vector<size_t>& candidates,
               std::vector<size_t>& out) const;

  const RuleIndexStats& index_stats() const { return index_.stats(); }

  /// Number of active regex rules this executor evaluates. The sharded
  /// serving path skips whole shards whose executors have nothing to run.
  size_t active_rule_count() const { return active_regex_rules_.size(); }

 private:
  const rules::RuleSet& set_;
  ExecutorOptions options_;
  RuleIndex index_;
  std::vector<size_t> active_regex_rules_;
};

}  // namespace rulekit::engine

#endif  // RULEKIT_ENGINE_EXECUTOR_H_
