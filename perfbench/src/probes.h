// Layer probes for traced runs: each times one layer's public functions
// in isolation, on the workload's own inputs, and returns the figure the
// per-layer metric reports.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/data/product.h"
#include "src/rules/rule.h"

namespace perfbench {

/// Median fixed cost (µs) of ThreadPool::ParallelFor over `n` trivial
/// items on a pool of `threads` workers.
double ParallelForUs(size_t threads, size_t n);

/// Median ns to encode and decode one single-item classify request and
/// its response (the four wire payload codecs), over `items`.
double CodecNsPerRequest(const std::vector<rulekit::data::ProductItem>& items);

/// Mean µs per pattern of regex::Regex::Compile over `rules`' patterns.
double RegexCompileUsPerRule(const std::vector<rulekit::rules::Rule>& rules);

/// Single-rule commits on a standalone in-memory repository holding
/// `base`: the median commit (µs), and the median append+sync (µs) of
/// those commits' encoded records to a fresh write-ahead log in `dir`.
struct CommitCosts {
  double commit_us = 0;
  double wal_append_us = 0;
};
CommitCosts MeasureCommits(const std::vector<rulekit::rules::Rule>& base,
                           size_t shards, const std::string& type,
                           const std::string& dir);

/// Median ms to build the serving state (classifier with its index,
/// attribute classifier, filter) of the shards that host `types`.
double ShardBuildMs(const rulekit::chimera::ChimeraPipeline& pipeline,
                    const std::vector<std::string>& types);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
