// Inputs and steps the workloads share: the catalog world and the
// seeded draw from it, rule text, single-rule edits, compaction and cold
// reopen, the staged-copy and write-path probes of traced runs, and the
// metric sets every run prints.
#ifndef PERFBENCH_FIXTURES_H_
#define PERFBENCH_FIXTURES_H_

#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/chimera/pipeline.h"
#include "src/data/catalog_generator.h"
#include "src/rules/rule.h"

namespace perfbench {

/// The simulated analyst's rules for every type of `gen`, as DSL text.
std::string AnalystRuleDsl(const rulekit::data::CatalogGenerator& gen);

/// Parses (and so compiles) rule DSL text.
std::vector<rulekit::rules::Rule> ParseDsl(const std::string& dsl,
                                           Report& report);

/// The names of every type of `gen`: edits rotate over them, so each run
/// touches every shard rather than whichever one a seed's first type
/// hashes to.
std::vector<std::string> TypeNames(const rulekit::data::CatalogGenerator& gen);

/// The generator config of a workload's catalog world: its types and
/// their vocabularies — and so the analyst's rules — are the same for
/// every seed, so set-up, compaction and recovery do the same work in
/// every run. `--seed` draws the items (DrawFeed).
rulekit::data::GeneratorConfig WorldConfig(size_t types);

/// `n` items with their labels, drawn by `seed` without replacement and
/// in random order from `pool` items the world generates; with
/// `distinct_titles`, from the pool's distinct (lowercased) titles only.
LabeledFeed DrawFeed(rulekit::data::CatalogGenerator& world, size_t pool,
                     size_t n, uint64_t seed, bool distinct_titles = false);

/// One single-rule edit through Mutate: even `k` adds
/// "whitelist <prefix><k/2>: <token><k/2> => type", odd `k` retires it.
/// Checks the repository shows the edit. Returns the edit's seconds.
double SingleRuleEdit(rulekit::chimera::ChimeraPipeline& pipeline,
                      const std::string& prefix, const std::string& token,
                      const std::string& type, size_t k, Report& report);

/// Compacts the pipeline's store `times` times; median seconds. The
/// pipeline must have a store.
double CompactSeconds(rulekit::chimera::ChimeraPipeline& pipeline, int times,
                      Report& report);

/// Opens a pipeline cold from `config.storage_dir`, timed from
/// construction to its first classification, and checks the recovered
/// rule state equals `expected_state` and, when `expected` is non-empty,
/// that its predictions on `sample` equal `expected`. Returns seconds.
double TimedReopen(
    const rulekit::chimera::PipelineConfig& config,
    const std::string& expected_state,
    const std::vector<rulekit::data::ProductItem>& sample,
    const std::vector<std::optional<std::string>>& expected,
    const Args& args, Report& report,
    std::unique_ptr<rulekit::chimera::ChimeraPipeline>& reopened);

/// The end-to-end metrics of one run (BENCHMARK.json "end_to_end").
struct EndToEnd {
  double setup_s = 0, items_per_s = 0, latency_p50_us = 0,
         cpu_us_per_item = 0, precision = 0, coverage = 0;
};
void EmitEndToEnd(const EndToEnd& e, Report& report);

/// Prints the latency tail of the timed phase on stderr: p90 and p99 with
/// the sample count. They swing with the load of a shared host far more
/// than the bounds allow, so they are reported, not gated.
void NoteLatencyTail(const std::string& workload, const Timeline& timeline);

/// The per-layer metrics of one traced run (BENCHMARK.json "per_layer").
/// A layer a workload does not exercise reads 0.
struct Layers {
  double codec_ns_per_request = 0, queue_wait_p50_us = 0, server_p50_us = 0,
         transport_p50_us = 0, batch_size_mean = 0;
  double parallel_for_1_us = 0, parallel_for_8_us = 0;
  double gate_ns_per_item = 0, vote_ns_per_item = 0, filter_ns_per_item = 0,
         overhead_ns_per_item = 0, publish_ms = 0;
  double match_ns_per_item = 0, rules_per_item = 0, score_ns_per_item = 0,
         cache_lookup_ns = 0, cache_record_ns = 0, cache_hit_ratio = 0,
         shard_build_ms = 0;
  double features_ns_per_item = 0, knn_ns_per_item = 0,
         naive_bayes_ns_per_item = 0, logreg_ns_per_item = 0, train_s = 0;
  double compile_us_per_rule = 0, commit_us = 0, wal_append_us = 0;
  double open_s = 0, snapshot_mb = 0, wal_mb = 0;
  double edit_p50_us = 0, compact_s = 0, recover_s = 0;
  double join_attempts = 0, join_refused = 0;
};
void EmitLayers(const Layers& l, Report& report);

/// The write-path and pool probes of a traced run: ParallelFor on a pool
/// of the pipeline's size (when it has one), regex compile over up to
/// `compile_rules` of `rules`, single-rule commits and WAL appends,
/// shard builds for `edit_types`, and the publish share of `edit_p50_us`
/// (the WAL append is subtracted only when the store fsyncs every
/// commit).
void ProbeWritePath(const rulekit::chimera::ChimeraPipeline& pipeline,
                    const std::vector<rulekit::rules::Rule>& rules,
                    size_t compile_rules,
                    const std::vector<std::string>& edit_types,
                    double edit_p50_us, const Args& args, Layers& layers);

/// Times DurableRuleStore::Open alone on the (closed) store at
/// `config.storage_dir` and sizes its newest snapshot.
void StoreLayers(const rulekit::chimera::PipelineConfig& config,
                 Layers& layers);

class StagedPipeline;
/// Runs the staged copy of RunBatch over `batches` beside the pipeline's
/// own Classify of the same batches (both traced), checks the two agree,
/// and fills the chimera, engine and ml stage figures of `layers`.
void TraceStages(rulekit::chimera::ChimeraPipeline& pipeline,
                 StagedPipeline& staged,
                 const std::vector<std::vector<rulekit::data::ProductItem>>&
                     batches,
                 Layers& layers, Report& report);

/// Writes the run's spans under the work directory.
void WriteSpans(const Args& args);

/// Prints the end-to-end figures of a traced run on stderr, so the
/// tracing overhead can be read against untraced runs.
void NoteTracedEndToEnd(const EndToEnd& e);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURES_H_
