#ifndef RULEKIT_CHIMERA_PIPELINE_H_
#define RULEKIT_CHIMERA_PIPELINE_H_

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/chimera/gate_keeper.h"
#include "src/chimera/request.h"
#include "src/chimera/trainer.h"
#include "src/chimera/voting.h"
#include "src/common/thread_pool.h"
#include "src/data/product.h"
#include "src/engine/hot_cache.h"
#include "src/engine/rule_classifier.h"
#include "src/engine/sharded_classifier.h"
#include "src/ml/ensemble.h"
#include "src/ml/features.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/naive_bayes.h"
#include "src/rules/repository.h"
#include "src/storage/rule_store.h"

namespace rulekit::chimera {

/// Pipeline composition knobs (also the ablation switches for the
/// benchmarks: learning-only vs rules-only vs both).
struct PipelineConfig {
  bool use_rules = true;
  bool use_learning = true;
  double rule_weight = 1.0;      // analysts' rules are trusted most
  double attr_weight = 0.9;
  double learning_weight = 0.7;
  VotingOptions voting;
  /// Worker threads for batch classification (0 or 1 = sequential). The pool is
  /// shared by concurrent batches; each batch waits only on its own work.
  size_t batch_threads = 0;
  /// Rule repository shards. An edit republishes only the shards it
  /// touched (index rebuild cost scales with the shard, not the rule
  /// base), and writers to disjoint shards proceed concurrently. 1 =
  /// historical monolithic behaviour. Output is byte-identical for any
  /// value.
  size_t rule_shards = 8;
  /// Diagnostic hook, fired once per shard rebuild (with the shard index)
  /// while the rebuild runs outside every pipeline lock. Tests use it to
  /// prove disjoint-shard writers overlap; leave unset in production.
  std::function<void(uint32_t)> publish_probe;
  /// When non-empty, the pipeline opens a durable rule store rooted here:
  /// existing state is recovered before the first snapshot is composed,
  /// and from then on every committed rule mutation is written ahead to
  /// the store's log before it is published. Empty = in-memory only
  /// (historical behaviour). Open failures do not abort construction —
  /// the pipeline falls back to in-memory and storage_status() reports
  /// the error.
  std::string storage_dir;
  /// Storage tuning (fsync policy, compaction threshold, dictionaries).
  /// `storage.shard_count` is ignored: `rule_shards` governs.
  storage::StoreOptions storage;
  /// When the background trainer runs a requested retrain (min-interval /
  /// min-new-examples gates, max-queue-age deferral — see trainer.h). The
  /// default gates nothing, so every request trains: that is what keeps
  /// the synchronous RetrainLearning() wrapper byte-identical to the
  /// historical blocking call. FeedbackLoop / FirstResponder callers that
  /// fire-and-forget set real gates here.
  RetrainPolicy retrain;
  /// Hot-title result cache: automatic cross-batch memoization of
  /// confident voting winners (admitted after `hot_cache.admit_after`
  /// sightings, striped LRU eviction, version-tag invalidation — see
  /// DESIGN.md §6). Off by default, like `batch_threads`: enabling it
  /// serves repeats of a hot title from the cached winner, so items that
  /// share a title but differ in attributes collapse to one result
  /// (exactly the Gate Keeper memo semantics). First-sight output is
  /// byte-identical with the cache on or off. When enabled, each tenant
  /// gets its own independently-bounded cache partition built from this
  /// config (or its override below).
  engine::HotCacheConfig hot_cache;
  /// Per-tenant knobs (see DESIGN.md "Multi-tenancy"). A tenant listed
  /// here gets its own hot-cache bounds/TTL and/or retrain gates; absent
  /// fields (and absent tenants) inherit the pipeline-wide `hot_cache` /
  /// `retrain` above. Keys are tenant ids ("" = the default tenant).
  struct TenantOverrides {
    std::optional<engine::HotCacheConfig> hot_cache;
    /// Only the gate knobs (min_interval, min_new_examples,
    /// max_queue_age) are honored; the hooks always come from `retrain`.
    std::optional<RetrainPolicy> retrain;
  };
  std::map<std::string, TenantOverrides> tenants;
  /// Optional title sample for corpus-aware rule-index builds, typically
  /// the offline optimizer's `OptimizationPlan::index_sample`: every shard
  /// republish re-buckets rules onto the required-literal set that is
  /// rarest on these titles (see RuleIndex's corpus-aware Build).
  /// Classification output is identical with or without it — only the
  /// per-item candidate sets shrink. Null = structural index build.
  std::shared_ptr<const std::vector<std::string>> index_sample_titles;
};

/// One shard's serving state, bound to one immutable shard snapshot: the
/// classifiers/filter built against the shard's rules (index
/// construction included). Rebuilt only when its shard's version moves;
/// the other shards' servings are reused pointer-for-pointer across
/// publishes.
struct ShardServing {
  uint32_t shard_index = 0;
  uint64_t rule_version = 0;
  /// Per-tenant version counters pinned with the rules (key "" is the
  /// default tenant). Tenant-scoped cache tags hash these instead of
  /// `rule_version`, so one tenant's edits never invalidate another's
  /// cached results.
  std::map<std::string, uint64_t> tenant_versions;
  /// Classifiers/filter over one owner's rules in this shard. Each owns
  /// its pinned `shared_ptr<const RuleSet>`.
  struct TenantPartition {
    std::shared_ptr<const engine::RuleBasedClassifier> rule_classifier;
    std::shared_ptr<const engine::AttrValueClassifier> attr_classifier;
    std::shared_ptr<const Filter> filter;
  };
  /// Build over the shard's shared ("" tenant) rules. When the shard
  /// hosts no foreign-tenant rules it is built over the pinned shard set
  /// itself — no extra copy, and byte-identical single-tenant serving.
  TenantPartition shared;
  /// One partition per non-default tenant owning rules in this shard.
  /// A tenant's serving view stacks its partitions after every shard's
  /// shared build (shared rules serve everyone; a tenant's own rules
  /// serve only it).
  std::map<std::string, TenantPartition> tenants;
};

/// Everything one classification needs, pinned coherently: one serving
/// view per tenant, each merging per-shard builds (each at its own shard
/// version) with the learning ensemble, voting master, and the
/// suppressed-type set. Writers compose a fresh snapshot (reusing
/// unchanged shards' servings) and swap the pipeline's pointer
/// atomically; readers acquire the pointer once per batch and keep the
/// whole bundle alive via shared_ptr for as long as they need it. Rule
/// updates therefore never block or corrupt in-flight classification — a
/// batch finishes on the version it started with.
struct PipelineSnapshot {
  /// One tenant's composed serving view: every shard's shared build plus
  /// (for a non-default tenant) its own partitions, positionally aligned
  /// across classifier/filter so the batch executors line up. The voting
  /// master owns the attribute/value member and the ensemble (the
  /// tenant's own, falling back to the shared one).
  struct TenantView {
    std::shared_ptr<engine::ShardedRuleClassifier> rule_classifier;
    std::shared_ptr<const ShardedFilter> filter;
    std::shared_ptr<const VotingMaster> voting;
    std::unordered_set<std::string> suppressed;  // platform-wide ∪ own
    /// The tag hot-result-cache entries computed against this view are
    /// stored (and validated) under; see ComposeViewLocked for its
    /// halves. Any rule commit, retrain, or suppression edit visible to
    /// the view changes it, so stale entries drop on read.
    engine::VersionTag tag;
  };
  /// The default tenant's view (shared rules, shared ensemble,
  /// platform-wide suppressions).
  TenantView default_view;
  /// Views for every tenant with rules, training state, or suppressions.
  /// A tenant absent here serves `default_view` (plus its own cache
  /// partition) — correct, since it has no tenant-specific state yet.
  std::map<std::string, TenantView> tenant_views;
  /// Publish sequence number (bumps on every snapshot swap).
  uint64_t version = 0;

  /// `tenant`'s view, or the default view for a tenant without one.
  const TenantView& ViewFor(const std::string& tenant) const {
    auto it = tenant_views.find(tenant);
    return it == tenant_views.end() ? default_view : it->second;
  }
};

/// The Chimera system (Figure 2): Gate Keeper -> {rule-based,
/// attribute/value, learning ensemble} classifiers -> Voting Master ->
/// Filter -> Result, with scale-down/scale-up controls and a versioned,
/// sharded rule repository underneath.
///
/// Concurrency model (sharded snapshot-isolated serving core):
///  - Readers (Classify) are lock-free apart from two
///    pointer loads: they pin the current PipelineSnapshot and the gate
///    keeper's memo version, then classify against those. They never see
///    a half-applied rule update.
///  - Writers serialize per *shard*, not globally: a mutation locks only
///    the repository shards it touches, then rebuilds only those shards'
///    classifiers/indices (outside every lock) and composes a new
///    snapshot from the refreshed cache. Edits to disjoint shards
///    proceed concurrently end to end.
///  - Mutations go through the transactional API (Mutate / AddRules /
///    ScaleDownType / Checkpoint+RestoreCheckpoint), which publishes
///    exactly once per commit — and, when `config.storage_dir` is set,
///    write-ahead-logs every commit before publication, so any state a
///    reader observes survives a crash.
///  - Retraining runs on a dedicated background trainer thread:
///    RequestRetrain() returns a future immediately, bursts coalesce
///    into at most one pending run (latest data wins), and the run
///    trains outside all locks against a copied data snapshot — so
///    training blocks neither the caller nor rule writers. The
///    synchronous RetrainLearning() wrapper just requests and waits.
///  - GateKeeper::Memoize is its own (copy-on-write) writer path and
///    needs no snapshot republish.
/// Batch classification additionally fans work out over a shared ThreadPool
/// when `config.batch_threads > 1`: one pass over contiguous item ranges,
/// each chunk taking its items through gate, cache probe, rule match,
/// voting and filter, with per-chunk partial BatchReports merged once and
/// cache records deferred to the end — so parallel output is identical to
/// the sequential path, and identical for any shard count.
class ChimeraPipeline {
 public:
  explicit ChimeraPipeline(PipelineConfig config = {});

  /// Stops the background trainer first (drains an in-flight run,
  /// abandons a queued one — its futures resolve as kAbandoned), so no
  /// training publish can touch the pipeline during member teardown.
  ~ChimeraPipeline();

  // ---- rules -------------------------------------------------------------

  /// Adds rules through the repository (one audited transaction, scoped
  /// to `tenant` — added rules are stamped as that tenant's and serve
  /// only its view unless `tenant` is the default) and publishes the
  /// touched shards once. In-flight batches keep classifying on the old
  /// snapshot. On failure the already-applied prefix is still published
  /// (matching the historical loop semantics).
  Status AddRules(std::vector<rules::Rule> new_rules, std::string_view author,
                  const rules::TenantId& tenant = {});

  /// The transactional edit path: stages edits through `fn`, commits them
  /// as one repository transaction (scoped to `tenant`: a non-default
  /// tenant may only touch its own rules), and republishes exactly the
  /// shards the commit touched — once, regardless of how many edits rode
  /// along. If `fn` returns an error nothing is applied or published.
  Status Mutate(std::string_view author,
                const std::function<Status(rules::RuleTransaction&)>& fn,
                const rules::TenantId& tenant = {});

  /// Checkpoints all rule states (see RuleRepository::Checkpoint); no
  /// republish needed since rules are unchanged. Fails — with no
  /// checkpoint registered — when the durable journal rejects the append.
  Result<uint64_t> Checkpoint(std::string_view author);

  /// Restores a checkpoint and republishes every shard.
  Status RestoreCheckpoint(uint64_t version, std::string_view author);

  /// Read-only repository access (audit log, history, persistence).
  /// All mutation flows through Mutate() / AddRules() / Checkpoint() /
  /// RestoreCheckpoint() / ScaleDownType() — the historical deprecated
  /// writer accessors are gone.
  const rules::RuleRepository& repository() const { return *repo_; }

  /// Merged view of all shards' rules (writer-side; re-fetch after edits).
  const rules::RuleSet& rule_set() const { return repo_->rules(); }

  /// Version of the currently served snapshot (bumps on every publish).
  uint64_t snapshot_version() const;

  // ---- durability --------------------------------------------------------

  /// The durable store backing this pipeline; null when storage_dir was
  /// empty or the open failed (see storage_status()).
  storage::DurableRuleStore* storage() const { return store_.get(); }

  /// OK when no storage was requested or the store opened cleanly; the
  /// open/recovery error otherwise (the pipeline then runs in-memory).
  const Status& storage_status() const { return storage_status_; }

  /// True when every committed mutation is currently journaled: storage
  /// was requested, opened cleanly, and its WAL is still alive. The
  /// admission check behind ClassifyOptions::require_durable.
  bool durable() const {
    return store_ != nullptr && storage_status_.ok() && store_->journal_live();
  }

  // ---- learning ----------------------------------------------------------

  /// Accumulates labeled training data into `tenant`'s pool. A
  /// non-default tenant's pool trains that tenant's own ensemble; until
  /// it has trained one, its view votes with the shared ensemble.
  void AddTrainingData(std::vector<data::LabeledItem> labeled,
                       const rules::TenantId& tenant = {});

  /// Asks the background trainer to retrain `tenant`'s ensemble and
  /// returns immediately — the future resolves when the request's run
  /// (or skip, per `config.retrain` / the tenant's override) completes.
  /// Requests arriving while a run is in flight coalesce per tenant into
  /// at most one pending run that snapshots its data when it *starts*
  /// (latest data wins); tenants drain round-robin, each gated only by
  /// its own history. The run trains outside every pipeline lock, then
  /// installs the ensemble, bumps the tenant's semantic generation, and
  /// publishes exactly as the historical synchronous path did.
  ///
  /// `urgent` is the DriftResponder's severe-alarm escalation: the
  /// request bypasses the tenant's min_interval / min_new_examples gates
  /// (it still coalesces into the tenant's one slot), so an
  /// unambiguously degraded tenant retrains now instead of waiting out
  /// its throttle.
  std::shared_future<RetrainReport> RequestRetrain(
      const rules::TenantId& tenant = {}, bool urgent = false);

  /// Synchronous wrapper: request + wait. With the default (ungated)
  /// retrain policy this is observably identical to the historical
  /// blocking RetrainLearning — same data, same deterministic learners,
  /// same publish — just executed on the trainer thread.
  void RetrainLearning(const rules::TenantId& tenant = {});

  size_t training_size(const rules::TenantId& tenant = {}) const;

  /// Generation of the non-rule serving inputs currently published
  /// (bumps on ensemble installs and suppression edits). Monotone
  /// non-decreasing across snapshot swaps.
  uint64_t semantic_generation() const;

  // ---- scale down / up (§2.2 requirement 3) -------------------------------

  /// Suppresses all predictions of one type (and disables its rules),
  /// republishing only the shards that hosted them. Scoped to `tenant`:
  /// the default tenant's scale-down is the platform-wide emergency
  /// lever (suppresses the type for every tenant and disables every
  /// tenant's rules, the historical behaviour); a non-default tenant's
  /// suppresses the type in its own view only and disables only its own
  /// rules. A non-OK status means the scale-down took effect in memory
  /// but could not be journaled (the suppression and disables are still
  /// live and published).
  Status ScaleDownType(const std::string& type, std::string_view author,
                       std::string_view reason,
                       const rules::TenantId& tenant = {});

  /// Lifts a suppression in `tenant`'s scope (rules must be re-enabled
  /// via a transaction or a checkpoint restore).
  void ScaleUpType(const std::string& type,
                   const rules::TenantId& tenant = {});

  /// Writer-side view; safe when no writer is concurrently scaling.
  const std::unordered_set<std::string>& suppressed_types() const {
    return suppressed_;
  }

  // ---- gate keeper -------------------------------------------------------

  /// Records a confirmed (title -> type) pair; visible to batches that
  /// start after the call.
  void Memoize(const std::string& title, const std::string& type);

  /// Bulk Memoize: one memo clone + one publish for the whole span (the
  /// feedback-loop / first-responder confirmation paths).
  void MemoizeAll(
      std::span<const std::pair<std::string, std::string>> pairs);

  GateKeeper& gate_keeper() { return gate_; }

  // ---- hot result cache --------------------------------------------------

  /// The default tenant's hot-title result cache; null when
  /// `config.hot_cache.enabled` is false. Counters aggregate across
  /// batches (per-batch numbers live in BatchReport).
  engine::HotResultCache* hot_cache() const {
    return caches_ == nullptr ? nullptr : &caches_->defaults();
  }

  /// All tenants' cache partitions; null when the cache is disabled.
  engine::TenantCacheSet* tenant_caches() const { return caches_.get(); }

  // ---- classification ----------------------------------------------------

  /// THE classification entry point: every path into the pipeline — the
  /// serving front-end's wire requests and in-process batches alike —
  /// funnels through this one method, so local and remote callers are
  /// byte-identical by construction. Classifies `request.items` through
  /// `request.tenant`'s
  /// serving view (shared rules + the tenant's own rules/ensemble/
  /// suppressions) and its cache partition, against one pinned snapshot;
  /// parallel over `config.batch_threads` workers.
  ///
  /// Status codes (the serving wire format pins their mapping):
  ///   OK                — classified; see report
  ///   kDeadlineExceeded — request.deadline passed before we started
  ///   kUnavailable      — options.require_durable and the journal is
  ///                       severed (open failure or a dead WAL)
  /// On any non-OK status the report carries total + empty predictions.
  ClassifyResponse Classify(const ClassifyRequest& request) const;

  // ---- replication ------------------------------------------------------

  /// Applies commit records shipped from a primary's log, in order, and
  /// publishes one fresh snapshot for the whole batch. The follower-side
  /// apply path: each record goes through RuleRepository::Replay (which
  /// never fires the journal hook — a follower's own mirror WAL, when it
  /// keeps one, is written by the replication layer, not here), so a
  /// follower that replays the primary's full log converges to the exact
  /// rule state, audit log, logical clock, and shard versions. Fails on
  /// the first inconsistent record; earlier records in the span stay
  /// applied (mirroring recovery semantics).
  Status ApplyReplicated(const rules::CommitRecord& record);
  Status ApplyReplicated(std::span<const rules::CommitRecord> records);

  /// Every tenant known to any layer — rule ownership, training/serving
  /// runtime, or a live cache partition. Default ("") first, the rest
  /// sorted.
  std::vector<std::string> Tenants() const;

  const PipelineConfig& config() const { return config_; }

 private:
  /// Rebuilds the serving state of the given shards if their repository
  /// versions moved (classifier/index construction runs outside every
  /// pipeline lock), then composes and swaps a new snapshot. Always
  /// publishes, even when no shard changed (suppression edits and the
  /// historical always-republish semantics rely on it).
  void RepublishShards(const std::vector<rules::ShardKey>& dirty);

  /// Builds the classifiers/filter (index included) over one owner's
  /// rules in one shard.
  ShardServing::TenantPartition BuildPartition(
      std::shared_ptr<const rules::RuleSet> rules) const;

  /// RepublishShards over every shard.
  void RepublishAll();

  /// The classification engine behind Classify(ClassifyRequest): one
  /// pinned snapshot, one pass per item chunk, full accounting. Factored
  /// out so the public entry point is exactly admission (deadline /
  /// durability checks) + this.
  BatchReport RunBatch(std::span<const data::ProductItem> items,
                       const rules::TenantId& tenant) const;

  /// Composes a snapshot from shard_cache_ + writer state and swaps it
  /// in. Caller holds state_mu_.
  void ComposeAndSwapLocked();

  /// Composes one tenant's serving view ("" = the default view) from
  /// shard_cache_ + writer state. Caller holds state_mu_.
  PipelineSnapshot::TenantView ComposeViewLocked(
      const std::string& tenant) const;

  std::shared_ptr<const PipelineSnapshot> CurrentSnapshot() const;

  /// One full train-and-publish cycle (the historical RetrainLearning
  /// body) for one tenant, executed on the trainer thread. Copies the
  /// tenant's data under state_mu_, trains outside all locks, installs +
  /// publishes under state_mu_, then syncs the durable store so a
  /// journaling failure is surfaced in the report instead of swallowed.
  RetrainReport RetrainNow(const std::string& tenant);

  PipelineConfig config_;
  /// Owns the repository when storage is enabled; its journal hook stays
  /// installed for the repository's whole life, so it is declared before
  /// repo_ (destroyed after it).
  std::unique_ptr<storage::DurableRuleStore> store_;
  Status storage_status_;
  std::shared_ptr<rules::RuleRepository> repo_;
  GateKeeper gate_;
  /// Null when disabled. Per-tenant partitions, each internally
  /// synchronized (striped mutexes); entries self-invalidate against the
  /// serving view's tag, so no writer path ever touches them.
  std::unique_ptr<engine::TenantCacheSet> caches_;

  /// One non-default tenant's writer-side learning/suppression state
  /// (guarded by state_mu_ with the rest). The default tenant's lives in
  /// the historical members below — unchanged layout, unchanged
  /// single-tenant behaviour.
  struct TenantRuntime {
    std::vector<data::LabeledItem> training_data;
    std::shared_ptr<ml::EnsembleClassifier> ensemble;  // null until trained
    std::unordered_set<std::string> suppressed;
    uint64_t semantic_gen = 0;
  };

  /// Guards the writer-side composition state below (NOT the repository —
  /// shard mutations serialize inside RuleRepository per shard).
  mutable std::mutex state_mu_;
  std::vector<std::shared_ptr<const ShardServing>> shard_cache_;
  std::map<std::string, TenantRuntime> tenant_runtime_;  // non-default only
  std::unordered_set<std::string> suppressed_;
  std::vector<data::LabeledItem> training_data_;
  std::shared_ptr<ml::EnsembleClassifier> ensemble_;  // null until trained
  uint64_t version_ = 0;
  /// Bumped (under state_mu_) on every suppression edit and ensemble
  /// install; composed into every view's tag.
  uint64_t semantic_gen_ = 0;

  /// The published snapshot; guarded by snapshot_mu_ (pointer swap only).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const PipelineSnapshot> snapshot_;

  /// Shared worker pool for batch serving (null when sequential).
  std::unique_ptr<ThreadPool> pool_;

  /// The background trainer. Declared LAST so it is destroyed FIRST:
  /// its destructor drains/abandons all training work while every other
  /// member (repo, store, caches, pool) is still alive, and nothing can
  /// publish once it returns.
  std::unique_ptr<BackgroundTrainer> trainer_;
};

}  // namespace rulekit::chimera

#endif  // RULEKIT_CHIMERA_PIPELINE_H_
