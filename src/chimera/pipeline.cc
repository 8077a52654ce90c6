#include "src/chimera/pipeline.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <mutex>
#include <set>
#include <span>

#include "src/common/hash.h"
#include "src/common/string_util.h"

namespace rulekit::chimera {

namespace {

/// Adds one chunk's counters into the batch report (RunBatch writes
/// predictions in place and counts cache records itself).
void AddCounters(const BatchReport& part, BatchReport* into) {
  into->gate_classified += part.gate_classified;
  into->gate_rejected += part.gate_rejected;
  into->classified += part.classified;
  into->filtered += part.filtered;
  into->suppressed += part.suppressed;
  into->declined += part.declined;
  into->cache_hits += part.cache_hits;
  into->cache_misses += part.cache_misses;
  into->cache_stale_drops += part.cache_stale_drops;
  into->rules_executed += part.rules_executed;
  into->rule_items += part.rule_items;
}

}  // namespace

ChimeraPipeline::ChimeraPipeline(PipelineConfig config)
    : config_(std::move(config)) {
  const size_t shards = config_.rule_shards == 0 ? 1 : config_.rule_shards;
  if (config_.hot_cache.enabled && config_.hot_cache.capacity > 0) {
    caches_ = std::make_unique<engine::TenantCacheSet>(config_.hot_cache);
    for (const auto& [tenant, overrides] : config_.tenants) {
      if (overrides.hot_cache.has_value()) {
        caches_->SetConfig(tenant, *overrides.hot_cache);
      }
    }
  }
  if (!config_.storage_dir.empty()) {
    storage::StoreOptions opts = config_.storage;
    opts.shard_count = shards;
    auto store = storage::DurableRuleStore::Open(config_.storage_dir, opts);
    if (store.ok()) {
      store_ = std::move(store).value();
      repo_ = store_->repository();
    } else {
      storage_status_ = store.status();  // serve in-memory, surface why
    }
  }
  if (repo_ == nullptr) {
    repo_ = std::make_shared<rules::RuleRepository>(shards);
  }
  if (config_.batch_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.batch_threads);
  }
  shard_cache_.resize(repo_->shard_count());
  RepublishAll();
  // Started last: the thread's run function touches the members above.
  std::map<std::string, RetrainPolicy> tenant_policies;
  for (const auto& [tenant, overrides] : config_.tenants) {
    if (overrides.retrain.has_value()) {
      tenant_policies[tenant] = *overrides.retrain;
    }
  }
  trainer_ = std::make_unique<BackgroundTrainer>(
      config_.retrain,
      [this](const std::string& tenant, size_t) { return RetrainNow(tenant); },
      std::move(tenant_policies));
}

ChimeraPipeline::~ChimeraPipeline() {
  // Explicit for emphasis (member order already guarantees it): stop the
  // trainer before any other member dies. An in-flight run completes its
  // publish; a queued run is abandoned — nothing trains or publishes
  // after this line.
  trainer_.reset();
}

ShardServing::TenantPartition ChimeraPipeline::BuildPartition(
    std::shared_ptr<const rules::RuleSet> rules) const {
  ShardServing::TenantPartition partition;
  partition.rule_classifier = std::make_shared<engine::RuleBasedClassifier>(
      rules, engine::RuleClassifierOptions{
                 .index_sample = config_.index_sample_titles});
  partition.attr_classifier =
      std::make_shared<engine::AttrValueClassifier>(rules);
  partition.filter = std::make_shared<Filter>(std::move(rules));
  return partition;
}

void ChimeraPipeline::RepublishShards(
    const std::vector<rules::ShardKey>& dirty) {
  // Rebuild stale shards outside every pipeline lock: the index build is
  // the expensive part, and two writers refreshing disjoint shards must
  // be able to run it concurrently.
  std::vector<std::shared_ptr<const ShardServing>> built;
  for (rules::ShardKey key : dirty) {
    uint64_t cached_version = 0;
    bool have_cached = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      const auto& slot = shard_cache_[key.index()];
      if (slot != nullptr) {
        have_cached = true;
        cached_version = slot->rule_version;
      }
    }
    rules::ShardSnapshot shard_snap = repo_->ShardSnapshotOf(key);
    if (have_cached && cached_version >= shard_snap.version) continue;
    if (config_.publish_probe) config_.publish_probe(key.index());
    auto serving = std::make_shared<ShardServing>();
    serving->shard_index = key.index();
    serving->rule_version = shard_snap.version;
    serving->tenant_versions = shard_snap.tenant_versions;
    // Partition the shard's rules by owning tenant. The common case — no
    // foreign-tenant rules — reuses the pinned set wholesale, so
    // single-tenant serving builds exactly what it always built.
    std::shared_ptr<const rules::RuleSet> shared_rules = shard_snap.rules;
    std::map<std::string, std::shared_ptr<rules::RuleSet>> tenant_sets;
    const auto& all = shard_snap.rules->rules();
    if (std::any_of(all.begin(), all.end(), [](const rules::Rule& rule) {
          return !rule.metadata().tenant.empty();
        })) {
      auto defaults = std::make_shared<rules::RuleSet>();
      for (const rules::Rule& rule : all) {
        const std::string& owner = rule.metadata().tenant;
        auto& set = owner.empty() ? defaults : tenant_sets[owner];
        if (set == nullptr) set = std::make_shared<rules::RuleSet>();
        (void)set->Add(rule);
      }
      shared_rules = std::move(defaults);
    }
    serving->shared = BuildPartition(std::move(shared_rules));
    for (auto& [tenant, set] : tenant_sets) {
      serving->tenants.emplace(tenant, BuildPartition(std::move(set)));
    }
    built.push_back(std::move(serving));
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  for (auto& serving : built) {
    auto& slot = shard_cache_[serving->shard_index];
    // A concurrent writer may have installed a newer build; never regress.
    if (slot == nullptr || serving->rule_version > slot->rule_version) {
      slot = std::move(serving);
    }
  }
  ComposeAndSwapLocked();
}

void ChimeraPipeline::RepublishAll() {
  std::vector<rules::ShardKey> all;
  all.reserve(repo_->shard_count());
  for (size_t i = 0; i < repo_->shard_count(); ++i) {
    all.push_back(rules::ShardKey(static_cast<uint32_t>(i)));
  }
  RepublishShards(all);
}

void ChimeraPipeline::ComposeAndSwapLocked() {
  auto snap = std::make_shared<PipelineSnapshot>();
  snap->default_view = ComposeViewLocked({});
  // One view per tenant with rules or runtime state.
  std::set<std::string> view_tenants;
  for (const auto& [tenant, runtime] : tenant_runtime_) {
    view_tenants.insert(tenant);
  }
  for (const auto& serving : shard_cache_) {
    for (const auto& [tenant, partition] : serving->tenants) {
      view_tenants.insert(tenant);
    }
  }
  for (const std::string& tenant : view_tenants) {
    snap->tenant_views.emplace(tenant, ComposeViewLocked(tenant));
  }
  snap->version = ++version_;

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

PipelineSnapshot::TenantView ChimeraPipeline::ComposeViewLocked(
    const std::string& tenant) const {
  const auto tenant_version_of = [](const ShardServing& serving,
                                    const std::string& owner) -> uint64_t {
    auto it = serving.tenant_versions.find(owner);
    return it == serving.tenant_versions.end() ? 0 : it->second;
  };

  // Every shard's shared build first, then the tenant's own partitions;
  // classifier and filter share one positional order, so the batch
  // executors' per-shard results line up. The default tenant owns no
  // partitions, so its view is the shared builds alone.
  std::vector<std::shared_ptr<const engine::RuleBasedClassifier>> rule_parts;
  std::vector<std::shared_ptr<const engine::AttrValueClassifier>> attr_parts;
  std::vector<std::shared_ptr<const Filter>> filter_parts;
  uint64_t fingerprint = 0;
  for (const auto& serving : shard_cache_) {
    rule_parts.push_back(serving->shared.rule_classifier);
    attr_parts.push_back(serving->shared.attr_classifier);
    filter_parts.push_back(serving->shared.filter);
    // Order-sensitive: shard index is implicit in iteration order, so
    // distinct per-shard version vectors get distinct fingerprints. The
    // default view hashes the "" counters — identical to the shard
    // versions in single-tenant histories, but insensitive to foreign
    // tenants' commits. A tenant view pairs the shared counter with its
    // own: a shared-rule commit re-tags every view, a tenant-rule commit
    // re-tags only that tenant's.
    fingerprint = HashCombine(fingerprint, tenant_version_of(*serving, {}));
    if (!tenant.empty()) {
      fingerprint =
          HashCombine(fingerprint, tenant_version_of(*serving, tenant));
    }
  }
  for (const auto& serving : shard_cache_) {
    auto it = serving->tenants.find(tenant);
    if (it == serving->tenants.end()) continue;
    rule_parts.push_back(it->second.rule_classifier);
    attr_parts.push_back(it->second.attr_classifier);
    filter_parts.push_back(it->second.filter);
  }

  PipelineSnapshot::TenantView view;
  view.rule_classifier = std::make_shared<engine::ShardedRuleClassifier>(
      std::move(rule_parts));
  view.filter = std::make_shared<ShardedFilter>(std::move(filter_parts));
  view.suppressed = suppressed_;
  std::shared_ptr<ml::EnsembleClassifier> ensemble = ensemble_;
  uint64_t semantic = semantic_gen_;
  if (!tenant.empty()) {
    uint64_t tenant_gen = 0;
    auto rt = tenant_runtime_.find(tenant);
    if (rt != tenant_runtime_.end()) {
      if (rt->second.ensemble != nullptr) ensemble = rt->second.ensemble;
      view.suppressed.insert(rt->second.suppressed.begin(),
                             rt->second.suppressed.end());
      tenant_gen = rt->second.semantic_gen;
    }
    semantic = HashCombine(semantic_gen_, tenant_gen);
  }
  view.tag = {fingerprint, semantic};

  auto voting = std::make_shared<VotingMaster>(config_.voting);
  if (config_.use_rules) {
    voting->AddMember(view.rule_classifier, config_.rule_weight);
    voting->AddMember(std::make_shared<engine::ShardedAttrValueClassifier>(
                          std::move(attr_parts)),
                      config_.attr_weight);
  }
  if (config_.use_learning && ensemble != nullptr) {
    voting->AddMember(std::move(ensemble), config_.learning_weight);
  }
  view.voting = std::move(voting);
  return view;
}

std::shared_ptr<const PipelineSnapshot> ChimeraPipeline::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t ChimeraPipeline::snapshot_version() const {
  return CurrentSnapshot()->version;
}

Status ChimeraPipeline::AddRules(std::vector<rules::Rule> new_rules,
                                 std::string_view author,
                                 const rules::TenantId& tenant) {
  rules::RuleTransaction txn = repo_->Begin(author, tenant);
  for (auto& rule : new_rules) {
    (void)txn.Add(std::move(rule));
  }
  Status status = txn.Commit();
  // Publish whatever made it in, even on failure part-way through.
  RepublishShards(txn.touched());
  return status;
}

Status ChimeraPipeline::Mutate(
    std::string_view author,
    const std::function<Status(rules::RuleTransaction&)>& fn,
    const rules::TenantId& tenant) {
  rules::RuleTransaction txn = repo_->Begin(author, tenant);
  Status status = fn(txn);
  if (!status.ok()) return status;  // nothing applied, nothing published
  status = txn.Commit();
  RepublishShards(txn.touched());
  return status;
}

Result<uint64_t> ChimeraPipeline::Checkpoint(std::string_view author) {
  return repo_->Checkpoint(author);
}

Status ChimeraPipeline::RestoreCheckpoint(uint64_t version,
                                          std::string_view author) {
  RULEKIT_RETURN_IF_ERROR(repo_->RestoreCheckpoint(version, author));
  RepublishAll();
  return Status::OK();
}

void ChimeraPipeline::AddTrainingData(std::vector<data::LabeledItem> labeled,
                                      const rules::TenantId& tenant) {
  size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    std::vector<data::LabeledItem>& pool =
        tenant.is_default() ? training_data_
                            : tenant_runtime_[tenant.value()].training_data;
    pool.insert(pool.end(), std::make_move_iterator(labeled.begin()),
                std::make_move_iterator(labeled.end()));
    total = pool.size();
  }
  // Outside state_mu_: the trainer's and the pipeline's lock domains
  // never nest (see trainer.h). Null only during construction.
  if (trainer_ != nullptr) trainer_->NotifyDataSize(tenant.value(), total);
}

size_t ChimeraPipeline::training_size(const rules::TenantId& tenant) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (tenant.is_default()) return training_data_.size();
  auto it = tenant_runtime_.find(tenant.value());
  return it == tenant_runtime_.end() ? 0 : it->second.training_data.size();
}

std::shared_future<RetrainReport> ChimeraPipeline::RequestRetrain(
    const rules::TenantId& tenant, bool urgent) {
  return trainer_->Request(tenant.value(), urgent);
}

void ChimeraPipeline::RetrainLearning(const rules::TenantId& tenant) {
  RequestRetrain(tenant).wait();
}

RetrainReport ChimeraPipeline::RetrainNow(const std::string& tenant) {
  // Train against a copied data snapshot, outside every pipeline lock:
  // rule writers and readers proceed while the learners fit. Fresh
  // extractor + learners are the simplest correct retraining story
  // (incremental learners accumulate state across Train calls). Serving
  // keeps voting with the previous ensemble until the publish below.
  RetrainReport report;
  const auto started = std::chrono::steady_clock::now();
  std::vector<data::LabeledItem> data;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (tenant.empty()) {
      data = training_data_;
    } else {
      auto it = tenant_runtime_.find(tenant);
      if (it != tenant_runtime_.end()) data = it->second.training_data;
    }
  }
  if (data.empty()) {
    report.outcome = RetrainReport::Outcome::kNoTrainingData;
    return report;
  }
  report.trained_on = data.size();
  if (config_.retrain.train_probe) config_.retrain.train_probe();
  auto features = std::make_shared<ml::FeatureExtractor>();
  auto nb = std::make_shared<ml::NaiveBayesClassifier>(features);
  nb->Train(data);
  auto knn = std::make_shared<ml::KnnClassifier>(features, 7);
  knn->Train(data);
  auto logreg = std::make_shared<ml::LogRegClassifier>(features);
  logreg->Train(data);
  auto ensemble = std::make_shared<ml::EnsembleClassifier>();
  ensemble->AddMember(std::move(nb));
  ensemble->AddMember(std::move(knn));
  ensemble->AddMember(std::move(logreg));

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (tenant.empty()) {
      ensemble_ = std::move(ensemble);
      ++semantic_gen_;  // new ensemble => cached voting winners are stale
      report.publish_generation = semantic_gen_;
    } else {
      TenantRuntime& runtime = tenant_runtime_[tenant];
      runtime.ensemble = std::move(ensemble);
      ++runtime.semantic_gen;  // re-tags only this tenant's cached winners
      report.publish_generation = runtime.semantic_gen;
    }
    ComposeAndSwapLocked();
  }
  report.published = true;
  report.outcome = RetrainReport::Outcome::kPublished;
  if (store_ != nullptr) {
    // The new ensemble was trained against the rule state the journal
    // should already hold; flush the WAL so a severed or failing journal
    // is surfaced in the report rather than swallowed. The publish above
    // stands either way (in-memory serving is the emergency lever — same
    // semantics as ScaleDownType's journal failures).
    report.status = store_->Sync();
  }
  report.duration_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  return report;
}

uint64_t ChimeraPipeline::semantic_generation() const {
  return CurrentSnapshot()->default_view.tag.semantic_generation;
}

Status ChimeraPipeline::ScaleDownType(const std::string& type,
                                      std::string_view author,
                                      std::string_view reason,
                                      const rules::TenantId& tenant) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Even a scale-down that disables no rules (so no shard version
    // moves) must invalidate cached winners of the suppressed type. The
    // default tenant's suppression applies to every view (emergency
    // lever); a tenant's applies to its own view only.
    if (tenant.is_default()) {
      suppressed_.insert(type);
      ++semantic_gen_;
    } else {
      TenantRuntime& runtime = tenant_runtime_[tenant.value()];
      runtime.suppressed.insert(type);
      ++runtime.semantic_gen;
    }
  }
  auto disabled = repo_->DisableRulesForType(type, author, reason, tenant);
  if (!disabled.ok()) {
    // The disables applied and bumped their shards but (some) could not
    // be journaled; the touched set is unknown, so republish everything
    // and surface the durability failure to the operator.
    RepublishAll();
    return disabled.status();
  }
  std::vector<rules::ShardKey> touched;
  for (const rules::RuleId& id : *disabled) {
    auto shard = repo_->ShardOfRule(id);
    if (!shard.ok()) continue;
    if (std::find(touched.begin(), touched.end(), *shard) == touched.end()) {
      touched.push_back(*shard);
    }
  }
  RepublishShards(touched);  // composes the suppression in even if empty
  return Status::OK();
}

void ChimeraPipeline::ScaleUpType(const std::string& type,
                                  const rules::TenantId& tenant) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (tenant.is_default()) {
    suppressed_.erase(type);
    ++semantic_gen_;
  } else {
    TenantRuntime& runtime = tenant_runtime_[tenant.value()];
    runtime.suppressed.erase(type);
    ++runtime.semantic_gen;
  }
  ComposeAndSwapLocked();
}

void ChimeraPipeline::Memoize(const std::string& title,
                              const std::string& type) {
  gate_.Memoize(title, type);
}

void ChimeraPipeline::MemoizeAll(
    std::span<const std::pair<std::string, std::string>> pairs) {
  gate_.MemoizeAll(pairs);
}

std::vector<std::string> ChimeraPipeline::Tenants() const {
  std::set<std::string> all;
  all.insert(std::string());  // the default tenant always exists
  for (const rules::TenantId& tenant : repo_->Tenants()) {
    all.insert(tenant.value());
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& [tenant, runtime] : tenant_runtime_) all.insert(tenant);
  }
  if (caches_ != nullptr) {
    for (const std::string& tenant : caches_->ActiveTenants()) {
      all.insert(tenant);
    }
  }
  return {all.begin(), all.end()};  // std::set order: "" sorts first
}

ClassifyResponse ChimeraPipeline::Classify(
    const ClassifyRequest& request) const {
  ClassifyResponse response;
  response.report.total = request.items.size();
  response.report.predictions.assign(request.items.size(), std::nullopt);
  if (request.options.require_durable && !durable()) {
    response.status = Status::Unavailable(
        config_.storage_dir.empty()
            ? "require_durable on an in-memory pipeline (no storage_dir)"
            : "durable journal severed; serving in-memory only");
    return response;
  }
  if (request.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    response.status =
        Status::DeadlineExceeded("deadline passed before classification");
    return response;
  }
  response.report = RunBatch(request.items, request.tenant);
  return response;
}

Status ChimeraPipeline::ApplyReplicated(const rules::CommitRecord& record) {
  return ApplyReplicated(std::span(&record, 1));
}

Status ChimeraPipeline::ApplyReplicated(
    std::span<const rules::CommitRecord> records) {
  if (records.empty()) return Status::OK();
  // Like Mutate, the repository is internally synchronized — no pipeline
  // lock wraps the applies. Replay never fires the journal hook, so a
  // follower with its own mirror WAL never double-writes what the
  // primary already made durable.
  for (const rules::CommitRecord& record : records) {
    RULEKIT_RETURN_IF_ERROR(repo_->Replay(record));
  }
  // One publish for the whole batch: a follower catching up applies at
  // shipping speed, not at snapshot-composition speed.
  RepublishAll();
  return Status::OK();
}

BatchReport ChimeraPipeline::RunBatch(
    std::span<const data::ProductItem> items,
    const rules::TenantId& tenant) const {
  // Pin one snapshot (and one memo version) for the whole batch: writers
  // may publish new versions while we run, but this batch is classified
  // entirely against the state it started with — every shard at the
  // version the snapshot pinned.
  auto snap = CurrentSnapshot();
  auto memo = gate_.snapshot();
  // Resolve the tenant's serving view once for the whole batch (see
  // Classify); a tenant without one serves the default view.
  const PipelineSnapshot::TenantView& view = snap->ViewFor(tenant.value());
  const engine::ShardedRuleClassifier& rule_classifier =
      *view.rule_classifier;
  engine::HotResultCache* cache =
      caches_ == nullptr ? nullptr : &caches_->For(tenant.value());

  BatchReport report;
  report.total = items.size();
  report.predictions.assign(items.size(), std::nullopt);

  // One pass per chunk: each chunk takes its own items through gate,
  // cache probe, rule match, scoring, voting and filter. Predictions are
  // written by item index; counters are per-chunk sums merged once, so
  // the result is identical to the sequential path whatever the chunking.
  std::mutex merge_mu;
  std::vector<std::pair<size_t, std::string>> winners;  // (item, cache key)
  ParallelFor(pool_.get(), items.size(), [&](size_t begin, size_t end) {
    BatchReport part;
    std::vector<const data::ProductItem*> pass;
    std::vector<size_t> pass_idx;
    std::vector<std::string> pass_keys;
    for (size_t i = begin; i < end; ++i) {
      // The lowered title is both the gate's input and the cache key.
      std::string low = ToLowerAscii(items[i].title);
      GateDecision d = GateKeeper::DecideLowered(*memo, items[i], low);
      if (d.kind == GateDecision::Kind::kRejected) {
        ++part.gate_rejected;
        continue;
      }
      if (d.kind == GateDecision::Kind::kClassified) {
        if (view.suppressed.count(d.type)) {
          ++part.suppressed;
        } else {
          ++part.gate_classified;
          report.predictions[i] = std::move(d.type);
        }
        continue;
      }
      if (cache != nullptr) {
        // A hit is a voting winner from an earlier batch under the same
        // version tag, so it is served exactly as voting would serve it.
        engine::CacheLookup cached = cache->Lookup(low, view.tag);
        if (cached.hit) {
          ++part.cache_hits;
          ++part.classified;
          report.predictions[i] = std::move(cached.type);
          continue;
        }
        ++part.cache_misses;
        if (cached.stale_dropped) ++part.cache_stale_drops;
        pass_keys.push_back(std::move(low));
      }
      pass_idx.push_back(i);
      pass.push_back(&items[i]);
    }

    std::vector<std::pair<size_t, std::string>> admitted;
    if (!pass.empty()) {
      // Regex rules run once per item; the matches feed both the rule
      // member's vote and the Filter.
      engine::ShardedExecution exec = rule_classifier.MatchBatch(pass, nullptr);
      part.rules_executed = exec.total_evaluations();
      part.rule_items = pass.size();
      std::vector<std::vector<ml::ScoredLabel>> rule_scored;
      const ml::Classifier* precomputed = nullptr;
      if (config_.use_rules) {
        rule_scored.reserve(pass.size());
        for (size_t j = 0; j < pass.size(); ++j) {
          rule_scored.push_back(rule_classifier.ScoreMatches(exec, j));
        }
        precomputed = &rule_classifier;
      }
      auto votes =
          view.voting->VoteBatch(pass, nullptr, precomputed, &rule_scored);
      for (size_t j = 0; j < pass.size(); ++j) {
        if (!votes[j].has_value()) {
          ++part.declined;
          continue;
        }
        const std::string& label = votes[j]->label;
        if (view.suppressed.count(label)) {
          ++part.suppressed;
          continue;
        }
        if (!view.filter->AdmitWithMatches(*pass[j], label, exec, j)) {
          ++part.filtered;
          continue;
        }
        ++part.classified;
        report.predictions[pass_idx[j]] = label;
        if (cache != nullptr) {
          admitted.emplace_back(pass_idx[j], std::move(pass_keys[j]));
        }
      }
    }

    std::lock_guard<std::mutex> lock(merge_mu);
    AddCounters(part, &report);
    winners.insert(winners.end(), std::make_move_iterator(admitted.begin()),
                   std::make_move_iterator(admitted.end()));
  });

  // Offer the confident winners to the cache only after every chunk's
  // lookups, in item order on this thread: no lookup in this batch sees a
  // winner recorded by the same batch (cache-on output stays identical to
  // cache-off), and the cache sees one record order whatever the chunking.
  if (cache != nullptr) {
    std::sort(winners.begin(), winners.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [i, key] : winners) {
      engine::CacheRecord rec =
          cache->Record(key, *report.predictions[i], view.tag);
      report.cache_promotions += rec.admitted;
      report.cache_evictions += rec.evicted;
    }
  }
  return report;
}

}  // namespace rulekit::chimera
