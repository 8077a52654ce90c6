#include "perfbench/src/probes.h"

#include <atomic>

#include "perfbench/src/bench.h"
#include "src/common/thread_pool.h"
#include "src/engine/rule_classifier.h"
#include "src/regex/regex.h"
#include "src/rules/repository.h"
#include "src/serving/wire.h"
#include "src/storage/codec.h"
#include "src/storage/wal.h"

namespace perfbench {

namespace rules = rulekit::rules;

double ParallelForUs(size_t threads, size_t n) {
  rulekit::ThreadPool pool(threads);
  std::atomic<size_t> sink{0};
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto start = Clock::now();
    pool.ParallelFor(n, [&](size_t begin, size_t end) {
      sink.fetch_add(end - begin, std::memory_order_relaxed);
    });
    us.push_back(SecondsSince(start) * 1e6);
  }
  return Median(us);
}

double CodecNsPerRequest(const std::vector<rulekit::data::ProductItem>& items) {
  namespace serving = rulekit::serving;
  std::vector<double> ns;
  size_t sink = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const auto start = Clock::now();
    serving::WireClassifyRequest request;
    request.request_id = i;
    request.items.push_back(items[i]);
    rulekit::Encoder enc;
    serving::EncodeRequestPayload(request, enc);
    auto decoded = serving::DecodeRequestPayload(enc.data());
    serving::WireClassifyResponse response;
    response.request_id = i;
    response.total = 1;
    response.classified = 1;
    response.predictions.push_back(items[i].title);
    rulekit::Encoder renc;
    serving::EncodeResponsePayload(response, renc);
    auto back = serving::DecodeResponsePayload(renc.data());
    sink += decoded.ok() + back.ok();
    ns.push_back(SecondsSince(start) * 1e9);
  }
  volatile size_t keep = sink;
  (void)keep;
  return Median(ns);
}

double RegexCompileUsPerRule(const std::vector<rules::Rule>& rule_list) {
  size_t compiled = 0;
  const auto start = Clock::now();
  for (const rules::Rule& rule : rule_list) {
    if (rule.pattern_text().empty()) continue;
    compiled += rulekit::regex::Regex::CompileCaseFolded(
                    rules::Rule::NormalizePattern(rule.pattern_text()))
                    .ok();
  }
  const double seconds = SecondsSince(start);
  return compiled == 0 ? 0.0 : seconds * 1e6 / double(compiled);
}

CommitCosts MeasureCommits(const std::vector<rules::Rule>& base, size_t shards,
                           const std::string& type, const std::string& dir) {
  CommitCosts costs;
  rules::RuleRepository repo(shards);
  {
    auto txn = repo.Begin("probe");
    for (const rules::Rule& rule : base) (void)txn.Add(rule);
    (void)txn.Commit();
  }
  std::vector<std::string> payloads;
  repo.SetJournal([&](const rules::CommitRecord& record) {
    rulekit::Encoder enc;
    rulekit::storage::EncodeCommitRecord(record, enc);
    payloads.push_back(enc.Release());
    return rulekit::Status::OK();
  });
  std::vector<double> commit_us;
  for (int i = 0; i < 40; ++i) {
    const std::string id = "probe-commit-" + std::to_string(i / 2);
    const auto start = Clock::now();
    auto txn = repo.Begin("probe");
    if (i % 2 == 0) {
      auto rule = rules::Rule::Whitelist(id, "zqcommit" + std::to_string(i), type);
      if (rule.ok()) (void)txn.Add(std::move(rule).value());
    } else {
      (void)txn.Retire(rules::RuleId(id), "probe");
    }
    (void)txn.Commit();
    commit_us.push_back(SecondsSince(start) * 1e6);
  }
  costs.commit_us = Median(commit_us);

  auto wal = rulekit::storage::WriteAheadLog::Open(
      FreshDir(dir) + "/wal-probe", rulekit::storage::FsyncPolicy::kEveryCommit);
  if (!wal.ok()) return costs;
  std::vector<double> append_us;
  for (const std::string& payload : payloads) {
    const auto start = Clock::now();
    (void)wal->Append(payload);
    append_us.push_back(SecondsSince(start) * 1e6);
  }
  wal->Close();
  RemoveDir(dir);
  costs.wal_append_us = Median(append_us);
  return costs;
}

double ShardBuildMs(const rulekit::chimera::ChimeraPipeline& pipeline,
                    const std::vector<std::string>& types) {
  const rules::RuleRepository& repo = pipeline.repository();
  std::vector<double> ms;
  for (const std::string& type : types) {
    auto snap = repo.ShardSnapshotOf(repo.KeyForType(type));
    const auto start = Clock::now();
    rulekit::engine::RuleBasedClassifier classifier(
        snap.rules, rulekit::engine::RuleClassifierOptions{
                        .use_index = true,
                        .index_sample = pipeline.config().index_sample_titles});
    rulekit::engine::AttrValueClassifier attrs(snap.rules);
    rulekit::chimera::Filter filter(snap.rules);
    ms.push_back(SecondsSince(start) * 1e3);
  }
  return Median(ms);
}

}  // namespace perfbench
