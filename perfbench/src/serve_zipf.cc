// serve_zipf: a RuleServer on loopback in front of a rules-only pipeline
// (analyst rules, 8 shards, inline, hot cache on). Closed-loop clients
// send single-item requests drawn Zipf over a title pool, each waiting
// for its reply; an analyst connection sends one edit frame at a fixed
// pace, alternately adding and retiring a probe rule. Every request is
// tiny, so wire codecs, admission, the coalescing queue, dispatch, the
// gate and cache probe and write-back do the work.
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "perfbench/src/bench.h"
#include "perfbench/src/fixtures.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/staged.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/data/catalog_generator.h"
#include "src/serving/client.h"
#include "src/serving/server.h"

namespace perfbench {

namespace chimera = rulekit::chimera;
namespace data = rulekit::data;
namespace serving = rulekit::serving;

namespace {

constexpr size_t kTypes = 48;
constexpr size_t kPoolItems = 2000;
constexpr size_t kWorldPool = 8000;
constexpr double kZipfSkew = 1.2;
constexpr size_t kMaxClients = 3;
constexpr auto kEditPeriod = std::chrono::milliseconds(250);
constexpr int kSetups = 15;
constexpr size_t kStagedRequests = 3000;
constexpr double kOpenLoopRate = 250;  // requests/s, "open_loop" variant

/// One closed-loop client's record: pool index and served prediction of
/// each request, and its latency.
struct ClientLog {
  std::vector<size_t> index;
  std::vector<std::optional<std::string>> prediction;
  Timeline timeline;
  bool ids_ok = true, codes_ok = true, connected = true;
};

void RunClient(uint16_t port, const LabeledFeed& pool, uint64_t seed,
               uint32_t client, Clock::time_point begin, Clock::time_point end,
               const Args& args, ClientLog& log) {
  auto conn = serving::RuleClient::Connect(port);
  if (!conn.ok()) {
    log.connected = false;
    return;
  }
  rulekit::Rng rng(seed * 7919 + client);
  for (uint64_t seq = 0; Clock::now() < end; ++seq) {
    const size_t idx = rng.Zipf(pool.items.size(), kZipfSkew);
    serving::WireClassifyRequest request;
    request.request_id = (uint64_t(client) << 32) | seq;
    request.items.push_back(pool.items[idx]);
    const auto start = Clock::now();
    auto response = [&] {
      ScopedSpan span("serving.call");
      return conn->Call(request);
    }();
    const double us = SecondsSince(start) * 1e6;
    log.timeline.Add(SecondsSince(begin), us, 1);
    if (!response.ok()) {
      log.connected = false;
      return;
    }
    if (args.inject == "response_id" && client == 0 && seq == 0) {
      response->request_id += 1;
    }
    log.ids_ok = log.ids_ok && response->request_id == request.request_id;
    log.codes_ok = log.codes_ok && response->code == serving::WireCode::kOk &&
                   response->predictions.size() == 1;
    log.index.push_back(idx);
    log.prediction.push_back(response->predictions.empty()
                                 ? std::nullopt
                                 : response->predictions[0]);
  }
}

/// Reference-figure variant: one connection sending at a fixed rate
/// whatever the replies, each request timed from when it was due.
void RunOpenLoop(uint16_t port, const LabeledFeed& pool, uint64_t seed,
                 Clock::time_point begin, Clock::time_point end,
                 ClientLog& log) {
  auto conn = serving::RuleClient::Connect(port);
  if (!conn.ok()) {
    log.connected = false;
    return;
  }
  std::mutex mu;
  std::unordered_map<uint64_t, std::pair<Clock::time_point, size_t>> due;
  std::thread receiver([&] {
    for (;;) {
      auto response = conn->Receive();
      if (!response.ok()) return;  // EOF once the last reply is in
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      auto it = due.find(response->request_id);
      log.ids_ok = log.ids_ok && it != due.end();
      if (it == due.end()) continue;
      log.codes_ok = log.codes_ok && response->code == serving::WireCode::kOk &&
                     response->predictions.size() == 1;
      log.index.push_back(it->second.second);
      log.prediction.push_back(response->predictions.empty()
                                   ? std::nullopt
                                   : response->predictions[0]);
      log.timeline.Add(
          std::chrono::duration<double>(now - begin).count(),
          std::chrono::duration<double, std::micro>(now - it->second.first)
              .count(),
          1);
      due.erase(it);
    }
  });
  rulekit::Rng rng(seed * 7919);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopRate));
  const auto start = Clock::now();
  for (uint64_t seq = 0;; ++seq) {
    const auto when = start + int64_t(seq) * period;
    if (when >= end) break;
    std::this_thread::sleep_until(when);
    serving::WireClassifyRequest request;
    request.request_id = seq;
    const size_t idx = rng.Zipf(pool.items.size(), kZipfSkew);
    request.items.push_back(pool.items[idx]);
    {
      std::lock_guard<std::mutex> lock(mu);
      due[seq] = {when, idx};
    }
    if (!conn->Send(request).ok()) {
      log.connected = false;
      break;
    }
  }
  conn->FinishSending();
  receiver.join();
  log.connected = log.connected && due.empty();
}

/// The analyst connection: one edit frame per period, alternately adding
/// a rule (on the next of `types`) that alone matches a probe title and
/// retiring it; after each acknowledged edit the next request probes the
/// title. Stops after a
/// retire once the run is over, so the rule state ends as it began.
struct EditorLog {
  std::vector<double> edit_us;
  bool edits_ok = true, visible = true, connected = true;
};

void RunEditor(uint16_t port, const std::vector<std::string>& types,
               uint64_t seed, Clock::time_point end, EditorLog& log) {
  auto conn = serving::RuleClient::Connect(port);
  if (!conn.ok()) {
    log.connected = false;
    return;
  }
  auto next = Clock::now();
  for (uint64_t k = 0; k % 2 == 1 || Clock::now() < end; ++k) {
    std::this_thread::sleep_until(next);
    next += kEditPeriod;
    const std::string n = std::to_string(k / 2);
    const std::string& type = types[(k / 2) % types.size()];
    const std::string id = "pb-" + std::to_string(seed) + "-" + n;
    const std::string token = "zqprobe" + n;
    serving::WireRuleEditRequest edit;
    edit.request_id = k;
    edit.author = "perfbench";
    if (k % 2 == 0) {
      edit.op = serving::EditOp::kAddRules;
      edit.rule_dsl = "whitelist " + id + ": " + token + " => " + type;
    } else {
      edit.op = serving::EditOp::kRetire;
      edit.rule_id = id;
      edit.detail = "perfbench edit";
    }
    const auto start = Clock::now();
    auto ack = [&] {
      ScopedSpan span("serving.call_edit");
      return conn->CallEdit(edit);
    }();
    log.edit_us.push_back(SecondsSince(start) * 1e6);
    if (!ack.ok()) {
      log.connected = false;
      return;
    }
    log.edits_ok = log.edits_ok && ack->code == serving::WireCode::kOk &&
                   ack->request_id == k;
    serving::WireClassifyRequest probe;
    probe.request_id = (uint64_t(1) << 40) | k;
    data::ProductItem item;
    item.id = "probe-" + n;
    item.title = token;
    probe.items.push_back(item);
    auto answer = conn->Call(probe);
    if (!answer.ok() || answer->predictions.size() != 1) {
      log.visible = false;
      continue;
    }
    const bool classified_as_type =
        answer->predictions[0].has_value() && *answer->predictions[0] == type;
    log.visible = log.visible && classified_as_type == (k % 2 == 0);
  }
}

}  // namespace

int RunServeZipf(const Args& args, Report& report) {
  // ---- inputs (not timed) ---------------------------------------------------
  data::CatalogGenerator gen(WorldConfig(kTypes));
  const std::string dsl = AnalystRuleDsl(gen);
  // A pool of distinct titles: the hot cache serves repeats of a title
  // from its first winner, so equal titles must mean equal items. The
  // draw's order decides which titles the Zipf head hits.
  const LabeledFeed pool =
      DrawFeed(gen, kWorldPool, kPoolItems, args.seed, /*distinct_titles=*/true);
  const std::vector<std::string> types = TypeNames(gen);

  chimera::PipelineConfig config;
  config.use_learning = false;
  // Inline: a pool's fan-out over 1-3 item dispatches swings threefold
  // with the load of a shared host (README), far past any bound. The
  // "pooled" variant measures the pool for reference.
  config.batch_threads = args.variant == "pooled" ? HardwareThreads() : 0;
  config.rule_shards = 8;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 4096;
  config.hot_cache.admit_after = 2;

  // ---- set-up: parse + compile, AddRules, server start ---------------------
  EndToEnd e2e;
  Layers layers;
  std::vector<double> setup_s;
  std::unique_ptr<serving::RuleServer> server;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  std::vector<rulekit::rules::Rule> rules;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    pipeline.reset();
    ScopedSpan span("setup");
    const auto start = Clock::now();
    rules = ParseDsl(dsl, report);
    pipeline = std::make_unique<chimera::ChimeraPipeline>(config);
    rulekit::Status added = pipeline->AddRules(rules, "analyst");
    report.Check(added.ok(), "AddRules: " + added.ToString());
    serving::ServerConfig server_config;
    server_config.io_threads = HardwareThreads();
    server_config.writer = pipeline.get();
    server = std::make_unique<serving::RuleServer>(*pipeline, server_config);
    rulekit::Status started = server->Start();
    report.Check(started.ok(), "server starts: " + started.ToString());
    setup_s.push_back(SecondsSince(start));
    if (!started.ok()) return 1;
  }
  e2e.setup_s = Median(setup_s);

  // ---- timed phase: closed-loop clients + the analyst connection ----------
  const size_t clients =
      std::max<size_t>(1, std::min(kMaxClients, HardwareThreads() - 1));
  std::vector<ClientLog> logs(clients);
  EditorLog editor;
  const double cpu_start = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(args.seconds));
  {
    std::vector<std::thread> threads;
    if (args.variant == "open_loop") {
      logs.resize(1);
      RunOpenLoop(server->port(), pool, args.seed, start, end, logs[0]);
    } else {
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back(RunClient, server->port(), std::cref(pool),
                             args.seed, uint32_t(c), start, end,
                             std::cref(args), std::ref(logs[c]));
      }
      threads.emplace_back(RunEditor, server->port(), std::cref(types),
                           args.seed,
                           end, std::ref(editor));
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = SecondsSince(start);
  const double cpu = ProcessCpuSeconds() - cpu_start;
  const serving::ServerStats stats = server->stats();
  server->Stop();

  Timeline timeline;
  std::vector<std::optional<std::string>> served(pool.items.size());
  std::vector<bool> seen(pool.items.size(), false);
  size_t requests = 0;
  bool ids_ok = true, codes_ok = true, connected = editor.connected;
  for (const ClientLog& log : logs) {
    timeline.Merge(log.timeline);
    for (size_t r = 0; r < log.index.size(); ++r) {
      seen[log.index[r]] = true;
      served[log.index[r]] = log.prediction[r];
    }
    requests += log.index.size();
    ids_ok = ids_ok && log.ids_ok;
    codes_ok = codes_ok && log.codes_ok;
    connected = connected && log.connected;
  }
  report.Attempted(requests + editor.edit_us.size());
  // The clients stop at the end of the run; the editor may finish a
  // retire after it.
  const Timeline::Summary summary = timeline.Summarize(args.seconds);
  e2e.items_per_s = summary.items_per_s;
  e2e.cpu_us_per_item = cpu * 1e6 / double(std::max<size_t>(requests, 1));
  e2e.latency_p50_us = summary.p50_us;
  NoteLatencyTail(args.workload, timeline);
  layers.edit_p50_us = Median(editor.edit_us);
  // Quality counts each distinct title served once: per request, the few
  // head titles of the Zipf draw would decide it.
  Quality quality;
  for (size_t i = 0; i < pool.items.size(); ++i) {
    if (seen[i]) quality.Add(served[i], pool.labels[i]);
  }
  e2e.precision = quality.precision();
  e2e.coverage = quality.coverage();
  std::fprintf(stderr, "serve_zipf: %zu requests in %.2f s\n", requests,
               elapsed);

  // ---- output checks --------------------------------------------------------
  report.Check(connected, "every connection stays up");
  report.Check(ids_ok, "every response carries its own request id");
  report.Check(codes_ok, "every response is kOk with one prediction");
  report.Check(editor.edits_ok, "every edit frame is acknowledged kOk");
  report.Check(editor.visible,
               "an acknowledged edit is visible to the next request");
  // The probe rules match only probe titles, and the run ends with each
  // retired, so the pool is served against one rule state throughout.
  const auto reference = ClassifyItems(*pipeline, pool.items).report.predictions;
  bool served_equal = true;
  for (ClientLog& log : logs) {
    if (args.inject == "prediction" && !log.prediction.empty()) {
      log.prediction[0] = "injected-type";
    }
    for (size_t r = 0; r < log.index.size(); ++r) {
      served_equal = served_equal && log.prediction[r] == reference[log.index[r]];
    }
  }
  report.Check(served_equal,
               "served predictions equal an in-process Classify of the same "
               "items");

  if (args.trace) {
    layers.queue_wait_p50_us = double(stats.queue_wait_us.P50());
    layers.server_p50_us = double(stats.latency_us.P50());
    layers.transport_p50_us = e2e.latency_p50_us - layers.server_p50_us;
    layers.batch_size_mean = stats.batch_size.Mean();
    layers.codec_ns_per_request = CodecNsPerRequest(pool.items);
    StagedPipeline staged(*pipeline, {});
    rulekit::Rng rng(args.seed * 104729);
    std::vector<std::vector<data::ProductItem>> batches;
    for (size_t i = 0; i < kStagedRequests; ++i) {
      batches.push_back({pool.items[rng.Zipf(pool.items.size(), kZipfSkew)]});
    }
    TraceStages(*pipeline, staged, batches, layers, report);
  }

  if (args.trace) {
    ProbeWritePath(*pipeline, rules, rules.size(), types, layers.edit_p50_us,
                   args, layers);
  }
  server.reset();
  pipeline.reset();

  if (args.trace) {
    NoteTracedEndToEnd(e2e);
    EmitLayers(layers, report);
    WriteSpans(args);
  } else {
    EmitEndToEnd(e2e, report);
  }
  return 0;
}

}  // namespace perfbench
