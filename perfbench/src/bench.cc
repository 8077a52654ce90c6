#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    double value = value_unit.first;
    if (!std::isfinite(value)) value = 0.0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + value_unit.second + "\"}";
  }
  return out + "}";
}

void Report::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), MetricsJson().c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Timeline::LatencyQuantile(double q) const {
  std::vector<double> latency;
  for (const Op& op : ops_) latency.push_back(op.latency_us);
  return Quantile(std::move(latency), q);
}

Timeline::Summary Timeline::Summarize(double elapsed_s) const {
  std::vector<double> rate, p50;
  const double width = elapsed_s / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    const double lo = w * width, hi = (w + 1) * width;
    std::vector<double> latency;
    size_t items = 0;
    for (const Op& op : ops_) {
      if (op.end_s < lo || (op.end_s >= hi && w + 1 < kWindows)) continue;
      latency.push_back(op.latency_us);
      items += op.items;
    }
    if (latency.empty()) continue;
    rate.push_back(double(items) / width);
    p50.push_back(Quantile(latency, 0.5));
  }
  // Load from outside the benchmark only ever slows a window down, so the
  // least-disturbed quarter of the windows estimates the program's own
  // speed; a change that slows every window still moves it in full.
  return {Quantile(rate, 0.75), Quantile(p50, 0.25)};
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

rulekit::chimera::ClassifyResponse ClassifyItems(
    const rulekit::chimera::ChimeraPipeline& pipeline,
    std::span<const rulekit::data::ProductItem> items) {
  rulekit::chimera::ClassifyRequest request;
  request.items = items;
  return pipeline.Classify(request);
}

std::string RuleStateText(const rulekit::rules::RuleRepository& repo) {
  std::vector<std::string> lines;
  for (const rulekit::rules::Rule& rule : repo.rules().rules()) {
    lines.push_back(rule.ToDsl() + (rule.is_active() ? "" : " [inactive]"));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  for (size_t s = 0; s < repo.shard_count(); ++s) {
    out += "shard " + std::to_string(s) + " v" +
           std::to_string(repo.shard_version(
               rulekit::rules::ShardKey(static_cast<uint32_t>(s)))) +
           "\n";
  }
  return out;
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path);
  return path;
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// ---- tracing ---------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};
std::atomic<uint64_t> Tracer::ambient_{0};

namespace {

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<uint64_t> open;  // ids of this thread's open spans
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::shared_ptr<ThreadSpans>>();
  return *registry;
}
std::atomic<uint64_t> g_next_span_id{1};

ThreadSpans& Local() {
  thread_local std::shared_ptr<ThreadSpans> local = [] {
    auto spans = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(spans);
    return spans;
  }();
  return *local;
}

}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Open(int64_t* start_ns) {
  ThreadSpans& local = Local();
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  local.open.push_back(id);
  *start_ns = NowNs();
  return id;
}

void Tracer::Close(const char* name, uint64_t id, int64_t start_ns) {
  const int64_t end_ns = NowNs();
  ThreadSpans& local = Local();
  local.open.pop_back();
  const uint64_t parent = local.open.empty() ? ambient_.load() : local.open.back();
  local.spans.push_back({name, start_ns, end_ns, id, parent});
}

std::vector<Span> Tracer::All() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> all;
  for (const auto& local : Registry()) {
    all.insert(all.end(), local->spans.begin(), local->spans.end());
  }
  return all;
}

double Tracer::TotalNs(const std::vector<Span>& spans, const char* name) {
  double total = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) total += double(s.end_ns - s.start_ns);
  }
  return total;
}

double Tracer::SelfNs(const std::vector<Span>& spans, const char* name) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  double total = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != name) continue;
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run on several threads at once: measure the union
      // of their intervals, clipped to the parent's.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += double(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += double(cur_hi - cur_lo);
    }
    total += double(s.end_ns - s.start_ns) - covered;
  }
  return total;
}

void Tracer::Write(const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : All()) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << "}\n";
  }
}

}  // namespace perfbench
