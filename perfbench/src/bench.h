// Shared plumbing of the repo benchmark: command-line arguments, the
// result line, output checks, statistics, process counters and the span
// recorder used by traced runs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/data/product.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fault injection for the benchmark's self-tests: "prediction",
  /// "recovery" or "response_id" corrupts what the benchmark observed,
  /// so the matching output check must fail. Empty in measured runs.
  std::string inject;
  /// Reference-figure variants of serve_zipf for the README: "pooled"
  /// (a batch pool of nproc threads) and "open_loop" (one connection at a
  /// fixed rate). Empty in measured runs.
  std::string variant;
  /// Scratch directory for stores and span dumps (inside the checkout).
  std::string work_dir;
};

/// Collects the run's verdict and metrics, and prints the result line.
class Report {
 public:
  /// Records an output check; a failed one makes the run exit non-zero.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts operations whose outcome the run judges (see README).
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  /// Prints the one-line JSON result on stdout.
  void Print() const;
  std::string MetricsJson() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The operations of a timed phase (completion time since the phase
/// began, latency, items), summarised over equal time windows: the upper
/// quartile of the windows' throughputs and the lower quartile of their
/// median latencies, so bursts of outside load on a shared host, which
/// only slow windows down, barely move the run's figures.
class Timeline {
 public:
  void Add(double end_s, double latency_us, size_t items) {
    ops_.push_back({end_s, latency_us, items});
  }
  void Merge(const Timeline& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  }
  size_t ops() const { return ops_.size(); }
  /// Latency quantile over the whole phase.
  double LatencyQuantile(double q) const;
  struct Summary {
    double items_per_s = 0, p50_us = 0;
  };
  Summary Summarize(double elapsed_s) const;
  static constexpr int kWindows = 10;

 private:
  struct Op {
    double end_s, latency_us;
    size_t items;
  };
  std::vector<Op> ops_;
};

/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();
size_t HardwareThreads();

// ---- inputs ----------------------------------------------------------------

/// Items plus the generator's labels, so precision can be judged apart
/// from the program.
struct LabeledFeed {
  std::vector<rulekit::data::ProductItem> items;
  std::vector<std::string> labels;
};

/// Precision and coverage of predictions against labels.
struct Quality {
  size_t total = 0, predicted = 0, correct = 0;
  void Add(const std::optional<std::string>& prediction,
           const std::string& label) {
    ++total;
    if (!prediction.has_value()) return;
    ++predicted;
    if (*prediction == label) ++correct;
  }
  double precision() const {
    return predicted == 0 ? 0.0 : double(correct) / double(predicted);
  }
  double coverage() const {
    return total == 0 ? 0.0 : double(predicted) / double(total);
  }
};

/// Runs one in-process Classify over `items` (the default tenant).
rulekit::chimera::ClassifyResponse ClassifyItems(
    const rulekit::chimera::ChimeraPipeline& pipeline,
    std::span<const rulekit::data::ProductItem> items);

/// All rules of the pipeline's repository as DSL text, one per line,
/// sorted — the comparable form of a rule state.
std::string RuleStateText(const rulekit::rules::RuleRepository& repo);

/// Makes (and empties) a directory; returns its path.
std::string FreshDir(const std::string& path);
void RemoveDir(const std::string& path);
uint64_t FileBytes(const std::string& path);

// ---- tracing ---------------------------------------------------------------

/// One recorded call into a layer: name, start and end (steady clock ns)
/// and the span that caused it (0 = none).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
};

/// Spans are held in memory (per thread, no locking on the hot path) and
/// written out when the run ends. Off unless the run is traced.
class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void Enable() { enabled_.store(true); }
  /// The parent recorded for spans opened on threads with no open span
  /// of their own (pool workers running a stage the caller opened).
  static void SetAmbient(uint64_t id) { ambient_.store(id); }
  static uint64_t Open(int64_t* start_ns);
  static void Close(const char* name, uint64_t id, int64_t start_ns);
  /// Every span recorded so far, from all threads.
  static std::vector<Span> All();
  /// Sum of the durations (ns) of spans named `name`.
  static double TotalNs(const std::vector<Span>& spans, const char* name);
  /// Sum over spans named `name` of their self time: duration minus the
  /// part of their interval covered by their children's spans.
  static double SelfNs(const std::vector<Span>& spans, const char* name);
  static void Write(const std::string& path);
  static int64_t NowNs();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> ambient_;
};

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (Tracer::enabled()) id_ = Tracer::Open(&start_ns_);
  }
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Close(name_, id_, start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

// ---- workloads -------------------------------------------------------------

int RunCatalogFeed(const Args& args, Report& report);
int RunServeZipf(const Args& args, Report& report);
int RunRuleMaintenance(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
