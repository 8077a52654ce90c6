#ifndef RULEKIT_SERVING_SERVER_H_
#define RULEKIT_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "src/chimera/monitor.h"
#include "src/chimera/pipeline.h"
#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/serving/rate_limiter.h"
#include "src/serving/wire.h"

namespace rulekit::serving {

/// RuleServer tuning. The defaults suit tests and small deployments;
/// the benchmark and production paths set everything explicitly.
struct ServerConfig {
  /// TCP port to bind on loopback; 0 = ephemeral (read back via port()).
  uint16_t port = 0;
  /// Connection reader threads. Each live connection occupies one for
  /// its blocking read loop, so this bounds concurrent connections —
  /// connection N+1 waits until an earlier one closes.
  size_t io_threads = 4;
  /// How long the dispatcher holds an eligible single-item request open
  /// for more coalescable arrivals (same tenant, single item, no
  /// `no_coalesce` flag, no durability demand) before dispatching the
  /// merged batch.
  std::chrono::microseconds coalesce_window{500};
  /// Hard cap on requests merged into one dispatched batch.
  size_t max_coalesce_batch = 64;
  /// Bounded pending-request queue; arrivals beyond it are refused with
  /// kOverloaded (backpressure, not buffering).
  size_t max_pending = 256;
  /// Requests carrying more items than this are kInvalidArgument.
  size_t max_items_per_request = 4096;
  /// Per-client (== per-tenant) token-bucket rate limit; <= 0 disables.
  double rate_limit_per_sec = 0.0;
  double rate_limit_burst = 32.0;
  /// When set, every dispatched batch is recorded as a ServingActivity
  /// under its tenant (admission counters attached as deltas).
  chimera::QualityMonitor* monitor = nullptr;
  /// Writer-mode switch. When set (normally to the same pipeline the
  /// server serves), RuleEditRequest frames are applied through it as
  /// ordinary transactional mutations — journaled ahead of publication,
  /// so a wire edit ships to followers exactly like a local one. When
  /// null (the default, and always on a replica fronting a follower
  /// pipeline), every edit frame is refused with kReadOnly and nothing
  /// is applied. Classify traffic is unaffected either way.
  chimera::ChimeraPipeline* writer = nullptr;
};

/// A point-in-time copy of the server's counters and distributions.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_admitted = 0;
  uint64_t invalid_requests = 0;
  uint64_t rate_limit_rejects = 0;   // kOverloaded: token bucket empty
  uint64_t queue_full_rejects = 0;   // kOverloaded: pending queue full
  uint64_t deadline_sheds = 0;       // kDeadlineExceeded before dispatch
  uint64_t unavailable_rejects = 0;  // kUnavailable during shutdown
  uint64_t batches_dispatched = 0;
  /// Requests that shared their dispatched batch with at least one other
  /// request (i.e. coalescing actually merged them).
  uint64_t coalesced_requests = 0;
  uint64_t edits_applied = 0;           // rule-edit frames applied (writer)
  uint64_t edits_refused_readonly = 0;  // kReadOnly refusals (no writer)
  uint64_t edit_failures = 0;           // writer present but the edit failed
  /// Admission -> response-written latency per request, microseconds.
  LogHistogram::Snapshot latency_us;
  /// Admission -> dispatch wait per request, microseconds.
  LogHistogram::Snapshot queue_wait_us;
  /// Requests per dispatched batch (the coalescing yield).
  LogHistogram::Snapshot batch_size;

  uint64_t overload_rejects() const {
    return rate_limit_rejects + queue_full_rejects;
  }
};

/// The serving front-end: a framed-TCP network face over one
/// ChimeraPipeline (see DESIGN.md "Serving front-end").
///
///   accept thread -> reader tasks (ThreadPool, one per connection)
///     -> admission (rate limit, bounded queue, deadline, validity)
///       -> dispatcher thread (coalesces single-item requests, sheds
///          expired ones, runs pipeline.Classify once per batch)
///         -> response frames written back per connection
///
/// All pipeline execution happens on the dispatcher thread through the
/// same Classify(ClassifyRequest) entry point in-process callers use, so
/// a response's predictions are byte-identical to a direct call with the
/// same items — coalescing changes batching, never results (snapshot
/// isolation pins one serving version per dispatched batch).
///
/// Stop() (and the destructor) is clean: no new connections or requests
/// are admitted (late arrivals get kUnavailable), readers are unblocked,
/// every already-admitted request is dispatched and answered, and only
/// then do the threads join.
class RuleServer {
 public:
  /// The pipeline must outlive the server.
  RuleServer(const chimera::ChimeraPipeline& pipeline, ServerConfig config);
  ~RuleServer();

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  /// Binds 127.0.0.1:<config.port>, starts the acceptor, reader pool,
  /// and dispatcher. Fails without side effects if the bind/listen does.
  Status Start();

  /// Idempotent clean shutdown (see class comment).
  void Stop();

  /// The bound port (resolves config.port == 0 to the kernel's pick).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  /// One accepted connection. The fd closes when the last reference
  /// drops (reader task and queued responses share ownership), so a
  /// response write can never race a close.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mu;           // one frame at a time per socket
    std::atomic<bool> alive{true}; // cleared on read EOF / write error
  };

  /// An admitted request waiting for the dispatcher.
  struct Pending {
    std::shared_ptr<Connection> conn;
    WireClassifyRequest request;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point admitted;
  };

  void AcceptLoop();
  void ReadLoop(const std::shared_ptr<Connection>& conn);
  void DispatchLoop();
  /// Runs one batch (1..max_coalesce_batch admitted requests, same
  /// tenant) through the pipeline and writes every member's response.
  void DispatchBatch(std::vector<Pending> batch);
  /// Encodes and writes one response frame; tears the connection down
  /// on a write error.
  void Respond(Connection& conn, const WireClassifyResponse& response);
  /// Applies (writer mode) or refuses (read-only) one rule-edit frame
  /// and writes the RuleEditResponse. Runs on the reader thread — the
  /// pipeline's transactional API is internally synchronized.
  void HandleEdit(Connection& conn, WireRuleEditRequest request);
  void RespondEdit(Connection& conn, const WireRuleEditResponse& response);
  /// Respond + per-request latency accounting for an admitted request.
  void RespondAdmitted(const Pending& pending,
                       const WireClassifyResponse& response);
  bool Coalescable(const Pending& pending) const;

  const chimera::ChimeraPipeline& pipeline_;
  const ServerConfig config_;
  RateLimiter limiter_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::thread dispatcher_;
  std::unique_ptr<ThreadPool> readers_;

  std::mutex conns_mu_;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool drain_and_exit_ = false;  // set by Stop(); dispatcher drains first

  // Counters (atomics: bumped from reader threads and the dispatcher).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_admitted_{0};
  std::atomic<uint64_t> invalid_requests_{0};
  std::atomic<uint64_t> rate_limit_rejects_{0};
  std::atomic<uint64_t> queue_full_rejects_{0};
  std::atomic<uint64_t> deadline_sheds_{0};
  std::atomic<uint64_t> unavailable_rejects_{0};
  std::atomic<uint64_t> batches_dispatched_{0};
  std::atomic<uint64_t> coalesced_requests_{0};
  std::atomic<uint64_t> edits_applied_{0};
  std::atomic<uint64_t> edits_refused_readonly_{0};
  std::atomic<uint64_t> edit_failures_{0};
  LogHistogram latency_us_;
  LogHistogram queue_wait_us_;
  LogHistogram batch_size_;

  // Dispatcher-thread-only state for monitor delta attribution.
  uint64_t reported_overload_ = 0;
  uint64_t reported_sheds_ = 0;
};

}  // namespace rulekit::serving

#endif  // RULEKIT_SERVING_SERVER_H_
