#ifndef RULEKIT_CHIMERA_REQUEST_H_
#define RULEKIT_CHIMERA_REQUEST_H_

#include <chrono>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/product.h"
#include "src/rules/ids.h"

namespace rulekit::chimera {

/// Where each item of a batch ended up.
struct BatchReport {
  size_t total = 0;
  size_t gate_classified = 0;  // classified by the Gate Keeper memo
  size_t gate_rejected = 0;    // unprocessable -> manual queue
  size_t classified = 0;       // classified by voting (net of filtering),
                               // including repeats served from the hot
                               // result cache (see cache_hits)
  size_t filtered = 0;         // voting winner vetoed by the Filter
  size_t suppressed = 0;       // type currently scaled down
  size_t declined = 0;         // low confidence -> manual queue

  // Hot-result-cache activity for this batch (all zero when the cache is
  // disabled). cache_hits is a subset of `classified`; a stale drop also
  // counts as a miss (the item then runs the full stack).
  size_t cache_hits = 0;        // repeats served from the cache
  size_t cache_misses = 0;      // looked up, not served (incl. stale drops)
  size_t cache_stale_drops = 0; // entries invalidated on read (tag mismatch)
  size_t cache_promotions = 0;  // winners admitted into the cache
  size_t cache_evictions = 0;   // entries evicted to admit new winners

  // Rule-execution cost for this batch: how many regex evaluations the
  // rule executors actually performed (post-index pruning) over how many
  // items reached them (items the gate keeper and hot cache did not
  // absorb). The ratio is the §4 executed-rules-per-item optimization
  // target; the offline rule-set optimizer exists to shrink it.
  size_t rules_executed = 0;
  size_t rule_items = 0;

  /// Final prediction per item (nullopt = unclassified).
  std::vector<std::optional<std::string>> predictions;

  /// Fraction of the batch that ended with a prediction (gate memo hits +
  /// voting winners that survived the filter). 0 for an empty batch — the
  /// guard matters because sparse streams legitimately deliver empty
  /// batches and every merge path must agree on the ratio.
  double ClassifiedFraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(gate_classified + classified) /
                            static_cast<double>(total);
  }

  double coverage() const { return ClassifiedFraction(); }

  /// Average regex evaluations per item that reached the rule executors.
  /// 0 when the whole batch was absorbed before rule execution.
  double ExecutedRulesPerItem() const {
    return rule_items == 0 ? 0.0
                           : static_cast<double>(rules_executed) /
                                 static_cast<double>(rule_items);
  }
};

/// Per-request knobs, honored identically by the in-process entry point
/// and the serving front-end (which carries them on the wire). Whether a
/// request may be coalesced is a serving-only choice: it rides on the wire
/// as `no_coalesce`, since an in-process caller already chose its batch.
struct ClassifyOptions {
  /// When true the request fails kUnavailable unless the pipeline's
  /// durable journal is live: a pipeline that was asked for storage but
  /// is serving in-memory (open failure, or a severed WAL after an I/O
  /// error) refuses rather than classify against state that would not
  /// survive a crash. False (default) keeps the historical emergency
  /// lever: in-memory serving continues through storage trouble.
  bool require_durable = false;
};

/// The one classification entry point's argument: what to classify, for
/// whom, under which constraints. The wire protocol encodes exactly these
/// fields, so a request that arrived over TCP and one built in-process
/// are indistinguishable by the time the pipeline sees them.
///
/// `items` is a non-owning view: in-process callers pass their existing
/// vector with zero copies, and the server keeps its decoded items alive
/// for the duration of the dispatch.
struct ClassifyRequest {
  rules::TenantId tenant;
  std::span<const data::ProductItem> items;
  ClassifyOptions options;
  /// Absolute deadline. A request whose deadline has already passed is
  /// answered kDeadlineExceeded without touching the pipeline; the server
  /// additionally sheds queued requests whose deadline expires before
  /// dispatch. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// What classification returned: a Status (OK, or one of the typed
/// failure codes the wire format pins — see serving::WireCode) and the
/// full per-batch accounting. On a non-OK status the report carries
/// `total` and empty predictions; nothing was classified.
struct ClassifyResponse {
  Status status;
  BatchReport report;

  bool ok() const { return status.ok(); }
};

}  // namespace rulekit::chimera

#endif  // RULEKIT_CHIMERA_REQUEST_H_
