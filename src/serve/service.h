// Batched multi-query MEM service over a pool of simulated devices.
//
// MemService answers a stream of queries against one reference: a bounded
// submit queue (admission control / backpressure), per-request deadlines, a
// dispatcher that drains the queue in batches, and a persistent
// core::DevicePool that partitions tile rows across devices with a
// per-device reference index cache — so steady-state requests pay only the
// extraction time, not Table III's index build. Optional resident host
// finders answer requests ahead of the pool through one routing table keyed
// on the request's min_length. See docs/SERVING.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/device_pool.h"
#include "core/pipeline.h"
#include "mem/finder.h"
#include "mem/mem.h"
#include "seq/sequence.h"
#include "serve/index_cache.h"
#include "simt/device.h"
#include "store/loaded_index.h"

namespace gm::serve {

struct ServiceConfig {
  core::Config engine;  ///< must use Backend::kSimt

  std::uint32_t devices = 1;  ///< simulated device pool size

  /// Admission bound: submits beyond this many waiting requests are
  /// rejected immediately (backpressure surfaces to the caller instead of
  /// growing an unbounded queue).
  std::size_t queue_capacity = 256;

  /// Max requests drained per dispatch round (one batch).
  std::size_t max_batch = 8;

  /// Deadline applied to requests that don't carry their own; measured
  /// from submit. A request still queued past its deadline is failed with
  /// QueryStatus::kExpired without running. 0 = none.
  double default_deadline_seconds = 0.0;

  /// Keep each device's reference row indexes resident between requests.
  /// Off = every request rebuilds, exactly like independent Engine::run
  /// calls (the bench baseline).
  bool cache_enabled = true;

  /// When set, cold index-cache misses upload the prebuilt row arrays from
  /// this mapped artifact instead of running the Algorithm 1 build kernels
  /// (see docs/STORAGE.md). The artifact's geometry must match `engine`;
  /// the service reference must be the artifact's reference. Requires
  /// cache_enabled.
  std::shared_ptr<const store::LoadedIndex> artifact;

  /// copMEM fast-index route (mem/copmem.h): a resident host-side
  /// double-sampled finder, opened at construction by
  /// store::open_host_finder, answers every request the lazy route does
  /// not, bypassing the device pool. index_seconds is 0 and index_cache_hit
  /// is true in every result. `engine.seed_len` is the sampling seed length
  /// K; `engine` must still be a valid kSimt config.
  bool copmem_fast_index = false;

  /// Long-MEM route (gpumem_serve --long-mem): a resident lazy-LCP
  /// SlaMemFinder answers every request whose resolved minimum length is
  /// >= `long_mem_threshold`. The FM index is L-independent, so one
  /// resident finder serves any per-request L. Results are bit-identical to
  /// the device pool's (see PERFORMANCE.md "Long-MEM mode").
  bool lazy_lcp = false;

  /// Smallest request min_length the lazy route answers; 0 (or anything
  /// below the engine's min_length) = the engine's min_length, so every
  /// request qualifies. Requests below it take the next route.
  std::uint32_t long_mem_threshold = 0;

  /// Queue submissions without dispatching until resume() — deterministic
  /// batch formation for tests and replay drivers.
  bool start_paused = false;
};

struct QueryRequest {
  std::string id;      ///< echoed in the result and in request spans
  seq::Sequence query;
  double deadline_seconds = 0.0;  ///< from submit; 0 = service default
  /// Per-request minimum MEM length; 0 = the engine's configured
  /// min_length. Values below the engine's L fail validation (kInvalid):
  /// the device pipeline cannot report shorter MEMs than it was built for.
  /// Larger values filter exactly (MEM maximality is L-independent) and
  /// select the route that answers (docs/SERVING.md "Routing").
  std::uint32_t min_length = 0;
};

enum class QueryStatus {
  kOk,
  kRejected,  ///< never queued: queue full or service shut down
  kExpired,   ///< deadline passed while queued
  kFailed,    ///< execution error (message in QueryResult::error)
  kInvalid,   ///< never queued: request failed validation (empty query,
              ///< negative/non-finite deadline) — the wire path cannot
              ///< smuggle states the offline CLI rejects
};

const char* to_string(QueryStatus status);

struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;
  std::string id;
  /// Request-scoped trace id minted at submit; every span this request
  /// produced (queue-wait, serve/request, pipeline stages, stream ops)
  /// carries it in the trace output.
  std::uint64_t trace_id = 0;
  std::vector<mem::Mem> mems;  ///< canonical order, no duplicates

  /// Per-request stats. On the device pool, modeled times are
  /// DevicePool::run's (max over concurrently running devices) and
  /// index_cache_hit means *every* device served every row warm. On a host
  /// route, match_seconds is the find's measured wall time.
  core::RunStats stats;
  /// The route that answered: a host finder's name ("copmem",
  /// "slamem-lazy") or "device-pool". Empty when nothing ran.
  std::string path;

  double queue_seconds = 0.0;    ///< submit -> dispatch (wall)
  double service_seconds = 0.0;  ///< dispatch -> completion (wall)
  std::string error;
};

/// Cumulative service counters, readable at any time via MemService::stats.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished OK
  std::uint64_t rejected = 0;
  std::uint64_t invalid = 0;    ///< failed submit-time validation
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  /// Requests that missed their deadline: expired while queued, plus
  /// requests that completed but only after queue+service time exceeded
  /// the deadline. Always >= expired.
  std::uint64_t deadline_miss = 0;
  std::uint64_t batches = 0;

  std::uint64_t cache_hits = 0;    ///< tile-row indexes served resident
  std::uint64_t cache_misses = 0;  ///< tile-row indexes built
  std::size_t cache_resident_bytes = 0;

  std::size_t queue_depth = 0;  ///< at snapshot time
  std::size_t max_queue_depth = 0;

  /// Summed per-request device maxima, over device-pool requests only (host
  /// routes report measured wall time, not modeled time).
  double modeled_index_seconds = 0.0;
  double modeled_match_seconds = 0.0;
  double queue_seconds_total = 0.0;  ///< summed over dispatched requests
};

/// Mirrors every ServiceStats field into the global metrics registry under
/// "serve.*" names (docs/OBSERVABILITY.md). No-op when obs is disabled.
void publish_service_stats(const ServiceStats& stats);

class MemService {
 public:
  /// Takes ownership of the reference; the device pool and (when enabled)
  /// per-device index caches are created immediately, but indexes build
  /// lazily on first use.
  MemService(ServiceConfig cfg, seq::Sequence ref);
  ~MemService();  ///< shutdown(): drains queued requests, joins

  MemService(const MemService&) = delete;
  MemService& operator=(const MemService&) = delete;

  /// Completion hook for event-driven callers (the net/ front end): invoked
  /// exactly once with the final result, just *before* the future is
  /// fulfilled — on the dispatcher thread for executed requests, on the
  /// submitting thread for immediate rejections/invalid requests. A caller
  /// that observes the future resolve can therefore rely on the callback
  /// having already run. Must not block and must not call back into this
  /// service.
  using CompletionFn = std::function<void(const QueryResult&)>;

  /// Enqueues a request. Always returns a valid future: a rejected submit
  /// (queue full, shut down) resolves immediately with kRejected, and a
  /// request failing validation — empty query, negative or non-finite
  /// deadline — resolves immediately with kInvalid, before touching the
  /// queue.
  std::future<QueryResult> submit(QueryRequest req,
                                  CompletionFn on_done = nullptr);

  /// Waiting requests right now — the cheap admission signal the net layer
  /// sheds load on (no per-worker cache walk, unlike stats()).
  std::size_t queue_depth() const;

  /// Starts dispatching when the service was created start_paused.
  void resume();

  /// Stops accepting, drains everything already queued, joins the
  /// dispatcher. Idempotent.
  void shutdown();

  ServiceStats stats() const;
  const ServiceConfig& config() const noexcept { return cfg_; }
  const seq::Sequence& reference() const noexcept { return ref_; }

 private:
  struct Pending {
    QueryRequest req;
    std::promise<QueryResult> promise;
    CompletionFn on_done;  ///< may be null
    std::chrono::steady_clock::time_point submitted_at;
    double deadline_seconds = 0.0;  ///< resolved (request or default)
    std::uint64_t trace_id = 0;     ///< minted at submit
    std::uint32_t lane = 0;         ///< wall-trace lane for this request
  };

  /// A resident host finder answering every request whose resolved
  /// min_length is >= `min_length`.
  struct Route {
    std::uint32_t min_length = 0;
    std::unique_ptr<mem::MemFinder> finder;
  };

  void dispatcher_loop();
  QueryResult execute(Pending& pending, double queue_seconds);

  ServiceConfig cfg_;
  seq::Sequence ref_;
  core::DevicePool pool_;
  /// One per pool device when caching; declared after pool_ so the caches
  /// release their device memory before the devices go away.
  std::vector<std::unique_ptr<DeviceRowIndexCache>> caches_;
  std::vector<Route> routes_;  ///< descending min_length; first match wins

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  ServiceStats stats_;
  std::uint64_t submit_seq_ = 0;  ///< assigns request trace lanes round-robin
  bool paused_ = false;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace gm::serve
