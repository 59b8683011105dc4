#include "serve/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "util/timer.h"

namespace gm::serve {
namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Wall-trace lanes cycled across in-flight requests (tracks 1..kLanes on
/// pid 0; track 0 stays process-level work). Bounded so the Chrome trace
/// keeps a readable number of rows under sustained traffic.
constexpr std::uint32_t kRequestLanes = 24;

/// Validation bound on per-request deadlines: anything above this is a
/// field-encoding bug (the wire carries deadlines in ms as u32), not a real
/// deadline. ~10 years.
constexpr double kMaxDeadlineSeconds = 3.2e8;

/// QueryResult::path of requests the device pool answers.
constexpr const char* kDevicePoolPath = "device-pool";

}  // namespace

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kExpired: return "expired";
    case QueryStatus::kFailed: return "failed";
    case QueryStatus::kInvalid: return "invalid";
  }
  return "unknown";
}

void publish_service_stats(const ServiceStats& stats) {
  if (!obs::enabled()) return;
  obs::Metrics& m = obs::Registry::global().metrics();
  const auto set = [&m](const std::string& name, double v,
                        const std::string& help = {}) {
    m.gauge(name, help).set(v);
  };
  set("serve.submitted", static_cast<double>(stats.submitted),
      "submit() calls, accepted or not");
  set("serve.completed", static_cast<double>(stats.completed));
  set("serve.rejected", static_cast<double>(stats.rejected),
      "submits refused by admission control or shutdown");
  set("serve.invalid", static_cast<double>(stats.invalid),
      "submits refused by request validation, never enqueued");
  set("serve.expired", static_cast<double>(stats.expired),
      "requests whose deadline passed while queued");
  set("serve.deadline_miss", static_cast<double>(stats.deadline_miss),
      "requests that missed their deadline (expired or finished late)");
  set("serve.failed", static_cast<double>(stats.failed));
  set("serve.batches", static_cast<double>(stats.batches));
  set("serve.cache_hits", static_cast<double>(stats.cache_hits));
  set("serve.cache_misses", static_cast<double>(stats.cache_misses));
  set("serve.cache_resident_bytes",
      static_cast<double>(stats.cache_resident_bytes),
      "device bytes held by cached row indexes");
  set("serve.queue_depth", static_cast<double>(stats.queue_depth));
  set("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth));
  set("serve.modeled_index_seconds", stats.modeled_index_seconds,
      "summed per-request modeled index time (device max per request)");
  set("serve.modeled_match_seconds", stats.modeled_match_seconds);
  set("serve.queue_seconds_total", stats.queue_seconds_total);
}

MemService::MemService(ServiceConfig cfg, seq::Sequence ref)
    : cfg_(std::move(cfg)),
      ref_(std::move(ref)),
      pool_(cfg_.engine, cfg_.devices, ref_) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument("MemService: queue_capacity must be >= 1");
  }
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  if (cfg_.artifact != nullptr) {
    if (!cfg_.cache_enabled) {
      throw std::invalid_argument(
          "MemService: an artifact backing requires cache_enabled");
    }
    cfg_.artifact->throw_if_geometry_mismatch(cfg_.engine);
    if (ref_.size() != cfg_.artifact->reference().size()) {
      throw std::invalid_argument(
          "MemService: reference (" + std::to_string(ref_.size()) +
          " bases) does not match the artifact's reference (" +
          std::to_string(cfg_.artifact->reference().size()) + " bases)");
    }
  }
  // Host routes, most specific first: the lazy long-MEM finder from its
  // threshold up, then copMEM for every other request. Both are exact at
  // any L >= the engine's: the FM index does not depend on L, and a copMEM
  // index built at L covers every larger L.
  mem::FinderOptions fopt;
  fopt.min_length = cfg_.engine.min_length;
  const auto open_route = [&](const char* name) {
    return store::open_host_finder(name, ref_, fopt, cfg_.engine.seed_len,
                                   cfg_.artifact.get());
  };
  if (cfg_.lazy_lcp) {
    cfg_.long_mem_threshold =
        std::max(cfg_.long_mem_threshold, cfg_.engine.min_length);
    routes_.push_back({cfg_.long_mem_threshold, open_route("slamem-lazy")});
  }
  if (cfg_.copmem_fast_index) {
    routes_.push_back({cfg_.engine.min_length, open_route("copmem")});
  }
  if (cfg_.cache_enabled) {
    for (std::uint32_t d = 0; d < pool_.size(); ++d) {
      // The reference's identity within one service is fixed; device
      // ordinal keeps keys distinct in traces only, not in the key itself.
      caches_.push_back(std::make_unique<DeviceRowIndexCache>(
          pool_.device(d), cfg_.engine,
          /*ref_id=*/reinterpret_cast<std::uintptr_t>(this)));
      caches_.back()->back_with_artifact(cfg_.artifact);
      pool_.attach(d, caches_.back().get());
    }
  }

  paused_ = cfg_.start_paused;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

MemService::~MemService() { shutdown(); }

std::future<QueryResult> MemService::submit(QueryRequest req,
                                            CompletionFn on_done) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> fut = promise.get_future();

  // Resolves a request that never reaches the queue: the promise is set and
  // the callback runs on this (the submitting) thread, outside mu_.
  const auto finish_now = [&](QueryStatus status, std::string error) {
    QueryResult r;
    r.status = status;
    r.id = std::move(req.id);
    r.error = std::move(error);
    if (on_done) on_done(r);
    promise.set_value(r);
    return std::move(fut);
  };

  // Submit-time validation: the wire path must not be able to smuggle
  // states the offline CLI already rejects. Checked before admission so an
  // invalid request never occupies a queue slot.
  std::string invalid_reason;
  if (req.query.empty()) {
    invalid_reason = "empty query";
  } else if (req.deadline_seconds < 0.0 ||
             req.deadline_seconds != req.deadline_seconds ||
             req.deadline_seconds > kMaxDeadlineSeconds) {
    invalid_reason = "deadline must be a finite non-negative number of "
                     "seconds (got " +
                     std::to_string(req.deadline_seconds) + ")";
  } else if (req.min_length != 0 &&
             req.min_length < cfg_.engine.min_length) {
    // The device pipeline's seeds and tiles are sized for the engine's L;
    // it cannot report shorter MEMs, so under-asking must fail loudly
    // instead of silently returning a truncated set.
    invalid_reason = "min_length " + std::to_string(req.min_length) +
                     " is below the engine's configured minimum " +
                     std::to_string(cfg_.engine.min_length);
  }
  if (!invalid_reason.empty()) {
    {
      std::lock_guard lock(mu_);
      ++stats_.submitted;
      ++stats_.invalid;
    }
    obs::flight(obs::FlightKind::kQueue, "submit-invalid", 0, 0.0);
    if (obs::enabled()) {
      obs::Registry::global()
          .metrics()
          .counter("serve.invalid_total", "submits failing validation")
          .add();
    }
    return finish_now(QueryStatus::kInvalid, std::move(invalid_reason));
  }

  Pending pending;
  pending.deadline_seconds = req.deadline_seconds > 0.0
                                 ? req.deadline_seconds
                                 : cfg_.default_deadline_seconds;
  pending.submitted_at = std::chrono::steady_clock::now();
  pending.trace_id = obs::new_trace_id();

  bool rejected = false;
  std::string reject_reason;
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    if (stopping_ || queue_.size() >= cfg_.queue_capacity) {
      ++stats_.rejected;
      rejected = true;
      reject_reason = stopping_ ? "service is shut down"
                                : "queue full (capacity " +
                                      std::to_string(cfg_.queue_capacity) +
                                      ")";
      obs::flight(obs::FlightKind::kQueue, "submit-reject", 0,
                  static_cast<double>(queue_.size()));
      if (obs::enabled()) {
        obs::Registry::global()
            .metrics()
            .counter("serve.rejected_total", "rejected submits")
            .add();
      }
    } else {
      pending.req = std::move(req);
      pending.promise = std::move(promise);
      pending.on_done = std::move(on_done);
      pending.lane =
          1 + static_cast<std::uint32_t>(submit_seq_++ % kRequestLanes);
      obs::flight(obs::FlightKind::kQueue, "submit", pending.trace_id,
                  static_cast<double>(queue_.size() + 1));
      queue_.push_back(std::move(pending));
      stats_.queue_depth = queue_.size();
      stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
      if (obs::enabled()) {
        obs::Registry::global()
            .metrics()
            .gauge("serve.queue_depth")
            .set(static_cast<double>(queue_.size()));
      }
    }
  }
  if (rejected) {
    // The promise resolves and the callback runs outside mu_, on this
    // thread — admission failures surface immediately, never queued.
    return finish_now(QueryStatus::kRejected, std::move(reject_reason));
  }
  cv_.notify_one();
  return fut;
}

std::size_t MemService::queue_depth() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

void MemService::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void MemService::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    paused_ = false;  // drain whatever is queued even if never resumed
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServiceStats MemService::stats() const {
  std::lock_guard lock(mu_);
  ServiceStats out = stats_;
  out.queue_depth = queue_.size();
  out.cache_hits = out.cache_misses = 0;
  out.cache_resident_bytes = 0;
  for (const auto& cache : caches_) {
    out.cache_hits += cache->hits();
    out.cache_misses += cache->misses();
    out.cache_resident_bytes += cache->resident_bytes();
  }
  return out;
}

void MemService::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] {
        return (!paused_ && !queue_.empty()) || stopping_;
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      const std::size_t n = std::min(cfg_.max_batch, queue_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
      stats_.queue_depth = queue_.size();
    }

    if (obs::enabled()) {
      obs::Metrics& m = obs::Registry::global().metrics();
      m.distribution("serve.batch_size", "requests per dispatch round")
          .observe(static_cast<double>(batch.size()));
      m.gauge("serve.queue_depth").set(static_cast<double>(stats().queue_depth));
    }

    for (Pending& pending : batch) {
      const auto dispatched_at = std::chrono::steady_clock::now();
      const double queue_seconds =
          seconds_between(pending.submitted_at, dispatched_at);
      QueryResult result = execute(pending, queue_seconds);
      result.service_seconds =
          seconds_between(dispatched_at, std::chrono::steady_clock::now());
      // A miss is either an expiry while queued or a completion that landed
      // past the deadline (queue + service time exceeded it).
      const bool deadline_missed =
          pending.deadline_seconds > 0.0 &&
          (result.status == QueryStatus::kExpired ||
           queue_seconds + result.service_seconds > pending.deadline_seconds);
      {
        std::lock_guard lock(mu_);
        stats_.queue_seconds_total += queue_seconds;
        if (deadline_missed) ++stats_.deadline_miss;
        switch (result.status) {
          case QueryStatus::kOk:
            ++stats_.completed;
            if (result.path == kDevicePoolPath) {
              stats_.modeled_index_seconds += result.stats.index_seconds;
              stats_.modeled_match_seconds += result.stats.match_seconds;
            }
            break;
          case QueryStatus::kExpired: ++stats_.expired; break;
          case QueryStatus::kFailed: ++stats_.failed; break;
          case QueryStatus::kRejected: ++stats_.rejected; break;
          case QueryStatus::kInvalid: ++stats_.invalid; break;  // unreachable
        }
      }
      if (deadline_missed) {
        obs::flight(obs::FlightKind::kQueue, "deadline-miss", result.trace_id,
                    queue_seconds + result.service_seconds,
                    pending.deadline_seconds);
        if (obs::enabled()) {
          obs::Registry::global()
              .metrics()
              .counter("serve.deadline_miss",
                       "requests that missed their deadline")
              .add();
        }
      }
      if (obs::enabled()) {
        obs::Metrics& m = obs::Registry::global().metrics();
        m.distribution("serve.queue_seconds", "submit -> dispatch wall time")
            .observe(queue_seconds);
        m.distribution("serve.service_seconds",
                       "dispatch -> completion wall time")
            .observe(result.service_seconds);
      }
      // Callback before promise: a caller that observed the future resolve
      // may rely on the completion callback having already run (the
      // ordering tests pin this).
      if (pending.on_done) pending.on_done(result);
      pending.promise.set_value(result);
    }
    publish_service_stats(stats());
  }
}

QueryResult MemService::execute(Pending& pending, double queue_seconds) {
  // Install the request's trace scope for the whole service path: every
  // span recorded below — including the pipeline's stage spans and spans
  // emitted inside stream-scheduler closures (which run on this thread) —
  // is stamped with this trace id and rendered on this request's lane.
  obs::ScopedTrace scoped({pending.trace_id, pending.lane});

  QueryResult result;
  result.id = pending.req.id;
  result.trace_id = pending.trace_id;
  result.queue_seconds = queue_seconds;

  // Queue-wait span: submit() -> dispatch, reconstructed from the submit
  // timestamp so the trace shows the queue-wait/service-time split.
  if (obs::enabled()) {
    obs::SpanEvent qev;
    qev.name = "serve/queue-wait";
    qev.category = "serve";
    qev.trace_id = pending.trace_id;
    qev.track = pending.lane;
    qev.start_us = obs::Registry::global().wall_us_at(pending.submitted_at);
    qev.duration_us = queue_seconds * 1e6;
    qev.attrs.push_back({"id", result.id});
    obs::Registry::global().trace().record(std::move(qev));
  }
  obs::flight(obs::FlightKind::kQueue, "dispatch", pending.trace_id,
              queue_seconds * 1e6);

  if (pending.deadline_seconds > 0.0 &&
      queue_seconds > pending.deadline_seconds) {
    result.status = QueryStatus::kExpired;
    result.error = "deadline of " + std::to_string(pending.deadline_seconds) +
                   " s exceeded while queued";
    obs::flight(obs::FlightKind::kQueue, "expired", pending.trace_id,
                queue_seconds, pending.deadline_seconds);
    return result;
  }

  obs::Span request_span("serve/request", "serve");
  request_span.attr("id", result.id);
  request_span.attr("query_bp", std::uint64_t{pending.req.query.size()});
  request_span.attr("queue_us", queue_seconds * 1e6);

  util::Timer wall;
  try {
    const seq::Sequence& query = pending.req.query;
    // Per-request minimum length: 0 falls back to the engine's L; larger
    // values are answered exactly — MEM maximality is L-independent, so
    // filtering an engine-L result to len >= L is the same set the engine
    // would report if built at L (the serve tests pin this).
    const std::uint32_t req_len = pending.req.min_length != 0
                                      ? pending.req.min_length
                                      : cfg_.engine.min_length;
    const auto route = std::find_if(
        routes_.begin(), routes_.end(),
        [req_len](const Route& r) { return req_len >= r.min_length; });
    if (route != routes_.end()) {
      // A resident host finder answers: no device work and no index cost.
      // Its match time is the find's measured wall time, not a model.
      result.path = route->finder->name();
      util::Timer find;
      result.mems = route->finder->find_at(query, req_len);
      result.stats.match_seconds = find.seconds();
      result.stats.index_cache_hit = true;
      result.stats.mem_count = result.mems.size();
      result.stats.wall_seconds = wall.seconds();
      result.stats.trace_id = pending.trace_id;
      core::publish_run_stats(result.stats);
    } else {
      // The pool publishes its own run stats, before this length filter.
      result.path = kDevicePoolPath;
      core::Result pooled = pool_.run(query);
      result.mems = std::move(pooled.mems);
      result.stats = std::move(pooled.stats);
      if (req_len > cfg_.engine.min_length) {
        std::erase_if(result.mems, [req_len](const mem::Mem& m) {
          return m.len < req_len;
        });
        result.stats.mem_count = result.mems.size();
      }
    }
    result.status = QueryStatus::kOk;
  } catch (const std::exception& e) {
    result.status = QueryStatus::kFailed;
    result.error = e.what();
    result.mems.clear();
    obs::flight(obs::FlightKind::kMark, "request-failed", pending.trace_id);
  }
  obs::flight(obs::FlightKind::kQueue, "done", pending.trace_id,
              static_cast<double>(result.status));
  request_span.attr("status", std::string(to_string(result.status)));
  request_span.attr("mems", result.stats.mem_count);
  request_span.attr("path", result.path);
  return result;
}

}  // namespace gm::serve
