// Process-global observability registry: one trace recorder + one metrics
// registry behind a single enabled flag. Disabled (the default) costs one
// relaxed atomic load per instrumentation site, so the hooks stay in
// release builds and the hot paths; producers must check obs::enabled()
// before assembling attributes.
//
// Enabling: set_enabled(true) directly (CLI/bench front-ends), or
// core::Config::observe = true, which Engine::run applies at run start.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace gm::obs {

class Registry {
 public:
  static Registry& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  TraceRecorder& trace() noexcept { return trace_; }
  Metrics& metrics() noexcept { return metrics_; }

  /// Host wall-clock microseconds since this registry was constructed —
  /// the wall span time base.
  double wall_now_us() const noexcept {
    return wall_us_at(std::chrono::steady_clock::now());
  }

  /// Converts an externally captured steady-clock time point onto the wall
  /// span time base — lets the serve layer emit a queue-wait span whose
  /// start is the moment submit() stamped the request.
  double wall_us_at(std::chrono::steady_clock::time_point tp) const noexcept {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }

  /// Clears recorded spans and metrics (tests; the enabled flag is kept).
  void reset() {
    trace_.clear();
    metrics_.clear();
  }

 private:
  Registry() : epoch_(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  TraceRecorder trace_;
  Metrics metrics_;
};

/// The one check every instrumentation site makes first.
inline bool enabled() noexcept { return Registry::global().enabled(); }

/// Records a modeled-device-clock span (start/duration in ledger seconds).
/// `track` selects the timeline lane within the device's modeled clock
/// (0 = outside a stream scheduler; stream work uses 1 + stream index).
/// Returns the event's trace index (for TraceRecorder::retime).
std::size_t record_modeled_span(std::string name, std::string category,
                                double start_seconds, double duration_seconds,
                                std::uint32_t device,
                                std::vector<Attr> attrs = {},
                                std::uint32_t track = 0);

/// RAII wall-clock span: starts at construction, records at destruction.
/// When the registry is disabled at construction the whole object is inert.
///
/// An armed span captures the thread's TraceContext: the request's trace id
/// (also stamped centrally at record time) and its wall lane, so serve-path
/// spans land on the submitting request's timeline row. It also maintains
/// the thread's span-name stack, attaching a "parent" attribute naming the
/// innermost enclosing wall span, and mirrors begin/end into the flight
/// recorder.
class Span {
 public:
  Span(std::string name, std::string category) {
    if (!obs::enabled()) return;
    armed_ = true;
    ev_.name = std::move(name);
    ev_.category = std::move(category);
    const TraceContext& tc = current_trace();
    ev_.trace_id = tc.trace_id;
    ev_.track = tc.lane;
    if (const std::string* parent = trace_span_parent()) {
      ev_.attrs.push_back({"parent", *parent});
    }
    trace_span_push(&ev_.name);
    ev_.start_us = Registry::global().wall_now_us();
    flight(FlightKind::kSpanBegin, ev_.name, ev_.trace_id, ev_.start_us);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  bool armed() const noexcept { return armed_; }

  void attr(std::string key, AttrValue value) {
    if (armed_) ev_.attrs.push_back({std::move(key), std::move(value)});
  }

  /// Records the span now (idempotent; the destructor becomes a no-op).
  void finish() {
    if (!armed_) return;
    armed_ = false;
    ev_.duration_us = Registry::global().wall_now_us() - ev_.start_us;
    trace_span_pop(&ev_.name);
    flight(FlightKind::kSpanEnd, ev_.name, ev_.trace_id, ev_.duration_us);
    Registry::global().trace().record(std::move(ev_));
  }

 private:
  bool armed_ = false;
  SpanEvent ev_;
};

}  // namespace gm::obs
