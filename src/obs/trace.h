// Structured trace recording: span events over two clock domains — host
// wall time and modeled device time (the PerfLedger's seconds) — exported
// as Chrome trace-event JSON so a whole pipeline run (per-tile kernel
// launches, transfers, stage boundaries, the host stitch) renders as a
// timeline in chrome://tracing or Perfetto.
//
// Naming scheme (see docs/OBSERVABILITY.md):
//   category "stage"    — pipeline stages (index/build-row, match/tile,
//                         stitch/host-merge); their durations decompose
//                         RunStats::index_seconds + match_seconds.
//   category "kernel"   — one span per kernel launch, named by its label.
//   category "transfer" — modeled memsets/copies charged to the ledger.
//   category "pipeline" — run-level wall-clock envelopes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace gm::obs {

/// Span attribute value. Strings and numbers cover every producer; the
/// exporter renders them into the Chrome trace "args" object.
using AttrValue = std::variant<std::string, double, std::uint64_t>;

struct Attr {
  std::string key;
  AttrValue value;
};

/// Which clock a span's timestamps are measured on. The exporter places the
/// domains on separate tracks (Chrome trace "processes") because their time
/// bases are unrelated: a modeled microsecond is simulated device time.
enum class Clock : std::uint8_t {
  kWall,     ///< host steady-clock microseconds since the registry epoch
  kModeled,  ///< modeled device microseconds (PerfLedger seconds * 1e6)
};

struct SpanEvent {
  std::string name;
  std::string category;
  Clock clock = Clock::kWall;
  double start_us = 0.0;
  double duration_us = 0.0;
  /// Owning request's trace id (0 = none). Producers normally leave this 0
  /// and TraceRecorder::record stamps it from the recording thread's
  /// obs::current_trace() — which is how spans emitted deep inside the
  /// pipeline or stream scheduler inherit the serve-layer request id.
  std::uint64_t trace_id = 0;
  std::uint32_t device = 0;  ///< device ordinal (modeled-clock spans)
  /// Timeline within the clock domain (Chrome trace "thread"). Work outside
  /// a stream scheduler stays on track 0; the SIMT pipeline puts each
  /// simt::Stream on its own track so concurrent phases render as parallel
  /// lanes instead of interleaved garbage on a single modeled clock.
  std::uint32_t track = 0;
  std::vector<Attr> attrs;
};

/// Append-only span sink. Thread-safe; recording is a mutex-guarded
/// push_back, cheap relative to the work any span brackets.
class TraceRecorder {
 public:
  /// Returns the recorded event's index — stable until a truncate/clear
  /// drops it — so producers can later retime() it.
  std::size_t record(SpanEvent ev);

  /// Number of events recorded so far — a mark for truncate().
  std::size_t size() const;

  /// Drops every event recorded after mark `n`. Pairs with
  /// PerfLedger::rollback so a retried tile's abandoned launches do not
  /// appear twice on the modeled track. The caller must guarantee no other
  /// thread records between taking the mark and truncating (true wherever
  /// the pipeline retries: tiles are traced from one thread).
  void truncate(std::size_t n);

  /// Rewrites the timestamps and track of event `index` in place. The
  /// stream scheduler records spans eagerly (at modeled-ledger time) while
  /// executing queued ops, then retimes them onto the overlapped schedule
  /// once the op's start on its engine/slots is known. Out-of-range indexes
  /// are ignored (the span was truncated by a retry rollback). Same caveat
  /// as truncate(): the caller must not race another thread's truncate.
  void retime(std::size_t index, double start_us, double duration_us,
              std::uint32_t track);

  void clear();

  /// Snapshot of all events (copy; safe while other threads record).
  std::vector<SpanEvent> events() const;

  /// Chrome trace-event JSON (the {"traceEvents": [...]} format). Wall
  /// spans land on pid 0, modeled spans on pid 1 + device ordinal; process
  /// metadata names the tracks.
  void write_chrome_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
};

}  // namespace gm::obs
