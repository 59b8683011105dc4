// Observability-backbone tests: quantile-sketch accuracy against exact
// quantiles, Distribution memory caps + exact mode, the flight recorder's
// ring semantics and dump format, request-scoped trace contexts, trace-id
// propagation through the serve path (including stream-scheduler spans),
// and the MetricsSnapshot JSON / Prometheus exposition formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/sketch.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "seq/synthetic.h"
#include "serve/service.h"
#include "util/cli.h"
#include "util/parallel.h"

namespace gm {
namespace {

/// Clean, enabled global registry per test; restores the disabled default.
class ObsTestGuard {
 public:
  ObsTestGuard() {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(true);
    obs::FlightRecorder::global().clear();
  }
  ~ObsTestGuard() {
    obs::Registry::global().set_enabled(false);
    obs::Registry::global().reset();
    obs::FlightRecorder::global().clear();
  }
};

/// Exact nearest-rank quantile with the same rank convention the sketch
/// uses, so accuracy comparisons measure bucket error only.
double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double cq = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      cq * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

void expect_sketch_close(const obs::QuantileSketch& sk,
                         const std::vector<double>& samples, double q,
                         const char* what) {
  const double exact = exact_quantile(samples, q);
  const double approx = sk.quantile(q);
  const double tol =
      obs::QuantileSketch::kRelativeErrorBound * std::abs(exact) + 1e-12;
  EXPECT_NEAR(approx, exact, tol)
      << what << " q=" << q << " exact=" << exact << " approx=" << approx;
}

// --- QuantileSketch --------------------------------------------------------

TEST(Sketch, EmptyReturnsNaN) {
  obs::QuantileSketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_TRUE(std::isnan(sk.min()));
  EXPECT_TRUE(std::isnan(sk.max()));
  EXPECT_TRUE(std::isnan(sk.mean()));
  EXPECT_TRUE(std::isnan(sk.quantile(0.5)));
  EXPECT_EQ(sk.memory_bytes(), 0u);  // empty distributions stay cheap
}

TEST(Sketch, SingleAndExtremeQuantilesAreExact) {
  obs::QuantileSketch sk;
  sk.record(3.25);
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_DOUBLE_EQ(sk.min(), 3.25);
  EXPECT_DOUBLE_EQ(sk.max(), 3.25);
  // A single sample: every quantile collapses to it exactly (the estimate
  // clamps into [min, max]).
  EXPECT_DOUBLE_EQ(sk.quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(sk.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(sk.quantile(1.0), 3.25);

  sk.record(10.0);
  EXPECT_DOUBLE_EQ(sk.quantile(0.0), 3.25);  // q=0 -> exact min
  EXPECT_DOUBLE_EQ(sk.quantile(1.0), 10.0);  // q=1 -> exact max
}

TEST(Sketch, NonPositiveSamplesLandBelowEveryPositive) {
  obs::QuantileSketch sk;
  sk.record(-5.0);
  sk.record(0.0);
  sk.record(1.0);
  sk.record(2.0);
  EXPECT_EQ(sk.count(), 4u);
  EXPECT_DOUBLE_EQ(sk.min(), -5.0);
  EXPECT_DOUBLE_EQ(sk.max(), 2.0);
  // Rank 0 and 1 sit in the underflow bin, whose estimate clamps to min.
  EXPECT_DOUBLE_EQ(sk.quantile(0.0), -5.0);
  EXPECT_LE(sk.quantile(0.25), 0.0);
}

TEST(Sketch, AccuracyUniform) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(1e-4, 5.0);
  obs::QuantileSketch sk;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    samples.push_back(x);
    sk.record(x);
  }
  EXPECT_EQ(sk.count(), samples.size());
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    expect_sketch_close(sk, samples, q, "uniform");
  }
}

TEST(Sketch, AccuracyLognormal) {
  // The latency shape: multiplicative noise, a long right tail spanning
  // several octaves — exactly what the log-bucketed grid is built for.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(-6.0, 1.5);
  obs::QuantileSketch sk;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    samples.push_back(x);
    sk.record(x);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    expect_sketch_close(sk, samples, q, "lognormal");
  }
}

TEST(Sketch, AccuracyAdversarialSorted) {
  // Sorted input breaks reservoir/streaming estimators whose accuracy
  // depends on arrival order (P2 interpolates badly, naive sampling skews);
  // the static bucket grid is order-independent, so ascending, descending
  // and heavily duplicated runs must all stay within the bound.
  std::vector<double> samples;
  obs::QuantileSketch asc, desc, dup;
  for (int i = 1; i <= 10000; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  for (const double x : samples) asc.record(x);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    desc.record(*it);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    expect_sketch_close(asc, samples, q, "ascending");
    expect_sketch_close(desc, samples, q, "descending");
  }
  // 90% of mass on one value, a sparse tail above it.
  std::vector<double> dup_samples;
  for (int i = 0; i < 9000; ++i) dup_samples.push_back(0.001);
  for (int i = 0; i < 1000; ++i) {
    dup_samples.push_back(0.001 * (2 + i % 50));
  }
  for (const double x : dup_samples) dup.record(x);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    expect_sketch_close(dup, dup_samples, q, "duplicated");
  }
}

TEST(Sketch, MemoryStaysBoundedAndClearResets) {
  obs::QuantileSketch sk;
  std::mt19937_64 rng(3);
  std::lognormal_distribution<double> dist(0.0, 3.0);
  for (int i = 0; i < 100000; ++i) sk.record(dist(rng));
  EXPECT_EQ(sk.count(), 100000u);
  // The whole grid is ~5K uint64 buckets: fixed ~40 KB however many
  // samples arrive.
  EXPECT_LE(sk.memory_bytes(), 64u * 1024u);
  sk.clear();
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_TRUE(std::isnan(sk.quantile(0.5)));
}

// --- Distribution: sketch-backed quantiles, caps, exact mode ---------------

TEST(Distribution, SketchBackedQuantilesAndSummaryAgree) {
  ObsTestGuard guard;
  obs::Distribution d;
  std::vector<double> samples;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.5, 8.0);
  for (int i = 0; i < 5000; ++i) {
    const double x = dist(rng);
    samples.push_back(x);
    d.observe(x);
  }
  const util::Summary s = d.summary();
  EXPECT_EQ(s.count(), 5000u);
  const obs::Quantiles q = d.quantiles();
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p95);
  EXPECT_LE(q.p95, q.p99);
  EXPECT_LE(q.p99, q.max);
  EXPECT_DOUBLE_EQ(q.max, s.max());
  const double tol = obs::QuantileSketch::kRelativeErrorBound *
                     std::abs(exact_quantile(samples, 0.5));
  EXPECT_NEAR(q.p50, exact_quantile(samples, 0.5), tol);
}

TEST(Distribution, ExactModeRetainsSamplesAndIsExact) {
  obs::Distribution d;
  d.set_exact(true);
  EXPECT_TRUE(d.exact());
  for (const double x : {5.0, 1.0, 9.0, 3.0, 7.0}) d.observe(x);
  EXPECT_EQ(d.samples().size(), 5u);
  // Nearest-rank on {1,3,5,7,9}: the median is exactly 5, no bucket error.
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 9.0);
}

TEST(Distribution, DefaultModeRetainsNoRawSamples) {
  obs::Distribution d;
  for (int i = 0; i < 1000; ++i) d.observe(static_cast<double>(i));
  EXPECT_FALSE(d.exact());
  EXPECT_TRUE(d.samples().empty());  // bounded memory: sketch + histogram only
}

TEST(Distribution, HistogramKeyCountIsCapped) {
  obs::Distribution d;
  const int n = static_cast<int>(obs::Distribution::kMaxHistogramBins) + 500;
  for (int i = 0; i < n; ++i) d.observe(static_cast<double>(i));
  const util::Histogram h = d.histogram();
  EXPECT_EQ(h.total(), static_cast<std::uint64_t>(n));  // no sample dropped
  // Overflowing keys collapse into the largest existing bin.
  EXPECT_LE(h.bins().size(), obs::Distribution::kMaxHistogramBins);
}

TEST(Distribution, ThreadSafeUnderConcurrentObserve) {
  obs::Distribution d;
  constexpr std::size_t kN = 20000;
  util::parallel_for_chunked(0, kN, 16,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 d.observe(static_cast<double>(i % 997) +
                                           1.0);
                               }
                             });
  EXPECT_EQ(d.summary().count(), kN);
  EXPECT_EQ(d.sketch().count(), kN);
  const obs::Quantiles q = d.quantiles();
  EXPECT_TRUE(std::isfinite(q.p50));
  EXPECT_LE(q.p50, q.p99);
  EXPECT_DOUBLE_EQ(q.max, 997.0);
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorder, RecordsStructuredEventsInOrder) {
  ObsTestGuard guard;
  auto& fr = obs::FlightRecorder::global();
  fr.record(obs::FlightKind::kQueue, "submit", 7, 3.0);
  fr.record(obs::FlightKind::kLedger, "index/build-row", 7, 0.5, 1.5);
  fr.record(obs::FlightKind::kMark, "checkpoint");
  const auto evs = fr.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_LT(evs[0].seq, evs[1].seq);
  EXPECT_LT(evs[1].seq, evs[2].seq);
  EXPECT_STREQ(evs[0].label, "submit");
  EXPECT_EQ(evs[0].kind, obs::FlightKind::kQueue);
  EXPECT_EQ(evs[0].trace_id, 7u);
  EXPECT_DOUBLE_EQ(evs[0].a, 3.0);
  EXPECT_STREQ(evs[1].label, "index/build-row");
  EXPECT_DOUBLE_EQ(evs[1].b, 1.5);
  EXPECT_EQ(fr.recorded(), 3u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorder, SimtRunRecordsLedgerEventPerRowAndTile) {
  // The device loop leaves one kLedger event per tile-row index build and
  // one per matched tile, each carrying the modeled seconds it charged.
  ObsTestGuard guard;
  const auto ref = seq::GenomeModel{.length = 1500}.generate(61);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  const auto query = mut.apply(ref, 62);
  core::Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  const core::Result res = core::Engine(cfg).run(ref, query);
  ASSERT_GT(res.stats.tile_rows, 1u);
  ASSERT_GT(res.stats.tile_cols, 1u);

  std::uint64_t rows = 0, tiles = 0;
  double charged = 0.0;
  for (const obs::FlightEvent& ev : obs::FlightRecorder::global().events()) {
    if (ev.kind != obs::FlightKind::kLedger) continue;
    rows += std::string_view(ev.label) == "index/build-row";
    tiles += std::string_view(ev.label) == "match/tile";
    charged += ev.a;
  }
  EXPECT_EQ(rows, res.stats.tile_rows);
  EXPECT_EQ(tiles, std::uint64_t{res.stats.tile_rows} * res.stats.tile_cols);
  const double device_seconds =
      res.stats.index_seconds + res.stats.device_match_seconds();
  EXPECT_NEAR(charged, device_seconds, 1e-9 + device_seconds * 1e-9);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastCapacityEvents) {
  ObsTestGuard guard;
  auto& fr = obs::FlightRecorder::global();
  const std::size_t n = obs::FlightRecorder::kCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    fr.record(obs::FlightKind::kMark, "wrap", 0, static_cast<double>(i));
  }
  const auto evs = fr.events();
  ASSERT_EQ(evs.size(), obs::FlightRecorder::kCapacity);
  // Oldest retained event is exactly the one the 100 overwrites pushed to.
  EXPECT_EQ(evs.front().seq, 100u);
  EXPECT_EQ(evs.back().seq, n - 1);
  EXPECT_EQ(fr.recorded(), n);
  EXPECT_EQ(fr.dropped(), 0u);  // single-threaded: wrap never contends
}

TEST(FlightRecorder, LongLabelsTruncateNotOverflow) {
  ObsTestGuard guard;
  auto& fr = obs::FlightRecorder::global();
  const std::string longer(100, 'x');
  fr.record(obs::FlightKind::kMark, longer);
  const auto evs = fr.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(std::string(evs[0].label), std::string(38, 'x'));
}

TEST(FlightRecorder, DumpFormatHasHeaderAndTabularEvents) {
  ObsTestGuard guard;
  auto& fr = obs::FlightRecorder::global();
  fr.record(obs::FlightKind::kStream, "memset", 42, 1.0, 2.0);
  std::ostringstream os;
  fr.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# flight recorder: 1 retained, 1 recorded"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("stream\tmemset\t42"), std::string::npos) << text;
}

TEST(FlightRecorder, DisabledRecorderDropsNothingAndRecordsNothing) {
  ObsTestGuard guard;
  auto& fr = obs::FlightRecorder::global();
  fr.set_enabled(false);
  fr.record(obs::FlightKind::kMark, "invisible");
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.events().empty());
  fr.set_enabled(true);
}

TEST(FlightRecorder, WallSpansFeedTheRecorder) {
  ObsTestGuard guard;
  { obs::Span span("obs-test/flight-span", "stage"); }
  bool begin = false, end = false;
  for (const auto& ev : obs::FlightRecorder::global().events()) {
    if (std::string(ev.label) != "obs-test/flight-span") continue;
    begin |= ev.kind == obs::FlightKind::kSpanBegin;
    end |= ev.kind == obs::FlightKind::kSpanEnd;
  }
  EXPECT_TRUE(begin);
  EXPECT_TRUE(end);
}

// --- TraceContext ----------------------------------------------------------

TEST(TraceContext, ScopesNestAndRestore) {
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
  const std::uint64_t a = obs::new_trace_id();
  const std::uint64_t b = obs::new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_GT(b, a);  // monotone: ids double as submission order
  {
    obs::ScopedTrace outer({a, 3});
    EXPECT_EQ(obs::current_trace().trace_id, a);
    EXPECT_EQ(obs::current_trace().lane, 3u);
    {
      obs::ScopedTrace inner({b, 4});
      EXPECT_EQ(obs::current_trace().trace_id, b);
    }
    EXPECT_EQ(obs::current_trace().trace_id, a);
  }
  EXPECT_EQ(obs::current_trace().trace_id, 0u);
}

TEST(TraceContext, SpansInheritTraceIdLaneAndParent) {
  ObsTestGuard guard;
  const std::uint64_t id = obs::new_trace_id();
  {
    obs::ScopedTrace scope({id, 5});
    obs::Span outer("outer", "stage");
    { obs::Span inner("inner", "stage"); }
  }
  { obs::Span free_span("free", "stage"); }  // outside any request
  const auto evs = obs::Registry::global().trace().events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].trace_id, id);
  EXPECT_EQ(evs[0].track, 5u);
  ASSERT_FALSE(evs[0].attrs.empty());
  EXPECT_EQ(evs[0].attrs[0].key, "parent");
  EXPECT_EQ(std::get<std::string>(evs[0].attrs[0].value), "outer");
  EXPECT_EQ(evs[1].name, "outer");
  EXPECT_EQ(evs[1].trace_id, id);
  EXPECT_EQ(evs[2].name, "free");
  EXPECT_EQ(evs[2].trace_id, 0u);
  EXPECT_EQ(evs[2].track, 0u);
}

// --- Trace-id propagation through the serve path ---------------------------

TEST(TraceId, EverySpanCarriesTheSubmittingRequestsId) {
  ObsTestGuard guard;
  const auto ref = seq::GenomeModel{.length = 3000}.generate(71);
  serve::ServiceConfig scfg;
  scfg.engine.backend = core::Backend::kSimt;
  scfg.engine.min_length = 12;
  scfg.engine.seed_len = 6;
  scfg.engine.threads = 16;
  scfg.engine.tile_blocks = 2;
  // Two worker streams interleave the stream-op closures, whose spans must
  // inherit the submitting request's id too.
  scfg.engine.overlap_streams = 2;
  scfg.max_batch = 4;
  scfg.start_paused = true;

  constexpr int kRequests = 4;
  std::set<std::uint64_t> ids;
  {
    serve::MemService service(scfg, ref);
    std::vector<std::future<serve::QueryResult>> futures;
    for (int i = 0; i < kRequests; ++i) {
      seq::MutationModel mut;
      mut.snp_rate = 0.02;
      std::string id = "q";
      id += std::to_string(i);
      futures.push_back(service.submit(
          {std::move(id), mut.apply(ref, 80 + i), 0.0}));
    }
    service.resume();
    for (auto& f : futures) {
      const serve::QueryResult r = f.get();
      ASSERT_EQ(r.status, serve::QueryStatus::kOk) << r.error;
      EXPECT_NE(r.trace_id, 0u);
      EXPECT_EQ(r.stats.trace_id, r.trace_id);  // per-request attribution
      ids.insert(r.trace_id);
    }
    service.shutdown();
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));

  std::map<std::uint64_t, int> spans_per_request;
  int modeled_with_id = 0;
  bool queue_wait_seen = false;
  for (const auto& ev : obs::Registry::global().trace().events()) {
    if (ev.trace_id != 0) {
      // Nothing but these requests ran: a nonzero id must be one of theirs.
      EXPECT_TRUE(ids.count(ev.trace_id))
          << ev.name << " carries foreign trace id " << ev.trace_id;
      ++spans_per_request[ev.trace_id];
      modeled_with_id += ev.clock == obs::Clock::kModeled;
      queue_wait_seen |= ev.name == "serve/queue-wait";
    }
  }
  // Every request contributed spans, and the tagging reaches the modeled
  // clock domain (kernel/transfer spans recorded via the stream scheduler).
  for (const std::uint64_t id : ids) {
    EXPECT_GT(spans_per_request[id], 0) << "request " << id << " traceless";
  }
  EXPECT_GT(modeled_with_id, 0);
  EXPECT_TRUE(queue_wait_seen);

  // The flight recorder saw the same requests flow through the queue. The
  // ring retains only the *recent* window, so early requests may already be
  // evicted — but every retained id must be one of ours, and the most
  // recently submitted request must still be there.
  std::set<std::uint64_t> flight_ids;
  for (const auto& ev : obs::FlightRecorder::global().events()) {
    if (ev.trace_id != 0) flight_ids.insert(ev.trace_id);
  }
  for (const std::uint64_t id : flight_ids) {
    EXPECT_TRUE(ids.count(id)) << "foreign trace id " << id << " in ring";
  }
  EXPECT_TRUE(flight_ids.count(*ids.rbegin()))
      << "latest request evicted from the ring";
}

TEST(TraceId, DeadlineMissesAreCountedAndExported) {
  ObsTestGuard guard;
  const auto ref = seq::GenomeModel{.length = 1500}.generate(91);
  serve::ServiceConfig scfg;
  scfg.engine.backend = core::Backend::kSimt;
  scfg.engine.min_length = 12;
  scfg.engine.seed_len = 6;
  scfg.engine.threads = 16;
  scfg.engine.tile_blocks = 2;
  scfg.default_deadline_seconds = 1e-9;  // everything misses
  scfg.start_paused = true;

  serve::MemService service(scfg, ref);
  seq::MutationModel mut;
  mut.snp_rate = 0.02;
  auto fut = service.submit({"late", mut.apply(ref, 92), 0.0});
  service.resume();
  const serve::QueryResult r = fut.get();
  EXPECT_NE(r.status, serve::QueryStatus::kOk);
  service.shutdown();

  const serve::ServiceStats st = service.stats();
  EXPECT_GE(st.deadline_miss, 1u);
  EXPECT_GE(st.deadline_miss, st.expired);  // expired is a subset of missed
  EXPECT_GE(obs::Registry::global()
                .metrics()
                .counter("serve.deadline_miss")
                .value(),
            1u);
  serve::publish_service_stats(st);
  EXPECT_GE(obs::Registry::global().metrics().gauge("serve.deadline_miss")
                .value(),
            1.0);
}

// --- MetricsSnapshot exposition --------------------------------------------

TEST(Snapshot, JsonCarriesQuantilesAndNullsNonFinite) {
  ObsTestGuard guard;
  obs::Metrics m;
  m.counter("runs").add(2);
  m.gauge("run.index_seconds").set(0.125);
  auto& d = m.distribution("latency_seconds");
  for (int i = 1; i <= 100; ++i) d.observe(0.001 * i);
  m.distribution("empty_dist");  // count 0 -> NaN moments -> null

  std::ostringstream os;
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture(m);
  snap.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"run.index_seconds\":0.125"), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // The empty distribution must serialize as null moments, not NaN (which
  // is not legal JSON).
  EXPECT_NE(json.find("\"empty_dist\":{\"count\":0,\"mean\":null"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Snapshot, PrometheusExpositionFormat) {
  ObsTestGuard guard;
  obs::Metrics m;
  m.counter("serve.submitted", "requests accepted").add(5);
  m.gauge("serve.queue_depth").set(3.0);
  auto& d = m.distribution("serve.service_seconds");
  for (int i = 1; i <= 100; ++i) d.observe(0.001 * i);

  std::ostringstream os;
  obs::MetricsSnapshot::capture(m).write_prometheus(os);
  const std::string prom = os.str();
  // Names are sanitized into [a-zA-Z0-9_:] with the gpumem_ prefix;
  // counters gain the conventional _total suffix.
  EXPECT_NE(prom.find("# HELP gpumem_serve_submitted_total requests accepted"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE gpumem_serve_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("gpumem_serve_submitted_total 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gpumem_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("gpumem_serve_queue_depth 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gpumem_serve_service_seconds summary"),
            std::string::npos);
  EXPECT_NE(
      prom.find("gpumem_serve_service_seconds{quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(
      prom.find("gpumem_serve_service_seconds{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(prom.find("gpumem_serve_service_seconds_count 100"),
            std::string::npos);
  EXPECT_NE(prom.find("gpumem_serve_service_seconds_sum "),
            std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Snapshot, KnownFormats) {
  EXPECT_TRUE(obs::MetricsSnapshot::is_known_format("json"));
  EXPECT_TRUE(obs::MetricsSnapshot::is_known_format("prom"));
  EXPECT_TRUE(obs::MetricsSnapshot::is_known_format("prometheus"));
  EXPECT_TRUE(obs::MetricsSnapshot::is_known_format("tsv"));
  EXPECT_FALSE(obs::MetricsSnapshot::is_known_format("xml"));
  EXPECT_FALSE(obs::MetricsSnapshot::is_known_format(""));
}

TEST(Snapshot, ExportFlagsRejectUnknownFormatAndWriteEachFile) {
  ObsTestGuard guard;
  obs::Registry::global().set_enabled(false);
  {
    const char* argv[] = {"prog", "--metrics-format", "xml"};
    const util::Cli cli(3, const_cast<char**>(argv));
    EXPECT_THROW(obs::ExportFlags::read(cli), util::InputError);
    EXPECT_FALSE(obs::Registry::global().enabled());
  }
  {
    const char* argv[] = {"prog"};
    const util::Cli cli(1, const_cast<char**>(argv));
    const obs::ExportFlags f = obs::ExportFlags::read(cli);
    EXPECT_EQ(f.metrics_format, "json");
    EXPECT_FALSE(obs::Registry::global().enabled());  // nothing asked for
  }
  const std::string trace = ::testing::TempDir() + "/gm_export.trace.json";
  const std::string metrics = ::testing::TempDir() + "/gm_export.prom";
  const char* argv[] = {"prog",          "--trace-out",      trace.c_str(),
                        "--metrics-out", metrics.c_str(),    "--metrics-format",
                        "prom"};
  const util::Cli cli(7, const_cast<char**>(argv));
  const obs::ExportFlags f = obs::ExportFlags::read(cli);
  EXPECT_TRUE(obs::Registry::global().enabled());
  obs::Registry::global().metrics().counter("export.test", "a test").add(3);
  std::ostringstream log;
  f.write(log);
  std::ostringstream prom;
  prom << std::ifstream(metrics).rdbuf();
  const std::string text = prom.str();
  EXPECT_NE(text.find("gpumem_export_test_total 3"), std::string::npos)
      << text;
  EXPECT_TRUE(std::ifstream(trace).good());
  EXPECT_NE(log.str().find(trace), std::string::npos) << log.str();

  obs::ExportFlags unwritable = f;
  unwritable.trace_out = ::testing::TempDir() + "/no-such-dir/t.json";
  EXPECT_THROW(unwritable.write(log), util::InputError);
}

TEST(Snapshot, SnapshotAgreesWithLiveRegistry) {
  ObsTestGuard guard;
  obs::Metrics& m = obs::Registry::global().metrics();
  m.counter("kernels_launched").add(17);
  m.distribution("host.phase_ns.stitch").observe(123.0);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture(m);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "kernels_launched");
  EXPECT_EQ(snap.counters[0].second, 17u);
  ASSERT_EQ(snap.distributions.size(), 1u);
  EXPECT_EQ(snap.distributions[0].name, "host.phase_ns.stitch");
  EXPECT_EQ(snap.distributions[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.distributions[0].q.max, 123.0);
}

}  // namespace
}  // namespace gm
