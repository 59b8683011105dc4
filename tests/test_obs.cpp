// Observability layer tests: span recording across clock domains, the
// Chrome-trace exporter, metrics registry semantics, and thread safety of
// both under the same parallel substrate the pipeline uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "simt/executor.h"
#include "util/parallel.h"

namespace gm {
namespace {

/// Every test runs against the process-global registry; this guard gives
/// each one a clean, enabled registry and restores the disabled default.
class ObsTestGuard {
 public:
  ObsTestGuard() {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(true);
  }
  ~ObsTestGuard() {
    obs::Registry::global().set_enabled(false);
    obs::Registry::global().reset();
  }
};

TEST(Trace, SpanNestingRecordsContainedIntervals) {
  ObsTestGuard guard;
  {
    obs::Span outer("outer", "stage");
    outer.attr("k", std::string("v"));
    {
      obs::Span inner("inner", "stage");
    }
  }
  const auto evs = obs::Registry::global().trace().events();
  ASSERT_EQ(evs.size(), 2u);
  // RAII order: the inner span finishes (records) first.
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[1].name, "outer");
  // The outer interval contains the inner one.
  EXPECT_LE(evs[1].start_us, evs[0].start_us);
  EXPECT_GE(evs[1].start_us + evs[1].duration_us,
            evs[0].start_us + evs[0].duration_us);
  EXPECT_EQ(evs[0].clock, obs::Clock::kWall);
}

TEST(Trace, ClockDomainsStaySeparate) {
  ObsTestGuard guard;
  { obs::Span wall("host-work", "pipeline"); }
  obs::record_modeled_span("kernel-x", "kernel", 1.5, 0.25, /*device=*/2);
  const auto evs = obs::Registry::global().trace().events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].clock, obs::Clock::kWall);
  EXPECT_EQ(evs[1].clock, obs::Clock::kModeled);
  EXPECT_DOUBLE_EQ(evs[1].start_us, 1.5e6);   // ledger seconds -> us
  EXPECT_DOUBLE_EQ(evs[1].duration_us, 0.25e6);
  EXPECT_EQ(evs[1].device, 2u);

  // The exporter puts the domains on different tracks: wall on pid 0,
  // modeled device 2 on pid 3.
  std::ostringstream os;
  obs::Registry::global().trace().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"host-work\",\"cat\":\"pipeline\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("device 2 (modeled)"), std::string::npos);
  EXPECT_NE(json.find("host (wall clock)"), std::string::npos);
}

TEST(Trace, ChromeJsonGolden) {
  ObsTestGuard guard;
  // Power-of-two seconds so the seconds -> microseconds conversion is exact
  // and the golden string is deterministic.
  obs::record_modeled_span("match", "kernel", 0.25, 0.125, 0,
                           {{"grid", std::uint64_t{8}},
                            {"occupancy", 0.5},
                            {"note", std::string("a\"b")}});
  std::ostringstream os;
  obs::Registry::global().trace().write_chrome_json(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"device 0 (modeled)\"}},"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"serial\"}},"
            "{\"name\":\"match\",\"cat\":\"kernel\",\"ph\":\"X\","
            "\"ts\":250000,\"dur\":125000,\"pid\":1,\"tid\":0,"
            "\"args\":{\"grid\":8,\"occupancy\":0.5,\"note\":\"a\\\"b\"}}"
            "],\"displayTimeUnit\":\"ms\"}");
}

TEST(Trace, TruncateDropsEventsAfterMark) {
  ObsTestGuard guard;
  obs::TraceRecorder& trace = obs::Registry::global().trace();
  obs::record_modeled_span("keep", "kernel", 0.0, 1.0, 0);
  const std::size_t mark = trace.size();
  obs::record_modeled_span("abandoned-1", "kernel", 1.0, 1.0, 0);
  obs::record_modeled_span("abandoned-2", "kernel", 2.0, 1.0, 0);
  trace.truncate(mark);
  const auto evs = trace.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "keep");
}

TEST(Trace, DisabledRegistryRecordsNothing) {
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(false);
  {
    obs::Span span("invisible", "stage");
    span.attr("k", std::uint64_t{1});
    EXPECT_FALSE(span.armed());
  }
  EXPECT_EQ(obs::Registry::global().trace().size(), 0u);
}

TEST(Metrics, CountersGaugesDistributions) {
  ObsTestGuard guard;
  obs::Metrics& m = obs::Registry::global().metrics();
  m.counter("events", "test counter").add(3);
  m.counter("events").add();
  EXPECT_EQ(m.counter("events").value(), 4u);

  m.gauge("speed").set(2.5);
  EXPECT_DOUBLE_EQ(m.gauge("speed").value(), 2.5);
  EXPECT_TRUE(m.has_gauge("speed"));
  EXPECT_FALSE(m.has_gauge("missing"));

  obs::Distribution& d = m.distribution("sizes");
  d.observe(2.0);
  d.observe(4.0);
  EXPECT_EQ(d.summary().count(), 2u);
  EXPECT_DOUBLE_EQ(d.summary().mean(), 3.0);
  EXPECT_EQ(d.histogram().total(), 2u);
}

TEST(Metrics, JsonAndTsvExporters) {
  ObsTestGuard guard;
  obs::Metrics& m = obs::Registry::global().metrics();
  m.counter("runs").add(2);
  m.gauge("run.index_seconds").set(0.125);
  m.distribution("seed_occurrences").observe(3.0);
  std::ostringstream json;
  m.write_json(json);
  EXPECT_NE(json.str().find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.str().find("\"run.index_seconds\":0.125"), std::string::npos);
  EXPECT_NE(json.str().find("\"seed_occurrences\":{\"count\":1"),
            std::string::npos);
  // Single-sample variance is undefined (NaN) and must render as null.
  EXPECT_NE(json.str().find("\"variance\":null"), std::string::npos);

  std::ostringstream tsv;
  m.write_tsv(tsv);
  EXPECT_NE(tsv.str().find("counter\truns\t2"), std::string::npos);
  EXPECT_NE(tsv.str().find("gauge\trun.index_seconds\t0.125"),
            std::string::npos);
  EXPECT_NE(tsv.str().find("distribution\tseed_occurrences.count\t1"),
            std::string::npos);
}

TEST(Metrics, PublishRunStatsMirrorsIndexCacheHit) {
  ObsTestGuard guard;
  core::RunStats stats;
  stats.index_seconds = 0.0;
  stats.match_seconds = 0.5;
  stats.mem_count = 7;
  stats.index_cache_hit = true;
  core::publish_run_stats(stats);
  obs::Metrics& m = obs::Registry::global().metrics();
  ASSERT_TRUE(m.has_gauge("run.index_cache_hit"));
  EXPECT_DOUBLE_EQ(m.gauge("run.index_cache_hit").value(), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("run.mem_count").value(), 7.0);

  stats.index_cache_hit = false;
  core::publish_run_stats(stats);
  EXPECT_DOUBLE_EQ(m.gauge("run.index_cache_hit").value(), 0.0);
}

TEST(Metrics, PublishServiceStatsMirrorsEveryField) {
  ObsTestGuard guard;
  serve::ServiceStats st;
  st.submitted = 10;
  st.completed = 7;
  st.rejected = 1;
  st.expired = 1;
  st.failed = 1;
  st.batches = 3;
  st.cache_hits = 12;
  st.cache_misses = 4;
  st.cache_resident_bytes = 4096;
  st.queue_depth = 2;
  st.max_queue_depth = 5;
  st.modeled_index_seconds = 0.25;
  st.modeled_match_seconds = 0.5;
  st.queue_seconds_total = 0.125;
  serve::publish_service_stats(st);

  obs::Metrics& m = obs::Registry::global().metrics();
  EXPECT_DOUBLE_EQ(m.gauge("serve.submitted").value(), 10.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.completed").value(), 7.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.rejected").value(), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.expired").value(), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.failed").value(), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.batches").value(), 3.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.cache_hits").value(), 12.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.cache_misses").value(), 4.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.cache_resident_bytes").value(), 4096.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.queue_depth").value(), 2.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.max_queue_depth").value(), 5.0);
  EXPECT_DOUBLE_EQ(m.gauge("serve.modeled_index_seconds").value(), 0.25);
  EXPECT_DOUBLE_EQ(m.gauge("serve.modeled_match_seconds").value(), 0.5);
  EXPECT_DOUBLE_EQ(m.gauge("serve.queue_seconds_total").value(), 0.125);
}

TEST(Metrics, PublishingIsNoOpWhenDisabled) {
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(false);
  core::publish_run_stats(core::RunStats{});
  serve::publish_service_stats(serve::ServiceStats{});
  EXPECT_FALSE(obs::Registry::global().metrics().has_gauge("run.mem_count"));
  EXPECT_FALSE(obs::Registry::global().metrics().has_gauge("serve.submitted"));
}

simt::KernelTask half_asleep_kernel(simt::ThreadCtx& ctx, simt::NoShared&) {
  if (ctx.thread_id() % 2 == 1) {
    co_await ctx.sync(3);
  } else {
    for (int i = 0; i < 3; ++i) co_await ctx.sync();
  }
}

TEST(Trace, KernelSpanCountsCoroutineResumes) {
  ObsTestGuard guard;
  simt::Device dev;
  simt::LaunchConfig cfg;
  cfg.grid = 2;
  cfg.block = 8;
  cfg.label = "half-asleep";
  const simt::LaunchStats stats =
      simt::launch<simt::NoShared>(dev, cfg, half_asleep_kernel);
  // Per block: 4 awake threads resume 4 times, 4 sleepers twice; 4 phases.
  EXPECT_EQ(stats.resumes, 2u * (4u * 4u + 4u * 2u));
  EXPECT_EQ(stats.phases, 2u * 4u);
  const auto evs = obs::Registry::global().trace().events();
  const auto span = std::find_if(evs.begin(), evs.end(), [](const auto& e) {
    return e.name == "half-asleep";
  });
  ASSERT_NE(span, evs.end());
  const auto attr = [&](const std::string& key) -> std::uint64_t {
    for (const obs::Attr& a : span->attrs) {
      if (a.key == key) return std::get<std::uint64_t>(a.value);
    }
    ADD_FAILURE() << "missing attr " << key;
    return 0;
  };
  EXPECT_EQ(attr("resumes"), stats.resumes);
  EXPECT_EQ(attr("phases"), stats.phases);
}

TEST(Registry, ThreadSafeUnderParallelForChunked) {
  ObsTestGuard guard;
  obs::Metrics& m = obs::Registry::global().metrics();
  obs::Counter& hits = m.counter("hits");
  obs::Distribution& dist = m.distribution("values");
  constexpr std::size_t kN = 2000;
  util::parallel_for_chunked(0, kN, 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits.add();
      dist.observe(static_cast<double>(i % 7));
      // Registry lookups and span recording from many threads at once.
      m.gauge("last").set(static_cast<double>(i));
      obs::record_modeled_span("op", "kernel",
                               static_cast<double>(i) * 1e-6, 1e-6, 0);
    }
  });
  EXPECT_EQ(hits.value(), kN);
  EXPECT_EQ(dist.summary().count(), kN);
  EXPECT_EQ(obs::Registry::global().trace().size(), kN);
}

}  // namespace
}  // namespace gm
