// Serve-layer tests: the reference index cache must change only *when* index
// work happens (never the MEM output), and the batch service must reproduce
// independent Engine::run results while enforcing its queue semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/device_pool.h"
#include "core/pipeline.h"
#include "mem/copmem.h"
#include "mem/naive.h"
#include "obs/registry.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "serve/service.h"
#include "simt/device.h"
#include "store/artifact.h"
#include "store/loaded_index.h"

namespace gm {
namespace {

using core::Config;
using core::DevicePool;
using core::Engine;
using serve::DeviceRowIndexCache;
using serve::MemService;
using serve::QueryRequest;
using serve::QueryStatus;
using serve::ServiceConfig;

Config small_config() {
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;  // tile_len 224 -> several rows on a few-kbp reference
  return cfg;
}

seq::Sequence test_reference(std::size_t length, std::uint64_t seed) {
  return seq::GenomeModel{.length = length}.generate(seed);
}

seq::Sequence derived_query(const seq::Sequence& ref, std::uint64_t seed,
                            double snp_rate = 0.02) {
  seq::MutationModel mut;
  mut.snp_rate = snp_rate;
  mut.indel_rate = 0.003;
  return mut.apply(ref, seed);
}

// --- DeviceRowIndexCache ---------------------------------------------------

TEST(IndexCache, ColdThenWarmIsByteIdentical) {
  const auto ref = test_reference(3000, 51);
  const auto query = derived_query(ref, 52);
  const Config cfg = small_config();
  const Engine engine(cfg);
  const auto fresh = engine.run(ref, query);
  ASSERT_FALSE(fresh.mems.empty());

  DevicePool pool(cfg, 1, ref);
  DeviceRowIndexCache cache(pool.device(0), cfg, /*ref_id=*/1);
  pool.attach(0, &cache);

  const auto cold = pool.run(query);
  EXPECT_EQ(cold.mems, fresh.mems);
  EXPECT_FALSE(cold.stats.index_cache_hit);
  EXPECT_GT(cold.stats.index_seconds, 0.0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cache.rows_cached());
  EXPECT_GT(cache.rows_cached(), 0u);

  const auto warm = pool.run(query);
  EXPECT_EQ(warm.mems, fresh.mems);
  EXPECT_TRUE(warm.stats.index_cache_hit);
  EXPECT_EQ(warm.stats.index_seconds, 0.0);
  EXPECT_EQ(cache.hits(), cache.rows_cached());
}

TEST(IndexCache, ServesManyDistinctQueries) {
  const auto ref = test_reference(2500, 53);
  const Config cfg = small_config();
  DevicePool pool(cfg, 1, ref);
  DeviceRowIndexCache cache(pool.device(0), cfg, 1);
  pool.attach(0, &cache);

  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    const auto query = derived_query(ref, seed, 0.01 + 0.01 * (seed - 60));
    const auto got = pool.run(query);
    EXPECT_EQ(got.mems, mem::find_mems_naive(ref, query, cfg.min_length))
        << "query seed " << seed;
  }
  EXPECT_EQ(cache.misses(), cache.rows_cached());  // each row built once
  EXPECT_EQ(cache.hits(), 2 * cache.rows_cached());
}

TEST(IndexCache, LedgerBytesBoundedAcrossCachedRuns) {
  const auto ref = test_reference(4000, 54);
  const auto query = derived_query(ref, 55);
  const Config cfg = small_config();
  DevicePool pool(cfg, 1, ref);
  simt::Device& dev = pool.device(0);
  DeviceRowIndexCache cache(dev, cfg, 1);
  pool.attach(0, &cache);

  (void)pool.run(query);
  const std::size_t resident_after_warmup = dev.bytes_in_use();
  EXPECT_EQ(resident_after_warmup, cache.resident_bytes());
  EXPECT_GT(resident_after_warmup, 0u);

  std::size_t first_peak = 0;
  for (int i = 0; i < 5; ++i) {
    const auto r = pool.run(query);
    // Transient run buffers all freed; only cached indexes stay resident.
    EXPECT_EQ(dev.bytes_in_use(), resident_after_warmup) << "run " << i;
    if (i == 0) first_peak = r.stats.device_peak_bytes;
    EXPECT_EQ(r.stats.device_peak_bytes, first_peak) << "run " << i;
  }
}

TEST(IndexCache, RejectsForeignDevice) {
  const auto ref = test_reference(1500, 56);
  const Config cfg = small_config();
  simt::Device bound(cfg.device), other(cfg.device, 1);
  DeviceRowIndexCache cache(bound, cfg, 1);
  bool hit = false;
  EXPECT_THROW(cache.acquire(other, ref, 0, hit), std::invalid_argument);
}

TEST(IndexCache, GeometryMismatchDetected) {
  const auto ref = test_reference(1500, 57);
  const auto query = derived_query(ref, 58);
  const Config cfg = small_config();
  Config different = cfg;
  different.seed_len = 8;  // different index geometry, same tile shape
  different.min_length = 16;
  DevicePool pool(different, 1, ref);
  DeviceRowIndexCache cache(pool.device(0), cfg, 1);
  pool.attach(0, &cache);
  EXPECT_THROW((void)pool.run(query), std::invalid_argument);
}

TEST(IndexCache, KeyReflectsGeometry) {
  const Config cfg = small_config();
  const auto key = serve::make_cache_key(7, cfg);
  EXPECT_EQ(key.ref_id, 7u);
  EXPECT_EQ(key.seed_len, cfg.seed_len);
  EXPECT_EQ(key.step, cfg.validated().step);
  EXPECT_EQ(key.tile_len, cfg.validated().tile_len);
  Config other = cfg;
  other.seed_len = 8;
  other.min_length = 16;
  EXPECT_FALSE(key == serve::make_cache_key(7, other));
}

TEST(IndexCache, ClearReleasesDeviceMemory) {
  const auto ref = test_reference(2000, 59);
  const auto query = derived_query(ref, 60);
  const Config cfg = small_config();
  DevicePool pool(cfg, 1, ref);
  simt::Device& dev = pool.device(0);
  DeviceRowIndexCache cache(dev, cfg, 1);
  pool.attach(0, &cache);
  (void)pool.run(query);
  ASSERT_GT(dev.bytes_in_use(), 0u);
  cache.clear();
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(cache.rows_cached(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// --- MemService ------------------------------------------------------------

TEST(MemServiceTest, BatchedResultsMatchIndependentRuns) {
  const auto ref = test_reference(3000, 61);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.devices = 2;
  scfg.max_batch = 4;
  const Engine engine(scfg.engine);

  std::vector<seq::Sequence> queries;
  for (std::uint64_t seed = 70; seed < 74; ++seed)
    queries.push_back(derived_query(ref, seed));

  MemService service(scfg, ref);
  auto round = [&](bool first_round) {
    std::vector<std::future<serve::QueryResult>> futures;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::string id = "q";
      id += std::to_string(i);
      futures.push_back(service.submit({std::move(id), queries[i], 0.0}));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const auto res = futures[i].get();
      ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
      EXPECT_EQ(res.mems, engine.run(ref, queries[i]).mems) << "query " << i;
      // The dispatcher serializes requests, so only the very first query
      // ever builds; everything after it is served warm.
      const bool expect_warm = !(first_round && i == 0);
      EXPECT_EQ(res.stats.index_cache_hit, expect_warm) << "query " << i;
      if (expect_warm) {
        EXPECT_EQ(res.stats.index_seconds, 0.0);
      }
      EXPECT_GT(res.stats.match_seconds, 0.0);
      EXPECT_GT(res.stats.kernels_launched, 0u);
    }
  };
  round(true);   // builds each device's rows exactly once, on query 0
  round(false);  // fully warm
  const auto st = service.stats();
  EXPECT_EQ(st.completed, 2 * queries.size());
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.cache_resident_bytes, 0u);
}

TEST(MemServiceTest, CacheOffMatchesSingleRuns) {
  const auto ref = test_reference(2500, 62);
  const auto query = derived_query(ref, 63);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.cache_enabled = false;
  const Engine engine(scfg.engine);
  const auto fresh = engine.run(ref, query);

  MemService service(scfg, ref);
  for (int i = 0; i < 2; ++i) {
    auto res = service.submit({"q", query, 0.0}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    EXPECT_EQ(res.mems, fresh.mems);
    EXPECT_FALSE(res.stats.index_cache_hit);
    // Same modeled work as a fresh run; delta accounting off a growing
    // ledger total only admits floating-point noise.
    EXPECT_NEAR(res.stats.index_seconds, fresh.stats.index_seconds,
                1e-9 + 1e-6 * fresh.stats.index_seconds);
    EXPECT_EQ(res.stats.kernels_launched, fresh.stats.kernels_launched);
  }
  const auto st = service.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.cache_resident_bytes, 0u);
}

TEST(MemServiceTest, CopmemFastIndexMatchesEngineRuns) {
  // Fast-index mode answers every request from the host-side copMEM finder:
  // identical MEMs to the device pipeline, zero index_seconds, and every
  // result flagged as a warm index.
  const auto ref = test_reference(3000, 68);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.copmem_fast_index = true;
  const Engine engine(scfg.engine);

  MemService service(scfg, ref);
  for (std::uint64_t seed = 80; seed < 83; ++seed) {
    const auto query = derived_query(ref, seed);
    auto res = service.submit({"q" + std::to_string(seed), query, 0.0}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    EXPECT_EQ(res.mems, engine.run(ref, query).mems) << "seed " << seed;
    EXPECT_TRUE(res.stats.index_cache_hit);
    EXPECT_EQ(res.stats.index_seconds, 0.0);
  }
}

TEST(MemServiceTest, CopmemFastIndexAdoptsArtifactSection) {
  // With an attached artifact carrying kCopmemIndex, the service adopts the
  // persisted sampled index instead of rebuilding — same MEM output.
  const auto ref = test_reference(2500, 69);
  const auto query = derived_query(ref, 71);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.copmem_fast_index = true;

  store::BuildOptions bopt;
  bopt.copmem_step =
      mem::CopMemFinder::choose_params(scfg.engine.min_length,
                                       scfg.engine.seed_len)
          .k1;
  scfg.artifact = std::make_shared<const store::LoadedIndex>(
      store::MappedArtifact::from_buffer(
          store::build_artifact(ref, scfg.engine, bopt), "<test>"));

  const auto fresh = Engine(scfg.engine).run(ref, query);
  MemService service(scfg, ref);
  auto res = service.submit({"q", query, 0.0}).get();
  ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
  EXPECT_EQ(res.mems, fresh.mems);
  EXPECT_TRUE(res.stats.index_cache_hit);
}

TEST(MemServiceTest, BackpressureRejectsWhenQueueFull) {
  const auto ref = test_reference(1500, 64);
  const auto query = derived_query(ref, 65);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.queue_capacity = 2;
  scfg.start_paused = true;  // nothing dispatches until resume()

  MemService service(scfg, ref);
  auto f1 = service.submit({"a", query, 0.0});
  auto f2 = service.submit({"b", query, 0.0});
  auto f3 = service.submit({"c", query, 0.0});  // over capacity

  const auto r3 = f3.get();  // resolved immediately, pre-dispatch
  EXPECT_EQ(r3.status, QueryStatus::kRejected);
  EXPECT_NE(r3.error.find("queue full"), std::string::npos) << r3.error;

  service.resume();
  EXPECT_EQ(f1.get().status, QueryStatus::kOk);
  EXPECT_EQ(f2.get().status, QueryStatus::kOk);
  const auto st = service.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.max_queue_depth, 2u);
}

TEST(MemServiceTest, DeadlineExpiresWhileQueued) {
  const auto ref = test_reference(1500, 66);
  const auto query = derived_query(ref, 67);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;

  MemService service(scfg, ref);
  QueryRequest doomed{"doomed", query, 1e-4};
  auto f_doomed = service.submit(std::move(doomed));
  auto f_ok = service.submit({"patient", query, 0.0});  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();

  const auto r_doomed = f_doomed.get();
  EXPECT_EQ(r_doomed.status, QueryStatus::kExpired);
  EXPECT_TRUE(r_doomed.mems.empty());
  EXPECT_EQ(f_ok.get().status, QueryStatus::kOk);
  const auto st = service.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(MemServiceTest, DefaultDeadlineApplies) {
  const auto ref = test_reference(1500, 68);
  const auto query = derived_query(ref, 69);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;
  scfg.default_deadline_seconds = 1e-4;

  MemService service(scfg, ref);
  auto fut = service.submit({"q", query, 0.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  EXPECT_EQ(fut.get().status, QueryStatus::kExpired);
}

TEST(MemServiceTest, ShutdownDrainsQueueAndRejectsNew) {
  const auto ref = test_reference(1500, 70);
  const auto query = derived_query(ref, 71);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;

  MemService service(scfg, ref);
  auto queued = service.submit({"queued", query, 0.0});
  service.resume();
  service.shutdown();  // must drain the already-queued request

  EXPECT_EQ(queued.get().status, QueryStatus::kOk);
  auto late = service.submit({"late", query, 0.0});
  const auto r = late.get();
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_NE(r.error.find("shut down"), std::string::npos) << r.error;
  service.shutdown();  // idempotent
}

// Submit-time validation: the wire path must not be able to smuggle states
// the offline CLI rejects (ISSUE 9). Invalid requests resolve immediately
// with kInvalid, never occupy a queue slot, and are counted separately from
// admission rejections.
TEST(MemServiceTest, EmptyQueryIsInvalidNeverEnqueued) {
  const auto ref = test_reference(1500, 72);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;  // an enqueue would be visible in queue_depth
  MemService service(scfg, ref);
  const auto res = service.submit({"empty", seq::Sequence(), 0.0}).get();
  EXPECT_EQ(res.status, QueryStatus::kInvalid);
  EXPECT_NE(res.error.find("empty query"), std::string::npos) << res.error;
  EXPECT_TRUE(res.mems.empty());
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().invalid, 1u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(MemServiceTest, BadDeadlinesAreInvalidNeverEnqueued) {
  const auto ref = test_reference(1500, 74);
  const auto query = derived_query(ref, 75);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;
  MemService service(scfg, ref);

  const auto negative = service.submit({"neg", query, -1.0}).get();
  EXPECT_EQ(negative.status, QueryStatus::kInvalid);
  EXPECT_NE(negative.error.find("deadline"), std::string::npos)
      << negative.error;

  const auto nan =
      service.submit({"nan", query, std::nan("")}).get();
  EXPECT_EQ(nan.status, QueryStatus::kInvalid);

  const auto huge =
      service.submit({"inf", query, 1e300}).get();
  EXPECT_EQ(huge.status, QueryStatus::kInvalid);

  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().invalid, 3u);

  // Zero stays the documented "use the service default" sentinel.
  auto ok = service.submit({"zero", query, 0.0});
  EXPECT_EQ(service.queue_depth(), 1u);
  service.resume();
  EXPECT_EQ(ok.get().status, QueryStatus::kOk);
}

TEST(MemServiceTest, PerRequestMinLengthRoutesAndFilters) {
  const auto ref = test_reference(3000, 91);
  const auto query = derived_query(ref, 92);
  ServiceConfig scfg;
  scfg.engine = small_config();  // engine min_length 12
  MemService plain(scfg, ref);

  const auto at_engine = plain.submit({"engine-L", query, 0.0, 0}).get();
  ASSERT_EQ(at_engine.status, QueryStatus::kOk);
  ASSERT_FALSE(at_engine.mems.empty());

  // Below the engine's L: invalid, never enqueued (the device pipeline
  // cannot report MEMs shorter than it was built for).
  const auto low = plain.submit({"low", query, 0.0, 6}).get();
  EXPECT_EQ(low.status, QueryStatus::kInvalid);
  EXPECT_NE(low.error.find("min_length"), std::string::npos) << low.error;
  EXPECT_EQ(plain.stats().invalid, 1u);

  // Larger per-request L: exactly the engine-L result filtered by length
  // (MEM maximality is L-independent).
  const auto at20 = plain.submit({"filtered", query, 0.0, 20}).get();
  ASSERT_EQ(at20.status, QueryStatus::kOk);
  std::vector<mem::Mem> expect;
  for (const auto& m : at_engine.mems) {
    if (m.len >= 20) expect.push_back(m);
  }
  EXPECT_EQ(at20.mems, expect);

  // Long-MEM mode: the resident lazy finder answers requests at or above
  // the threshold, bit-identically to the device path.
  ServiceConfig lazy_cfg = scfg;
  lazy_cfg.lazy_lcp = true;
  lazy_cfg.long_mem_threshold = 20;
  MemService lazy(lazy_cfg, ref);
  const auto lazy20 = lazy.submit({"lazy", query, 0.0, 20}).get();
  ASSERT_EQ(lazy20.status, QueryStatus::kOk);
  EXPECT_EQ(lazy20.mems, at20.mems);
  EXPECT_EQ(lazy20.path, "slamem-lazy");

  // Below the threshold the device pool still answers, unchanged.
  const auto dev = lazy.submit({"device", query, 0.0, 0}).get();
  ASSERT_EQ(dev.status, QueryStatus::kOk);
  EXPECT_EQ(dev.mems, at_engine.mems);
  EXPECT_EQ(dev.path, "device-pool");
}

TEST(MemServiceTest, HostRoutesShareOneServiceByMinLength) {
  // Both host routes in one service, as gpumem_serve --fast-index
  // --long-mem runs them: copMEM answers from the engine's L up to the
  // long-MEM threshold, the lazy finder from the threshold up. Every answer
  // is Engine::run filtered to the request's length, and the request span
  // names the route that answered.
  const auto ref = test_reference(3000, 93);
  const auto query = derived_query(ref, 94);
  ServiceConfig scfg;
  scfg.engine = small_config();  // engine min_length 12
  scfg.copmem_fast_index = true;
  scfg.lazy_lcp = true;
  scfg.long_mem_threshold = 20;
  const auto whole = Engine(scfg.engine).run(ref, query).mems;

  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  MemService service(scfg, ref);
  const std::vector<std::pair<std::uint32_t, std::string>> cases = {
      {0, "copmem"}, {16, "copmem"}, {20, "slamem-lazy"}, {28, "slamem-lazy"}};
  for (const auto& [len, path] : cases) {
    const std::string id = std::string("L").append(std::to_string(len));
    const auto res = service.submit({id, query, 0.0, len}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    std::vector<mem::Mem> expect = whole;
    std::erase_if(expect, [len](const mem::Mem& m) { return m.len < len; });
    EXPECT_EQ(res.mems, expect) << "min_length " << len;
    EXPECT_EQ(res.path, path) << "min_length " << len;
  }
  service.shutdown();

  std::vector<std::string> span_paths;
  for (const obs::SpanEvent& ev : reg.trace().events()) {
    if (ev.name != "serve/request") continue;
    for (const obs::Attr& a : ev.attrs) {
      if (a.key == "path") {
        span_paths.push_back(std::get<std::string>(a.value));
      }
    }
  }
  reg.set_enabled(false);
  reg.reset();
  ASSERT_EQ(span_paths.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(span_paths[i], cases[i].second);
  }
}

TEST(MemServiceTest, CopmemRouteReportsMeasuredMatchTime) {
  // A host route's match_seconds is the find's measured wall time. τ = 256
  // is the simulated block size and must not shard the host find: when it
  // did, the longest of 256 back-to-back shards was reported, ~1/256 of
  // the real time. Host routes add nothing to the modeled service totals.
  const auto ref = test_reference(20000, 95);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.engine.threads = 256;
  scfg.copmem_fast_index = true;
  MemService service(scfg, ref);
  for (std::uint64_t seed = 96; seed < 99; ++seed) {
    const auto res =
        service.submit({"q", derived_query(ref, seed), 0.0}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    EXPECT_EQ(res.path, "copmem");
    EXPECT_GE(res.stats.match_seconds, 0.5 * res.stats.wall_seconds)
        << "seed " << seed;
  }
  const auto st = service.stats();
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.modeled_index_seconds, 0.0);
  EXPECT_EQ(st.modeled_match_seconds, 0.0);
}

TEST(MemServiceTest, CompletionCallbackFiresOnceWithFinalResult) {
  const auto ref = test_reference(1500, 76);
  const auto query = derived_query(ref, 77);
  ServiceConfig scfg;
  scfg.engine = small_config();
  MemService service(scfg, ref);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryStatus> seen;
  const auto on_done = [&](const serve::QueryResult& r) {
    std::lock_guard lock(mu);
    seen.push_back(r.status);
    cv.notify_all();
  };

  auto fut = service.submit({"cb", query, 0.0}, on_done);
  EXPECT_EQ(fut.get().status, QueryStatus::kOk);
  // Invalid and rejected submits invoke the callback on the submitting
  // thread before the future returns.
  (void)service.submit({"cb-empty", seq::Sequence(), 0.0}, on_done);
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return seen.size() == 2; });
    EXPECT_EQ(seen[0], QueryStatus::kOk);
    EXPECT_EQ(seen[1], QueryStatus::kInvalid);
  }
}

TEST(MemServiceTest, InvalidConfigsThrow) {
  const auto ref = test_reference(1000, 73);
  ServiceConfig native;
  native.engine = small_config();
  native.engine.backend = core::Backend::kNative;
  EXPECT_THROW(MemService(native, ref), std::invalid_argument);

  ServiceConfig no_devices;
  no_devices.engine = small_config();
  no_devices.devices = 0;
  EXPECT_THROW(MemService(no_devices, ref), std::invalid_argument);

  ServiceConfig no_queue;
  no_queue.engine = small_config();
  no_queue.queue_capacity = 0;
  EXPECT_THROW(MemService(no_queue, ref), std::invalid_argument);
}

TEST(MemServiceTest, WarmServiceBeatsColdOnModeledTime) {
  // The tentpole claim at test scale: after warm-up, a request's modeled
  // device time drops by exactly the index-build share.
  const auto ref = test_reference(4000, 74);
  const auto query = derived_query(ref, 75);
  ServiceConfig scfg;
  scfg.engine = small_config();
  MemService service(scfg, ref);

  const auto cold = service.submit({"cold", query, 0.0}).get();
  const auto warm = service.submit({"warm", query, 0.0}).get();
  ASSERT_EQ(cold.status, QueryStatus::kOk);
  ASSERT_EQ(warm.status, QueryStatus::kOk);
  ASSERT_GT(cold.stats.index_seconds, 0.0);
  EXPECT_EQ(warm.stats.index_seconds, 0.0);
  const double cold_total = cold.stats.index_seconds + cold.stats.match_seconds;
  const double warm_total = warm.stats.index_seconds + warm.stats.match_seconds;
  EXPECT_LT(warm_total, cold_total);
}

}  // namespace
}  // namespace gm
