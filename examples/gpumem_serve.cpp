// gpumem_serve: replay a multi-record FASTA query file through the batched
// MEM service (serve::MemService) and print a throughput/latency report —
// the shape of a production deployment answering a query stream against one
// resident reference, with the tile-index cache amortizing index builds.
// `gpumem_serve --help` lists every flag with its default.
//
//   ./gpumem_serve --ref ref.fa --queries queries.fa [engine/service flags]
//   ./gpumem_serve --demo          # synthetic reference + queries, no files
//
// Multi-tenant mode (docs/STORAGE.md): --registry serves a directory of
// *.gmidx artifacts, routing each query record by its "<tenant>/<id>" name
// prefix, else to --tenant.
//
//   ./gpumem_serve --registry DIR --queries queries.fa [--tenant NAME]
//                  [--pin a,b] [--max-resident 4]
//
// Network mode (docs/SERVING.md): --listen serves the wire protocol
// (net::Server) on 127.0.0.1 over one reference or a registry. --loopback N
// replays the queries through N TCP clients and compares every MEM list
// bit for bit with a direct submit (net::check_loopback).
//
//   ./gpumem_serve --ref ref.fa --queries q.fa --listen 0 --loopback 4
//   ./gpumem_serve --demo --listen 7070 --serve-seconds 60
//
// Exits nonzero when any request fails, expires, or misses its deadline.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/config.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "seq/fasta.h"
#include "seq/synthetic.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using gm::serve::QueryRequest;
using gm::serve::QueryResult;

/// gpumem_serve's engine defaults: small tiles for short queries.
gm::core::Config serve_defaults() {
  gm::core::Config cfg;
  cfg.threads = 64;
  cfg.tile_blocks = 8;
  return cfg;
}

/// Writes --trace-out / --metrics-out and --flight-out if requested, once
/// the run is over.
void export_obs(const gm::obs::ExportFlags& obs, const gm::util::Cli& cli) {
  obs.write(std::cerr);
  const std::string flight_out = cli.get("flight-out", "");
  if (flight_out.empty()) return;
  if (!gm::obs::FlightRecorder::global().dump_to_file(flight_out)) {
    throw gm::util::InputError("cannot open --flight-out file " + flight_out);
  }
  std::cerr << "[obs] flight recorder dumped to " << flight_out << '\n';
}

/// Where requests go: the one reference's service, or in registry mode the
/// service of the tenant each request id routes to. Owns whichever it is.
struct Router {
  std::unique_ptr<gm::serve::MemService> service;
  std::unique_ptr<gm::serve::ReferenceRegistry> registry;
  std::string default_tenant;

  /// "" in single-reference mode.
  std::string tenant_of(const std::string& id) const {
    return registry ? registry->tenant_of(id, default_tenant) : "";
  }
  /// The tenant keeps an evicted tenant's service alive until the result
  /// is read.
  using Submitted =
      std::pair<std::shared_ptr<gm::serve::Tenant>, std::future<QueryResult>>;
  Submitted submit(QueryRequest req, const std::string& tenant) const {
    if (!registry) return {nullptr, service->submit(std::move(req))};
    std::shared_ptr<gm::serve::Tenant> t = registry->acquire(tenant);
    std::future<QueryResult> fut = t->service().submit(std::move(req));
    return {std::move(t), std::move(fut)};
  }
};

/// --registry: scans DIR, pins --pin, and defaults to --tenant (or to the
/// only tenant).
Router open_registry(const gm::util::Cli& cli, const std::string& dir,
                     const gm::serve::ServiceConfig& scfg) {
  const std::size_t max_resident =
      static_cast<std::size_t>(cli.get_int("max-resident", 4));
  Router router;
  router.registry =
      std::make_unique<gm::serve::ReferenceRegistry>(dir, scfg, max_resident);
  const std::vector<std::string> names = router.registry->tenants();
  if (names.empty()) {
    throw gm::util::InputError("registry " + dir +
                               " holds no *.gmidx artifacts (build some with "
                               "`gpumem_cli index-build`)");
  }
  std::cerr << "[registry] " << dir << ": " << names.size() << " tenant(s):";
  for (const auto& n : names) std::cerr << ' ' << n;
  std::cerr << ", max " << max_resident << " resident\n";
  std::istringstream pins(cli.get("pin", ""));
  for (std::string name; std::getline(pins, name, ',');) {
    if (name.empty()) continue;
    router.registry->pin(name);
    std::cerr << "[registry] pinned " << name << '\n';
  }
  router.default_tenant = cli.get("tenant", "");
  if (router.default_tenant.empty() && names.size() == 1) {
    router.default_tenant = names.front();
  }
  return router;
}

/// Every query record `repeat` times, ids suffixed "#r" when repeated.
std::vector<QueryRequest> replay_requests(
    const std::vector<gm::seq::FastaRecord>& queries, std::size_t repeat,
    std::uint32_t min_length) {
  std::vector<QueryRequest> out;
  for (std::size_t r = 0; r < repeat; ++r) {
    for (const auto& record : queries) {
      QueryRequest req;
      req.id = record.name;
      if (repeat > 1) req.id += '#' + std::to_string(r);
      req.query = record.sequence;
      req.min_length = min_length;
      out.push_back(std::move(req));
    }
  }
  return out;
}

/// Replays `requests` directly (no sockets) and prints the report.
int run_replay(Router& router, std::vector<QueryRequest> requests,
               double stats_every) {
  gm::serve::MemService* service = router.service.get();
  // --stats-every: a monitor thread that publishes the service stats and
  // prints a line of them on a fixed cadence until the replay has drained.
  std::jthread stats_thread;
  if (service != nullptr && stats_every > 0.0) {
    stats_thread = std::jthread([service, stats_every](std::stop_token stop) {
      gm::util::Timer t;
      std::mutex mu;
      std::condition_variable_any cv;
      std::unique_lock lock(mu);
      while (!cv.wait_for(lock, stop,
                          std::chrono::duration<double>(stats_every),
                          [&stop] { return stop.stop_requested(); })) {
        const gm::serve::ServiceStats st = service->stats();
        gm::serve::publish_service_stats(st);
        std::cerr << "[stats t=" << t.seconds() << "s] submitted="
                  << st.submitted << " completed=" << st.completed
                  << " queue_depth=" << st.queue_depth;
        gm::obs::Metrics& m = gm::obs::Registry::global().metrics();
        if (m.has_distribution("serve.service_seconds")) {
          const gm::obs::Quantiles q =
              m.distribution("serve.service_seconds").quantiles();
          std::cerr << " service_ms p50/p95/p99=" << q.p50 * 1e3 << '/'
                    << q.p95 * 1e3 << '/' << q.p99 * 1e3;
        }
        std::cerr << '\n';
      }
    });
  }

  std::vector<Router::Submitted> inflight;
  gm::util::Timer wall;
  for (QueryRequest& req : requests) {
    const std::string tenant = router.tenant_of(req.id);
    if (router.registry && tenant.empty()) {
      throw gm::util::InputError("query record '" + req.id +
                                 "' names no tenant and no --tenant default "
                                 "is set");
    }
    inflight.push_back(router.submit(std::move(req), tenant));
  }
  if (service != nullptr) service->resume();

  gm::util::Summary queue_s, service_s;
  std::uint64_t ok = 0, mems = 0, warm = 0, not_ok = 0;
  for (auto& [keepalive, fut] : inflight) {
    const QueryResult res = fut.get();
    const std::string tenant = router.tenant_of(res.id);
    if (res.status == gm::serve::QueryStatus::kOk) {
      ++ok;
      mems += res.stats.mem_count;
      warm += res.stats.index_cache_hit;
    } else {
      ++not_ok;
    }
    queue_s.add(res.queue_seconds);
    service_s.add(res.service_seconds);
    // Host routes measure their match on the wall clock; only the
    // device pool's times are modeled.
    const bool modeled = res.path == "device-pool";
    std::cerr << "[req " << res.id
              << (tenant.empty() ? "" : " -> " + tenant) << "] "
              << to_string(res.status) << ", " << res.stats.mem_count
              << " MEMs via " << res.path << ", queue "
              << res.queue_seconds * 1e3 << " ms, service "
              << res.service_seconds * 1e3 << " ms, "
              << (modeled ? "modeled " : "match (wall) ")
              << (res.stats.index_seconds + res.stats.match_seconds) * 1e3
              << " ms" << (res.stats.index_cache_hit ? " (warm index)" : "")
              << (res.error.empty() ? "" : " — " + res.error) << '\n';
  }
  const double wall_seconds = wall.seconds();
  inflight.clear();  // release tenant refs before the registry unwinds
  stats_thread = std::jthread();  // stops and joins the monitor

  std::cout << "=== gpumem_serve report ===\n"
            << "requests:        " << (ok + not_ok) << " (" << ok
            << " ok, " << not_ok << " not ok)\n"
            << "MEMs reported:   " << mems << '\n'
            << "wall time:       " << wall_seconds << " s ("
            << (wall_seconds > 0 ? static_cast<double>(ok) / wall_seconds
                                 : 0.0)
            << " queries/s)\n"
            << "warm requests:   " << warm << "/" << ok << '\n'
            << "service latency: mean " << service_s.mean() * 1e3
            << " ms, max " << service_s.max() * 1e3 << " ms\n";
  if (router.registry) {
    const gm::serve::RegistryStats rs = router.registry->stats();
    std::cout << "tenants:         " << rs.known << " known, " << rs.resident
              << " resident\n"
              << "registry:        " << rs.loads << " loads, " << rs.hits
              << " hits, " << rs.evictions << " evictions\n";
    return not_ok == 0 ? 0 : 1;
  }

  service->shutdown();
  const gm::serve::ServiceStats st = service->stats();
  const double modeled_total =
      st.modeled_index_seconds + st.modeled_match_seconds;
  std::cout << "modeled device:  " << modeled_total << " s total ("
            << (modeled_total > 0 ? static_cast<double>(ok) / modeled_total
                                  : 0.0)
            << " queries/s), index " << st.modeled_index_seconds
            << " s, match " << st.modeled_match_seconds << " s\n"
            << "index cache:     " << st.cache_hits << " hits, "
            << st.cache_misses << " misses, " << st.cache_resident_bytes
            << " resident bytes\n"
            << "queue latency:   mean " << queue_s.mean() * 1e3
            << " ms, max " << queue_s.max() * 1e3 << " ms (depth peak "
            << st.max_queue_depth << ")\n"
            << "batches:         " << st.batches << '\n';
  // Recorded only while observability is on.
  gm::obs::Metrics& m = gm::obs::Registry::global().metrics();
  if (m.has_distribution("serve.queue_seconds") &&
      m.has_distribution("serve.service_seconds")) {
    const gm::obs::Quantiles q =
        m.distribution("serve.queue_seconds").quantiles();
    const gm::obs::Quantiles s =
        m.distribution("serve.service_seconds").quantiles();
    std::cout << "queue p50/p95/p99:   " << q.p50 * 1e3 << " / "
              << q.p95 * 1e3 << " / " << q.p99 * 1e3 << " ms\n"
              << "service p50/p95/p99: " << s.p50 * 1e3 << " / "
              << s.p95 * 1e3 << " / " << s.p99 * 1e3 << " ms\n";
  }
  if (st.deadline_miss > 0) {
    std::cout << "deadline misses: " << st.deadline_miss << " (of "
              << (ok + not_ok) << " requests; " << st.expired
              << " expired while queued)\n";
  }
  if (st.deadline_miss > 0) {
    std::cerr << "error: " << st.deadline_miss
              << " request(s) missed their deadline\n";
    return 1;
  }
  return not_ok == 0 ? 0 : 1;
}

/// --listen: serve the wire protocol; with --loopback N, self-check over
/// real sockets against direct submits and exit.
int run_listen_mode(const gm::util::Cli& cli, Router& router,
                    std::vector<QueryRequest> requests) {
  gm::net::ServerConfig ncfg;
  ncfg.port = static_cast<std::uint16_t>(cli.get_int("listen", 0));
  ncfg.workers =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, cli.get_int("net-workers", 2)));
  ncfg.max_connections =
      static_cast<std::size_t>(cli.get_int("max-conns", 256));
  ncfg.tenant_quota =
      static_cast<std::size_t>(cli.get_int("tenant-quota", 0));
  ncfg.shed_fraction = cli.get_double("shed-fraction", 0.9);

  auto server = router.registry
                    ? std::make_unique<gm::net::Server>(
                          ncfg, *router.registry, router.default_tenant)
                    : std::make_unique<gm::net::Server>(ncfg, *router.service);
  std::cerr << "[net] listening on 127.0.0.1:" << server->port() << " ("
            << ncfg.workers << " worker event thread(s), cap "
            << ncfg.max_connections << " connections)\n";

  const auto clients =
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("loopback", 0)));
  if (clients == 0) {
    const double serve_seconds = cli.get_double("serve-seconds", 0.0);
    if (serve_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(serve_seconds));
    } else {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    server->shutdown();
    return 0;
  }
  if (requests.empty()) {
    throw gm::util::InputError("--loopback needs --queries (or --demo)");
  }

  // Expected answers: the same requests submitted directly, no sockets.
  // The frames carry each request's min_length, so the loopback exercises
  // that wire field and the long-MEM routing it can trigger.
  std::vector<gm::net::LoopbackCase> cases;
  for (QueryRequest& req : requests) {
    gm::net::LoopbackCase c;
    c.frame.id = req.id;
    c.frame.tenant = router.tenant_of(req.id);
    c.frame.query = req.query.to_string();
    c.frame.min_length = req.min_length;
    const QueryResult res =
        router.submit(std::move(req), c.frame.tenant).second.get();
    c.expected_ok = res.status == gm::serve::QueryStatus::kOk;
    c.expected = res.mems;
    cases.push_back(std::move(c));
  }
  const gm::net::LoopbackCounts n =
      gm::net::check_loopback(server->port(), clients, cases, std::cerr);
  server->shutdown();

  const gm::net::NetStats ns = server->stats();
  std::cout << "=== gpumem_serve loopback self-check ===\n"
            << "clients:     " << clients << '\n'
            << "requests:    " << cases.size() << " (" << n.identical
            << " bit-identical, " << n.mismatched << " mismatched, "
            << n.transport_errors << " transport errors)\n"
            << "wire:        " << ns.accepted << " conns, " << ns.frames_in
            << " frames in, " << ns.responses_ok << " results, "
            << ns.responses_error << " errors, " << ns.bytes_in
            << " B in / " << ns.bytes_out << " B out\n";
  const bool pass = n.identical == cases.size();
  std::cout << (pass ? "LOOPBACK OK: wire results bit-identical to direct "
                       "execution\n"
                     : "LOOPBACK FAILED\n");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  gm::util::Cli cli(argc, argv);
  cli.describe("ref", "reference FASTA (first record is the served reference)");
  cli.describe("queries", "query FASTA (every record becomes one request)");
  cli.describe("demo", "serve synthetic data instead of files");
  gm::core::describe_engine_flags(cli, serve_defaults());
  cli.describe("devices", "simulated device pool size (default 1)");
  cli.describe("batch", "max requests per dispatch round (default 8)");
  cli.describe("repeat", "replay the query file this many times (default 1)");
  cli.describe("queue-cap", "admission-control queue bound (default 256)");
  cli.describe("deadline-ms", "per-request deadline in ms, 0 = none");
  cli.describe("no-cache", "rebuild the reference index per request");
  cli.describe("fast-index",
               "answer requests from a copMEM double-sampled index (adopts "
               "the artifact's copmem-index section in registry mode)");
  cli.describe("long-mem",
               "long-MEM mode: answer qualifying requests from a resident "
               "lazy-LCP FM-index finder — bit-identical MEMs, faster at "
               "high L (docs/PERFORMANCE.md \"Long-MEM mode\")");
  cli.describe("long-mem-threshold",
               "route requests with min length >= this to the long-MEM "
               "path; 0 = the engine's --min-len (every request qualifies)");
  cli.describe("req-min-len",
               "per-request minimum MEM length stamped on every submitted "
               "request (wire QueryFrame::min_length); 0 = engine default");
  cli.describe("host-threads",
               "host worker threads (default: GPUMEM_THREADS env or hardware "
               "concurrency)");
  gm::obs::ExportFlags::describe(cli);
  cli.describe("stats-every",
               "print a metrics-snapshot line every N seconds while serving "
               "(enables observability)");
  cli.describe("flight-out",
               "dump the flight recorder (last-N structured events) here at "
               "exit");
  cli.describe("registry",
               "multi-tenant mode: directory of *.gmidx index artifacts "
               "(see `gpumem_cli index-build` and docs/STORAGE.md)");
  cli.describe("tenant",
               "registry mode: default tenant for records without a "
               "\"tenant/\" name prefix");
  cli.describe("pin",
               "registry mode: comma-separated tenants to pin resident");
  cli.describe("max-resident",
               "registry mode: unpinned resident-tenant budget (default 4)");
  cli.describe("listen",
               "serve the binary wire protocol on this 127.0.0.1 port "
               "(0 = ephemeral; see docs/SERVING.md)");
  cli.describe("net-workers", "epoll worker event threads (default 2)");
  cli.describe("max-conns",
               "connection cap; accepts beyond it get a typed "
               "too-many-connections error (default 256)");
  cli.describe("tenant-quota",
               "per-tenant in-flight request quota, 0 = unlimited");
  cli.describe("shed-fraction",
               "answer OVERLOAD when the queue is this full (default 0.9; "
               ">1 disables shedding)");
  cli.describe("loopback",
               "listen mode self-check: N in-process TCP clients replay "
               "--queries and verify MEMs are bit-identical to direct runs");
  cli.describe("serve-seconds",
               "listen mode: serve this long then exit (0 = forever)");
  for (const std::string& flag : cli.unknown_flags()) {
    std::cerr << "unknown flag --" << flag << "; see --help\n";
    return 2;
  }
  if (cli.handle_help(
          "gpumem_serve: batched MEM serving with a reference index cache"))
    return 0;

  try {
    gm::util::ThreadPool::configure_global(
        static_cast<std::size_t>(cli.get_int("host-threads", 0)));
    const std::string registry_dir = cli.get("registry", "");
    const std::string ref_path = cli.get("ref", "");
    const std::string query_path = cli.get("queries", "");
    const bool listen = cli.has("listen");
    gm::seq::Sequence ref;
    std::vector<gm::seq::FastaRecord> queries;
    if (registry_dir.empty() && cli.get_bool("demo", false)) {
      const auto pair = gm::seq::make_dataset("chrXII_s/chrI_s", 42, 8);
      ref = pair.reference;
      for (int i = 0; i < 4; ++i) {
        gm::seq::MutationModel mut;
        mut.snp_rate = 0.01 + 0.01 * i;
        queries.push_back({"demo_q" + std::to_string(i),
                           mut.apply(pair.query, 100 + i), 0});
      }
      std::cerr << "[demo] ref " << ref.size() << " bp, " << queries.size()
                << " synthetic queries\n";
    } else {
      // In listen mode without --loopback there is no replay, so queries
      // are optional; every other mode needs some.
      const bool queries_optional = listen && cli.get_int("loopback", 0) == 0;
      if ((registry_dir.empty() && ref_path.empty()) ||
          (query_path.empty() && !queries_optional)) {
        throw gm::util::InputError(
            registry_dir.empty()
                ? "need --ref and --queries (or --demo); see --help"
                : "need --queries with --registry; see --help");
      }
      if (registry_dir.empty()) {
        ref = gm::seq::read_reference_file(ref_path).sequence;
      }
      try {
        if (!query_path.empty()) queries = gm::seq::read_query_file(query_path);
      } catch (const gm::util::InputError&) {
        if (!queries_optional) throw;
      }
    }

    const gm::obs::ExportFlags obs = gm::obs::ExportFlags::read(cli);
    const double stats_every = cli.get_double("stats-every", 0.0);
    if (stats_every > 0.0) gm::obs::Registry::global().set_enabled(true);

    gm::serve::ServiceConfig scfg;
    scfg.engine = gm::core::engine_flags(cli, serve_defaults());
    scfg.devices = static_cast<std::uint32_t>(cli.get_int("devices", 1));
    scfg.max_batch = static_cast<std::size_t>(cli.get_int("batch", 8));
    scfg.queue_capacity =
        static_cast<std::size_t>(cli.get_int("queue-cap", 256));
    scfg.default_deadline_seconds =
        cli.get_double("deadline-ms", 0.0) / 1000.0;
    scfg.cache_enabled = !cli.get_bool("no-cache", false);
    scfg.copmem_fast_index = cli.get_bool("fast-index", false);
    scfg.lazy_lcp = cli.get_bool("long-mem", false);
    scfg.long_mem_threshold =
        static_cast<std::uint32_t>(cli.get_int("long-mem-threshold", 0));
    // A one-reference replay queues whole, then dispatches; network
    // requests and tenant services dispatch as requests arrive.
    scfg.start_paused = !listen && registry_dir.empty();

    std::vector<QueryRequest> requests = replay_requests(
        queries,
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("repeat", 1))),
        static_cast<std::uint32_t>(cli.get_int("req-min-len", 0)));
    Router router;
    if (!registry_dir.empty()) {
      router = open_registry(cli, registry_dir, scfg);
    } else {
      router.service =
          std::make_unique<gm::serve::MemService>(scfg, std::move(ref));
      std::cerr << "[serve] reference " << router.service->reference().size()
                << " bp, pool of " << scfg.devices << " device(s), cache "
                << (scfg.cache_enabled ? "on" : "off") << '\n';
    }
    const int rc =
        listen ? run_listen_mode(cli, router, std::move(requests))
               : run_replay(router, std::move(requests), stats_every);
    export_obs(obs, cli);
    return rc;
  } catch (const gm::util::InputError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
