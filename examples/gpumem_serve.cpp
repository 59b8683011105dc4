// gpumem_serve: replay a multi-record FASTA query file through the batched
// MEM service (serve::MemService) and print a throughput/latency report —
// the shape of a production deployment answering a query stream against one
// resident reference, with the tile-index cache amortizing index builds.
//
//   ./gpumem_serve --ref ref.fa --queries queries.fa [--min-len 20]
//                  [--seed-len 10] [--step 0] [--tau 64] [--tile-blocks 8]
//                  [--overlap-streams 1]
//                  [--devices 1] [--batch 8] [--repeat 1]
//                  [--queue-cap 256] [--deadline-ms 0] [--no-cache]
//                  [--fast-index] [--long-mem [--long-mem-threshold L]]
//                  [--req-min-len L]
//                  [--host-threads N]
//                  [--trace-out t.json] [--metrics-out m.json]
//                  [--metrics-format json|prom|tsv] [--stats-every N]
//                  [--flight-out f.log]
//   ./gpumem_serve --demo          # synthetic reference + queries, no files
//
// Multi-tenant mode (docs/STORAGE.md): point --registry at a directory of
// *.gmidx index artifacts (one per reference; see `gpumem_cli index-build`).
// Each query record routes to a tenant by name prefix ("<tenant>/<id>"),
// falling back to --tenant; tenants activate lazily from their artifact
// (mmap + verified load, no index build) and the least-recently-used
// unpinned tenants are evicted past --max-resident.
//
//   ./gpumem_serve --registry DIR --queries queries.fa [--tenant NAME]
//                  [--pin a,b] [--max-resident 4] [...engine/service flags]
//
// Network mode (docs/SERVING.md): --listen starts the epoll front end
// (net::Server) on 127.0.0.1 and serves the length-prefixed wire protocol
// instead of replaying the query file directly. Works over one reference
// (--ref/--demo) or a registry (--registry; the frame's tenant field
// routes). --loopback N runs an in-process self-check: N TCP clients
// replay the query set over the socket and every MEM list is compared
// bit-for-bit against a direct in-process submit of the same query.
//
//   ./gpumem_serve --ref ref.fa --queries q.fa --listen 0 --loopback 4
//   ./gpumem_serve --demo --listen 7070 --serve-seconds 60
//                  [--net-workers 2] [--max-conns 256] [--tenant-quota 0]
//                  [--shed-fraction 0.9]
//
// Exits nonzero when any request fails, expires, or misses its deadline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
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

/// gpumem_serve's engine defaults: small tiles for short queries.
gm::core::Config serve_defaults() {
  gm::core::Config cfg;
  cfg.threads = 64;
  cfg.tile_blocks = 8;
  return cfg;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Write --trace-out / --metrics-out / --flight-out if requested.
/// Returns 0, or 2 when an output file cannot be opened.
int export_obs(gm::util::Cli& cli) {
  const std::string trace_out = cli.get("trace-out", "");
  const std::string metrics_out = cli.get("metrics-out", "");
  const std::string metrics_format = cli.get("metrics-format", "json");
  const std::string flight_out = cli.get("flight-out", "");
  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "cannot open --trace-out file\n";
      return 2;
    }
    gm::obs::Registry::global().trace().write_chrome_json(f);
    std::cerr << "[obs] trace written to " << trace_out << '\n';
  }
  if (!metrics_out.empty()) {
    std::ofstream f(metrics_out);
    if (!f) {
      std::cerr << "cannot open --metrics-out file\n";
      return 2;
    }
    gm::obs::Metrics& m = gm::obs::Registry::global().metrics();
    if (metrics_format == "tsv") {
      m.write_tsv(f);
    } else {
      const gm::obs::MetricsSnapshot snap =
          gm::obs::MetricsSnapshot::capture(m);
      if (metrics_format == "json") {
        snap.write_json(f);
      } else {
        snap.write_prometheus(f);
      }
    }
    std::cerr << "[obs] metrics written to " << metrics_out << " ("
              << metrics_format << ")\n";
  }
  if (!flight_out.empty()) {
    if (gm::obs::FlightRecorder::global().dump_to_file(flight_out)) {
      std::cerr << "[obs] flight recorder dumped to " << flight_out << '\n';
    } else {
      std::cerr << "cannot open --flight-out file\n";
      return 2;
    }
  }
  return 0;
}

/// Multi-tenant replay: route each query record to its tenant's service.
int run_registry_mode(const std::string& dir,
                      const std::vector<gm::seq::FastaRecord>& queries,
                      gm::serve::ServiceConfig scfg, gm::util::Cli& cli,
                      std::size_t repeat) {
  scfg.start_paused = false;  // tenant services dispatch as requests arrive
  const std::size_t max_resident =
      static_cast<std::size_t>(cli.get_int("max-resident", 4));
  gm::serve::ReferenceRegistry registry(dir, scfg, max_resident);

  const std::vector<std::string> tenant_names = registry.tenants();
  if (tenant_names.empty()) {
    std::cerr << "error: registry " << dir << " holds no *.gmidx artifacts "
              << "(build some with `gpumem_cli index-build`)\n";
    return 2;
  }
  std::cerr << "[registry] " << dir << ": " << tenant_names.size()
            << " tenant(s):";
  for (const auto& n : tenant_names) std::cerr << ' ' << n;
  std::cerr << ", max " << max_resident << " resident\n";

  for (const std::string& name : split_csv(cli.get("pin", ""))) {
    registry.pin(name);
    std::cerr << "[registry] pinned " << name << '\n';
  }

  std::string default_tenant = cli.get("tenant", "");
  if (default_tenant.empty() && tenant_names.size() == 1) {
    default_tenant = tenant_names.front();
  }

  struct InFlight {
    std::shared_ptr<gm::serve::Tenant> tenant;  // keeps evicted tenants alive
    std::future<gm::serve::QueryResult> fut;
    std::string tenant_name;
  };
  std::vector<InFlight> inflight;
  gm::util::Timer wall;
  for (std::size_t r = 0; r < repeat; ++r) {
    for (const auto& record : queries) {
      // "<tenant>/<rest>" routes by prefix when the prefix names a tenant.
      std::string tname = default_tenant;
      if (const std::size_t slash = record.name.find('/');
          slash != std::string::npos) {
        const std::string prefix = record.name.substr(0, slash);
        if (std::find(tenant_names.begin(), tenant_names.end(), prefix) !=
            tenant_names.end()) {
          tname = prefix;
        }
      }
      if (tname.empty()) {
        std::cerr << "error: query record '" << record.name
                  << "' names no tenant and no --tenant default is set\n";
        return 2;
      }
      std::shared_ptr<gm::serve::Tenant> tenant = registry.acquire(tname);
      gm::serve::QueryRequest req;
      req.id = record.name;
      if (repeat > 1) req.id += '#' + std::to_string(r);
      req.query = record.sequence;
      auto fut = tenant->service().submit(std::move(req));
      inflight.push_back({std::move(tenant), std::move(fut), tname});
    }
  }

  std::uint64_t ok = 0, not_ok = 0, mems = 0, warm = 0;
  gm::util::Summary service_s;
  for (auto& f : inflight) {
    const gm::serve::QueryResult res = f.fut.get();
    if (res.status == gm::serve::QueryStatus::kOk) {
      ++ok;
      mems += res.stats.mem_count;
      warm += res.stats.index_cache_hit;
    } else {
      ++not_ok;
    }
    service_s.add(res.service_seconds);
    std::cerr << "[req " << res.id << " -> " << f.tenant_name << "] "
              << to_string(res.status) << ", " << res.stats.mem_count
              << " MEMs, service " << res.service_seconds * 1e3 << " ms"
              << (res.stats.index_cache_hit ? " (warm index)" : "")
              << (res.error.empty() ? "" : " — " + res.error) << '\n';
  }
  const double wall_seconds = wall.seconds();
  inflight.clear();  // release tenant refs before the registry unwinds

  const gm::serve::RegistryStats rs = registry.stats();
  std::cout << "=== gpumem_serve registry report ===\n"
            << "tenants:        " << rs.known << " known, " << rs.resident
            << " resident\n"
            << "registry:       " << rs.loads << " loads, " << rs.hits
            << " hits, " << rs.evictions << " evictions\n"
            << "requests:       " << (ok + not_ok) << " (" << ok << " ok, "
            << not_ok << " not ok), " << mems << " MEMs, " << warm
            << " warm\n"
            << "wall time:      " << wall_seconds << " s ("
            << (wall_seconds > 0 ? static_cast<double>(ok) / wall_seconds
                                 : 0.0)
            << " queries/s)\n"
            << "service latency: mean " << service_s.mean() * 1e3
            << " ms, max " << service_s.max() * 1e3 << " ms\n";
  if (const int rc = export_obs(cli); rc != 0) return rc;
  return not_ok == 0 ? 0 : 1;
}

/// One request of the loopback self-check: what goes on the wire and what
/// a direct in-process submit of the same query returned.
struct WireCheck {
  std::string id;
  std::string tenant;  ///< empty in single-reference mode
  std::string query;
  std::vector<gm::mem::Mem> expected;
  bool expected_ok = false;
};

/// --listen: serve the wire protocol; with --loopback N, self-check over
/// real sockets against direct submits and exit.
int run_listen_mode(gm::util::Cli& cli, gm::serve::MemService* service,
                    gm::serve::ReferenceRegistry* registry,
                    const std::string& default_tenant,
                    const std::vector<std::string>& tenant_names,
                    const std::vector<gm::seq::FastaRecord>& queries,
                    std::size_t repeat) {
  gm::net::ServerConfig ncfg;
  ncfg.port = static_cast<std::uint16_t>(cli.get_int("listen", 0));
  ncfg.workers =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, cli.get_int("net-workers", 2)));
  ncfg.max_connections =
      static_cast<std::size_t>(cli.get_int("max-conns", 256));
  ncfg.tenant_quota =
      static_cast<std::size_t>(cli.get_int("tenant-quota", 0));
  ncfg.shed_fraction = cli.get_double("shed-fraction", 0.9);

  auto server = registry != nullptr
                    ? std::make_unique<gm::net::Server>(ncfg, *registry,
                                                        default_tenant)
                    : std::make_unique<gm::net::Server>(ncfg, *service);
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
    return export_obs(cli);
  }

  if (queries.empty()) {
    std::cerr << "error: --loopback needs --queries (or --demo)\n";
    return 2;
  }

  // Per-request minimum length, stamped on both the direct submits and the
  // wire frames so the loopback exercises the min_length wire field and
  // the long-MEM routing it can trigger.
  const std::uint32_t req_min_len =
      static_cast<std::uint32_t>(cli.get_int("req-min-len", 0));

  // Expected answers: the same queries submitted directly, no sockets.
  std::vector<WireCheck> items;
  for (std::size_t r = 0; r < repeat; ++r) {
    for (const auto& record : queries) {
      WireCheck item;
      item.id = record.name;
      if (repeat > 1) item.id += '#' + std::to_string(r);
      if (registry != nullptr) {
        item.tenant = default_tenant;
        if (const std::size_t slash = record.name.find('/');
            slash != std::string::npos) {
          const std::string prefix = record.name.substr(0, slash);
          if (std::find(tenant_names.begin(), tenant_names.end(), prefix) !=
              tenant_names.end()) {
            item.tenant = prefix;
          }
        }
      }
      item.query = record.sequence.to_string();
      gm::serve::QueryRequest req;
      req.id = item.id;
      req.query = record.sequence;
      req.min_length = req_min_len;
      if (registry != nullptr) {
        const auto tenant = registry->acquire(item.tenant);
        const auto res = tenant->service().submit(std::move(req)).get();
        item.expected_ok = res.status == gm::serve::QueryStatus::kOk;
        item.expected = res.mems;
      } else {
        const auto res = service->submit(std::move(req)).get();
        item.expected_ok = res.status == gm::serve::QueryStatus::kOk;
        item.expected = res.mems;
      }
      items.push_back(std::move(item));
    }
  }

  // Wire phase: N concurrent clients split the request list round-robin;
  // every reply's MEM list must be bit-identical to the direct submit.
  std::atomic<std::uint64_t> mismatches{0}, transport_errors{0}, ok{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        gm::net::Client client(server->port(), 30.0);
        for (std::size_t i = t; i < items.size(); i += clients) {
          gm::net::QueryFrame qf;
          qf.id = items[i].id;
          qf.tenant = items[i].tenant;
          qf.query = items[i].query;
          qf.min_length = req_min_len;
          gm::net::Reply reply;
          if (!client.query(qf, reply)) {
            ++transport_errors;
            continue;
          }
          if (reply.ok() != items[i].expected_ok ||
              (reply.ok() && reply.result.mems != items[i].expected)) {
            ++mismatches;
            std::cerr << "[loopback] MISMATCH on " << items[i].id << ": wire "
                      << (reply.ok()
                              ? std::to_string(reply.result.mems.size()) +
                                    " MEMs"
                              : std::string("error: ") + reply.error.message)
                      << " vs direct "
                      << (items[i].expected_ok
                              ? std::to_string(items[i].expected.size()) +
                                    " MEMs"
                              : std::string("not ok"))
                      << '\n';
            continue;
          }
          ++ok;
        }
      } catch (const std::exception& e) {
        ++transport_errors;
        std::cerr << "[loopback] client " << t << ": " << e.what() << '\n';
      }
    });
  }
  for (auto& th : threads) th.join();
  server->shutdown();

  const gm::net::NetStats ns = server->stats();
  std::cout << "=== gpumem_serve loopback self-check ===\n"
            << "clients:     " << clients << '\n'
            << "requests:    " << items.size() << " (" << ok.load()
            << " bit-identical, " << mismatches.load() << " mismatched, "
            << transport_errors.load() << " transport errors)\n"
            << "wire:        " << ns.accepted << " conns, " << ns.frames_in
            << " frames in, " << ns.responses_ok << " results, "
            << ns.responses_error << " errors, " << ns.bytes_in
            << " B in / " << ns.bytes_out << " B out\n";
  if (const int rc = export_obs(cli); rc != 0) return rc;
  const bool pass = mismatches.load() == 0 && transport_errors.load() == 0 &&
                    ok.load() == items.size();
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
  cli.describe("trace-out", "write a Chrome-trace JSON of the replay here");
  cli.describe("metrics-out", "write run metrics here (see --metrics-format)");
  cli.describe("metrics-format",
               "metrics-out format: json (default), prom (Prometheus text "
               "exposition), or tsv");
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
    // In listen mode without --loopback there is no replay, so a query
    // file is optional; every other mode needs one.
    const bool queries_optional =
        cli.has("listen") && cli.get_int("loopback", 0) == 0;
    gm::seq::Sequence ref;
    std::vector<gm::seq::FastaRecord> queries;
    if (!registry_dir.empty()) {
      const std::string query_path = cli.get("queries", "");
      if (query_path.empty() && !queries_optional) {
        std::cerr << "need --queries with --registry; see --help\n";
        return 2;
      }
      if (!query_path.empty()) {
        queries = gm::seq::read_fasta_file(query_path);
        std::erase_if(queries, [](const gm::seq::FastaRecord& r) {
          return r.sequence.empty();
        });
        if (queries.empty() && !queries_optional) {
          std::cerr << "error: query FASTA " << query_path
                    << " has no non-empty records\n";
          return 2;
        }
      }
    } else if (cli.get_bool("demo", false)) {
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
      const std::string ref_path = cli.get("ref", "");
      const std::string query_path = cli.get("queries", "");
      if (ref_path.empty() || (query_path.empty() && !queries_optional)) {
        std::cerr << "need --ref and --queries (or --demo); see --help\n";
        return 2;
      }
      auto ref_records = gm::seq::read_fasta_file(ref_path);
      if (ref_records.empty() || ref_records.front().sequence.empty()) {
        std::cerr << "error: reference FASTA " << ref_path
                  << " has no usable sequence\n";
        return 2;
      }
      ref = std::move(ref_records.front().sequence);
      if (!query_path.empty()) {
        queries = gm::seq::read_fasta_file(query_path);
        std::erase_if(queries, [&](const gm::seq::FastaRecord& r) {
          if (r.sequence.empty()) {
            std::cerr << "warning: skipping empty query record '" << r.name
                      << "'\n";
            return true;
          }
          return false;
        });
        if (queries.empty() && !queries_optional) {
          std::cerr << "error: query FASTA " << query_path
                    << " has no non-empty records\n";
          return 2;
        }
      }
    }

    const std::string trace_out = cli.get("trace-out", "");
    const std::string metrics_out = cli.get("metrics-out", "");
    const std::string metrics_format = cli.get("metrics-format", "json");
    const double stats_every = cli.get_double("stats-every", 0.0);
    if (!gm::obs::MetricsSnapshot::is_known_format(metrics_format)) {
      std::cerr << "unknown --metrics-format '" << metrics_format
                << "' (json, prom, tsv)\n";
      return 2;
    }
    if (!trace_out.empty() || !metrics_out.empty() || stats_every > 0.0) {
      gm::obs::Registry::global().set_enabled(true);
    }

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
    scfg.start_paused = true;  // queue the whole replay, then dispatch

    const std::size_t repeat =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("repeat", 1)));

    if (cli.has("listen")) {
      scfg.start_paused = false;  // network requests dispatch as they arrive
      if (!registry_dir.empty()) {
        const std::size_t max_resident =
            static_cast<std::size_t>(cli.get_int("max-resident", 4));
        gm::serve::ReferenceRegistry registry(registry_dir, scfg,
                                              max_resident);
        const std::vector<std::string> tenant_names = registry.tenants();
        if (tenant_names.empty()) {
          std::cerr << "error: registry " << registry_dir
                    << " holds no *.gmidx artifacts\n";
          return 2;
        }
        for (const std::string& name : split_csv(cli.get("pin", ""))) {
          registry.pin(name);
        }
        std::string default_tenant = cli.get("tenant", "");
        if (default_tenant.empty() && tenant_names.size() == 1) {
          default_tenant = tenant_names.front();
        }
        return run_listen_mode(cli, nullptr, &registry, default_tenant,
                               tenant_names, queries, repeat);
      }
      gm::serve::MemService service(scfg, std::move(ref));
      std::cerr << "[serve] reference " << service.reference().size()
                << " bp, pool of " << scfg.devices << " device(s)\n";
      return run_listen_mode(cli, &service, nullptr, "", {}, queries,
                             repeat);
    }

    if (!registry_dir.empty()) {
      return run_registry_mode(registry_dir, queries, scfg, cli, repeat);
    }

    gm::serve::MemService service(scfg, std::move(ref));
    std::cerr << "[serve] reference " << service.reference().size()
              << " bp, pool of " << scfg.devices << " device(s), cache "
              << (scfg.cache_enabled ? "on" : "off") << '\n';

    // --stats-every: a monitor thread that captures + prints a metrics
    // snapshot line on a fixed cadence while the replay drains.
    std::atomic<bool> replay_done{false};
    std::mutex stats_mu;
    std::condition_variable stats_cv;
    std::thread stats_thread;
    if (stats_every > 0.0) {
      stats_thread = std::thread([&] {
        gm::util::Timer t;
        std::unique_lock lock(stats_mu);
        while (!stats_cv.wait_for(
            lock, std::chrono::duration<double>(stats_every),
            [&] { return replay_done.load(); })) {
          gm::serve::publish_service_stats(service.stats());
          const gm::obs::MetricsSnapshot snap = gm::obs::MetricsSnapshot::
              capture(gm::obs::Registry::global().metrics());
          double submitted = 0, completed = 0, depth = 0;
          for (const auto& [name, v] : snap.gauges) {
            if (name == "serve.submitted") submitted = v;
            if (name == "serve.completed") completed = v;
            if (name == "serve.queue_depth") depth = v;
          }
          std::cerr << "[stats t=" << t.seconds() << "s] submitted="
                    << submitted << " completed=" << completed
                    << " queue_depth=" << depth;
          for (const auto& d : snap.distributions) {
            if (d.name != "serve.service_seconds") continue;
            std::cerr << " service_ms p50/p95/p99=" << d.q.p50 * 1e3 << '/'
                      << d.q.p95 * 1e3 << '/' << d.q.p99 * 1e3;
          }
          std::cerr << '\n';
        }
      });
    }

    gm::util::Timer wall;
    std::vector<std::future<gm::serve::QueryResult>> futures;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const auto& record : queries) {
        gm::serve::QueryRequest req;
        req.id = record.name;
        if (repeat > 1) {
          req.id += '#';
          req.id += std::to_string(r);
        }
        req.query = record.sequence;
        req.min_length =
            static_cast<std::uint32_t>(cli.get_int("req-min-len", 0));
        futures.push_back(service.submit(std::move(req)));
      }
    }
    service.resume();

    gm::util::Summary queue_s, service_s;
    std::uint64_t ok = 0, mems = 0, warm = 0, not_ok = 0;
    for (auto& fut : futures) {
      const gm::serve::QueryResult res = fut.get();
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
      std::cerr << "[req " << res.id << "] " << to_string(res.status) << ", "
                << res.stats.mem_count << " MEMs via " << res.path
                << ", queue " << res.queue_seconds * 1e3 << " ms, service "
                << res.service_seconds * 1e3 << " ms, "
                << (modeled ? "modeled " : "match (wall) ")
                << (res.stats.index_seconds + res.stats.match_seconds) * 1e3
                << " ms" << (res.stats.index_cache_hit ? " (warm index)" : "")
                << (res.error.empty() ? "" : " — " + res.error) << '\n';
    }
    const double wall_seconds = wall.seconds();
    if (stats_thread.joinable()) {
      {
        std::lock_guard lock(stats_mu);
        replay_done = true;
      }
      stats_cv.notify_all();
      stats_thread.join();
    }
    service.shutdown();

    const gm::serve::ServiceStats st = service.stats();
    const double modeled_index = st.modeled_index_seconds;
    const double modeled_match = st.modeled_match_seconds;
    const double modeled_total = modeled_index + modeled_match;
    std::cout << "=== gpumem_serve report ===\n"
              << "requests:        " << futures.size() << " (" << ok
              << " ok, " << not_ok << " not ok)\n"
              << "MEMs reported:   " << mems << '\n'
              << "wall time:       " << wall_seconds << " s ("
              << (wall_seconds > 0 ? static_cast<double>(ok) / wall_seconds
                                   : 0.0)
              << " queries/s)\n"
              << "modeled device:  " << modeled_total << " s total ("
              << (modeled_total > 0 ? static_cast<double>(ok) / modeled_total
                                    : 0.0)
              << " queries/s), index " << modeled_index << " s, match "
              << modeled_match << " s\n"
              << "warm requests:   " << warm << "/" << ok << '\n'
              << "index cache:     " << st.cache_hits << " hits, "
              << st.cache_misses << " misses, " << st.cache_resident_bytes
              << " resident bytes\n"
              << "queue latency:   mean " << queue_s.mean() * 1e3
              << " ms, max " << queue_s.max() * 1e3 << " ms (depth peak "
              << st.max_queue_depth << ")\n"
              << "service latency: mean " << service_s.mean() * 1e3
              << " ms, max " << service_s.max() * 1e3 << " ms\n"
              << "batches:         " << st.batches << '\n';
    if (gm::obs::Registry::global().enabled()) {
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
    }
    if (st.deadline_miss > 0) {
      std::cout << "deadline misses: " << st.deadline_miss << " (of "
                << futures.size() << " requests; " << st.expired
                << " expired while queued)\n";
    }

    if (const int rc = export_obs(cli); rc != 0) return rc;
    if (st.deadline_miss > 0) {
      std::cerr << "error: " << st.deadline_miss
                << " request(s) missed their deadline\n";
      return 1;
    }
    return not_ok == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
