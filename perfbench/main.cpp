// perfbench: the repository's benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// One process per run. The run covers the workload's datasets (independent
// pairs generated from sub-seeds of --seed) one after another. For each it
//   1. writes the inputs as FASTA and sets up every index the workload
//      answers from, FASTA to listening server (setup_s is the median over
//      the datasets);
//   2. checks the native path's output with the independent checker
//      (checker.h), including the checker's self-test, and every served
//      reply likewise;
//   3. for its share of --seconds, runs whole rounds of every timed
//      operation, rotating their order round-robin, and requires every
//      output to equal the checked one.
// The first dataset also runs one untimed warm-up round. Path times are the
// median over datasets of each dataset's median round. The run prints each
// metric by name and unit, then one JSON line. The process is pinned to one
// CPU; all engine work runs on one pool worker and one finder thread.
//
// With --trace 1 the rounds alternate between untraced and traced (obs
// registry on, plus the benchmark's own spans around each public call), the
// per-layer metrics are reported, and a Chrome trace and the registry's
// metrics JSON are written to <out>/<workload>/.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/pipeline.h"
#include "index/fm_index.h"
#include "mem/copmem.h"
#include "mem/mem.h"
#include "mem/slamem.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/registry.h"
#include "seq/fasta.h"
#include "seq/packed.h"
#include "serve/service.h"
#include "store/artifact.h"
#include "store/loaded_index.h"
#include "util/thread_pool.h"
#include "workload.h"

using namespace gm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<pb::Triple> triples(const std::vector<mem::Mem>& mems) {
  std::vector<pb::Triple> out;
  out.reserve(mems.size());
  for (const mem::Mem& m : mems) out.push_back({m.r, m.q, m.len});
  return out;
}

/// The benchmark's own span around a public call; records only while the
/// obs registry is on (traced rounds).
struct BenchSpan {
  explicit BenchSpan(const std::string& layer) : span("bench/" + layer, "bench") {}
  obs::Span span;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  if (argc % 2 != 1) throw std::invalid_argument("flags come in --name value pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

core::Config engine_config(const pb::Spec& spec, core::Backend backend) {
  // Small tiles: a pair spans tens of tiles, so the modeled makespan sums
  // many per-tile maxima instead of resting on one hot block, and the host
  // stitch has out-tile pieces to merge. ls = 8 keeps each row's 4^ls
  // bucket table small beside its ~50 kbp row.
  core::Config cfg;
  cfg.min_length = spec.L;
  cfg.seed_len = 8;
  cfg.threads = 256;
  cfg.tile_blocks = 8;
  cfg.backend = backend;
  return cfg;
}

/// Everything one set-up produces; members are destroyed server first.
struct Built {
  std::vector<seq::FastaRecord> ref_recs, query_recs, read_recs;
  const seq::Sequence* ref = nullptr;
  const seq::Sequence* query = nullptr;
  std::unique_ptr<mem::SlaMemFinder> eager, lazy;
  std::unique_ptr<mem::CopMemFinder> copmem;
  core::Engine::NativeIndex rows;
  std::size_t artifact_bytes = 0;
  std::shared_ptr<const store::LoadedIndex> artifact;
  std::unique_ptr<serve::MemService> service;
  std::unique_ptr<net::Server> server;

  // seconds per step
  double fasta = 0, fm = 0, copmem_build = 0, native_rows = 0, artifact_build = 0,
         open = 0, serve_start = 0, total = 0;
};

std::unique_ptr<Built> set_up(const pb::Spec& spec, const pb::Inputs& in,
                              const std::string& dir) {
  auto b = std::make_unique<Built>();
  const core::Config native_cfg = engine_config(spec, core::Backend::kNative);
  const core::Config serve_cfg = engine_config(spec, core::Backend::kSimt);
  mem::FinderOptions fopt;
  fopt.min_length = spec.L;
  fopt.threads = 1;

  const auto t0 = Clock::now();
  auto t = Clock::now();
  {
    BenchSpan s("seq.fasta_read");
    b->ref_recs = seq::read_fasta_file(in.ref_fa);
    b->query_recs = seq::read_fasta_file(in.query_fa);
    b->read_recs = seq::read_fasta_file(in.reads_fa);
  }
  b->ref = &b->ref_recs.at(0).sequence;
  b->query = &b->query_recs.at(0).sequence;
  b->fasta = seconds_since(t);

  t = Clock::now();
  {
    // What SlaMemFinder::build_index runs, built once and adopted by the
    // eager and the lazy finder.
    BenchSpan s("index.fm.build");
    index::FmIndex fm(*b->ref);
    b->eager = std::make_unique<mem::SlaMemFinder>();
    b->eager->adopt_index(*b->ref, fopt, fm);
    b->lazy = std::make_unique<mem::SlaMemFinder>(/*force_lazy=*/true);
    mem::FinderOptions lopt = fopt;
    lopt.lazy_lcp = true;
    b->lazy->adopt_index(*b->ref, lopt, std::move(fm));
  }
  b->fm = seconds_since(t);

  t = Clock::now();
  {
    BenchSpan s("index.copmem.build");
    b->copmem = std::make_unique<mem::CopMemFinder>();
    b->copmem->build_index(*b->ref, fopt);
  }
  b->copmem_build = seconds_since(t);

  t = Clock::now();
  {
    BenchSpan s("index.native_rows.build");
    b->rows = core::Engine(native_cfg).build_native_index(*b->ref);
  }
  b->native_rows = seconds_since(t);

  const std::string path = dir + "/ref.gmidx";
  t = Clock::now();
  {
    BenchSpan s("store.artifact_build");
    store::BuildOptions bopt;
    bopt.fm_sa_sample = 32;
    bopt.copmem_step =
        mem::CopMemFinder::choose_params(spec.L, serve_cfg.seed_len).k1;
    const std::vector<std::uint8_t> image =
        store::build_artifact(*b->ref, serve_cfg, bopt);
    store::write_artifact_file(path, image);
    b->artifact_bytes = image.size();
  }
  b->artifact_build = seconds_since(t);

  t = Clock::now();
  {
    BenchSpan s("store.open");
    b->artifact = std::make_shared<const store::LoadedIndex>(
        store::MappedArtifact::open_file(path));
  }
  b->open = seconds_since(t);

  t = Clock::now();
  {
    BenchSpan s("serve.start");
    serve::ServiceConfig scfg;
    scfg.engine = serve_cfg;
    scfg.artifact = b->artifact;
    scfg.copmem_fast_index = true;
    scfg.lazy_lcp = true;
    scfg.long_mem_threshold = spec.L_long;
    b->service = std::make_unique<serve::MemService>(scfg, *b->ref);
    net::ServerConfig ncfg;
    ncfg.workers = 1;
    b->server = std::make_unique<net::Server>(ncfg, *b->service);
  }
  b->serve_start = seconds_since(t);
  b->total = seconds_since(t0);
  return b;
}

// ---------------------------------------------------------------------------
// Serving.

struct ServeSample {
  double latency_ms = 0;  // from due (open loop) or from send (closed loop)
  double late_ms = 0;     // send - due
  double wire_ms = 0;     // client send->reply minus queue and service
  double queue_ms = 0;
  double service_ms = 0;
  bool long_route = false;
  std::size_t reply_bytes = 0;
};

struct ServeExpect {
  std::vector<std::string> reads;
  std::vector<std::vector<mem::Mem>> short_mems, long_mems;
  std::uint32_t L = 0, L_long = 0;
};

/// Request i asks read (i / 2) % reads at L (even i) or L_long (odd i).
net::QueryFrame request_for(const ServeExpect& ex, std::size_t i) {
  net::QueryFrame q;
  q.id = std::to_string(i);
  q.query = ex.reads[(i / 2) % ex.reads.size()];
  q.min_length = i % 2 == 0 ? ex.L : ex.L_long;
  return q;
}

// ---------------------------------------------------------------------------
// Run state across the run's datasets.

using Series = std::map<std::string, std::vector<double>>;

struct Run {
  Series e2e, e2e_traced;  // one value per dataset
  Series layer;            // one value per dataset
  std::vector<ServeSample> open, open_traced;  // pooled open-loop samples
  std::uint64_t serve_ok = 0, serve_rejected = 0, serve_short = 0,
                serve_long = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string first_error;
  std::mutex mu;  // guards everything above while client lanes run

  void wrong(const std::string& what) {
    correct = false;
    if (first_error.empty()) first_error = what;
  }
  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

bool send_checked(net::Client& c, const ServeExpect& ex, std::size_t i,
                  bool traced, ServeSample& s, Clock::time_point& sent,
                  Run& run) {
  const net::QueryFrame q = request_for(ex, i);
  net::Reply reply;
  sent = Clock::now();
  const bool transport = c.query(q, reply);
  const double rtt_ms = seconds_since(sent) * 1e3;
  std::lock_guard lock(run.mu);
  ++run.attempted;
  ++(i % 2 == 0 ? run.serve_short : run.serve_long);
  if (!transport || !reply.ok()) {
    if (transport && (reply.error.code == net::ErrorCode::kOverloaded ||
                      reply.error.code == net::ErrorCode::kQuotaExceeded)) {
      ++run.serve_rejected;
    }
    run.fail("request " + q.id + " failed: " +
             (transport ? reply.error.message : std::string("transport")));
    return false;
  }
  ++run.serve_ok;
  const std::size_t k = (i / 2) % ex.reads.size();
  const auto& expect = i % 2 == 0 ? ex.short_mems[k] : ex.long_mems[k];
  if (reply.result.mems != expect) run.wrong("reply " + q.id + " differs");
  s.queue_ms = reply.result.queue_us / 1e3;
  s.service_ms = reply.result.service_us / 1e3;
  s.wire_ms = rtt_ms - s.queue_ms - s.service_ms;
  s.long_route = i % 2 == 1;
  if (traced) s.reply_bytes = net::encode_result(reply.result).size();
  return true;
}

/// Runs a client lane's body; an exception ends the lane as a failure
/// instead of escaping the thread.
template <typename F>
void guarded(Run& run, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    std::lock_guard lock(run.mu);
    run.fail(std::string("client lane: ") + e.what());
  }
}

/// Samples of one dataset's rounds.
struct Rounds {
  Series plain, traced;
  bool tracing = false;
  void sample(const std::string& k, double v) {
    (tracing ? traced : plain)[k].push_back(v);
  }
};

// ---------------------------------------------------------------------------
// One dataset: inputs, set-up, checks, timed rounds.

void run_dataset(const pb::Spec& spec, const Args& args, std::size_t index,
                 double budget_s, Run& run) {
  const std::uint64_t seed = pb::dataset_seed(args.seed, index);
  const std::string dir = args.out + "/" + spec.name;
  const pb::Inputs in = pb::make_inputs(spec, seed, dir + "/input");
  const core::Engine native(engine_config(spec, core::Backend::kNative));
  const core::Engine simt(engine_config(spec, core::Backend::kSimt));
  const std::uint32_t L = spec.L;

  obs::Registry::global().set_enabled(args.trace && index == 0);
  const std::unique_ptr<Built> b = set_up(spec, in, dir);
  obs::Registry::global().set_enabled(false);
  run.e2e["setup_s"].push_back(b->total);
  run.layer["seq.fasta_read_s"].push_back(b->fasta);
  run.layer["index.fm.build_s"].push_back(b->fm);
  run.layer["index.copmem.build_s"].push_back(b->copmem_build);
  run.layer["index.native_rows.build_s"].push_back(b->native_rows);
  run.layer["store.artifact_build_s"].push_back(b->artifact_build);
  run.layer["store.open_s"].push_back(b->open);
  run.layer["serve.start_s"].push_back(b->serve_start);
  run.layer["index.fm.bytes"].push_back(static_cast<double>(b->eager->index_bytes()));
  run.layer["index.copmem.bytes"].push_back(static_cast<double>(b->copmem->index_bytes()));
  run.layer["store.bytes"].push_back(static_cast<double>(b->artifact_bytes));

  const seq::Sequence& ref = *b->ref;
  const seq::Sequence& query = *b->query;
  std::vector<const seq::Sequence*> reads;
  for (const auto& r : b->read_recs) reads.push_back(&r.sequence);

  // --- first pass: expected outputs and their independent checks ------------
  const pb::LmerTable table(in.ref, L);
  const auto check = [&](const std::string& label, const std::string& q,
                         const std::vector<mem::Mem>& mems, std::uint32_t len,
                         const std::vector<std::uint32_t>& at) {
    const std::vector<pb::Triple> tr = triples(mems);
    std::string err = pb::check_sound(in.ref, q, tr, len);
    if (err.empty() && !at.empty()) err = pb::check_complete(q, tr, table, at);
    if (!err.empty()) run.wrong(label + ": " + err);
  };
  // The native path's output is checked; the timed rounds then require
  // every path to return exactly this set.
  const std::vector<mem::Mem> whole =
      native.run_native_prebuilt(ref, query, b->rows).mems;
  {
    const auto at = pb::sample_positions(in.query.size(), L, 4000, seed);
    check("native", in.query, whole, L, at);
    const std::string err =
        pb::self_test(in.ref, in.query, triples(whole), table, at, seed);
    if (!err.empty()) run.wrong("checker self-test: " + err);
    if (whole.empty()) run.wrong("no MEMs reported on the whole pair");
  }
  // What the path operations return: the whole pair, or one set per read.
  std::vector<std::vector<mem::Mem>> expect;
  if (!spec.fragment_paths) {
    expect.push_back(whole);
  } else {
    for (std::size_t k = 0; k < reads.size(); ++k) {
      expect.push_back(native.run_native_prebuilt(ref, *reads[k], b->rows).mems);
      check("native read " + std::to_string(k), in.reads[k], expect[k], L,
            pb::sample_positions(in.reads[k].size(), L, 8, seed + k));
    }
  }
  std::uint64_t expect_mems = 0;
  for (const auto& e : expect) expect_mems += e.size();

  // Serving: every read at L (copMEM route) and L_long (lazy route); each
  // reply sound, maximal, L-monotone, and equal to the direct copMEM set.
  ServeExpect sx;
  sx.reads = in.reads;
  sx.L = L;
  sx.L_long = spec.L_long;
  {
    net::Client c(b->server->port());
    for (std::size_t k = 0; k < sx.reads.size(); ++k) {
      for (const std::uint32_t len : {sx.L, sx.L_long}) {
        net::QueryFrame q;
        q.id = "check";
        q.query = sx.reads[k];
        q.min_length = len;
        net::Reply reply;
        if (!c.query(q, reply) || !reply.ok()) {
          run.wrong("serve check request failed for read " + std::to_string(k));
        }
        (len == sx.L ? sx.short_mems : sx.long_mems).push_back(reply.result.mems);
      }
      const std::string id = "served read " + std::to_string(k);
      check(id, sx.reads[k], sx.short_mems[k], L,
            pb::sample_positions(sx.reads[k].size(), L, 8, seed + k));
      check(id + " at L_long", sx.reads[k], sx.long_mems[k], sx.L_long, {});
      std::vector<mem::Mem> filtered = sx.short_mems[k];
      std::erase_if(filtered, [&](const mem::Mem& m) { return m.len < sx.L_long; });
      if (filtered != sx.long_mems[k]) run.wrong(id + ": L-monotonicity fails");
      if (b->copmem->find(*reads[k]) != sx.short_mems[k]) {
        run.wrong(id + " differs from copmem");
      }
    }
  }

  // --- timed operations -------------------------------------------------------
  Rounds rs;
  std::vector<net::Client> closed_clients, open_clients;
  for (int i = 0; i < 2; ++i) {
    closed_clients.emplace_back(b->server->port());
    open_clients.emplace_back(b->server->port());
  }
  // Runs `call` over the whole query or over every read; checks outputs.
  const auto over_queries = [&](const std::string& name, auto&& call) {
    if (!spec.fragment_paths) {
      ++run.attempted;
      if (call(query) != expect[0]) run.wrong(name + " output differs");
      return;
    }
    for (std::size_t k = 0; k < reads.size(); ++k) {
      ++run.attempted;
      if (call(*reads[k]) != expect[k]) run.wrong(name + " output differs");
    }
  };
  std::uint64_t outtile_pieces = 0;
  core::RunStats simt_stats;
  std::vector<ServeSample> open_plain, open_traced;
  std::uint64_t open_round = 0;

  using Op = std::function<void()>;
  std::vector<Op> ops;
  ops.push_back([&] {
    double match = 0, stitch = 0;
    std::uint64_t pieces = 0;
    const auto t0 = Clock::now();
    {
      BenchSpan s("core.native");
      over_queries("native", [&](const seq::Sequence& q) {
        core::Result r = native.run_native_prebuilt(ref, q, b->rows);
        match += r.stats.match_seconds - r.stats.host_stitch_seconds;
        stitch += r.stats.host_stitch_seconds;
        pieces += r.stats.outtile_pieces;
        return std::move(r.mems);
      });
    }
    rs.sample("native_s", seconds_since(t0));
    rs.sample("core.native.match_s", match);
    rs.sample("core.native.stitch_s", stitch);
    outtile_pieces = pieces;
  });
  ops.push_back([&] {
    const auto t0 = Clock::now();
    {
      BenchSpan s("mem.copmem.find");
      over_queries("copmem", [&](const seq::Sequence& q) { return b->copmem->find(q); });
    }
    rs.sample("copmem_s", seconds_since(t0));
  });
  ops.push_back([&] {
    const auto t0 = Clock::now();
    {
      BenchSpan s("mem.slamem.find");
      over_queries("slamem", [&](const seq::Sequence& q) { return b->eager->find(q); });
    }
    rs.sample("slamem_s", seconds_since(t0));
  });
  ops.push_back([&] {
    const auto t0 = Clock::now();
    {
      BenchSpan s("mem.slamem_lazy.find");
      over_queries("slamem_lazy", [&](const seq::Sequence& q) { return b->lazy->find(q); });
    }
    rs.sample("slamem_lazy_s", seconds_since(t0));
  });
  // The simulator costs far more host time per base than any other path,
  // so only the first simt_datasets pairs run it, over the whole pair.
  const bool runs_simt = index < spec.simt_datasets;
  if (runs_simt) {
    ops.push_back([&] {
      const auto t0 = Clock::now();
      core::Result r;
      {
        BenchSpan s("core.simt.run");
        r = simt.run(ref, query);
      }
      const double host = seconds_since(t0);
      ++run.attempted;
      if (r.mems != whole) run.wrong("simt output differs");
      rs.sample("simt_host_s", host);
      rs.sample("simt_modeled_s", r.stats.modeled_makespan_seconds);
      rs.sample("simt.host_stitch_s", r.stats.host_stitch_seconds);
      simt_stats = std::move(r.stats);
    });
  }
  ops.push_back([&] {
    BenchSpan span("serve.closed_loop");
    const std::size_t n = spec.closed_requests;
    const bool traced = rs.tracing;
    const auto t0 = Clock::now();
    std::vector<std::thread> lanes;
    for (std::size_t lane = 0; lane < 2; ++lane) {
      lanes.emplace_back([&, lane] {
        guarded(run, [&] {
          for (std::size_t i = lane; i < n; i += 2) {
            ServeSample s;
            Clock::time_point sent;
            send_checked(closed_clients[lane], sx, i, traced, s, sent, run);
          }
        });
      });
    }
    for (auto& th : lanes) th.join();
    rs.sample("serve_qps", static_cast<double>(n) / seconds_since(t0));
  });
  ops.push_back([&] {
    // Open loop: a fixed number of Poisson arrivals at the fixed rate, sent
    // by two lanes; latency counts from each request's due time.
    BenchSpan span("serve.open_loop");
    const std::size_t n = spec.open_requests;
    const bool traced = rs.tracing;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + ++open_round);
    std::exponential_distribution<double> gap(spec.open_qps);
    std::vector<double> due(n);
    double t = 0;
    for (double& d : due) d = (t += gap(rng));
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<ServeSample>> got(2);
    const auto base = Clock::now();
    std::vector<std::thread> lanes;
    for (std::size_t lane = 0; lane < 2; ++lane) {
      lanes.emplace_back([&, lane] {
        guarded(run, [&] {
          for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            const auto due_at = base + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(due[i]));
            // Yield until due rather than sleep: waking a sleeping thread on
            // an idle virtual CPU can take milliseconds, which would time
            // the host, not the server. Yielding lets the server's threads
            // run first on the shared CPU.
            while (Clock::now() < due_at) std::this_thread::yield();
            ServeSample s;
            Clock::time_point sent;
            if (send_checked(open_clients[lane], sx, i, traced, s, sent, run)) {
              s.latency_ms = seconds_since(due_at) * 1e3;
              s.late_ms = std::chrono::duration<double, std::milli>(sent - due_at).count();
              got[lane].push_back(s);
            }
          }
        });
      });
    }
    for (auto& th : lanes) th.join();
    auto& sink = traced ? open_traced : open_plain;
    for (const auto& g : got) sink.insert(sink.end(), g.begin(), g.end());
  });

  // Layer probes run only in traced rounds: packed LCE over every reported
  // MEM, sort_unique on a seeded shuffle, copMEM candidates counted through
  // its public index.
  const auto probe_layers = [&](std::size_t round) {
    {
      BenchSpan s("seq.lce");
      std::uint64_t bases = 0;
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < expect.size(); ++k) {
        const seq::Sequence& q = spec.fragment_paths ? *reads[k] : query;
        for (const mem::Mem& m : expect[k]) {
          const std::size_t n = seq::lce_forward(ref, m.r, q, m.q, ref.size());
          if (n != m.len) run.wrong("lce_forward disagrees with a reported MEM");
          bases += n;
        }
      }
      rs.sample("seq.lce.ns_per_base", seconds_since(t0) * 1e9 /
                                           static_cast<double>(std::max<std::uint64_t>(1, bases)));
    }
    {
      BenchSpan s("mem.sort_unique");
      std::mt19937_64 rng(seed + round);
      double sort_s = 0;
      for (const auto& e : expect) {
        std::vector<mem::Mem> shuffled = e;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        const auto t0 = Clock::now();
        mem::sort_unique(shuffled);
        sort_s += seconds_since(t0);
        if (shuffled != e) run.wrong("sort_unique output differs");
      }
      rs.sample("mem.sort_unique_s", sort_s);
    }
    const auto& p = b->copmem->params();
    std::uint64_t candidates = 0;
    const auto count = [&](const seq::Sequence& q) {
      for (std::size_t j = 0; j + p.seed_len <= q.size(); j += p.k2) {
        candidates += b->copmem->index()->lookup(q.kmer(j, p.seed_len)).size();
      }
    };
    if (spec.fragment_paths) {
      for (const auto* r : reads) count(*r);
    } else {
      count(query);
    }
    rs.sample("mem.copmem.candidates", static_cast<double>(candidates));
    rs.sample("mem.copmem.useful_ratio",
              static_cast<double>(expect_mems) /
                  static_cast<double>(std::max<std::uint64_t>(1, candidates)));
  };

  if (index == 0) {
    for (auto& op : ops) op();  // untimed warm-up of the process
    rs = Rounds{};
    open_plain.clear();
    open_traced.clear();
  }
  // Whole rounds while the next one still fits this dataset's time share.
  const auto start = Clock::now();
  const std::size_t min_rounds = args.trace ? 2 : 1;
  std::size_t round = 0;
  for (double last = 0; round < min_rounds || seconds_since(start) + last <= budget_s;
       ++round) {
    const auto round_start = Clock::now();
    rs.tracing = args.trace && round % 2 == 1;
    obs::Registry::global().set_enabled(rs.tracing);
    // Round-robin: each round (and each dataset) starts at another path.
    for (std::size_t k = 0; k < ops.size(); ++k) ops[(index + round + k) % ops.size()]();
    if (rs.tracing) probe_layers(round);
    last = seconds_since(round_start);
  }
  obs::Registry::global().set_enabled(false);

  // Per-dataset values: medians over this dataset's rounds.
  static const std::vector<std::string> kPathMetrics = {
      "native_s", "copmem_s", "slamem_s", "slamem_lazy_s",
      "simt_modeled_s", "simt_host_s", "serve_qps"};
  for (const std::string& k : kPathMetrics) {
    if (!rs.plain.count(k)) continue;  // SIMT on this pair or not
    run.e2e[k].push_back(median(rs.plain[k]));
    if (args.trace) run.e2e_traced[k].push_back(median(rs.traced[k]));
  }
  if (args.trace) {
    for (const auto& [k, v] : rs.traced) {
      if (k.find('.') != std::string::npos) run.layer[k].push_back(median(v));
    }
    run.layer["core.native.outtile_pieces"].push_back(static_cast<double>(outtile_pieces));
  }
  if (args.trace && runs_simt) {
    run.layer["simt.host_per_modeled"].push_back(
        median(rs.traced["simt_host_s"]) / median(rs.traced["simt_modeled_s"]));
    run.layer["simt.index_modeled_s"].push_back(simt_stats.index_seconds);
    run.layer["simt.kernels_launched"].push_back(static_cast<double>(simt_stats.kernels_launched));
    run.layer["simt.overflow_rounds"].push_back(static_cast<double>(simt_stats.overflow_rounds));
    run.layer["simt.device_peak_bytes"].push_back(static_cast<double>(simt_stats.device_peak_bytes));
    for (const auto& ks : simt_stats.kernel_breakdown) {
      std::string label = ks.label;
      std::replace(label.begin(), label.end(), '/', '.');
      run.layer["simt.kernel." + label + ".modeled_s"].push_back(ks.seconds);
      run.layer["simt.kernel." + label + ".launches"].push_back(static_cast<double>(ks.launches));
    }
  }
  run.open.insert(run.open.end(), open_plain.begin(), open_plain.end());
  run.open_traced.insert(run.open_traced.end(), open_traced.begin(), open_traced.end());
  std::cerr << "[perfbench] dataset " << index << " (seed " << seed << "): |R| "
            << in.ref.size() << ", |Q| " << in.query.size() << ", "
            << expect_mems << " MEMs per pass, " << round << " rounds;";
  for (const std::string& k : kPathMetrics) {
    if (rs.plain.count(k)) std::cerr << " " << k << " " << run.e2e[k].back();
  }
  std::cerr << "\n";
}

// ---------------------------------------------------------------------------
// Reporting.

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

template <typename F>
std::vector<double> field(const std::vector<ServeSample>& v, F f) {
  std::vector<double> out;
  for (const auto& s : v) out.push_back(f(s));
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// End-to-end metrics over the run's datasets: the median over datasets of
/// each dataset's value (its median round, or its set-up), and latency
/// percentiles of the pooled open-loop samples. A median, because repeat
/// content makes a few pairs far heavier than the rest.
std::map<std::string, double> end_to_end(const Series& e2e,
                                         const std::vector<ServeSample>& open) {
  std::map<std::string, double> m;
  for (const auto& [k, v] : e2e) m[k] = median(v);
  const auto lat = field(open, [](const ServeSample& s) { return s.latency_ms; });
  m["serve_p50_ms"] = quantile(lat, 0.50);
  m["serve_p99_ms"] = quantile(lat, 0.99);
  return m;
}

const std::vector<std::pair<std::string, std::string>>& e2e_units() {
  static const std::vector<std::pair<std::string, std::string>> u = {
      {"setup_s", "s"},        {"native_s", "s"},      {"copmem_s", "s"},
      {"slamem_s", "s"},       {"slamem_lazy_s", "s"}, {"simt_modeled_s", "s"},
      {"simt_host_s", "s"},    {"serve_qps", "1/s"},   {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},  {"peak_rss_mb", "MiB"}};
  return u;
}

struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric it should move
  bool part;          // an additive part of that metric
};

const std::vector<LayerDef>& layer_defs() {
  static const std::vector<LayerDef> d = {
      {"seq.fasta_read_s", "s", "setup_s", true},
      {"index.fm.build_s", "s", "setup_s", true},
      {"index.copmem.build_s", "s", "setup_s", true},
      {"index.native_rows.build_s", "s", "setup_s", true},
      {"store.artifact_build_s", "s", "setup_s", true},
      {"store.open_s", "s", "setup_s", true},
      {"serve.start_s", "s", "setup_s", true},
      {"index.fm.bytes", "bytes", "peak_rss_mb", false},
      {"index.copmem.bytes", "bytes", "setup_s", false},
      {"store.bytes", "bytes", "setup_s", false},
      {"core.native.match_s", "s", "native_s", true},
      {"core.native.stitch_s", "s", "native_s", true},
      {"core.native.outtile_pieces", "count", "native_s", false},
      {"seq.lce.ns_per_base", "ns", "native_s", false},
      {"mem.sort_unique_s", "s", "copmem_s", false},
      {"mem.copmem.candidates", "count", "copmem_s", false},
      {"mem.copmem.useful_ratio", "ratio", "copmem_s", false},
      {"simt.index_modeled_s", "s", "simt_modeled_s", true},
      {"simt.kernel.match.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.match.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.tile-combine.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.tile-combine.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.index.count.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.index.count.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.index.fill.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.index.fill.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.index.sort.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.index.sort.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.scan.apply.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.scan.apply.launches", "count", "simt_modeled_s", false},
      {"simt.kernel.scan.chunk-sums.modeled_s", "s", "simt_modeled_s", false},
      {"simt.kernel.scan.chunk-sums.launches", "count", "simt_modeled_s", false},
      {"simt.kernels_launched", "count", "simt_modeled_s", false},
      {"simt.overflow_rounds", "count", "simt_modeled_s", false},
      {"simt.device_peak_bytes", "bytes", "simt_modeled_s", false},
      {"simt.host_per_modeled", "ratio", "simt_host_s", false},
      {"simt.host_stitch_s", "s", "simt_host_s", true},
      {"loadgen.late_p50_ms", "ms", "serve_p50_ms", true},
      {"serve.queue_ms", "ms", "serve_p50_ms", true},
      {"serve.service_ms", "ms", "serve_p50_ms", true},
      {"serve.service_ms.copmem", "ms", "serve_p50_ms", false},
      {"serve.service_ms.longmem", "ms", "serve_p50_ms", false},
      {"serve.requests.copmem", "count", "serve_qps", false},
      {"serve.requests.longmem", "count", "serve_qps", false},
      {"net.wire_ms", "ms", "serve_p50_ms", true},
      {"net.reply_bytes", "bytes", "serve_p50_ms", false},
      {"loadgen.late_ms", "ms", "serve_p99_ms", false},
  };
  return d;
}

/// Wall-clock self time per span name: duration minus the union of the
/// spans nested directly inside it on the same track.
void print_self_times(const std::vector<obs::SpanEvent>& events, std::ostream& os) {
  struct Node {
    double start, end;
    std::string name;
  };
  std::map<std::uint32_t, std::vector<Node>> tracks;
  for (const auto& e : events) {
    if (e.clock != obs::Clock::kWall) continue;
    tracks[e.track].push_back({e.start_us, e.start_us + e.duration_us, e.name});
  }
  std::map<std::string, std::pair<std::uint64_t, double>> self;  // count, us
  std::map<std::string, double> total;
  for (auto& [track, nodes] : tracks) {
    std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // covered[k]: time of node k covered by its direct children
    std::vector<double> covered(nodes.size(), 0.0), child_end(nodes.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      while (!stack.empty() && nodes[stack.back()].end <= nodes[k].start) stack.pop_back();
      if (!stack.empty()) {
        const std::size_t p = stack.back();
        const double from = std::max(nodes[k].start, child_end[p]);
        const double to = std::min(nodes[k].end, nodes[p].end);
        if (to > from) covered[p] += to - from;
        child_end[p] = std::max(child_end[p], to);
      }
      stack.push_back(k);
    }
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      auto& s = self[nodes[k].name];
      ++s.first;
      s.second += nodes[k].end - nodes[k].start - covered[k];
      total[nodes[k].name] += nodes[k].end - nodes[k].start;
    }
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, s] : self) order.emplace_back(s.second, name);
  std::sort(order.rbegin(), order.rend());
  os << "\nself time per span (traced rounds, all datasets):\n";
  char line[200];
  std::snprintf(line, sizeof line, "  %-34s %8s %12s %12s\n", "span", "count", "total ms", "self ms");
  os << line;
  for (const auto& [us, name] : order) {
    std::snprintf(line, sizeof line, "  %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(self[name].first), total[name] / 1e3, us / 1e3);
    os << line;
  }
}

// ---------------------------------------------------------------------------

/// Confines the process, and every thread it starts later, to one CPU: the
/// highest-numbered one it may use, which on most hosts handles the fewest
/// interrupts. Engine work is single-threaded anyway; the serve phases'
/// client, network and dispatcher threads then hand off on one CPU instead
/// of waking each other across CPUs, and every run uses the same CPU.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    std::cerr << "[perfbench] could not pin to CPU " << cpu << "\n";
  }
}

int run_benchmark(const Args& args) {
  pin_to_one_cpu();
  util::ThreadPool::configure_global(1);
  const pb::Spec spec = pb::find_spec(args.workload);
  const std::size_t datasets = spec.datasets;
  Run run;
  const auto start = Clock::now();
  for (std::size_t d = 0; d < datasets; ++d) {
    run_dataset(spec, args, d, args.seconds / static_cast<double>(datasets), run);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  run.e2e["peak_rss_mb"].push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);

  std::vector<Metric> out;
  const std::map<std::string, double> plain = end_to_end(run.e2e, run.open);
  if (!args.trace) {
    for (const auto& [name, unit] : e2e_units()) out.push_back({name, plain.at(name), unit});
  } else {
    const std::vector<ServeSample>& t = run.open_traced;
    run.layer["serve.queue_ms"] = {quantile(field(t, [](auto& s) { return s.queue_ms; }), 0.5)};
    run.layer["serve.service_ms"] = {quantile(field(t, [](auto& s) { return s.service_ms; }), 0.5)};
    run.layer["loadgen.late_p50_ms"] = {quantile(field(t, [](auto& s) { return s.late_ms; }), 0.5)};
    std::vector<double> svc[2];
    for (const auto& s : t) svc[s.long_route].push_back(s.service_ms);
    run.layer["serve.service_ms.copmem"] = {quantile(svc[0], 0.5)};
    run.layer["serve.service_ms.longmem"] = {quantile(svc[1], 0.5)};
    run.layer["serve.requests.copmem"] = {static_cast<double>(run.serve_short)};
    run.layer["serve.requests.longmem"] = {static_cast<double>(run.serve_long)};
    run.layer["net.wire_ms"] = {quantile(field(t, [](auto& s) { return s.wire_ms; }), 0.5)};
    run.layer["net.reply_bytes"] = {mean(field(t, [](auto& s) {
      return static_cast<double>(s.reply_bytes);
    }))};
    run.layer["loadgen.late_ms"] = {quantile(field(t, [](auto& s) { return s.late_ms; }), 0.99)};
    for (const auto& def : layer_defs()) {
      out.push_back({def.name, median(run.layer[def.name]), def.unit});
    }
    // Tracing overhead: traced over untraced, per end-to-end metric.
    Series traced_e2e = run.e2e_traced;
    const std::map<std::string, double> traced = end_to_end(traced_e2e, t);
    double worst = 0;
    std::map<std::string, double> overhead;
    for (const auto& [k, v] : traced) {
      if (k == "simt_modeled_s" || !plain.count(k) || plain.at(k) == 0) continue;
      overhead[k] = k == "serve_qps" ? plain.at(k) / v : v / plain.at(k);
      worst = std::max(worst, overhead[k]);
    }
    out.push_back({"obs.overhead", worst, "ratio"});
    for (const auto& [k, v] : overhead) out.push_back({"obs.overhead." + k, v, "ratio"});

    // The breakdown: each end-to-end metric beside its layers.
    std::cout << "per-layer metrics by the end-to-end metric they should move"
                 " (e2e from untraced rounds, layers from traced rounds, both"
                 " medians over datasets; latency parts are p50s, which do not"
                 " add exactly):\n";
    char line[200];
    for (const auto& [e, unit] : e2e_units()) {
      const double total = plain.at(e);
      std::snprintf(line, sizeof line, "%-16s %14.6g %-5s  tracing overhead %s\n", e.c_str(),
                    total, unit.c_str(),
                    overhead.count(e) ? std::to_string(overhead[e]).c_str() : "-");
      std::cout << line;
      double parts = 0;
      bool any_part = false;
      for (const auto& def : layer_defs()) {
        if (e != def.moves) continue;
        const double v = median(run.layer[def.name]);
        std::snprintf(line, sizeof line, "    %-38s %14.6g %s%s\n", def.name, v, def.unit,
                      def.part ? "  (part)" : "");
        std::cout << line;
        if (def.part) {
          parts += v;
          any_part = true;
        }
      }
      if (any_part && e != "simt_modeled_s") {
        std::snprintf(line, sizeof line, "    %-38s %14.6g %s (%.1f%%)\n", "unattributed",
                      total - parts, unit.c_str(), total > 0 ? 100.0 * (total - parts) / total : 0.0);
        std::cout << line;
      } else if (e != "peak_rss_mb") {
        std::cout << "    unattributed: all of it (no layer inside records its time)\n";
      }
    }
    print_self_times(obs::Registry::global().trace().events(), std::cout);
    const std::string dir = args.out + "/" + spec.name;
    std::ofstream tf(dir + "/trace.json");
    obs::Registry::global().trace().write_chrome_json(tf);
    std::ofstream mf(dir + "/metrics.json");
    obs::Registry::global().metrics().write_json(mf);
    std::cout << "\ntrace: " << dir << "/trace.json, registry metrics: " << dir
              << "/metrics.json\n";
  }

  std::cerr << "[perfbench] " << spec.name << ": " << datasets << " datasets in "
            << seconds_since(start) << " s; operations attempted " << run.attempted
            << ", failed " << run.failed << "; serve requests ok " << run.serve_ok
            << ", rejected " << run.serve_rejected << "; open-loop samples "
            << run.open.size() << "\n";
  if (!run.first_error.empty()) std::cerr << "[perfbench] ERROR: " << run.first_error << "\n";

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (run.correct ? "true" : "false")
       << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!args.trace) std::cout << out[i].name << " " << out[i].value << " " << out[i].unit << "\n";
    json << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": " << out[i].value
         << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return run.correct && run.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
