// Network serving SLO rig (docs/SERVING.md): an open-loop Poisson load
// generator (net/loadgen) drives real TCP loopback clients against a
// listening net::Server and emits BENCH_servenet.json (schema
// gpumem-bench-servenet-v1) for scripts/bench_check.py.
//
// Two parts, one run:
//
//   gate   A fixed low offered load (default 20 qps for 3 s) with a
//          deliberately generous p99 SLO. The gated quantities are the
//          robust ones: every scheduled request must be sent, answered,
//          and error-free; the summed MEM count must match the committed
//          baseline exactly; and every reply must be bit-identical to a
//          direct in-process Engine run (the binary self-gates identity
//          regardless of the baseline). Latency quantiles are recorded
//          for trend inspection but never diffed — wall time on shared
//          runners is not comparable.
//
//   sweep  Multiplies offered load (default 1.6x from 25 qps) until the
//          tight p99 SLO breaks, the cap is hit, or max_points are
//          measured — the saturation curve docs/SERVING.md plots. Purely
//          informational: the knee is a property of the machine.
//
// Open loop means arrivals fire on schedule no matter how the server is
// doing and latency is measured from the *scheduled* arrival, so a
// saturated server cannot hide backlog (no coordinated omission).
#include <atomic>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "seq/synthetic.h"
#include "serve/service.h"
#include "util/cli.h"

using namespace gm;

namespace {

core::Config serve_config() {
  core::Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;
  return cfg;
}

void emit_point(std::ofstream& f, const net::LoadPoint& p) {
  f << "{\"offered_qps\": " << p.offered_qps << ", \"sent\": " << p.sent
    << ", \"ok\": " << p.ok << ", \"errors\": " << p.errors
    << ", \"mems_total\": " << p.mems_total
    << ", \"goodput_qps\": " << p.goodput_qps
    << ", \"p50_ms\": " << p.p50_ms << ", \"p95_ms\": " << p.p95_ms
    << ", \"p99_ms\": " << p.p99_ms << ", \"max_ms\": " << p.max_ms
    << ", \"slo_ok\": " << (p.slo_ok ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("out", "output JSON path (default BENCH_servenet.json)");
  cli.describe("gate-qps", "gated point: offered load (default 20)");
  cli.describe("gate-seconds", "gated point: duration (default 3)");
  cli.describe("gate-slo-ms", "gated point: p99 SLO in ms (default 500)");
  cli.describe("seed", "Poisson schedule seed (default 1)");
  cli.describe("connections", "client connection lanes (default 4)");
  cli.describe("sweep", "also walk the saturation sweep (default 1)");
  cli.describe("sweep-start", "sweep: first offered load (default 25)");
  cli.describe("sweep-growth", "sweep: multiplicative step (default 1.6)");
  cli.describe("sweep-max-qps", "sweep: load cap (default 4000)");
  cli.describe("sweep-slo-ms", "sweep: p99 SLO in ms (default 50)");
  cli.describe("sweep-seconds", "sweep: seconds per point (default 1)");
  cli.describe("sweep-max-points", "sweep: point cap (default 8)");
  cli.describe("ref-bp", "reference length in bp (default 2000)");
  cli.describe("query-bp", "query length in bp (default 600)");
  if (cli.handle_help("bench_serve_slo: open-loop SLO rig over the "
                      "net::Server loopback wire (docs/SERVING.md)"))
    return 0;

  const std::string out = cli.get("out", "BENCH_servenet.json");
  net::LoadgenConfig gate_cfg;
  gate_cfg.offered_qps = cli.get_double("gate-qps", 20.0);
  gate_cfg.duration_seconds = cli.get_double("gate-seconds", 3.0);
  gate_cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  gate_cfg.connections =
      static_cast<std::size_t>(cli.get_int("connections", 4));
  const double gate_slo_ms = cli.get_double("gate-slo-ms", 500.0);
  const bool do_sweep = cli.get_bool("sweep", true);

  // Workload: one resident reference, a small rotation of derived queries —
  // the read-mapping shape the serving layer exists for. Sized so a single
  // query takes a few ms and a CI runner holds 20 qps with ease.
  const core::Config cfg = serve_config();
  const std::size_t ref_bp =
      static_cast<std::size_t>(cli.get_int("ref-bp", 2000));
  const std::size_t query_bp =
      static_cast<std::size_t>(cli.get_int("query-bp", 600));
  const seq::Sequence reference =
      seq::GenomeModel{.length = ref_bp}.generate(91);
  std::vector<seq::Sequence> queries;
  std::vector<std::vector<mem::Mem>> expected;
  const core::Engine engine(cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    seq::MutationModel mut;
    mut.snp_rate = 0.01 + 0.004 * static_cast<double>(i);
    mut.indel_rate = 0.002;
    mut.target_length = query_bp;
    queries.push_back(mut.apply(reference, 100 + i));
    expected.push_back(engine.run(reference, queries.back()).mems);
  }

  serve::ServiceConfig scfg;
  scfg.engine = cfg;
  scfg.cache_enabled = true;
  scfg.max_batch = 8;
  scfg.queue_capacity = 512;
  serve::MemService service(scfg, reference);

  net::ServerConfig ncfg;
  ncfg.port = 0;
  ncfg.workers = 2;
  ncfg.shed_fraction = 1.0;  // shed only at exactly-full; the gate never is
  net::Server server(ncfg, service);
  std::cerr << "bench_serve_slo: listening on 127.0.0.1:" << server.port()
            << ", ref " << reference.size() << " bp, " << queries.size()
            << " queries\n";

  std::vector<net::Client> clients;
  clients.reserve(gate_cfg.connections);
  for (std::size_t i = 0; i < gate_cfg.connections; ++i)
    clients.emplace_back(server.port(), /*timeout_seconds=*/30.0);

  // Bit-identity check rides along with every reply: any MEM list that
  // differs from the direct Engine run poisons the whole run.
  std::atomic<bool> wire_identical{true};
  const net::SendFn send = [&](std::size_t lane, std::size_t index) {
    net::QueryFrame qf;
    qf.id = std::string("q").append(std::to_string(index));
    qf.query = queries[index % queries.size()].to_string();
    qf.deadline_ms = 0;
    net::Reply reply;
    if (!clients[lane].query(qf, reply) || !reply.ok())
      return net::RequestOutcome{false, 0};
    if (reply.result.mems != expected[index % expected.size()]) {
      wire_identical.store(false);
      return net::RequestOutcome{false, 0};
    }
    return net::RequestOutcome{
        true, static_cast<std::uint32_t>(reply.result.mems.size())};
  };

  // --- gate point -----------------------------------------------------------
  net::WallClock clock;
  const net::LoadPoint gate =
      net::run_open_loop(clock, gate_cfg, send, gate_slo_ms);
  const bool gate_ok = gate.slo_ok && gate.errors == 0 &&
                       gate.ok == gate.sent && wire_identical.load();
  std::cout << "  " << (gate_ok ? "ok  " : "FAIL") << " gate: "
            << gate.offered_qps << " qps x " << gate_cfg.duration_seconds
            << " s -> " << gate.ok << "/" << gate.sent << " ok, p50 "
            << gate.p50_ms << " ms, p99 " << gate.p99_ms << " ms (SLO "
            << gate_slo_ms << " ms), mems " << gate.mems_total
            << (wire_identical.load() ? ", wire bit-identical"
                                      : ", WIRE MISMATCH")
            << "\n";

  // --- saturation sweep (informational) -------------------------------------
  net::SweepConfig sw;
  sw.start_qps = cli.get_double("sweep-start", 25.0);
  sw.growth = cli.get_double("sweep-growth", 1.6);
  sw.max_qps = cli.get_double("sweep-max-qps", 4000.0);
  sw.slo_p99_ms = cli.get_double("sweep-slo-ms", 50.0);
  sw.max_points =
      static_cast<std::size_t>(cli.get_int("sweep-max-points", 8));
  net::SloSweep sweep(sw);
  if (do_sweep) {
    const double per_point = cli.get_double("sweep-seconds", 1.0);
    std::uint64_t point_seed = gate_cfg.seed;
    while (!sweep.done()) {
      net::LoadgenConfig pc = gate_cfg;
      pc.offered_qps = sweep.next_load();
      pc.duration_seconds = per_point;
      pc.seed = ++point_seed;  // fresh arrivals per point
      const net::LoadPoint p = net::run_open_loop(clock, pc, send,
                                                  sw.slo_p99_ms);
      sweep.record(p);
      std::cout << "  sweep " << p.offered_qps << " qps: p99 " << p.p99_ms
                << " ms, goodput " << p.goodput_qps << " qps, "
                << (p.slo_ok ? "within" : "VIOLATES") << " " << sw.slo_p99_ms
                << " ms SLO\n";
    }
    std::cout << "  saturation: " << sweep.saturation_qps()
              << " qps at p99 <= " << sw.slo_p99_ms << " ms\n";
  }

  // --- JSON -----------------------------------------------------------------
  {
    std::ofstream f(out);
    f.precision(17);
    f << "{\n  \"schema\": \"gpumem-bench-servenet-v1\",\n  \"gate\": ";
    f << "{\"offered_qps\": " << gate_cfg.offered_qps
      << ", \"duration_seconds\": " << gate_cfg.duration_seconds
      << ", \"seed\": " << gate_cfg.seed
      << ", \"connections\": " << gate_cfg.connections
      << ", \"slo_p99_ms\": " << gate_slo_ms
      << ", \"sent\": " << gate.sent << ", \"ok\": " << gate.ok
      << ", \"errors\": " << gate.errors
      << ", \"mems_total\": " << gate.mems_total
      << ", \"goodput_qps\": " << gate.goodput_qps
      << ", \"p50_ms\": " << gate.p50_ms << ", \"p95_ms\": " << gate.p95_ms
      << ", \"p99_ms\": " << gate.p99_ms << ", \"max_ms\": " << gate.max_ms
      << ", \"slo_ok\": " << (gate.slo_ok ? "true" : "false")
      << ", \"wire_identical\": "
      << (wire_identical.load() ? "true" : "false") << "},\n";
    f << "  \"sweep\": {\"slo_p99_ms\": " << sw.slo_p99_ms
      << ", \"saturation_qps\": " << sweep.saturation_qps()
      << ", \"points\": [\n";
    const auto& pts = sweep.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      f << "    ";
      emit_point(f, pts[i]);
      f << (i + 1 < pts.size() ? "," : "") << "\n";
    }
    f << "  ]}\n}\n";
  }
  std::cout << "wrote " << out << "\n";

  for (auto& c : clients) c.close();
  server.shutdown();
  if (!gate_ok) {
    std::cerr << "bench_serve_slo: gate FAILED\n";
    return 1;
  }
  return 0;
}
