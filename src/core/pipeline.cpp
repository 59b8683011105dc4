#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "core/device_pool.h"
#include "core/host_stitch.h"
#include "core/index_kernels.h"
#include "mem/clip.h"
#include "core/match_kernel.h"
#include "core/tile_kernel.h"
#include "index/kmer_index.h"
#include "obs/registry.h"
#include "simt/buffer.h"
#include "simt/stream.h"
#include "util/bits.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace gm::core {
namespace {

constexpr mem::Mem kSentinel{0xFFFFFFFFu, 0u, 0u};

/// Everything one tile produced, after overflow retries, host-fallback
/// rounds, and the tile-level combine.
struct TileResult {
  std::vector<mem::Mem> inblock;      ///< reported at block level
  std::vector<mem::Mem> intile;       ///< reported by the tile combine
  std::vector<mem::Mem> outtile;      ///< pieces for the final host merge
  std::uint64_t overflow_rounds = 0;  ///< rounds that fell back to the host
  std::size_t outblock_pieces = 0;    ///< combine input size (observability)
};

/// The complete device work of one tile: match kernel with
/// doubling-capacity retries, host fallback for overflowed rounds, and the
/// tile-level combine with its own retries. `cap_in`/`cap_out` are the
/// caller's adaptive capacities — grown in place so later tiles start at
/// the learned size. Runs inside a stream closure: every retry rolls back
/// the ledger, the trace, and the captured segments together.
TileResult process_tile(simt::Device& dev, const Config& cfg,
                        const Config::Geometry& g, const seq::Sequence& ref,
                        const seq::Sequence& query, const DeviceIndex& index,
                        const Rect& tile, std::uint32_t& cap_in,
                        std::uint32_t& cap_out) {
  TileResult outs;
  std::vector<mem::Mem> outblock;

  // Every seed hit yields at most one triplet, and a query position hits at
  // most every sampled location of the row, so a small tile never needs the
  // full capacities: its buffers are sized to its largest possible output.
  // A round's load is at most τ·n_locs, so the capped scratch overflows
  // exactly when round_capacity would.
  const std::size_t max_hits = std::size_t{tile.q1 - tile.q0} * index.n_locs;
  const std::uint32_t round_capacity = static_cast<std::uint32_t>(
      std::min<std::size_t>(cfg.round_capacity,
                            std::size_t{cfg.threads} * index.n_locs));

  // ---- match kernel over the tile's blocks, retrying on overflow ---------
  for (;;) {
    const simt::PerfLedger::Snapshot snap = dev.ledger().snapshot();
    const std::size_t trace_mark =
        obs::enabled() ? obs::Registry::global().trace().size() : 0;
    const std::size_t seg_mark = dev.segment_mark();
    simt::Buffer<mem::Mem> scratch(
        dev, std::size_t{cfg.tile_blocks} * round_capacity);
    simt::Buffer<mem::Mem> inblock_buf(
        dev, std::min<std::size_t>(cap_in, max_hits));
    simt::Buffer<mem::Mem> outblock_buf(
        dev, std::min<std::size_t>(cap_out, max_hits));
    simt::Buffer<std::uint32_t> in_count(dev, 1);
    simt::Buffer<std::uint32_t> out_count(dev, 1);
    simt::Buffer<std::uint8_t> overflow(dev,
                                        std::size_t{cfg.tile_blocks} * g.w);
    in_count[0] = out_count[0] = 0;
    std::fill_n(overflow.data(), overflow.size(), std::uint8_t{0});

    MatchParams params;
    params.ref = &ref;
    params.query = &query;
    params.ptrs = index.ptrs.span();
    params.locs = index.locs.span();
    params.tile = tile;
    params.seed_len = cfg.seed_len;
    params.w = g.w;
    params.min_len = cfg.min_length;
    params.round_capacity = round_capacity;
    params.block_width = g.block_width;
    params.load_balance = cfg.load_balance;
    params.combine = cfg.combine;
    params.scratch = scratch.span();
    params.inblock = inblock_buf.span();
    params.inblock_count = in_count.span();
    params.outblock = outblock_buf.span();
    params.outblock_count = out_count.span();
    params.overflow = overflow.span();

    launch_match_kernel(dev, cfg.tile_blocks, cfg.threads, params);

    if (in_count[0] > cap_in || out_count[0] > cap_out) {
      if (in_count[0] > cap_in) {
        cap_in = static_cast<std::uint32_t>(util::ceil_pow2(in_count[0]));
      }
      if (out_count[0] > cap_out) {
        cap_out = static_cast<std::uint32_t>(util::ceil_pow2(out_count[0]));
      }
      dev.ledger().rollback(snap);
      if (obs::enabled()) {
        obs::Registry::global().trace().truncate(trace_mark);
      }
      dev.segment_truncate(seg_mark);
      continue;
    }

    outs.inblock = inblock_buf.download(in_count[0]);
    outblock = outblock_buf.download(out_count[0]);

    // Host fallback for rounds whose load exceeded the scratch capacity.
    for (std::uint32_t b = 0; b < cfg.tile_blocks; ++b) {
      for (std::uint32_t rnd = 0; rnd < g.w; ++rnd) {
        if (!overflow[std::size_t{b} * g.w + rnd]) continue;
        ++outs.overflow_rounds;
        process_round_host(params, b, rnd, cfg.threads, outs.inblock,
                           outblock);
      }
    }
    break;
  }
  outs.outblock_pieces = outblock.size();

  // ---- tile-level combine ------------------------------------------------
  if (!outblock.empty()) {
    for (;;) {
      const simt::PerfLedger::Snapshot snap = dev.ledger().snapshot();
      const std::size_t trace_mark =
          obs::enabled() ? obs::Registry::global().trace().size() : 0;
      const std::size_t seg_mark = dev.segment_mark();
      const std::size_t padded = util::ceil_pow2(outblock.size());
      simt::Buffer<mem::Mem> triplets(dev, padded);
      std::copy(outblock.begin(), outblock.end(), triplets.data());
      std::fill(triplets.data() + outblock.size(), triplets.data() + padded,
                kSentinel);
      dev.account_copy(outblock.size() * sizeof(mem::Mem));
      simt::Buffer<std::uint8_t> run_start(dev, outblock.size());
      // The combine emits at most one MEM per input triplet.
      simt::Buffer<mem::Mem> intile_buf(
          dev, std::min<std::size_t>(cap_in, outblock.size()));
      simt::Buffer<mem::Mem> outtile_buf(
          dev, std::min<std::size_t>(cap_out, outblock.size()));
      simt::Buffer<std::uint32_t> in_count(dev, 1);
      simt::Buffer<std::uint32_t> out_count(dev, 1);
      in_count[0] = out_count[0] = 0;

      TileCombineParams tc;
      tc.ref = &ref;
      tc.query = &query;
      tc.tile = tile;
      tc.min_len = cfg.min_length;
      tc.triplets = triplets.span();
      tc.count = static_cast<std::uint32_t>(outblock.size());
      tc.run_start = run_start.span();
      tc.intile = intile_buf.span();
      tc.intile_count = in_count.span();
      tc.outtile = outtile_buf.span();
      tc.outtile_count = out_count.span();

      launch_tile_combine(dev, cfg.threads, tc);

      if (in_count[0] > cap_in || out_count[0] > cap_out) {
        if (in_count[0] > cap_in) {
          cap_in = static_cast<std::uint32_t>(util::ceil_pow2(in_count[0]));
        }
        if (out_count[0] > cap_out) {
          cap_out = static_cast<std::uint32_t>(util::ceil_pow2(out_count[0]));
        }
        dev.ledger().rollback(snap);
        if (obs::enabled()) {
          obs::Registry::global().trace().truncate(trace_mark);
        }
        dev.segment_truncate(seg_mark);
        continue;
      }
      outs.intile = intile_buf.download(in_count[0]);
      outs.outtile = outtile_buf.download(out_count[0]);
      break;
    }
  }
  return outs;
}

}  // namespace

void publish_run_stats(const RunStats& stats) {
  if (!obs::enabled()) return;
  obs::Metrics& m = obs::Registry::global().metrics();
  const auto set = [&m](const std::string& name, double v,
                        const std::string& help = {}) {
    m.gauge(name, help).set(v);
  };
  set("run.index_seconds", stats.index_seconds,
      "index-generation time (paper Table III)");
  set("run.match_seconds", stats.match_seconds,
      "MEM-extraction time incl. host merge (paper Table IV)");
  set("run.host_stitch_seconds", stats.host_stitch_seconds,
      "measured host out-tile merge portion of match_seconds");
  set("run.device_match_seconds", stats.device_match_seconds(),
      "match_seconds minus the host merge");
  set("run.modeled_makespan_seconds", stats.modeled_makespan_seconds,
      "modeled device seconds first-to-last op (overlap shrinks this)");
  set("run.wall_seconds", stats.wall_seconds, "host wall clock of the run");
  set("run.mem_count", static_cast<double>(stats.mem_count));
  set("run.tile_rows", stats.tile_rows);
  set("run.tile_cols", stats.tile_cols);
  set("run.inblock_mems", static_cast<double>(stats.inblock_mems));
  set("run.intile_mems", static_cast<double>(stats.intile_mems));
  set("run.outtile_pieces", static_cast<double>(stats.outtile_pieces));
  set("run.overflow_rounds", static_cast<double>(stats.overflow_rounds));
  set("run.kernels_launched", static_cast<double>(stats.kernels_launched));
  set("run.device_peak_bytes", static_cast<double>(stats.device_peak_bytes));
  set("run.index_cache_hit", stats.index_cache_hit ? 1.0 : 0.0,
      "1 when every tile-row index was served prebuilt (no build work)");
  set("run.trace_id", static_cast<double>(stats.trace_id),
      "trace id of the last published run (0 = standalone)");
  for (const RunStats::KernelStat& ks : stats.kernel_breakdown) {
    m.gauge("kernel." + ks.label + ".seconds").set(ks.seconds);
    m.gauge("kernel." + ks.label + ".launches")
        .set(static_cast<double>(ks.launches));
  }
  // Host wall-time phase distributions: unlike the run.* gauges (last run
  // only), these accumulate across runs so a serve replay or multi-query
  // batch yields count/mean/min/max per phase (docs/OBSERVABILITY.md).
  const auto phase_ns = [&m](const char* name, double seconds,
                             const char* help) {
    m.distribution(std::string("host.phase_ns.") + name, help)
        .observe(seconds * 1e9);
  };
  phase_ns("index", stats.index_seconds,
           "host wall ns spent building row indexes, per run");
  phase_ns("match", stats.device_match_seconds(),
           "host wall ns spent matching (excl. out-tile merge), per run");
  phase_ns("stitch", stats.host_stitch_seconds,
           "host wall ns spent in the out-tile merge, per run");
  phase_ns("total", stats.wall_seconds, "host wall ns per run end to end");
}

void merge_out_tile(const seq::Sequence& ref, const seq::Sequence& query,
                    std::uint32_t min_len, std::vector<mem::Mem> pieces,
                    std::vector<mem::Mem>& reported, RunStats& stats) {
  const double start_us =
      obs::enabled() ? obs::Registry::global().wall_now_us() : 0.0;
  util::Timer timer;
  stats.outtile_pieces = pieces.size();
  const std::vector<mem::Mem> finished =
      finalize_out_tile(ref, query, std::move(pieces), min_len);
  reported.insert(reported.end(), finished.begin(), finished.end());
  mem::clip_invalid_bases(ref, query, reported, min_len);
  mem::sort_unique(reported);
  stats.host_stitch_seconds = timer.seconds();
  stats.match_seconds += stats.host_stitch_seconds;
  if (!obs::enabled()) return;
  // Recorded by hand so its duration is exactly host_stitch_seconds: the
  // "stage" spans of a traced run then decompose index + match precisely.
  obs::SpanEvent ev;
  ev.name = "stitch/host-merge";
  ev.category = "stage";
  ev.clock = obs::Clock::kWall;
  ev.track = obs::current_trace().lane;
  ev.start_us = start_us;
  ev.duration_us = stats.host_stitch_seconds * 1e6;
  ev.attrs.push_back({"outtile_pieces", stats.outtile_pieces});
  obs::Registry::global().trace().record(std::move(ev));
}

void fold_device_stats(RunStats& pool, const RunStats& device) {
  pool.index_seconds = std::max(pool.index_seconds, device.index_seconds);
  pool.match_seconds = std::max(pool.match_seconds, device.match_seconds);
  pool.modeled_makespan_seconds = std::max(pool.modeled_makespan_seconds,
                                           device.modeled_makespan_seconds);
  pool.device_peak_bytes =
      std::max(pool.device_peak_bytes, device.device_peak_bytes);
  pool.tile_rows += device.tile_rows;
  pool.inblock_mems += device.inblock_mems;
  pool.intile_mems += device.intile_mems;
  pool.overflow_rounds += device.overflow_rounds;
  pool.kernels_launched += device.kernels_launched;
  for (const RunStats::KernelStat& ks : device.kernel_breakdown) {
    const auto it = std::find_if(
        pool.kernel_breakdown.begin(), pool.kernel_breakdown.end(),
        [&ks](const RunStats::KernelStat& p) { return p.label == ks.label; });
    if (it == pool.kernel_breakdown.end()) {
      pool.kernel_breakdown.push_back(ks);
    } else {
      it->seconds += ks.seconds;
      it->launches += ks.launches;
    }
  }
  std::stable_sort(pool.kernel_breakdown.begin(), pool.kernel_breakdown.end(),
                   [](const RunStats::KernelStat& a,
                      const RunStats::KernelStat& b) {
                     return a.seconds > b.seconds;
                   });
}

Result Engine::run(const seq::Sequence& ref, const seq::Sequence& query) const {
  return cfg_.backend == Backend::kSimt ? DevicePool(cfg_, 1, ref).run(query)
                                        : run_native(ref, query);
}

Engine::NativeIndex Engine::build_native_index(const seq::Sequence& ref) const {
  const Config::Geometry g = cfg_.validated();
  NativeIndex out;
  util::Timer timer;
  const std::uint32_t n_r = ref.empty()
                                ? 0
                                : static_cast<std::uint32_t>(
                                      util::ceil_div<std::size_t>(ref.size(),
                                                                  g.tile_len));
  out.rows.reserve(n_r);
  for (std::uint32_t row = 0; row < n_r; ++row) {
    const std::size_t r0 = std::size_t{row} * g.tile_len;
    const std::size_t r1 = std::min(ref.size(), r0 + g.tile_len);
    out.rows.emplace_back(ref, r0, r1, cfg_.seed_len, g.step);
  }
  out.build_seconds = timer.seconds();
  return out;
}

Result Engine::run_native_prebuilt(const seq::Sequence& ref,
                                   const seq::Sequence& query,
                                   const NativeIndex& prebuilt) const {
  return run_native(ref, query, &prebuilt);
}

void Engine::run_simt_rows(simt::Device& dev, const seq::Sequence& ref,
                           const seq::Sequence& query,
                           std::uint32_t row_begin, std::uint32_t row_end,
                           std::vector<mem::Mem>& reported,
                           std::vector<mem::Mem>& outtile_pieces,
                           RunStats& stats,
                           RowIndexSource* index_source) const {
  const Config::Geometry g = cfg_.validated();
  if (ref.empty() || query.empty()) return;

  const std::uint32_t n_r = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(ref.size(), g.tile_len));
  const std::uint32_t n_c = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(query.size(), g.tile_len));
  row_end = std::min(row_end, n_r);
  if (row_begin >= row_end) return;
  const std::uint32_t n_rows = row_end - row_begin;
  const std::uint32_t W = cfg_.overlap_streams;

  // Sequences live on the device for the whole run (2 bits per base), like
  // the real tool; only the *index* is tile-partitioned.
  simt::Buffer<std::uint64_t> ref_dev(dev, ref.size() / 32 + 1);
  simt::Buffer<std::uint64_t> query_dev(dev, query.size() / 32 + 1);

  simt::StreamScheduler sched(dev, cfg_.overlap_shuffle_seed);
  simt::Stream& copy = sched.create_stream("copy");
  std::vector<simt::Stream*> workers;
  workers.reserve(W);
  for (std::uint32_t s = 0; s < W; ++s) {
    workers.push_back(&sched.create_stream("worker-" + std::to_string(s)));
  }

  // Sequence upload on the copy stream; every worker's first op waits it.
  simt::Event ev_upload;
  const std::size_t upload_bytes = ref_dev.bytes() + query_dev.bytes();
  copy.run("upload/sequences", [&dev, upload_bytes] {
    dev.account_copy(upload_bytes, simt::CopyDir::kH2D);
  });
  copy.record(ev_upload);
  for (simt::Stream* w : workers) w->wait(ev_upload);

  // Row indexes build into `slots` resident slots: row i uses slot
  // i % slots and waits until every tile of row i - slots is done with it
  // (the ev_row_done edges). Two slots let row i+1's build overlap row i's
  // match kernels; with one worker stream nothing could overlap, so one
  // slot saves the memory. The prebuilt path borrows resident indexes from
  // the source instead.
  const std::uint32_t max_locs =
      static_cast<std::uint32_t>(g.tile_len / g.step) + 2;
  const std::uint32_t slots =
      index_source != nullptr ? 0 : (W > 1 && n_rows > 1 ? 2 : 1);
  std::optional<DeviceIndex> local_index[2];
  for (std::uint32_t k = 0; k < slots; ++k) {
    local_index[k].emplace(dev, cfg_.seed_len, g.step, max_locs);
  }

  struct RowWork {
    DeviceIndex* index = nullptr;
    bool hit = false;
    simt::Stream::OpId op = 0;
  };
  struct TileWork {
    std::size_t inblock_mems = 0;
    std::size_t outblock_pieces = 0;
    std::uint64_t overflow_rounds = 0;
    simt::Stream::OpId op = 0;
  };
  std::vector<RowWork> rows(n_rows);
  std::vector<TileWork> tiles(std::size_t{n_rows} * n_c);
  std::vector<simt::Event> ev_build(n_rows);
  std::vector<std::vector<simt::Event>> ev_row_done(n_rows);
  for (auto& per_stream : ev_row_done) per_stream.resize(W);

  // Tile -> stream mapping is static (col % W), so each stream's adaptive
  // capacities see the same tile sequence under every drain order — retries
  // and kernels_launched are interleaving-independent.
  std::vector<std::uint32_t> cap_in(W, cfg_.output_capacity);
  std::vector<std::uint32_t> cap_out(W, cfg_.output_capacity);

  for (std::uint32_t i = 0; i < n_rows; ++i) {
    const std::uint32_t row = row_begin + i;
    const std::uint32_t r0 = row * g.tile_len;
    const std::uint32_t r1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(ref.size(), r0 + std::size_t{g.tile_len}));
    simt::Stream& bs = *workers[i % W];
    if (slots != 0 && i >= slots) {
      for (std::uint32_t s = 0; s < W; ++s) bs.wait(ev_row_done[i - slots][s]);
    }
    RowWork& rw = rows[i];
    DeviceIndex* slot = slots != 0 ? &*local_index[i % slots] : nullptr;
    rw.op = bs.run(
        "index/build-row",
        [this, &dev, &ref, &rw, &stats, index_source, slot, row, r0, r1, g] {
          const double before = dev.ledger().total_seconds();
          if (index_source != nullptr) {
            rw.index = &index_source->acquire(dev, ref, row, rw.hit);
            if (rw.index->seed_len != cfg_.seed_len ||
                rw.index->step != g.step) {
              throw std::invalid_argument(
                  "run_simt_rows: RowIndexSource geometry does not match "
                  "the engine config (seed_len/step)");
            }
          } else {
            build_partial_index(dev, ref, r0, r1, cfg_.threads, *slot);
            rw.index = slot;
          }
          const double delta = dev.ledger().total_seconds() - before;
          stats.index_seconds += delta;
          if (obs::enabled()) {
            obs::flight(obs::FlightKind::kLedger, "index/build-row",
                        obs::current_trace().trace_id, delta,
                        dev.ledger().total_seconds());
          }
        });
    bs.record(ev_build[i]);

    for (std::uint32_t s = 0; s < W; ++s) {
      simt::Stream& ws = *workers[s];
      if (s < n_c) ws.wait(ev_build[i]);
      for (std::uint32_t col = s; col < n_c; col += W) {
        const std::uint32_t c0 = col * g.tile_len;
        const std::uint32_t c1 = static_cast<std::uint32_t>(
            std::min<std::size_t>(query.size(), c0 + std::size_t{g.tile_len}));
        const Rect tile{r0, r1, c0, c1};
        TileWork& tw = tiles[std::size_t{i} * n_c + col];
        tw.op = ws.run(
            "match/tile",
            [this, &dev, &ref, &query, &rw, &tw, &stats, &cap_in, &cap_out,
             &reported, &outtile_pieces, tile, g, s] {
              const double before = dev.ledger().total_seconds();
              const TileResult outs =
                  process_tile(dev, cfg_, g, ref, query, *rw.index, tile,
                               cap_in[s], cap_out[s]);
              const double delta = dev.ledger().total_seconds() - before;
              stats.match_seconds += delta;
              stats.overflow_rounds += outs.overflow_rounds;
              stats.inblock_mems += outs.inblock.size();
              stats.intile_mems += outs.intile.size();
              reported.insert(reported.end(), outs.inblock.begin(),
                              outs.inblock.end());
              reported.insert(reported.end(), outs.intile.begin(),
                              outs.intile.end());
              outtile_pieces.insert(outtile_pieces.end(), outs.outtile.begin(),
                                    outs.outtile.end());
              tw.inblock_mems = outs.inblock.size();
              tw.outblock_pieces = outs.outblock_pieces;
              tw.overflow_rounds = outs.overflow_rounds;
              if (obs::enabled()) {
                obs::flight(obs::FlightKind::kLedger, "match/tile",
                            obs::current_trace().trace_id, delta,
                            dev.ledger().total_seconds());
              }
            });
      }
      ws.record(ev_row_done[i][s]);
    }
  }
  sched.drain();

  stats.modeled_makespan_seconds += sched.makespan();
  stats.index_cache_hit =
      index_source != nullptr &&
      std::all_of(rows.begin(), rows.end(),
                  [](const RowWork& rw) { return rw.hit; });

  // Stage spans, placed at the ops' scheduled intervals on the worker
  // streams' tracks (kernel/transfer spans were already retimed by the
  // scheduler).
  if (obs::enabled()) {
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      const simt::StreamScheduler::Interval iv = sched.interval(rows[i].op);
      obs::record_modeled_span(
          "index/build-row", "stage", iv.start, iv.end - iv.start,
          dev.ordinal(),
          {{"row", std::uint64_t{row_begin + i}},
           {"cache_hit", std::uint64_t{rows[i].hit}}},
          workers[i % W]->track());
    }
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      for (std::uint32_t col = 0; col < n_c; ++col) {
        const TileWork& tw = tiles[std::size_t{i} * n_c + col];
        const simt::StreamScheduler::Interval iv = sched.interval(tw.op);
        obs::record_modeled_span(
            "match/tile", "stage", iv.start, iv.end - iv.start, dev.ordinal(),
            {{"row", std::uint64_t{row_begin + i}},
             {"col", std::uint64_t{col}},
             {"inblock_mems", std::uint64_t{tw.inblock_mems}},
             {"outblock_pieces", std::uint64_t{tw.outblock_pieces}},
             {"overflow_rounds", tw.overflow_rounds}},
            workers[col % W]->track());
      }
    }
  }
}

Result Engine::run_native(const seq::Sequence& ref,
                          const seq::Sequence& query,
                          const NativeIndex* prebuilt) const {
  const Config::Geometry g = cfg_.validated();
  if (cfg_.observe) obs::Registry::global().set_enabled(true);
  obs::Span run_span("pipeline/run", "pipeline");
  run_span.attr("backend", std::string("native"));
  run_span.attr("ref_bp", std::uint64_t{ref.size()});
  run_span.attr("query_bp", std::uint64_t{query.size()});
  util::Timer wall;
  Result result;
  if (ref.empty() || query.empty()) {
    result.stats.wall_seconds = wall.seconds();
    return result;
  }

  const std::uint32_t n_r = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(ref.size(), g.tile_len));
  const std::uint32_t n_c = static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(query.size(), g.tile_len));
  result.stats.tile_rows = n_r;
  result.stats.tile_cols = n_c;
  result.stats.index_cache_hit = prebuilt != nullptr;

  std::vector<mem::Mem> reported;
  std::vector<mem::Mem> outtile_pieces;
  const seq::PackedSeq pref(ref), pquery(query);

  for (std::uint32_t row = 0; row < n_r; ++row) {
    const std::uint32_t r0 = row * g.tile_len;
    const std::uint32_t r1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(ref.size(), r0 + std::size_t{g.tile_len}));

    // Reuse prebuilt row indexes when available (build-once / query-many).
    std::optional<index::KmerIndex> local;
    if (prebuilt == nullptr) {
      obs::Span index_span("index/build-row", "stage");
      index_span.attr("row", std::uint64_t{row});
      util::Timer index_timer;
      local.emplace(ref, r0, r1, cfg_.seed_len, g.step);
      result.stats.index_seconds += index_timer.seconds();
    }
    const index::KmerIndex& idx =
        prebuilt != nullptr ? prebuilt->rows.at(row) : *local;

    obs::Span match_span("match/row", "stage");
    match_span.attr("row", std::uint64_t{row});
    util::Timer match_timer;
    for (std::uint32_t col = 0; col < n_c; ++col) {
      const std::uint32_t c0 = col * g.tile_len;
      const std::uint32_t c1 = static_cast<std::uint32_t>(
          std::min<std::size_t>(query.size(), c0 + std::size_t{g.tile_len}));
      const Rect tile{r0, r1, c0, c1};

      // Parallel over query chunks; chain-interior hits are skipped so each
      // in-tile chain is expanded exactly once (same invariant the device
      // combine establishes).
      const std::size_t workers = util::ThreadPool::global().size();
      std::vector<std::vector<mem::Mem>> local_in(workers + 1);
      std::vector<std::vector<mem::Mem>> local_out(workers + 1);
      std::atomic<std::size_t> chunk_id{0};
      util::parallel_for_chunked(
          c0, c1, workers, [&](std::size_t jb, std::size_t je) {
            const std::size_t my = chunk_id.fetch_add(1);
            std::vector<mem::Mem>& in_sink = local_in[my];
            std::vector<mem::Mem>& out_sink = local_out[my];
            for (std::size_t j = jb; j < je; ++j) {
              if (j + cfg_.seed_len > query.size()) break;
              const std::uint64_t seed = query.kmer(j, cfg_.seed_len);
              for (const std::uint32_t p : idx.lookup(seed)) {
                const std::size_t back_room =
                    std::min<std::size_t>(p - tile.r0, j - tile.q0);
                std::size_t back = 0;
                if (p > 0 && j > 0) {
                  back = pref.lce_backward(p - 1, pquery, j - 1, back_room);
                }
                if (back >= g.step) continue;  // chain-interior hit
                const mem::Mem e = expand_clamped(
                    pref, pquery,
                    mem::Mem{p, static_cast<std::uint32_t>(j), cfg_.seed_len},
                    tile);
                if (touches_edge(e, tile)) {
                  out_sink.push_back(e);
                } else if (e.len >= cfg_.min_length) {
                  in_sink.push_back(e);
                }
              }
            }
          });
      for (auto& v : local_in) {
        result.stats.intile_mems += v.size();
        reported.insert(reported.end(), v.begin(), v.end());
      }
      for (auto& v : local_out) {
        outtile_pieces.insert(outtile_pieces.end(), v.begin(), v.end());
      }
    }
    result.stats.match_seconds += match_timer.seconds();
  }

  merge_out_tile(ref, query, cfg_.min_length, std::move(outtile_pieces),
                 reported, result.stats);

  result.mems = std::move(reported);
  result.stats.mem_count = result.mems.size();
  result.stats.wall_seconds = wall.seconds();
  publish_run_stats(result.stats);
  return result;
}

}  // namespace gm::core
