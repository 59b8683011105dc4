#!/usr/bin/env python3
"""Gate a benchmark run against the committed baseline.

Usage:
    bench_check.py CANDIDATE.json --baseline bench/BENCH_<rig>.json \
        [--diff-out diff.txt]

The schema id in the JSON selects the gating policy; candidate and baseline
must agree on it, so a run is never compared against another rig's
baseline. Every policy requires the candidate's scenario set to equal the
baseline's exactly: a silently dropped scenario is a failure.

  gpumem-bench-pipeline-v1 (bench_regress)
      Per-scenario *modeled* cycles — deterministic simulator output, so a
      tight relative band is meaningful: each scenario must be within
      TOLERANCE (10%) of the baseline, its MEM count exactly equal, and the
      aggregate overlap_speedup >= MIN_OVERLAP_SPEEDUP (1.15).

  gpumem-bench-hostwall-v1 (bench_host_wall: scalar vs packed LCE)
  gpumem-bench-indexio-v1  (bench_index_io: cold build vs artifact load)
  gpumem-bench-copmem-v1   (bench_copmem: SA-IS pipeline vs copmem)
  gpumem-bench-longmem-v1  (bench_longmem: eager vs lazy slaMEM sweep)
      Ratio rigs, one row schema {name, cold_ns, hot_ns, speedup,
      min_speedup, mems}. The gated quantity is the *self-relative*
      cold/hot speedup: both sides are measured in the same process on the
      same data, so it is stable across machines, unlike absolute wall
      time. Each scenario must meet the min_speedup floor embedded in the
      JSON (0 = informational), that floor must equal the baseline's (a
      floor is retuned only by regenerating the baseline), and its MEM
      count must equal the baseline's exactly (each rig itself asserts the
      MEM *sets* are bit-identical). Raw nanoseconds are printed for trend
      inspection but never gated.

  gpumem-bench-servenet-v1 (bench_serve_slo)
      Network-serving gate point (docs/SERVING.md): an open-loop Poisson
      load run over real loopback TCP at a fixed, deliberately low offered
      load. The gated quantities are machine-independent: the run
      configuration (qps, duration, seed, connections, SLO) must match the
      baseline exactly (so the deterministic Poisson schedule — and hence
      `sent` — is the same), every request must be sent, answered ok, and
      error-free, the summed MEM count must equal the baseline exactly,
      the generous p99 SLO must hold, and the binary's own bit-identity
      check against direct Engine runs must have passed. Latency quantiles
      and the saturation sweep are printed for trend inspection but never
      gated — the knee is a property of the machine.

Exit code 0 = pass, 1 = regression (diff printed, and written to --diff-out
when given, for CI artifact upload), 2 = usage / malformed input.
"""

import argparse
import json
import sys

SCHEMA_PIPELINE = "gpumem-bench-pipeline-v1"
SCHEMA_SERVENET = "gpumem-bench-servenet-v1"
RATIO_SCHEMAS = ("gpumem-bench-hostwall-v1", "gpumem-bench-indexio-v1",
                 "gpumem-bench-copmem-v1", "gpumem-bench-longmem-v1")
SCHEMAS = (SCHEMA_PIPELINE, SCHEMA_SERVENET) + RATIO_SCHEMAS

TOLERANCE = 0.10  # pipeline: allowed relative modeled-cycles drift
MIN_OVERLAP_SPEEDUP = 1.15  # pipeline: aggregate overlap speedup floor


def fail_usage(message):
    sys.stderr.write(f"bench_check: {message}\n")
    sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"cannot read {path}: {e}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in SCHEMAS:
        fail_usage(f"{path}: schema {schema!r}, want one of {SCHEMAS!r}")
    return doc


def match_scenarios(cand_rows, base_rows, failures):
    """Yields (name, baseline, candidate) pairs; records set mismatches."""
    for name in sorted(base_rows.keys() | cand_rows.keys()):
        if name not in cand_rows:
            failures.append(f"{name}: missing from candidate run")
            continue
        if name not in base_rows:
            failures.append(f"{name}: not in baseline (regenerate the "
                            f"baseline when adding scenarios)")
            continue
        yield name, base_rows[name], cand_rows[name]


def check_pipeline(cand, base, failures):
    cand_rows = {s["name"]: s for s in cand.get("scenarios", [])}
    base_rows = {s["name"]: s for s in base.get("scenarios", [])}
    for name, b, c in match_scenarios(cand_rows, base_rows, failures):
        drift = c["modeled_cycles"] / b["modeled_cycles"] - 1.0
        wall_ms = c["wall_ns"] / 1e6
        status = "ok"
        if abs(drift) > TOLERANCE:
            status = "FAIL"
            failures.append(
                f"{name}: modeled_cycles {c['modeled_cycles']:.0f} vs "
                f"baseline {b['modeled_cycles']:.0f} ({drift:+.1%}, "
                f"tolerance +-{TOLERANCE:.0%})")
        if c["mems"] != b["mems"]:
            status = "FAIL"
            failures.append(f"{name}: mems {c['mems']} vs baseline "
                            f"{b['mems']} (must match exactly)")
        print(f"  {status:4} {name}: cycles {drift:+.2%} vs baseline, "
              f"mems {c['mems']}, wall {wall_ms:.1f} ms (informational)")

    speedup = cand.get("overlap_speedup", 0.0)
    print(f"  overlap speedup: {speedup:.3f}x (floor {MIN_OVERLAP_SPEEDUP}x, "
          f"baseline had {base.get('overlap_speedup', 0.0):.3f}x)")
    if speedup < MIN_OVERLAP_SPEEDUP:
        failures.append(f"overlap_speedup {speedup:.3f} below the "
                        f"{MIN_OVERLAP_SPEEDUP} floor")
    return len(base_rows), f"+-{TOLERANCE:.0%} modeled cycles"


def check_ratio(cand, base, failures):
    cand_rows = {s["name"]: s for s in cand.get("scenarios", [])}
    base_rows = {s["name"]: s for s in base.get("scenarios", [])}
    for name, b, c in match_scenarios(cand_rows, base_rows, failures):
        floor = c.get("min_speedup", 0.0)
        status = "ok"
        if floor != b.get("min_speedup", 0.0):
            status = "FAIL"
            failures.append(
                f"{name}: min_speedup floor {floor} differs from baseline "
                f"{b.get('min_speedup', 0.0)} (regenerate the baseline when "
                f"retuning gates)")
        if floor > 0.0 and c["speedup"] < floor:
            status = "FAIL"
            failures.append(
                f"{name}: cold/hot speedup {c['speedup']:.2f}x below the "
                f"{floor}x floor (baseline had {b['speedup']:.2f}x)")
        if c["mems"] != b["mems"]:
            status = "FAIL"
            failures.append(f"{name}: mems {c['mems']} vs baseline "
                            f"{b['mems']} (must match exactly)")
        gate = f"floor {floor}x" if floor > 0.0 else "informational"
        print(f"  {status:4} {name}: speedup {c['speedup']:.2f}x ({gate}, "
              f"baseline {b['speedup']:.2f}x), mems {c['mems']}, "
              f"cold {c['cold_ns'] / 1e6:.1f} ms / hot "
              f"{c['hot_ns'] / 1e6:.2f} ms (informational)")
    return len(base_rows), "self-relative cold/hot speedup floors"


def check_servenet(cand, base, failures):
    c, b = cand.get("gate", {}), base.get("gate", {})

    # The run must be the same experiment as the baseline: identical load
    # configuration means an identical deterministic Poisson schedule.
    for key in ("offered_qps", "duration_seconds", "seed", "connections",
                "slo_p99_ms"):
        if c.get(key) != b.get(key):
            failures.append(
                f"gate: config field {key!r} {c.get(key)} differs from "
                f"baseline {b.get(key)} (regenerate the baseline when "
                f"retuning the gate point)")
    if c.get("sent") != b.get("sent"):
        failures.append(
            f"gate: sent {c.get('sent')} vs baseline {b.get('sent')} — the "
            f"seeded schedule must produce the same request count")
    if c.get("ok") != c.get("sent") or c.get("errors", 1) != 0:
        failures.append(
            f"gate: {c.get('ok')}/{c.get('sent')} ok with "
            f"{c.get('errors')} errors — every scheduled request must be "
            f"answered ok")
    if c.get("mems_total") != b.get("mems_total"):
        failures.append(
            f"gate: mems_total {c.get('mems_total')} vs baseline "
            f"{b.get('mems_total')} (must match exactly)")
    if not c.get("slo_ok", False):
        failures.append(
            f"gate: p99 {c.get('p99_ms', 0.0):.2f} ms violates the "
            f"{c.get('slo_p99_ms')} ms SLO at {c.get('offered_qps')} qps")
    if not c.get("wire_identical", False):
        failures.append("gate: wire replies were not bit-identical to "
                        "direct Engine runs")

    status = "FAIL" if failures else "ok"
    print(f"  {status:4} gate: {c.get('offered_qps')} qps x "
          f"{c.get('duration_seconds')} s -> {c.get('ok')}/{c.get('sent')} "
          f"ok, mems {c.get('mems_total')}, p50 {c.get('p50_ms', 0.0):.2f} "
          f"ms / p99 {c.get('p99_ms', 0.0):.2f} ms (informational; baseline "
          f"p99 {b.get('p99_ms', 0.0):.2f} ms)")
    sweep = cand.get("sweep", {})
    for p in sweep.get("points", []):
        print(f"       sweep {p.get('offered_qps')} qps: p99 "
              f"{p.get('p99_ms', 0.0):.2f} ms, "
              f"{'within' if p.get('slo_ok') else 'violates'} "
              f"{sweep.get('slo_p99_ms')} ms SLO (informational)")
    if sweep.get("points"):
        print(f"       saturation {sweep.get('saturation_qps')} qps "
              f"(informational; baseline "
              f"{base.get('sweep', {}).get('saturation_qps')})")
    return 1, "exact load config + count/MEM equality, generous SLO"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("candidate", help="JSON emitted by this run")
    ap.add_argument("--baseline", required=True,
                    help="committed reference JSON")
    ap.add_argument("--diff-out", default=None,
                    help="also write failure details to this file")
    args = ap.parse_args()

    cand = load(args.candidate)
    base = load(args.baseline)
    if cand["schema"] != base["schema"]:
        fail_usage(f"schema mismatch: candidate {cand['schema']!r} vs "
                   f"baseline {base['schema']!r}")

    check = {SCHEMA_PIPELINE: check_pipeline,
             SCHEMA_SERVENET: check_servenet}.get(cand["schema"], check_ratio)
    failures = []
    count, policy = check(cand, base, failures)

    if failures:
        report = "bench_check: REGRESSION\n" + \
                 "\n".join(f"  - {f}" for f in failures) + "\n"
        sys.stderr.write(report)
        if args.diff_out:
            with open(args.diff_out, "w", encoding="utf-8") as f:
                f.write(report)
        return 1
    print(f"bench_check: OK ({count} scenarios, {policy})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
