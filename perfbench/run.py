#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is configured from perfbench/
(which compiles the library from ../src) into .bench_build/ -- or into
$CARGO_TARGET_DIR when that is set -- and writes its inputs, artifacts and
traces under .bench_out/. Build output goes to standard error. The last line
of standard output is the result JSON, holding the metrics BENCHMARK.json
lists for the mode (end_to_end, or per_layer with --trace 1); the binary's
other metrics stay in the lines above it. The exit code is non-zero when the
build fails, an output is wrong, an operation fails or a listed metric is
missing.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out: Path) -> None:
    src = ROOT / "perfbench"
    if not (out / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(src), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, cwd=ROOT)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", str(ROOT / ".bench_out")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"perfbench: benchmark exited with {p.returncode}", file=sys.stderr)
        return p.returncode or 1
    result = json.loads(lines[-1])
    listed = listed_metrics(args.trace == "1")
    if listed is not None:
        missing = [m for m in listed if m not in result["metrics"]]
        if missing:
            print(f"perfbench: metrics missing: {missing}", file=sys.stderr)
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in listed}
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


def listed_metrics(trace: bool):
    """The metric names BENCHMARK.json lists for this mode, or None."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


if __name__ == "__main__":
    sys.exit(main())
