#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/serving_bench from the checkout's sources (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, writes the full result (every metric with unit and sample count,
the seed, the checks) to <build>/results/<workload>-seed<n>-trace<t>.json,
and prints the contract line as the last line of stdout: correct, attempted,
failed and the end-to-end (--trace 0) or per-layer (--trace 1) metrics that
BENCHMARK.json names. Any build or run failure exits non-zero without
printing a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "serving_bench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out / "serving_bench"


def run(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    return proc.returncode, stdout


def contract_line(result, spec, trace):
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} has no finite value on this workload")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    out = build_dir()
    binary = build(out)

    if args.selftest:
        code, stdout = run([str(binary), "--selftest"])
        sys.stdout.write(stdout)
        sys.exit(code)

    if not args.workload:
        fail("--workload is required")
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans")]
    code, stdout = run(cmd)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"serving_bench exited with {code}")
    result = json.loads(lines[-1])
    result["why"] = next((w["why"] for w in spec["workloads"]
                          if w["name"] == args.workload), None)
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name, check in result["checks"].items():
        if check != "ok":
            print(f"perfbench: check {name} failed: {check}", file=sys.stderr)
    print(json.dumps(contract_line(result, spec, args.trace)))


if __name__ == "__main__":
    main()
