#!/usr/bin/env python3
"""Runs the cilkm benchmark: one workload, both reducer backends.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `cilkm-perfbench` package twice
from source (a plain build, and one with the `traced` feature, which turns
on `cilkm-core/instrument`) under `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0` runs the plain build in `e2e` mode in five processes, one
  after another, each for a fifth of `--seconds` with one set-up, and
  reports the median over the processes of each end-to-end metric;
* `--trace 1` runs the traced build in `counters` mode (per-job counts),
  then the plain build in `micro` mode (untraced job medians and 90th
  percentiles, and timings of calls into each layer, sized from the
  counts), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, holding exactly the
metrics `BENCHMARK.json` declares for the mode. The same result, with its
provenance, is written to `perfbench/results/`. Exits non-zero without a
result if a build or a run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Each child run must end well inside the 180 s a benchmark run may take.
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840
WORKLOADS = ("addn", "pbfs", "steal_dense", "steal_sparse")
# End-to-end processes per run. Each draws its own address layout, and
# the hypermap hashes reducer addresses, so one process's collisions
# would otherwise set a whole run's hypermap figures.
E2E_PROCESSES = 5
# Timed jobs per arm over the whole run.
MIN_JOBS = 100


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, features):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--target-dir", str(target_dir),
    ]
    if features:
        cmd += ["--features", features]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return target_dir / "release" / "cilkm-perfbench"


def run(binary, args):
    try:
        r = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{binary.name} {' '.join(args)}: {e}")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{binary.name} {' '.join(args)} exited {r.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where there is no git history."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for base in (ROOT / "crates", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file()
                        and p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def value(metrics, name):
    return metrics[name]["value"]


def layer_metrics(counters, micro):
    """Merges the traced counts and the untraced timings, and derives the
    tracing overhead and the budget residual for each arm."""
    out = {k: v for k, v in counters["metrics"].items()
           if not k.startswith(("trace.job_ms.", "size."))}
    out.update({k: v for k, v in micro["metrics"].items()
                if not k.startswith("e2e.")})
    workers = micro["provenance"]["workers"]
    for arm in ("mmap", "hypermap"):
        e2e_ms = value(micro["metrics"], f"e2e.job_ms.{arm}")
        traced_ms = value(counters["metrics"], f"trace.job_ms.{arm}")
        out[f"trace.overhead_pct.{arm}"] = {
            "value": 100.0 * (traced_ms / e2e_ms - 1.0), "unit": "%"}
        explained = (value(out, "baseline.serial_job_ms")
                     + value(out, f"core.lookups.{arm}")
                     * value(out, f"core.lookup_ns.{arm}") / 1e6
                     + value(out, f"core.reduce_overhead_ms.{arm}"))
        out[f"budget.residual_ms.{arm}"] = {
            "value": e2e_ms * workers - explained, "unit": "ms"}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path.name}: {e}")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    plain = build(target / "plain", None)
    traced = build(target / "traced", "traced")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == 0:
        n = E2E_PROCESSES
        runs = [run(plain, common + [
            "--seconds", str(a.seconds / n), "--min-rounds", str(-(-MIN_JOBS // n)),
            "--mode", "e2e"]) for _ in range(n)]
        metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs)}
                   for name in runs[0]["metrics"]}
        declared = spec["end_to_end"]
    else:
        counters = run(traced, common + [
            "--seconds", str(a.seconds / 4), "--min-rounds", "20", "--mode", "counters"])
        sizes = counters["metrics"]
        micro = run(plain, common + [
            "--seconds", str(a.seconds / 2), "--min-rounds", "100", "--mode", "micro",
            "--views-per-page", str(int(value(sizes, "size.views_per_page"))),
            "--pages-per-map", str(int(value(sizes, "size.pages_per_map"))),
            "--pallocs-per-steal", str(int(value(sizes, "size.pallocs_per_steal"))),
            "--bag", str(int(value(sizes, "size.bag"))),
            "--deque-depth", str(int(value(sizes, "size.deque_depth")))])
        runs = [counters, micro]
        metrics = layer_metrics(counters, micro)
        declared = spec["per_layer"]

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {},
    }
    for m in declared:
        if m["name"] not in metrics:
            fail(f"metric {m['name']} was not measured")
        result["metrics"][m["name"]] = {
            "value": metrics[m["name"]]["value"], "unit": m["unit"]}

    provenance = {
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (no git checkout)",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "runs": [{**r["provenance"],
                  "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                 for r in runs],
        "note": "tlmm.* timings (unit ns-sim) time the simulated TLMM substrate; "
                "its crossing cost is a model (crossing_cost_ns), not a kernel measurement",
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps({"provenance": provenance, **result}, indent=2) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
