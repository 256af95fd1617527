#!/usr/bin/env python3
"""File-to-verified-colors benchmark.

    python3 colorbench/run.py --workload ba-snap --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from the repository sources, generates the
seeded workload's input file, then either

* (--trace 0) times the paper's Fig. 1 pipeline -- open the file, ADG
  ordering, JP-ADG or DEC-ADG-ITR coloring, check the colors -- at width 1,
  untraced, after checking it once at width nproc, and reports the
  end-to-end metrics; or
* (--trace 1) runs the traced per-layer pass and reports the per-layer
  metrics, the width-nproc pipeline times among them, writing its spans to
  .bench_out/trace-<workload>-<seed>.json.

Metrics are printed one per line as "name value unit"; the last stdout line
is the JSON result. --tiny runs the same code on graphs small enough for the
self-test (test_run.py).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ba-snap", "rmat-v2", "cliques-text")
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3

END_TO_END = {
    "e2e_jp_adg_1t_s": "s",
    "e2e_dec_adg_itr_1t_s": "s",
    "jp_adg_colors": "count",
    "dec_adg_itr_colors": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "graph.text_build_s": "s",
    "graph.text_mb_per_s": "MB/s",
    "graph.load_v1_copy_s": "s",
    "graph.load_v1_mmap_s": "s",
    "graph.load_v2_map_s": "s",
    "graph.load_v2_decode_s": "s",
    "graph.scan_compact_s": "s",
    "graph.scan_compressed_s": "s",
    "graph.scan_gb_per_s": "GB/s",
    "graph.decode_overhead": "ratio",
    "graph.scan_bw_frac": "ratio",
    "graph.sharded_build_s": "s",
    "graph.scan_sharded_s": "s",
    "core.jp_adg_sharded_s": "s",
    "order.adg_s": "s",
    "order.adg_iters": "count",
    "order.adg_marcs_per_s": "Marcs/s",
    "core.jp_async_s": "s",
    "core.jp_level_s": "s",
    "core.jp_levels": "count",
    "core.dec_itr_order_s": "s",
    "core.dec_itr_color_s": "s",
    "core.itr_conflicts": "count",
    "core.itr_rounds": "count",
    "core.itr_conflict_ratio": "ratio",
    "core.verify_s": "s",
    "par.join_ns": "ns",
    "par.steals": "count",
    "par.e2e_jp_adg_s": "s",
    "par.e2e_dec_adg_itr_s": "s",
    "par.speedup_jp_adg": "ratio",
    "par.speedup_dec_adg_itr": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.dropped": "count",
    "fail_frac": "ratio",
    "machine.nproc": "count",
    "machine.llc_mib": "MiB",
    "machine.copy_gb_per_s": "GB/s",
    "graph.bytes_mib": "MiB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the binary; returns its path. Cargo's output goes to stderr."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return os.path.join(ROOT, target, "release", "pgc-colorbench")


def run_child(cmd):
    """Run one benchmark process; returns (last stdout line as JSON, peak RSS
    in MiB of that process alone)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[1]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def finite(metrics, names):
    return all(
        isinstance(metrics.get(k), (int, float)) and math.isfinite(metrics[k]) for k in names
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test graph sizes")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = os.path.join(ROOT, ".bench_work", tag)
    os.makedirs(work)
    try:
        result = bench(binary, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {result['metrics'][name]['value']} {unit}")
    print(json.dumps(result))


def bench(binary, args, work):
    common = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])
    errors = []
    setups = []
    for i in range(1 if args.trace else SETUPS):
        gdir = os.path.join(work, f"gen{i}")
        os.makedirs(gdir)
        out, _ = run_child(
            [binary, "gen", "--seed", str(args.seed), "--dir", gdir] + common
        )
        setups.append(out)
        if i > 0:
            shutil.rmtree(os.path.join(work, f"gen{i - 1}"))
    shape = [(s["n"], s["arcs"], s["d"]) for s in setups]
    if len(set(shape)) != 1:
        errors.append(f"set-up is not deterministic in the seed: {shape}")
    setup_checks = 1 if len(setups) > 1 else 0
    setup = setups[-1]
    log(
        f"{args.workload} seed {args.seed}: n={setup['n']} arcs={setup['arcs']} "
        f"max_degree={setup['max_degree']} d={setup['d']}"
    )
    gdir = os.path.join(work, f"gen{len(setups) - 1}")
    input_path = os.path.join(gdir, setup["input"])
    run = [
        "--input", input_path,
        "--d", str(setup["d"]),
        "--seconds", str(args.seconds),
    ] + common

    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        out, _ = run_child(
            [binary, "trace", "--work", work, "--out", trace_file] + run
        )
        log(f"spans written to {os.path.relpath(trace_file, ROOT)}")
        log(out["note"])
        names, units = PER_LAYER, PER_LAYER
        metrics = out["metrics"]
    else:
        out, rss_mib = run_child([binary, "measure"] + run)
        log("fingerprints: " + json.dumps(out["fingerprints"]))
        log("same across widths: " + json.dumps(out["width_invariant"]))
        log("samples (s): " + json.dumps(out["samples"]))
        names, units = END_TO_END, END_TO_END
        metrics = dict(out["metrics"])
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mib"] = rss_mib

    failed = int(out["failed"]) + len(errors)
    errors += out["errors"]
    for e in errors:
        log(f"FAILED: {e}")
    correct = not errors and failed == 0 and finite(metrics, names)
    return {
        "correct": correct,
        "attempted": int(out["attempted"]) + setup_checks,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": units[k]} for k in names},
    }


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
