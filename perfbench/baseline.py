#!/usr/bin/env python3
"""Re-measures the committed baseline of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10

Runs every workload of BENCHMARK.json as two sets of `--runs` untraced
runs of `run_seconds` each, the runs of the two sets interleaved and
every run with another seed, plus one traced run per workload. Writes
perfbench/baseline.json: the host it ran on (git rev, host_cpus, rustc
version), each workload's definition, and for each end-to-end metric the
median and quartiles of each set, the spread between the quartiles as a
share of the median, and how far the second set's median lies from the
first's. Prints the spreads next to a third of each metric's bound and
exits non-zero if a run fails, a spread exceeds its bound, or the two
medians differ by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "baseline.json")
# First seed of each set; run i of set s uses SEED_BASES[s] + i.
SEED_BASES = (1000, 2000)

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_TARGETS = {
    "transport.rtt_us": "query_p50_us on dashboard_read",
    "wire.decode_ns": "query_p50_us, query_many_p50_us on dashboard_read",
    "wire.encode_ns": "query_p50_us, query_many_p50_us on dashboard_read",
    "wire.request_bytes": "query_p50_us, query_many_p50_us on dashboard_read",
    "wire.reply_bytes": "query_p50_us, query_many_p50_us on dashboard_read",
    "tenant.lookup_ns": "every latency on every workload",
    "tenant.update_ns": "update_p50_us, update_p99_us on durable_ingest",
    "tenant.checkpoint_ns": "update_p50_us, update_p99_us on durable_ingest",
    "versioned.query_ns": "query_p50_us on dashboard_read and cube3d_mixed",
    "versioned.query_many_ns_per_region": "query_many_p50_us on dashboard_read",
    "versioned.corner_hit_ratio": "query_many_p50_us on dashboard_read",
    "versioned.publish_ns": "update_p50_us on cube3d_mixed and durable_ingest; server_peak_rss_mb",
    "versioned.cow_slabs_per_update": "update_p50_us on cube3d_mixed and durable_ingest; server_peak_rss_mb",
    "versioned.batch_ns_per_update": "batch_update_p50_us; setup_s",
    "rps.query_ns": "query_p50_us on cube3d_mixed",
    "rps.cells_read_per_query": "query_p50_us on cube3d_mixed",
    "rps.update_ns": "update_p50_us on cube3d_mixed",
    "rps.cells_written_per_update": "update_p50_us on cube3d_mixed",
    "rps.build_s": "setup_s",
    "wal.append_ns": "update_p50_us, update_p99_us on durable_ingest",
    "wal.sync_ns": "update_p50_us, update_p99_us on durable_ingest",
    "wal.bytes_per_update": "update_p50_us, update_p99_us on durable_ingest",
    "durable.update_ns": "update_p50_us on durable_ingest",
    "snapshot.save_ns": "update_p99_us on durable_ingest",
    "snapshot.bytes_per_update": "update_p99_us on durable_ingest",
    "durable.recover_s": "recover_s on durable_ingest",
    "durable.replayed_records": "recover_s on durable_ingest",
    "trace.overhead_pct": "none: the traced run's own cost",
    "recon.query_ratio": "none: reconciliation of query_p50_us",
    "recon.query_many_ratio": "none: reconciliation of query_many_p50_us",
    "recon.update_ratio": "none: reconciliation of update_p50_us",
    "recon.batch_update_ratio": "none: reconciliation of batch_update_p50_us",
}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result, details) or raises."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = next((json.loads(l[len("details: "):]) for l in lines if l.startswith("details: ")), {})
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result: {out.stderr[-2000:]}")
    return result, details


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    workloads = {}
    for w in bench["workloads"]:
        values = [{}, {}]
        shape = {}
        for i in range(args.runs):
            for s, base in enumerate(SEED_BASES):
                result, details = run(w["name"], base + i, seconds, 0)
                shape = details.get("shape", shape)
                for k, v in result["metrics"].items():
                    values[s].setdefault(k, []).append(v["value"])
        traced, traced_details = run(w["name"], SEED_BASES[0], seconds, 1)
        if not traced_details.get("recon_pass"):
            print(f"{w['name']}: reconciliation outside its tolerance")
            ok = False
        e2e = {}
        print(f"{w['name']}:")
        for k, m in metrics.items():
            bound = m["bound"]
            sets = [stats(v[k]) for v in values]
            first, second = sets[0]["median"], sets[1]["median"]
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            spread = max(st["spread"] for st in sets)
            if spread > bound or worse > bound:
                ok = False
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {k:24s} median {first:14.4f}  spread {sets[0]['spread']:.3f} {sets[1]['spread']:.3f}"
                  f"  |dmedian| {abs(second - first) / first:.3f}  bound {bound}{flag}")
            e2e[k] = {"unit": m["unit"], "better": m["better"], "bound": bound, "sets": sets,
                      "median_delta": abs(second - first) / first, "second_worse_by": worse}
        layers = {k: {"value": v["value"], "unit": v["unit"], "should_move": LAYER_TARGETS.get(k)}
                  for k, v in traced["metrics"].items()}
        workloads[w["name"]] = {
            "why": w["why"],
            "definition": shape,
            "seed_argument": [f"--seed {b}..{b + args.runs - 1}, one per run" for b in SEED_BASES],
            "end_to_end": e2e,
            "per_layer_traced_seed": SEED_BASES[0],
            "per_layer": layers,
            "reconciliation": {k: traced_details.get(k) for k in ("recon_tolerance", "recon_pass", "reconciliation")},
            "cells": traced_details.get("cells"),
        }
    doc = {
        "provenance": {
            "git_rev": command_output(["git", "describe", "--always", "--dirty", "--abbrev=12"]),
            "host_cpus": os.cpu_count(),
            "rustc": command_output(["rustc", "--version"]),
            "run_seconds": seconds,
            "runs_per_set": args.runs,
            "statistics": "per set: median and quartiles (statistics.quantiles n=4) over its untraced runs, "
                          "spread = (q3 - q1) / median; the two sets' runs are interleaved; "
                          "median_delta = |second median - first median| / first median",
            "server_flush_policy": "rps-serve defaults: snapshot every 8192 records or 1 MiB of WAL, "
                                   "retain 2; no per-append fsync, WAL synced at checkpoints",
            "placement": "each client thread and the server worker serving its connection share one CPU; "
                         "the two pairs use the two lowest CPUs the run may use",
        },
        "workloads": workloads,
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
