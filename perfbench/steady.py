#!/usr/bin/env python3
"""Steadiness check for perfbench: runs each workload once per seed and
reports, per end-to-end metric, the median and the spread (interquartile
range over median, the way the bounds in BENCHMARK.json are read).

    python3 perfbench/steady.py [--workloads table1,serve] [--seeds 1-10]
                                [--seconds 30] [--repeat-first]

With --repeat-first the first seed runs a second time and the search
counts (the work digest of table1 and deep-incremental) and the failure
count must match that first run exactly: drift there is a determinism
bug, not noise.  Exits 1 when a spread exceeds its bound, or on drift.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print(r.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    digest = next((l.split(None, 1)[1] for l in lines if l.strip().startswith("work_digest")), "")
    host = next((l.strip() for l in lines if l.strip().startswith("host speed")), "")
    return json.loads(lines[-1]), digest, host


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--repeat-first", action="store_true")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for w in workloads:
        results, measured = [], []
        for s in seeds:
            res, digest, host = run_once(w, s, seconds)
            results.append((res, digest))
            measured.append(float(host.split("wall ")[1].split()[0]))
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w} seed {s}: failed={res['failed']} {vals} {digest}\n    {host}",
                  flush=True)
        if args.repeat_first:
            res, digest, _ = run_once(w, seeds[0], seconds)
            first, first_digest = results[0]
            if digest != first_digest or res["failed"] != first["failed"]:
                ok = False
                print(f"{w}: DRIFT on seed {seeds[0]}: {first_digest} -> {digest}, "
                      f"failed {first['failed']} -> {res['failed']}")
            else:
                print(f"{w}: seed {seeds[0]} repeated its work exactly {digest}")
        print(f"  {w:18s} measured wall spread {spread(measured):6.3f} "
              "(before scaling to the reference host speed)")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _ in results]
            sp = spread(vals) if len(vals) >= 2 else 0.0
            flag = "" if name == "setup_s" or sp <= bound / 3 else \
                (" (above a third of the bound)" if sp <= bound else " EXCEEDS BOUND")
            if name != "setup_s" and sp > bound:
                ok = False
            print(f"  {w:18s} {name:14s} median {statistics.median(vals):10.5g} "
                  f"spread {sp:6.3f} bound {bound}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
