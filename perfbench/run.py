#!/usr/bin/env python3
"""perfbench: builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The binary is built from perfbench/ with
CMake into .bench_build/ (or $CARGO_TARGET_DIR when set) against the
refbmc sources in src/.  Every line but the last is a human-readable
report (each metric by name, unit and sample count); the last line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json).  A wrong verdict, a failed check or
an invalid open-loop run makes "correct" false and the exit code 1.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table1", "deep-incremental", "race", "serve")
# Seconds one pass of each workload takes on a 4-CPU x86 box; the pass
# count is derived from these constants, never from a clock, so a run's
# work is fixed by (workload, seconds).
PASS_SECONDS = {"table1": 29.0, "deep-incremental": 16.0, "race": 24.0,
                "serve": 22.0}
# The binary's own limit, so the whole command ends within 180 s once
# built (the first run in a checkout also builds).
RUN_LIMIT_S = 170.0
# The median calibration walk (perfbench.cpp: calibrate) on the reference
# host, a 4-CPU Xeon VM at 2.0 GHz.  Times are reported scaled to that
# speed: measured x CALIB_REF_S / the run's median walk.
CALIB_REF_S = 0.00085
# serve: the latency limit max_jobs_per_s is taken at, and the validity
# rules of the open loop.
LATENCY_LIMIT_S = 0.25
MAX_LATE_P90_S = 0.005
MAX_BACKLOG_GROWTH = 4.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------------

def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        # A cache configured for another checkout: start over.
        subprocess.run(["cmake", "-E", "rm", "-rf", str(build_dir)], check=False)
    if not cache.exists():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return build_dir / "perfbench"


# ---- statistics ----------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated q-quantile (0 < q < 1) plus the number of
    samples strictly beyond it; None when fewer than ten lie beyond."""
    if len(values) < 2:
        return None
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    value = v[lo] + (v[hi] - v[lo]) * (pos - lo)
    beyond = sum(1 for x in v if x > value)
    if beyond < 10:
        return None
    return value, len(v), beyond


def median(values):
    return statistics.median(values) if values else 0.0


class Report:
    """Collects the end-to-end and the per-layer metrics, printing each
    (name, value, unit, sample count) as it is recorded."""

    def __init__(self, trace):
        self.trace = trace
        self.e2e = {}
        self.layer = {}
        self.problems = []

    @property
    def metrics(self):
        return self.layer if self.trace else self.e2e

    def put(self, name, value, unit, note="", e2e=False):
        (self.e2e if e2e else self.layer)[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}".rstrip())

    def pct(self, name, values, q, unit):
        """A per-layer percentile, reported only with at least ten samples
        beyond it; otherwise it reads 0, marked as not reported."""
        p = percentile(values, q)
        if p is None:
            self.put(name, 0.0, unit,
                     f"(n={len(values)}: fewer than 10 samples beyond, not reported)")
        else:
            self.put(name, p[0], unit, f"(n={p[1]}, {p[2]} beyond)")

    def absent(self, names, why):
        """Metrics of a layer this workload does not exercise: 0."""
        for name, unit in names:
            self.put(name, 0.0, unit, f"({why})")

    def bad(self, msg):
        self.problems.append(msg)
        print(f"  !! {msg}")


# ---- per-workload aggregation -------------------------------------------------------

def work_digest(checks):
    """Hash of every check's search counts, in order: identical on every
    run of the same seed when the work is deterministic."""
    h = hashlib.sha256()
    for c in checks:
        h.update(f"{c['row']}|{c['policy']}|{c['decisions']}|"
                 f"{c['propagations']}|{c['conflicts']};".encode())
    return h.hexdigest()[:16]


def serve_steps(jobs, steps):
    """Per ladder step: rate, jobs, latencies (from the moment each job
    was due) and their p90."""
    out = []
    for st in steps:
        js = [j for j in jobs if j["pass"] == st["pass"] and j["step"] == st["step"]]
        lat = [j["ack"] - j["due"] + j["queue_s"] + j["run_s"] for j in js]
        p90 = percentile(lat, 0.9)
        step = {"step": st["step"], "rate": st["rate"], "jobs": js,
                "latency": lat, "p90": p90[0] if p90 else None}
        step["backlog"] = backlog_growth(step)
        out.append(step)
    return out


def max_rate(steps):
    """The highest rate whose p90 meets LATENCY_LIMIT_S without a growing
    backlog, interpolated between the last step that meets both and the
    first that misses either: log-linearly in p90, linearly in backlog
    growth, taking whichever limit the line crosses first."""
    prev = None
    for st in steps:
        if st["p90"] is None:
            return None
        if st["p90"] > LATENCY_LIMIT_S or st["backlog"] > MAX_BACKLOG_GROWTH:
            if prev is None:
                return None
            crossings = []
            a, b = math.log(prev["p90"]), math.log(st["p90"])
            if b > a:
                crossings.append((math.log(LATENCY_LIMIT_S) - a) / (b - a))
            if st["backlog"] > prev["backlog"]:
                crossings.append((MAX_BACKLOG_GROWTH - prev["backlog"]) /
                                 (st["backlog"] - prev["backlog"]))
            f = min(1.0, max(0.0, min(crossings, default=0.0)))
            return prev["rate"] + f * (st["rate"] - prev["rate"])
        prev = st
    return None


def backlog_growth(step):
    """Mean backlog (jobs sent but not done) over the last quarter of the
    step's send times minus that over the first quarter."""
    js = step["jobs"]
    done = [j["ack"] + j["queue_s"] + j["run_s"] for j in js]
    sends = [j["sent"] for j in js]
    backlog = [sum(1 for k in range(i + 1) if done[k] > t) for i, t in enumerate(sends)]
    q = max(1, len(backlog) // 4)
    return statistics.mean(backlog[-q:]) - statistics.mean(backlog[:q])


PORTFOLIO = (("portfolio.overhead_s", "s"), ("portfolio.cancel_latency_ms.p90", "ms"),
             ("portfolio.clauses_exported", "count"), ("portfolio.clauses_imported", "count"),
             ("portfolio.loser_cpu_share", "share"))
SERVICE = (("job_s.p50", "s"), ("job_s.p90", "s"), ("max_jobs_per_s", "1/s"),
           ("service.queue_s.p50", "s"), ("service.queue_s.p90", "s"),
           ("service.run_s.p50", "s"), ("service.run_s.p90", "s"),
           ("service.rtt_s.p50", "s"), ("service.overhead_s.p50", "s"),
           ("service.cache_hit_share", "share"), ("service.warm_starts", "count"),
           ("gen.late_s.p90", "s"))


def analyse(workload, recs, trace):
    rep = Report(trace)
    by = {}
    for r in recs:
        by.setdefault(r["kind"], []).append(r)
    for e in by.get("error", []):
        rep.bad(e["what"])
    passes = by.get("pass", [])
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Per-layer numbers come from the traced passes of a traced run.
    scored = {p["pass"] for p in (traced if trace else untraced)}
    checks = [c for c in by.get("check", []) if c["pass"] in scored]
    jobs = [j for j in by.get("job", []) if j["pass"] in scored]
    ops = [o["s"] for o in by.get("op", []) if o["pass"] in scored]
    summaries = [p for p in passes if p["pass"] in scored]
    npass = max(1, len(scored))

    every = by.get("check", []) + by.get("job", [])
    errors = [u for u in every if u["error"]]
    for u in errors[:10]:
        rep.bad(f"{u['row']} ({u.get('policy', u.get('job_kind'))}): {u['error']}")
    if any(p.get("disagreements", 0) for p in passes):
        rep.bad("table1: the three policies disagree on a verdict")
    print(f"perfbench {workload}: {len(passes)} pass(es), {len(every)} checks")
    print(f"  failed_share {len(errors) / max(1, len(every)):.6g} "
          f"({len(errors)} of {len(every)})")

    # Deterministic work: every pass of a closed-loop, single-solver
    # workload must repeat the same search counts.
    if workload in ("table1", "deep-incremental"):
        per_pass = {}
        for c in by.get("check", []):
            per_pass.setdefault(c["pass"], []).append(c)
        digests = {p: work_digest(cs) for p, cs in per_pass.items()}
        print(f"  work_digest {' '.join(sorted(set(digests.values())))}")
        if len(set(digests.values())) > 1:
            rep.bad(f"search counts drifted between passes: {digests}")

    steps = []
    if workload == "serve":
        steps = serve_steps(jobs, [s for s in by.get("step", []) if s["pass"] in scored])
        late = percentile([j["sent"] - j["due"] for j in jobs], 0.9)
        if late is not None and late[0] > MAX_LATE_P90_S:
            rep.bad(f"invalid run: the generator fell behind (late p90 {late[0]:.4f} s)")
        for s in steps:
            if s["step"] == 0 and s["backlog"] > MAX_BACKLOG_GROWTH:
                rep.bad("invalid run: the backlog grew at the nominal rate")
            p90 = s["p90"] if s["p90"] is not None else float("nan")
            print(f"  step {s['step']}: {s['rate']:.0f} jobs/s offered, p90 {p90:.4f} s, "
                  f"backlog growth {s['backlog']:.1f} jobs")

    # Host speed: the reference walk's time over this run's median walk,
    # per pass (-1: set-up).
    walks = {}
    for c in by.get("calib", []):
        walks.setdefault(c["pass"], []).append(c["s"])
    speed = {p: CALIB_REF_S / median(w) for p, w in walks.items()}
    setups = [s["s"] for s in by.get("setup", [])]
    print(f"  host speed {median([v for p, v in speed.items() if p >= 0]):.4f} of the reference "
          f"(set-up {speed.get(-1, 1.0):.4f}); measured: set-up {median(setups):.6g} s, "
          f"wall {median([p['wall_s'] for p in untraced]):.6g} s, "
          f"cpu {median([p['cpu_s'] for p in untraced]):.6g} s")
    print("end-to-end (seconds at the reference host speed):")
    rep.put("setup_s", median(setups) * speed.get(-1, 1.0), "s",
            f"(median of {len(setups)} set-ups)", e2e=True)
    # serve is an open loop: its wall time is set by its send schedule,
    # which does not run slower on a slower host, so it is not scaled.
    scale_wall = workload != "serve"
    rep.put("wall_s", median([p["wall_s"] * (speed.get(p["pass"], 1.0) if scale_wall else 1.0)
                              for p in untraced]),
            "s", f"(median of {len(untraced)} untraced pass(es))", e2e=True)
    rep.put("cpu_s", median([p["cpu_s"] * speed.get(p["pass"], 1.0) for p in untraced]),
            "s", e2e=True)
    rep.put("peak_rss_mb", by.get("rss", [{"vmhwm_kb": 0}])[-1]["vmhwm_kb"] / 1024.0,
            "MB", e2e=True)

    print("per-layer" + (" (traced pass)" if trace else ""
                         " (untraced pass; --trace 1 reports these)") + ":")
    solved = checks + [j for j in jobs if "decisions" in j]

    def total(key):
        return sum(u.get(key, 0) for u in solved) / npass

    # Workload headline numbers.
    if workload == "table1":
        rep.put("ratio.static", median([x["ratio_static"] for x in summaries]), "ratio",
                "(static / baseline solve time, Table 1 rule)")
        rep.put("ratio.dynamic", median([x["ratio_dynamic"] for x in summaries]), "ratio")
        rep.put("table1.capped_checks", median([x["capped_checks"] for x in summaries]),
                "count", "(compared at the deepest depth all policies completed)")
        rows = len(checks) / 3 / npass
        rep.put("rank.refined_win_share",
                median([(x["wins_static"] + x["wins_dynamic"]) / (2 * rows) for x in summaries]),
                "share", "(rows where a refined order beat baseline)")
    else:
        rep.absent((("ratio.static", "ratio"), ("ratio.dynamic", "ratio"),
                    ("table1.capped_checks", "count")), "table1 only")
    if workload == "race":
        won = sum(1 for c in checks if c["policy"] in ("static", "dynamic"))
        rep.put("rank.refined_win_share", won / max(1, len(checks)), "share",
                "(races won by static or dynamic)")
    elif workload != "table1":
        rep.absent((("rank.refined_win_share", "share"),), "table1 and race only")
    # Latency: per check (table1, race), per depth (deep-incremental).
    for prefix, mine in (("check_s", workload in ("table1", "race")),
                         ("depth_s", workload == "deep-incremental")):
        for suffix, q in ((".p50", 0.5), (".p90", 0.9)):
            if mine:
                rep.pct(prefix + suffix, ops, q, "s")
            else:
                rep.absent(((prefix + suffix, "s"),), "not this workload")

    # sat
    sat_s = total("sat_s")
    rep.put("sat.solve_s", sat_s, "s")
    rep.put("sat.decisions", total("decisions"), "count")
    rep.put("sat.propagations", total("propagations"), "count")
    rep.put("sat.conflicts", total("conflicts"), "count")
    rep.put("sat.props_per_s", total("propagations") / sat_s if sat_s > 0 else 0.0, "1/s")
    rep.put("sat.inprocess_s", total("inprocess_s"), "s")
    sh, sm = total("savepoint_hits"), total("savepoint_misses")
    rep.put("sat.savepoint_hit_share", sh / (sh + sm) if sh + sm > 0 else 0.0, "share")
    # bmc
    rep.put("bmc.encode_s", total("encode_s"), "s", "(prepare minus simplify and preprocess)")
    rep.put("bmc.simplify_s", total("simplify_s"), "s")
    rep.put("bmc.preprocess_s", total("preprocess_s"), "s")
    rep.put("bmc.vars_eliminated", total("vars_eliminated"), "count")
    rep.put("bmc.tape_mb", max([u.get("tape_bytes", 0) for u in solved] or [0]) / 2**20, "MB")
    rep.put("bmc.arena_mb", max([u.get("arena_bytes", 0) for u in solved] or [0]) / 2**20, "MB")
    if workload == "race":
        rep.absent((("bmc.unattributed_s", "s"),), "a race's wall is portfolio.overhead_s")
    else:
        wall = sum(u.get("check_wall_s", u.get("wall_s", 0.0)) for u in solved) / npass
        rep.put("bmc.unattributed_s", max(0.0, wall - total("prepare_s") - sat_s), "s",
                "(check wall minus prepare and solve)")
    # rank
    if workload == "race":
        rep.put("rank.published", sum(c["race_published"] for c in checks) / npass, "count")
        rep.put("rank.refreshes", sum(c["race_refreshes"] for c in checks) / npass, "count")
    else:
        rep.put("rank.published", total("published"), "count")
        rep.put("rank.refreshes", total("refreshes"), "count")
    # portfolio
    if workload == "race":
        rep.put("portfolio.overhead_s",
                statistics.mean(c["wall_s"] - c["winner_work_s"] for c in checks), "s",
                "(mean race wall minus the winner's prepare and solve)")
        rep.pct("portfolio.cancel_latency_ms.p90",
                [c["cancel_latency_us"] / 1000.0 for c in checks], 0.9, "ms")
        rep.put("portfolio.clauses_exported", total("clauses_exported"), "count")
        rep.put("portfolio.clauses_imported", total("clauses_imported"), "count")
        cpu = sum(c["cpu_s"] for c in checks)
        work = sum(c["winner_work_s"] for c in checks)
        rep.put("portfolio.loser_cpu_share", max(0.0, cpu - work) / cpu if cpu > 0 else 0.0,
                "share", "(race CPU not spent by the winner)")
    else:
        rep.absent(PORTFOLIO, "race only")
    # service
    if workload == "serve":
        nominal = [j for s in steps if s["step"] == 0 for j in s["jobs"]]
        rep.pct("job_s.p50", [x for s in steps if s["step"] == 0 for x in s["latency"]], 0.5, "s")
        rep.pct("job_s.p90", [x for s in steps if s["step"] == 0 for x in s["latency"]], 0.9, "s")
        mr = max_rate(steps)
        if mr is None:
            rep.bad("max_jobs_per_s: the ladder did not bracket the latency limit")
        rep.put("max_jobs_per_s", mr or 0.0, "1/s",
                f"(rate where job p90 reaches {LATENCY_LIMIT_S} s, interpolated)")
        rep.pct("service.queue_s.p50", [j["queue_s"] for j in nominal], 0.5, "s")
        rep.pct("service.queue_s.p90", [j["queue_s"] for j in nominal], 0.9, "s")
        rep.pct("service.run_s.p50", [j["run_s"] for j in nominal], 0.5, "s")
        rep.pct("service.run_s.p90", [j["run_s"] for j in nominal], 0.9, "s")
        rep.pct("service.rtt_s.p50", [j["ack"] - j["sent"] for j in nominal], 0.5, "s")
        rep.pct("service.overhead_s.p50",
                [j["ack"] - j["due"] + j["queue_s"] + j["run_s"] - j.get("check_wall_s", 0.0)
                 for j in nominal], 0.5, "s")
        hits = sum(p["cache_hits"] for p in summaries)
        lookups = hits + sum(p["cache_misses"] for p in summaries)
        rep.put("service.cache_hit_share", hits / lookups if lookups else 0.0, "share")
        rep.put("service.warm_starts",
                sum(p["rank_warm_starts"] for p in summaries) / npass, "count")
        rep.pct("gen.late_s.p90", [j["sent"] - j["due"] for j in jobs], 0.9, "s")
    else:
        rep.absent(SERVICE, "serve only")
    # model
    parse = by.get("parse", [{"s": 0.0, "models": 0}])[-1]
    rep.put("model.parse_s", parse["s"], "s", f"({parse['models']} AIGER texts)")
    rep.put("model.gen_s", median([s["gen_s"] for s in by.get("setup", [])]), "s")
    rep.put("host.speed", median([speed[p] for p in scored if p in speed]), "ratio",
            "(reference calibration walk / this run's; 1 = reference host)")
    # obs
    if trace:
        spans = by.get("span", [])
        cover = []
        for sp in spans:
            if sp["name"] == "pass":
                inner = sum(c["end"] - c["start"] for c in spans if c["parent"] == sp["id"])
                cover.append(inner / (sp["end"] - sp["start"]))
        ref = median([p["wall_s"] for p in untraced])
        rep.put("obs.trace_overhead", median([p["wall_s"] for p in traced]) / ref, "ratio",
                "(traced pass wall / untraced pass wall)")
        rep.put("trace.coverage", median(cover), "share",
                f"(time in layer spans / pass wall, {len(spans)} spans)")
    return rep, len(every), len(errors)


# ---- main ------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)
    if binary is None or not binary.exists():
        log("perfbench: build failed")
        return 2

    passes = max(1, int(args.seconds / PASS_SECONDS[args.workload]))
    sock = os.path.relpath(build_dir / f"pb-{os.getpid()}.sock")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--passes", str(passes), "--trace", str(args.trace), "--socket", sock]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded its time limit")
        return 3
    recs = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            recs.append(json.loads(line))
    if proc.returncode != 0 and not recs:
        log(f"perfbench: binary exited with {proc.returncode}")
        return 2

    rep, attempted, failed = analyse(args.workload, recs, bool(args.trace))
    if proc.returncode != 0:
        rep.bad(f"binary exited with {proc.returncode}")
    correct = failed == 0 and not rep.problems
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": rep.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
