"""nto1 benchmark driver.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --freeze

A single-threaded closed loop with one client.  Every pass and every
set-up probe is a fresh interpreter (perfbench/worker.py), so lazy tables
and caches start cold as they do for a command-line user.

--trace 0 runs passes back to back until the next one would end after S
seconds (at least one pass), with PROBES_PER_PASS set-up probes before
each pass and after the last, and reports the end-to-end metrics of
BENCHMARK.json:

  wall_s       median wall time of one pass, first nto1 call to last
               result checked, at reference host speed
  setup_s      median time from process start to ready (interpreter,
               import nto1, seeded inputs; no nto1 work), over probes
               and passes, at reference host speed
  peak_rss_mb  median resident-set high-water mark of a pass's process

A shared host's speed swings by tens of percent within seconds, so each
sample is scaled by CAL_REF_S / c, where c is the calibration block time
its own process measured (worker.SpeedMeter during a pass,
worker.calibrate right after set-up).  A change in nto1 moves the scaled
time as it moves the raw one; a slower host moves both the raw time and
c.  The raw times and block times are in the line before the result.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of BENCHMARK.json, plus trace.overhead_ratio.  The traced pass must
reproduce the untraced digests, and its counts must equal the frozen ones.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the samples, their quartiles and the run environment.
Failed requests over attempted requests is the fail fraction.  --freeze
rewrites perfbench/expected.json from the current program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import FROZEN_SEEDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")

PROBES_PER_PASS = 3
# The host speed reported times refer to: a calibration block time
# (worker._cal_block) on a 2-vCPU Intel Xeon VM with Python 3.11.7 and
# numpy 2.4.6, between its fast (0.0018 s) and slow (0.0031 s) spells.
CAL_REF_S = 0.0027
DEADLINE_S = 170  # a run must end within 180 s

# Counts the issue pins at the default seed, checked on every traced run
# at that seed on top of the frozen counts.
INVARIANTS = {
    "linearized": {"polys.rank.calls": 8000, "fields.field_init.calls": 4040,
                   "counting.classify.calls": 4000},
    "walsh": {"walsh.char_sum.calls": 3000},
}
COUNT_SUFFIXES = (".calls", ".builds", ".elems", ".tried", ".stdout_bytes",
                  ".unique_ratio", ".share")

# numpy must not add threads behind the single client
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class Worker:
    """Spawns worker processes against one deadline."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def run(self, mode, *extra):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", self.workload,
             "--seed", str(self.seed), "--mode", mode, *extra],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - start))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {mode} exited {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        out["elapsed_s"] = time.monotonic() - start
        return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values, unit):
    lo, hi = quartiles(values)
    return {"median": statistics.median(values), "p25": lo, "p75": hi,
            "n": len(values), "unit": unit, "samples": values}


def environment():
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_1m_start": os.getloadavg()[0], "git_commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def failures(passes):
    bad = [f"{r['key']}: {'; '.join(r['problems'][:3])}"
           for p in passes for r in p["requests"] if r["problems"]]
    attempted = sum(len(p["requests"]) for p in passes)
    return attempted, bad


def digests(p):
    return {r["key"]: r["record"]["digest"] for r in p["requests"]}


def exact_counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def measure(worker, seconds):
    # set-up probes bracket every pass, so their median spans the whole run
    probes, passes, rounds = [], [], []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        probes += [worker.run("probe") for _ in range(PROBES_PER_PASS)]
        passes.append(worker.run("pass"))
        rounds.append(time.monotonic() - start)
        if time.monotonic() - t0 + statistics.median(rounds) > seconds:
            break
    probes += [worker.run("probe") for _ in range(PROBES_PER_PASS)]
    setups = probes + passes
    stats = {
        "wall_s": summary([p["wall_s"] * CAL_REF_S / p["pass_cal"] for p in passes], "s"),
        "setup_s": summary([p["setup_s"] * CAL_REF_S / p["setup_cal"] for p in setups], "s"),
        "peak_rss_mb": summary([p["rss_mb"] for p in passes], "MB"),
        "raw_wall_s": summary([p["wall_s"] for p in passes], "s"),
        "raw_setup_s": summary([p["setup_s"] for p in setups], "s"),
        "pass_cal_s": summary([p["pass_cal"] for p in passes], "s"),
        "setup_cal_s": summary([p["setup_cal"] for p in setups], "s"),
    }
    values = {k: stats[k]["median"] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    return passes, stats, values, []


def trace(worker, workload, seed):
    plain = worker.run("pass")
    traced = worker.run("trace")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    problems = []
    if digests(traced) != digests(plain):
        problems.append("traced digests differ from untraced ones")
    with open(EXPECTED) as fh:
        frozen = json.load(fh)[workload].get(str(seed))
    want = dict(frozen["counts"]) if frozen else {}
    if seed == FROZEN_SEEDS[0]:
        want.update(INVARIANTS.get(workload, {}))
    for k, v in want.items():
        if metrics.get(k) != v:
            problems.append(f"count {k} = {metrics.get(k)}, frozen {v}")
    stats = {"wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]}}
    return [plain, traced], stats, metrics, problems


def freeze():
    """Rewrite expected.json: records at every frozen seed, and the exact
    counts of a traced pass."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for seed in FROZEN_SEEDS:
            w = Worker(workload, seed, time.monotonic() + 900)
            plain = w.run("pass", "--freezing")
            traced = w.run("trace", "--freezing")
            attempted, bad = failures([plain, traced])
            if bad or digests(plain) != digests(traced):
                raise SystemExit(f"{workload} seed {seed} not freezable: {bad[:3]}")
            out[workload][str(seed)] = {
                "requests": {r["key"]: r["record"] for r in plain["requests"]},
                "counts": exact_counts(traced["metrics"]),
            }
            print(f"froze {workload} seed {seed}: {attempted // 2} requests", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args(argv)
    if args.freeze:
        freeze()
        return 0

    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names or args.seed is None:
        ap.error(f"--workload must be one of {sorted(names)}, and --seed is required")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    env = environment()
    worker = Worker(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    if args.trace:
        passes, stats, values, problems = trace(worker, args.workload, args.seed)
    else:
        passes, stats, values, problems = measure(worker, args.seconds)
    attempted, bad = failures(passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")

    env.update(loadavg_1m_end=os.getloadavg()[0], python=passes[0]["python"],
               numpy=passes[0]["numpy"])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env, "stats": stats,
                      "fail_frac": len(bad) / attempted, "failures": bad[:20],
                      "problems": problems}))
    print(json.dumps({
        "correct": not bad and not problems,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
