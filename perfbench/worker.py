"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode probe|pass|trace

``probe`` imports nto1, generates the seeded inputs and exits: it exists
to time set-up.  ``pass`` runs the workload once through nto1's public
entry points and checks every output; ``trace`` does the same with the
tracer installed and adds the per-layer metrics.  The last line of stdout
is one JSON object for run.py.

Every process also measures the host's speed, with a fixed block of
pure-Python and numpy work that nto1 never runs: ``setup_cal`` is its
time right after set-up, and ``pass_cal`` its time over an untraced pass,
timed every CAL_INTERVAL_S from a signal handler and left out of the
pass's wall time.  run.py divides by them to report times at a reference
host speed.

Each output is a request: one ``verify.run``, one ``cli.main`` or one
``bigfield`` call.  A request fails when it raises, when an independent
check on its output fails, or when its record (output digest, exit code,
witness text, schema, row count) differs from the frozen one in
expected.json.  At a seed without a frozen record, the fields on which
both frozen seeds agree are still compared, which covers every output
that does not depend on the seed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# verify.SEED, and one seed held out from every number quoted while the
# benchmark was written.
FROZEN_SEEDS = (20260817, 7)

# RUNNERS order without the two ids that have workloads of their own.
CATALOG_IDS = (
    "monomial", "de3p3", "de3pne3", "quartic", "agwcore2", "miu2", "miu3",
    "nmiu3", "piecewisegenerel", "gouzao1", "gouzao2", "gouzao3", "2gouzao1",
    "2gouzao2", "zcriterion", "normalize",
)

# Fields above every frozen sweep (q <= 4096), where tables and vector
# kernels work on arrays of 6*10^4 elements.
BIGFIELD_FIELDS = ((2, 16), (3, 10))
BIGFIELD_MAPS = 12    # random degree <= 6 maps classified per field
BIGFIELD_PROBES = 8   # points per output cross-checked by scalar arithmetic


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Request:
    """One checked output: a digest, the frozen-comparable record, and the
    problems found so far."""

    def __init__(self, key, digest=None, **info):
        self.key = key
        self.record = {"digest": digest, **info}
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def to_json(self):
        return {"key": self.key, "record": self.record, "problems": self.problems}


def _attempt(key, fn):
    """Run fn() -> Request, turning an exception into a failed request."""
    try:
        return fn()
    except Exception as e:  # a request that raises is a failed request
        req = Request(key)
        req.problems.append(f"raised {type(e).__name__}: {e}")
        return req


# -- linearized, walsh: one verify.run per pass --------------------------------

def _linearized_rows(req, rows):
    # rows are (q, q_sub, rank, n, ok): a GF(q_sub)-linear map of rank r on
    # GF(q) is q / q_sub^r to 1
    for q, q_sub, rank, n, ok in rows:
        req.check(ok == 1 and n == q // q_sub ** rank,
                  f"row {(q, q_sub, rank, n, ok)} breaks n = q / q_sub^rank")


def _walsh_rows(req, rows):
    # the "two" and "p" corpora are 2-to-1 and p-to-1 by construction
    for q, i, kind, phi1, brute2, phi2, brutep in rows:
        req.check(phi1 == brute2 and phi2 == brutep,
                  f"q={q} map {i}: spectral and brute force disagree")
        req.check(kind != "two" or brute2 == 1, f"q={q} map {i}: built 2-to-1, not classified so")
        req.check(kind != "p" or brutep == 1, f"q={q} map {i}: built p-to-1, not classified so")


def _sweep(theorem_id, row_check):
    def run(nto1, seed, out):
        def one():
            r = nto1.verify.run(theorem_id, seed=seed)
            rows = [list(row) for row in r.rows]
            req = Request(theorem_id, _sha(json.dumps([r.ok, r.witness, r.schema, rows],
                                                      default=int)),
                          ok=r.ok, witness=r.witness, schema=r.schema, rows=len(rows))
            req.check(r.ok, f"sweep failed: {r.witness}")
            row_check(req, rows)
            return req
        return [_attempt(theorem_id, one)]
    return run


# -- catalog: the other 16 ids through the command line, in-process ------------

def _catalog(nto1, seed, out):
    reqs = []
    for tid in CATALOG_IDS:
        def one(tid=tid):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = nto1.cli.main(["verify-theorem", tid, "--seed", str(seed)])
            text, err = stdout.getvalue(), stderr.getvalue()
            out["stdout_bytes"] += len(text.encode())
            req = Request(tid, _sha(json.dumps([rc, text, err])), exit=rc, stderr=err,
                          schema=text.split("\n", 1)[0])
            req.check(rc in (0, 1), f"exit code {rc}")
            req.check(rc != 0 or err == "", "exit 0 with a witness on stderr")
            return req
        reqs.append(_attempt(tid, one))
    return reqs


# -- bigfield: large-q construction, classification and trace tables ----------

def _bigfield_inputs(seed):
    rng = random.Random(seed)
    out = []
    for p, m in BIGFIELD_FIELDS:
        q = p ** m
        maps = [([rng.randrange(q) for _ in range(7)],
                 [rng.randrange(q) for _ in range(BIGFIELD_PROBES)])
                for _ in range(BIGFIELD_MAPS)]
        probes = [rng.randrange(q) for _ in range(BIGFIELD_PROBES)]
        out.append((p, m, maps, probes))
    return out


def _bigfield(nto1, inputs, out):
    reqs = []
    for p, m, maps, probes in inputs:
        name = f"GF({p}^{m})"
        box = {}

        def field():
            F = box["F"] = nto1.Field(p, m)
            return Request(f"{name}.field", _sha(F.spec_json()))

        def classify(i, coeffs, xs):
            F = box["F"]
            f = nto1.Poly.from_dense(F, coeffs)
            vals = f.eval_all()
            rep = nto1.classify(vals)
            req = Request(f"{name}.classify.{i}", _sha(vals.tobytes() + rep.to_json().encode()))
            req.check(sum(rep.histogram.values()) == F.order, "histogram lost mass")
            req.check(all(f(x) == vals[x] for x in xs), "eval_all disagrees with f(x)")
            return req

        def prime_trace():
            F = box["F"]
            tr = F.trace_to_prime_table()
            req = Request(f"{name}.trace_to_prime", _sha(tr.tobytes()))
            req.check(all(F.trace_to_prime(x) == tr[x] for x in probes),
                      "trace table disagrees with the scalar trace")
            return req

        def subfield_trace():
            F = box["F"]
            emb = nto1.SubfieldEmbed(F, nto1.Field(p, m // 2))
            tt = emb.trace_table()
            req = Request(f"{name}.subfield_trace", _sha(tt.tobytes()))
            req.check(all(emb.trace(x) == tt[x] for x in probes),
                      "subfield trace table disagrees with the scalar trace")
            return req

        reqs.append(_attempt(f"{name}.field", field))
        if "F" not in box:
            continue  # the rest of this field's requests count as missing
        for i, (coeffs, xs) in enumerate(maps):
            reqs.append(_attempt(f"{name}.classify.{i}",
                                 lambda i=i, c=coeffs, xs=xs: classify(i, c, xs)))
        reqs.append(_attempt(f"{name}.trace_to_prime", prime_trace))
        reqs.append(_attempt(f"{name}.subfield_trace", subfield_trace))
    return reqs


# Each workload: (inputs from the seed, one pass over those inputs).
WORKLOADS = {
    "linearized": (lambda seed: seed, _sweep("linearized", _linearized_rows)),
    "walsh": (lambda seed: seed, _sweep("walsh", _walsh_rows)),
    "catalog": (lambda seed: seed, _catalog),
    "bigfield": (_bigfield_inputs, _bigfield),
}


# -- host speed -----------------------------------------------------------------

CAL_SIZE = 1 << 14     # elements in the calibration block's arrays
CAL_INTERVAL_S = 0.1   # wall time between calibration blocks in a pass


def _cal_arrays():
    rng = np.random.default_rng(0)
    table = rng.integers(0, CAL_SIZE, CAL_SIZE)
    return table, rng.permutation(CAL_SIZE), np.empty_like(table)


def _cal_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _cal_block(arrays):
    """Seconds taken by a fixed piece of the kinds of work nto1 does:
    small-list polynomial arithmetic mod p, dict counting, numpy scalar
    stores, and numpy table lookups."""
    table, idx, out = arrays
    t0 = time.perf_counter()
    counts = {}
    x = [1, 2, 3]
    for i in range(600):
        x = _cal_poly_mul(x[:3], [1, i % 7, 3], 7)
        k = x[1] * 7 + x[2]
        counts[k] = counts.get(k, 0) + 1
        out[i] = k
    for _ in range(4):
        np.take(table, idx, out=out)
        np.remainder(out * 3 + idx, 977, out=out)
        np.bincount(out, minlength=977)
    return time.perf_counter() - t0


def calibrate(reps=15):
    """Seconds of a calibration block in this process, now: the harmonic
    mean over reps blocks, so that each counts by the speed it saw."""
    arrays = _cal_arrays()
    return statistics.harmonic_mean([_cal_block(arrays) for _ in range(reps)])


class SpeedMeter:
    """Times a calibration block every CAL_INTERVAL_S of wall time, from a
    SIGALRM handler in this process, so that the samples follow the host's
    speed through a pass.  ``spent`` is the time the handler took, which
    the pass's wall time leaves out.  The samples are evenly spaced in
    time, so their harmonic mean is the block time at the pass's average
    speed, fast and slow spells each weighted by their length."""

    def __init__(self):
        self.arrays = _cal_arrays()
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_cal_block(self.arrays))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.samples:  # a pass shorter than one interval
            self._tick(None, None)
            self.spent = 0.0


# -- frozen comparison --------------------------------------------------------

def reference(expected, workload, seed):
    """key -> frozen record this seed's requests must match: the seed's own
    records, else the fields on which both frozen seeds agree."""
    seeds = expected[workload]
    if str(seed) in seeds:
        return seeds[str(seed)]["requests"]
    a, b = (seeds[str(s)]["requests"] for s in FROZEN_SEEDS)
    return {k: {f: v for f, v in a[k].items() if b.get(k, {}).get(f) == v} for k in a}


def compare(reqs, ref):
    """Add frozen-record mismatches to reqs; missing requests become failed."""
    seen = set()
    for req in reqs:
        seen.add(req.key)
        want = ref.get(req.key)
        if want is None:
            req.problems.append("no frozen record for this request")
            continue
        for field, v in want.items():
            req.check(req.record.get(field) == v,
                      f"{field} differs from the frozen record")
    for key in ref:
        if key not in seen:
            req = Request(key)
            req.problems.append("request missing")
            reqs.append(req)


# -- entry point ----------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "pass", "trace"))
    ap.add_argument("--freezing", action="store_true",
                    help="skip the frozen-record comparison (used to write expected.json)")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import nto1
    import nto1.cli
    if not os.path.abspath(nto1.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"nto1 imported from {nto1.__file__}, not from {SRC}")
    make_inputs, run_pass = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "setup_cal": calibrate()}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    ref = None
    if not args.freezing:
        with open(EXPECTED) as fh:
            ref = reference(json.load(fh), args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # no calibration blocks inside a traced pass's spans
    out = {"stdout_bytes": 0}
    meter = SpeedMeter()
    with meter if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        reqs = run_pass(nto1, inputs, out)
        if ref is not None:
            compare(reqs, ref)
        wall = time.perf_counter() - t0
    if meter.samples:
        result["pass_cal"] = statistics.harmonic_mean(meter.samples)

    result.update(
        wall_s=wall - meter.spent,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=np.__version__,
        requests=[r.to_json() for r in reqs],
    )
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["cli.stdout_bytes"] = out["stdout_bytes"]
        result["metrics"] = metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        np.savez(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"),
                 **tracer.spans())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
