"""Verification sweeps behind the frozen theorem ids.

Each runner re-derives one published claim from scratch at desk scale and
compares it against brute force, returning a RunResult: overall verdict,
the first witness of disagreement (a human-readable string), CSV-ready
rows, and their schema line.  The command line and the acceptance tests
both call these, so there is exactly one definition of "verified" per id.

Runners are deterministic for a fixed seed; rows come out in a fixed
order.  A runner whose pinned expectation cannot be met reports ok=False
with the witness saying what was found instead; it never relaxes the pin.
"""

import itertools
import math
import random

import numpy as np

from .counting import (
    classify, classify_rows, linearized_oracle, monomial_oracle, n_to_1_rows,
    row_blocks,
)
from .diagrams import random_diagram, transfer, verify_diagram
from .families import (
    BRANCH_FAMILIES, branch_case_predicate, branch_tables, build_translate_link,
    random_piecewise, shift_power_predicate, shift_power_profile, solve_piecewise,
    trace_class_reps,
)
from .fields import Field, SubfieldEmbed, _is_prime, exact_log
from .lowdeg import cubic_char3_is3to1, cubic_charne3_is3to1, quartic_3to1_search
from .polys import (
    LinearizedPoly, Poly, affine_rows, eval_coeff_rows, eval_rows, linearized_ranks,
)
from .walsh import char_sum_rows, fiber_size_rows, phi

SEED = 20260817


class RunResult:
    """A sweep's rows and schema line; ok exactly when there is no witness."""

    def __init__(self, witness, rows, schema):
        self.ok = witness is None
        self.witness = witness
        self.rows = rows
        self.schema = schema

    def __repr__(self):
        state = "ok" if self.ok else f"FAIL ({self.witness})"
        return f"RunResult({len(self.rows)} rows, {state})"


def agreement(cases, where):
    """Rows (*key, predicate, brute), the verdicts as ints, for cases of
    (*key, predicate, brute), and the witness of the first disagreement,
    "<where(*key)>: predicate P, brute B", or None.  The one
    predicate-against-brute-force loop behind the sweeps and the CLI."""
    rows, witness = [], None
    for *key, pred, got in cases:
        if pred != got and witness is None:
            witness = f"{where(*key)}: predicate {pred}, brute {got}"
        rows.append((*key, int(pred), int(got)))
    return rows, witness


def _prime_powers(bound, m_min=1):
    """(p, m, q) for every prime power q <= bound, ascending in q."""
    out = []
    for p in filter(_is_prime, range(2, bound + 1)):
        q, m = p, 1
        while q <= bound:
            if m >= m_min:
                out.append((p, m, q))
            q *= p
            m += 1
    return sorted(out, key=lambda t: t[2])


def run_monomial(seed=SEED):
    """x^d is gcd(d, q-1)-to-1 with the lone exception at 0; every field
    q <= 128, every exponent."""
    rows, witness = [], None
    for p, m, q in _prime_powers(128):
        ctx = Field(p, m)
        xs = ctx.elements_array()
        for lo, hi in row_blocks(q - 1, q):
            ds = range(lo + 1, hi + 1)
            reps = classify_rows(np.stack([ctx.pow_vec(xs, d) for d in ds]), q)
            for d, (got, exc, irregular) in zip(ds, reps):
                n = monomial_oracle(ctx, 1, d)
                want_exc = (0, 1) if n > 1 else None
                ok = got == n and not irregular and exc == want_exc
                rows.append((q, d, got, int(ok)))
                if not ok and witness is None:
                    witness = f"q={q} d={d}: expected n={n}, got {classify(ctx.pow_vec(xs, d))}"
    return RunResult(witness, rows, "q,d,n,ok")


def run_linearized(seed=SEED):
    """Random q-polynomials classify as q^(m-rank)-to-1 with no exception.
    Each field's 100 draws are one batch: classify_rows on row blocks of
    each q_sub group (sharing the exponents q_sub^i), one linearized_ranks."""
    rng = random.Random(seed)
    rows, witness = [], None
    for p, m, q in _prime_powers(4096, m_min=2):
        ctx = Field(p, m)
        ctx._ensure_tables()  # tables first: their build peaks before the draws are held
        divisors = [j for j in range(1, m + 1) if m % j == 0]
        Ls, reps = [], {}
        for _ in range(100):
            j = rng.choice(divisors)
            Ls.append(LinearizedPoly(ctx, p ** j, [rng.randrange(q) for _ in range(m // j)]))
        for j in divisors:
            idx = [i for i, L in enumerate(Ls) if L.sub_degree == j]
            for lo, hi in row_blocks(len(idx), q):
                block = idx[lo:hi]
                reps.update(zip(block, classify_rows(eval_rows(ctx, [Ls[i] for i in block]), q)))
        linearized_ranks(Ls)
        for i, L in enumerate(Ls):
            got, exc, irregular = reps[i]
            ok = got == linearized_oracle(L) and exc is None and not irregular
            rows.append((q, L.q_sub, L.rank(), got, int(ok)))
            if not ok and witness is None:
                witness = f"q={q} base={L.q_sub} coeffs={L.l_coeffs}: {classify(L)}"
    return RunResult(witness, rows, "q,q_sub,rank,n,ok")


def cubic_sweep(ctx):
    """Yield (a, b, predicate, brute) for the cubic criterion over ctx:
    every (a, b) in characteristic 3, (0, b) otherwise, where the
    criterion is claimed for x^3 + b x alone.  The brute side is
    n_to_1_rows at 3 on the dense rows [0, b, a, 1], one row block at a time."""
    q = ctx.order
    for lo, hi in row_blocks(q * q if ctx.p == 3 else q, q):
        idx = np.arange(lo, hi, dtype=np.int64)
        a, b = divmod(idx, q) if ctx.p == 3 else (np.zeros_like(idx), idx)
        rows = np.stack([np.zeros_like(idx), b, a, np.ones_like(idx)], axis=1)
        brute = n_to_1_rows(eval_coeff_rows(ctx, rows), q, 3)
        for a_, b_, got in zip(a.tolist(), b.tolist(), brute.tolist()):
            pred = (cubic_char3_is3to1(ctx, a_, b_) if ctx.p == 3
                    else cubic_charne3_is3to1(ctx, b_))
            yield a_, b_, pred, got


def run_de3p3(seed=SEED):
    """Cubic criterion in characteristic 3, exhaustive; 13 positives over
    GF(27)."""
    rows, witness = agreement(
        ((ctx.order, *case) for ctx in (Field(3, 2), Field(3, 3)) for case in cubic_sweep(ctx)),
        lambda q, a, b: f"GF(3^{exact_log(q, 3)}) a={a} b={b}")
    positives_27 = sum(row[3] for row in rows if row[0] == 27)
    if witness is None and positives_27 != 13:
        witness = f"expected 13 positive pairs over GF(27), found {positives_27}"
    return RunResult(witness, rows, "q,a,b,predicate,brute")


def run_de3pne3(seed=SEED):
    """Cubic criterion away from characteristic 3, exhaustive over six
    fields."""
    ctxs = [Field(p, m) for p, m in ((2, 2), (5, 1), (7, 1), (2, 3), (13, 1), (2, 4))]
    rows, witness = agreement(
        ((ctx.order, b, pred, got) for ctx in ctxs for _, b, pred, got in cubic_sweep(ctx)),
        lambda q, b: f"GF({q}) b={b}")
    return RunResult(witness, rows, "q,b,predicate,brute")


def run_quartic(seed=SEED):
    """The no-3-to-1-quartics claim, taken at its word: report whatever the
    search returns.  Known to fail at q=5.  The exhaustive column is a
    constant 1: the search covers every triple at every q."""
    rows, witness = [], None
    for q in (5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 49):
        p, m, _ = next(t for t in _prime_powers(49) if t[2] == q)
        res = quartic_3to1_search(Field(p, m))
        rows.append((q, len(res.hits), 1, res.tried))
        if res.hits and witness is None:
            witness = (f"q={q}: {len(res.hits)} quartics are 3-to-1, "
                       f"first (a,b,c)={res.hits[0]}")
    return RunResult(witness, rows, "q,hits,exhaustive,tried")


def _n_to_1_table(ctx, n, rng):
    """A random map whose fibers have sizes q mod n (when nonzero), then
    n, n, ...: the shuffled elements, cut in that order, onto the shuffled
    values."""
    xs = list(ctx.elements())
    vals = list(ctx.elements())
    rng.shuffle(xs)
    rng.shuffle(vals)
    q = ctx.order
    sizes = [q % n] * (q % n > 0) + [n] * (q // n)
    out = np.empty(q, dtype=np.int64)
    out[xs] = np.repeat(vals[:len(sizes)], sizes)
    return out


def run_walsh(seed=SEED):
    """Spectral verdicts at n=2 and n=p against brute force on a mixed
    corpus of 500 maps per field, held as one (500, q) value matrix: one
    fiber_size_rows read by both gadgets, and n_to_1_rows at 2 and p."""
    rng = random.Random(seed)
    rows, witness = [], None
    kinds = ["random"] * 170 + ["two"] * 165 + ["p"] * 165
    for p, m, q in ((3, 2, 9), (5, 2, 25), (3, 3, 27)):
        ctx = Field(p, m)
        gadgets = (phi(2, p, m), phi(p, p, m))
        V = np.empty((len(kinds), q), dtype=np.int64)
        for i, kind in enumerate(kinds):
            V[i] = ([rng.randrange(q) for _ in range(q)] if kind == "random"
                    else _n_to_1_table(ctx, 2 if kind == "two" else p, rng))
        sums = char_sum_rows(ctx, fiber_size_rows(ctx, V), *gadgets)
        spectral = [[s == g.bound for s in col] for g, col in zip(gadgets, sums)]
        brute = [n_to_1_rows(V, q, g.n).tolist() for g in gadgets]
        for i, (v2, vp, t2, tp) in enumerate(zip(*spectral, *brute)):
            rows.append((q, i, kinds[i], int(v2), int(t2), int(vp), int(tp)))
            if (v2 != t2 or vp != tp) and witness is None:
                witness = (f"GF({q}) map {i} ({kinds[i]}): "
                           f"phi1 {v2} vs {t2}, phi2 {vp} vs {tp}")
    return RunResult(witness, rows, "q,i,kind,phi1,brute2,phi2,brutep")


def run_agwcore2(seed=SEED):
    """200 random verified squares: the forward implication always, the
    backward implication whenever condition (3) holds."""
    rng = random.Random(seed)
    rows, witness = [], None
    for i in range(200):
        d = random_diagram(rng, max_set=100)
        rep = verify_diagram(d)
        if not rep.ok:
            witness = witness or f"diagram {i} failed verification: {rep.violations[0]}"
            continue
        v = transfer(d, rep)
        ok = v.forward_ok and v.backward_ok
        rows.append((i, d.n, len(d.A), len(d.S), int(v.f_n_to_1),
                     int(v.g_n_to_1),
                     "" if v.condition3 is None else int(v.condition3),
                     int(v.forward_ok), int(v.backward_ok)))
        if not ok and witness is None:
            witness = (f"diagram {i} (n={d.n}, #A={len(d.A)}): "
                       f"forward {v.forward_ok}, backward {v.backward_ok}")
    return RunResult(witness, rows, "i,n,A,S,f_n_to_1,g_n_to_1,condition3,forward,backward")


def branch_sweep(ctx, r, ell):
    """Cases (*values, predicate, brute) of the ell-branch criterion at r
    over ctx, values running over ell-tuples from a pool in
    itertools.product order.  The pool is every element for ell = 2 and
    one power-class representative per class otherwise: the verdict only
    sees values through their power class.  ValueError outside the
    criterion's hypotheses, ell | q-1 and r coprime to (q-1)/ell.

    The brute side is decided in row blocks of about 2^14 table entries:
    one branch_tables and one n_to_1_rows per block, so the built maps
    are exactly build_branch_interpolation's and the verdict is
    is_n_to_1's on the whole field.  The predicate side stays one scalar
    branch_case_predicate call per tuple."""
    if (ctx.order - 1) % ell:
        raise ValueError(f"{ell} must divide q-1={ctx.order - 1}")
    if math.gcd(r, (ctx.order - 1) // ell) != 1:
        raise ValueError(f"the criterion needs r coprime to (q-1)/{ell}; r={r} is not")
    if ell == 2:
        pool = list(ctx.elements())
    else:
        pool = [0] + [ctx.pow(ctx.beta, i) for i in range(ell)]
    tuples = np.array(list(itertools.product(pool, repeat=ell)), dtype=np.int64)
    q = ctx.order
    brute = np.concatenate([n_to_1_rows(branch_tables(ctx, r, tuples[lo:hi]), q, ell)
                            for lo, hi in row_blocks(len(tuples), q)])
    return [(*values, branch_case_predicate(ctx, r, values), got)
            for values, got in zip(tuples.tolist(), brute.tolist())]


def _branch_class_run(ctxs, ell):
    """branch_sweep over each field for every r coprime to (q-1)/ell, as
    rows (q, r, *values, predicate, brute)."""
    rows, witness = agreement(
        ((ctx.order, r, *case)
         for ctx in ctxs
         for r in range(1, ctx.order) if math.gcd(r, (ctx.order - 1) // ell) == 1
         for case in branch_sweep(ctx, r, ell)),
        lambda q, r, *values: f"q={q} r={r} values={values}")
    return RunResult(witness, rows, ",".join(("q", "r", *"abcd"[:ell], "predicate", "brute")))


def run_miu2(seed=SEED):
    """Two-branch criterion, exhaustive (a, b, r) over GF(7) and GF(11)."""
    return _branch_class_run((Field(7, 1), Field(11, 1)), BRANCH_FAMILIES["miu2"])


def run_miu3(seed=SEED):
    """Three-branch criterion over GF(13), all power-class triples."""
    return _branch_class_run((Field(13, 1),), BRANCH_FAMILIES["miu3"])


def run_nmiu3(seed=SEED):
    """Four-branch criterion over GF(13), all power-class quadruples."""
    return _branch_class_run((Field(13, 1),), BRANCH_FAMILIES["nmiu3"])


def run_piecewisegenerel(seed=SEED):
    """100 random branch plans per field solve exactly and classify at the
    planned n."""
    rng = random.Random(seed)
    rows, witness = [], None
    for p, m in ((7, 1), (13, 1), (5, 2)):
        ctx = Field(p, m)
        for i in range(100):
            spec = random_piecewise(ctx, rng)
            inst = solve_piecewise(ctx, spec)
            rep = inst.classify()
            ok = (inst.ok and rep.n == spec.n and not rep.irregular
                  and rep.exception == (0, 1))
            rows.append((ctx.order, i, spec.r, spec.s, spec.n, rep.n, int(ok)))
            if not ok and witness is None:
                witness = f"GF({ctx.order}) {spec}: classified {rep}"
    return RunResult(witness, rows, "q,i,r,s,n,got_n,ok")


def shift_power_sweep(emb, variant, q1=None):
    """Agreement rows (trace, delta, predicate, brute) of (x^q - x + delta)^e + x,
    one delta per trace class (trace_class_reps), and the first witness;
    ValueError where the arithmetic gate fails.  The brute side is the
    definition: x^q - x and y^e built once, then build_shift_power's maps
    without its square, one row block of deltas per n_to_1_rows at n; the
    predicate reads each class's trace."""
    e, n, gate, note = shift_power_profile(emb, variant, q1)
    if not gate:
        raise ValueError(f"{variant}: the arithmetic gate {note} fails "
                         f"for this tower, so the predicate is not claimed")
    big, q, reps = emb.big, emb.big.order, trace_class_reps(emb)
    xs, deltas = big.elements_array(), np.array(list(reps.values()), dtype=np.int64)
    psi, power = big.sub_vec(big.pow_vec(xs, emb.q_sub), xs), big.pow_vec(xs, e)
    brute = np.concatenate([
        n_to_1_rows(big.add_vec(power[big.add_vec(psi, deltas[lo:hi, None])], xs), q, n)
        for lo, hi in row_blocks(len(reps), q)])
    return agreement(((t, d, shift_power_predicate(emb, variant, t, q1), got)
                      for (t, d), got in zip(reps.items(), brute.tolist())),
                     lambda tval, delta: f"trace={tval} delta={delta}")


def _shift_power_run(big, sub, variant, q1, want_positives):
    rows, witness = shift_power_sweep(SubfieldEmbed(Field(*big), Field(*sub)), variant, q1)
    positives = sum(row[2] for row in rows)
    if witness is None and positives != want_positives:
        witness = (f"expected {want_positives} positive trace classes, "
                   f"found {positives}")
    return RunResult(witness, rows, "trace,delta,predicate,brute")


def run_gouzao1(seed=SEED):
    return _shift_power_run((3, 6), (3, 3), "gouzao1", 27, 13)


def run_gouzao2(seed=SEED):
    return _shift_power_run((3, 6), (3, 3), "gouzao2", 27, 13)


def run_gouzao3(seed=SEED):
    """The published example pins 6 positive classes; the predicate itself
    (and brute force, and a character-sum count) give 13, so this runner
    reports the mismatch rather than hiding it."""
    return _shift_power_run((3, 6), (3, 3), "gouzao3", None, 6)


def run_two_gouzao1(seed=SEED):
    return _shift_power_run((2, 12), (2, 6), "2gouzao1", 4, 20)


def run_two_gouzao2(seed=SEED):
    return _shift_power_run((2, 8), (2, 4), "2gouzao2", None, 14)


def run_zcriterion(seed=SEED):
    """100 random translate-link instances: the n-to-1 verdict transfers
    between the big map and its reduced partner, and clean classifications
    agree exactly."""
    rng = random.Random(seed)
    pool = [(2, 4), (2, 6), (3, 4), (2, 8), (3, 6), (5, 4), (2, 10)]
    ctxs = {pm: Field(*pm) for pm in pool}
    rows, witness = [], None
    made = 0
    while made < 100:
        p, mm = pool[rng.randrange(len(pool))]
        ctx = ctxs[(p, mm)]
        js = [j for j in range(1, mm) if mm % j == 0 and mm // j >= 2]
        j = rng.choice(js)
        q, m = p ** j, mm // j
        k = rng.randrange(1, m)
        ell = math.gcd(k, m)
        g = Poly.from_dense(ctx, [rng.randrange(ctx.order) for _ in range(5)])
        units = ctx.elements_array()[1:]
        c = rng.choice(units[ctx.pow_vec(units, q ** ell) == units].tolist())
        delta = rng.randrange(ctx.order)
        i_max = j * (mm // j - ell)
        n = p ** rng.randrange(0, i_max + 1)
        inst = build_translate_link(ctx, q, k, g, c, delta, n)
        if not inst.ok:
            continue
        made += 1
        vf, vh = inst.holds(), inst.holds_reduced()
        repf, reph = inst.classify(), inst.classify_reduced()
        # the fiber blowup forces: reduced clean => big identical; reduced
        # exceptional or irregular => big irregular (the exception value
        # multiplies into q^ell of them)
        if not reph.irregular and reph.exception is None:
            same_class = repf.n == reph.n and repf.exception is None
        else:
            same_class = repf.irregular
        rows.append((ctx.order, q, k, c, delta, n, int(vf), int(vh), repf.n, reph.n))
        if not (vf == vh and same_class) and witness is None:
            witness = (f"GF({ctx.order}) q={q} k={k} c={c} delta={delta} "
                       f"n={n}: verdicts {vf}/{vh}, classes {repf.n}/{reph.n}")
    return RunResult(witness, rows, "order,q,k,c,delta,n,f_verdict,h_verdict,f_n,h_n")


def run_normalize(seed=SEED):
    """classify is blind to a*f(x+b)+c; the exception value moves by the
    same affine map and everything else is equal."""
    rng = random.Random(seed)
    rows, witness = [], None
    for p, m, q in _prime_powers(343):
        ctx = Field(p, m)
        cases, F = [], []
        for i in range(200):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(2, 7))]
            if not any(coeffs[1:]):
                continue
            cases.append((i, rng.randrange(1, q), rng.randrange(q), rng.randrange(q)))
            F.append(coeffs + [0] * (6 - len(coeffs)))
        G = affine_rows(ctx, F, *np.array([case[1:] for case in cases], dtype=np.int64).T)
        for lo, hi in row_blocks(len(cases), q):
            reps_f = classify_rows(eval_coeff_rows(ctx, F[lo:hi]), q)
            reps_g = classify_rows(eval_coeff_rows(ctx, G[lo:hi]), q)
            for (i, a, b, c), f_row, g_row, (nf, exc_f, irr_f), (ng, exc_g, irr_g) in zip(
                    cases[lo:hi], F[lo:hi], G[lo:hi], reps_f, reps_g):
                moved = None if exc_f is None else (ctx.add(ctx.mul(a, exc_f[0]), c), exc_f[1])
                ok = nf == ng and irr_f == irr_g and exc_g == moved
                rows.append((q, i, a, b, c, nf, ng, int(ok)))
                if not ok and witness is None:
                    f, g = Poly.from_dense(ctx, f_row), Poly.from_dense(ctx, g_row.tolist())
                    witness = (f"GF({q}) f={f.dense()} a={a} b={b} c={c}: "
                               f"{classify(f)} vs {classify(g)}")
    return RunResult(witness, rows, "q,i,a,b,c,f_n,g_n,ok")


RUNNERS = {
    "monomial": run_monomial,
    "linearized": run_linearized,
    "de3p3": run_de3p3,
    "de3pne3": run_de3pne3,
    "quartic": run_quartic,
    "walsh": run_walsh,
    "agwcore2": run_agwcore2,
    "miu2": run_miu2,
    "miu3": run_miu3,
    "nmiu3": run_nmiu3,
    "piecewisegenerel": run_piecewisegenerel,
    "gouzao1": run_gouzao1,
    "gouzao2": run_gouzao2,
    "gouzao3": run_gouzao3,
    "2gouzao1": run_two_gouzao1,
    "2gouzao2": run_two_gouzao2,
    "zcriterion": run_zcriterion,
    "normalize": run_normalize,
}


def run(theorem_id, seed=SEED):
    if theorem_id not in RUNNERS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; "
                       f"known: {', '.join(sorted(RUNNERS))}")
    return RUNNERS[theorem_id](seed=seed)
