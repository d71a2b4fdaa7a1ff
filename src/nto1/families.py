"""Constructions that transfer n-to-1-ness across a commutative square.

Each builder assembles a map on a big carrier together with its reduced
partner on a small one, checks the hypotheses that make the transfer
valid, and returns a FamilyInstance: the commutative square itself (a
DiagramSpec, so verify_diagram and transfer take it as it is) plus any
broken hypotheses.  A broken hypothesis is recorded in
FamilyInstance.violations and the map is built anyway, so a dubious
construction can still be classified honestly; inst.ok says it is clean.

Parameters that make the construction itself meaningless (n < 1, a
modulus that does not divide, a carrier that does not exist) raise
ValueError before any work; only
hypotheses the built map can survive breaking are recorded.  Every map
comes in through polys.value_table, so one that is not a map over the
field is a FieldMismatch.
"""

import math

import numpy as np

from .counting import classify, is_n_to_1
from .diagrams import DiagramSpec, Violation, positive_n
from .errors import ConstructionMismatch
from .fields import exact_log
from .polys import (
    Poly, additive_witness, eval_coeff_rows, is_additive,
    roots_of_unity_interpolate_rows, value_table,
)


class FamilyInstance(DiagramSpec):
    """A built map and its reduced partner as one commutative square.

    The square is the DiagramSpec's own: f, g (the reduced map), lam and
    lambar are int64 value tables over the whole field, indexed by element
    code, and g is read on its carrier S.  domain is the int64 index array
    f is read on: A, with 0 added where 0 -> 0 lies off the square."""

    def __init__(self, family, ctx, domain, A, S, Sbar, f, g, lam, lambar, n,
                 meta=None, violations=()):
        super().__init__(A, S, Sbar, f, g, lam, lambar, n)
        self.family, self.ctx, self.domain = family, ctx, domain
        self.meta = dict(meta or {})
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def classify(self):
        return classify(self.f[self.domain])

    def classify_reduced(self):
        return classify(self.g[self.S])

    def holds(self):
        """Brute-force the claimed n on the built map."""
        return is_n_to_1(self.f[self.domain], None, self.n)

    def holds_reduced(self):
        return is_n_to_1(self.g[self.S], None, self.n)

    def __repr__(self):
        tag = "ok" if self.ok else f"{len(self.violations)} broken"
        return (f"FamilyInstance({self.family}, n={self.n}, "
                f"|domain|={len(self.domain)}, {tag})")


def _require(violations, ok, hypothesis, witness=None):
    """Record hypothesis as broken unless ok; returns ok."""
    if not ok:
        violations.append(Violation(hypothesis, witness))
    return ok


def _first(idx):
    """First entry of an index array as an int, or None when it is empty."""
    return int(idx[0]) if len(idx) else None


def _additive_ok(ctx, f, t):
    """(ok, witness) for f(x+y) = f(x) + f(y); structural when possible."""
    if isinstance(f, Poly):
        return is_additive(f), None
    w = additive_witness(ctx, t)
    return w is None, w


def _subfield_linear_ok(emb, t):
    """Scalar homogeneity over the embedded subfield, additivity assumed.
    The subfield's unit group is cyclic, so one generator decides it."""
    big = emb.big
    c0 = emb.embed(emb.sub.beta)
    xs = big.elements_array()
    return np.array_equal(t[big.scalar_mul_vec(c0, xs)], big.scalar_mul_vec(c0, t))


# ---------------------------------------------------------------------------
# additive split: f(x) = h(psi(x))*phi(x) + g(psi(x))
# ---------------------------------------------------------------------------

def build_additive_split(emb, psi, psibar, phi, h, g, n):
    """f(x) = h(psi(x))*phi(x) + g(psi(x)) against its reduced partner
    fbar(s) = h(s)*phi(s) + psibar(g(s)) on S = psi(field).

    psi and phi additive, psibar additive and linear over the subfield
    marked out by emb, h sending S into that subfield's units.  With the
    kernel and size checks below, f is n-to-1 exactly when fbar is.
    """
    positive_n(n)
    big, sub = emb.big, emb.sub
    broken = []
    psi_t, psibar_t, phi_t, h_t, g_t = (value_table(f, big)[1]
                                        for f in (psi, psibar, phi, h, g))

    _require(broken, sub.order % n == 0, "n divides the subfield size", n)
    ok, w = _additive_ok(big, psi, psi_t)
    _require(broken, ok, "psi additive", w)
    ok, w = _additive_ok(big, phi, phi_t)
    _require(broken, ok, "phi additive", w)
    ok, w = _additive_ok(big, psibar, psibar_t)
    _require(broken, ok, "psibar additive", w)
    if ok:
        _require(broken, _subfield_linear_ok(emb, psibar_t), "psibar subfield-linear")
    bad = _first(np.flatnonzero(phi_t[psi_t] != psibar_t[phi_t]))
    _require(broken, bad is None, "phi after psi equals psibar after phi", bad)

    S, Sbar = np.flatnonzero(np.bincount(psi_t)), np.flatnonzero(np.bincount(psibar_t))
    _require(broken, len(S) == len(Sbar), "images of psi and psibar have one size",
             (len(S), len(Sbar)))
    _require(broken, len(S) > 1 and len(S) % n == 0,
             "n divides the image size, image nontrivial", len(S))
    hS = h_t[S]
    bad = _first(S[(hS == 0) | (big.pow_vec(hS, emb.q_sub) != hS)])
    _require(broken, bad is None, "h sends the image into the subfield units", bad)
    meet = np.flatnonzero((phi_t == 0) & (psi_t == 0))
    _require(broken, meet.tolist() == [0], "kernels of phi and psi meet only at 0",
             meet[:3].tolist())
    ker_sizes = (int(np.count_nonzero(psi_t == 0)), int(np.count_nonzero(psibar_t == 0)))
    _require(broken, ker_sizes[0] == ker_sizes[1], "kernels of psi and psibar have one size",
             ker_sizes)

    f_t = big.add_vec(big.mul_vec(h_t[psi_t], phi_t), g_t[psi_t])
    fbar_t = big.add_vec(big.mul_vec(h_t, phi_t), psibar_t[g_t])
    xs = big.elements_array()
    return FamilyInstance("additive-split", big, xs, xs, S, Sbar, f_t, fbar_t, psi_t, psibar_t,
                          n, meta={"q": sub.order}, violations=broken)


# ---------------------------------------------------------------------------
# linearized mix: f(x) = L1(x) + L2(x)*g(L3(x))
# ---------------------------------------------------------------------------

def _structural_q_poly(emb, L):
    """Terms must all be c*x^(q^i) with c in the subfield; (ok, witness),
    the witness the first term (e, c) that is not.  A raw value table has
    no terms to read, so it fails."""
    if not isinstance(L, Poly):
        return False, f"raw value table {type(L).__name__}"
    bad = next(((e, c) for e, c in L.terms
                if exact_log(e, emb.q_sub) is None or not emb.in_subfield(c)), None)
    return bad is None, bad


def build_linearized_mix(emb, L1, L2, L3, g, n):
    """f(x) = L1(x) + L2(x)*g(L3(x)) against fbar(s) = L1(s) + L2(s)*g(s)
    on S = L3(field).

    L1, L2, L3 linearized over the subfield with subfield coefficients
    (that makes them commute with L3, closing the square) and g sending S
    into the subfield.  Fiber injectivity needs ker(L1 + g(y)*L2) to meet
    ker(L3) only at 0 for every y in S.
    """
    positive_n(n)
    big, sub = emb.big, emb.sub
    q = sub.order
    broken = []
    for name, L in (("L1", L1), ("L2", L2), ("L3", L3)):
        ok, w = _structural_q_poly(emb, L)
        _require(broken, ok, f"{name} linearized with subfield coefficients", w)
    L1_t, L2_t, L3_t, g_t = (value_table(f, big)[1] for f in (L1, L2, L3, g))

    S = np.flatnonzero(np.bincount(L3_t))  # the image of L3, sorted
    gS = g_t[S]
    bad = _first(S[big.pow_vec(gS, q) != gS])
    _require(broken, bad is None, "g sends the image of L3 into the subfield", bad)
    _require(broken, q % n == 0, "n divides the subfield size", n)
    _require(broken, len(S) % n == 0, "n divides the image size", len(S))
    _require(broken, (len(S) - q) % n == 0,
             "image size congruent to the subfield size mod n", (len(S), q))
    ker3 = L3_t == 0
    for y, gy in zip(S.tolist(), gS.tolist()):
        Fy = big.add_vec(L1_t, big.scalar_mul_vec(gy, L2_t))
        meet = np.nonzero((Fy == 0) & ker3)[0]
        if not _require(broken, meet.tolist() == [0],
                        "ker(L1 + g(y)*L2) meets ker(L3) only at 0",
                        (y, meet[:3].tolist())):
            break

    f_t = big.add_vec(L1_t, big.mul_vec(L2_t, g_t[L3_t]))
    fbar_t = big.add_vec(L1_t, big.mul_vec(L2_t, g_t))
    xs = big.elements_array()
    return FamilyInstance("linearized-mix", big, xs, xs, S, S, f_t, fbar_t, L3_t, L3_t, n,
                          meta={"q": q}, violations=broken)


# ---------------------------------------------------------------------------
# coset power: f(x) = x^r h(x^s) on units, g(y) = y^r h(y)^s on roots of unity
# ---------------------------------------------------------------------------

def build_coset_power(ctx, r, s, h, n):
    """f(x) = x^r h(x^s) on the whole field against g(y) = y^r h(y)^s on
    the ell-th roots of unity, ell = (q-1)/s.

    With h never zero on those roots, f is n-to-1 on the units exactly
    when g is n-to-1 on the roots; the domain adds 0 -> 0, the lone
    size-1 exception once n > 1.
    """
    positive_n(n)
    q = ctx.order
    if r < 1 or s < 1 or (q - 1) % s:
        raise ValueError(f"need r >= 1 and s dividing {q - 1}, got r={r} s={s}")
    ell = (q - 1) // s
    broken = []
    _require(broken, math.gcd(r, s) == 1, "r coprime to s", (r, s))
    _require(broken, ell % n == 0, "n divides the root group order", (n, ell))
    _, h_t = value_table(h, ctx)
    mu = np.asarray(ctx.roots_of_unity(ell), dtype=np.int64)
    bad = _first(mu[h_t[mu] == 0])
    _require(broken, bad is None, "h never zero on the root group", bad)
    return _coset_square("coset-power", ctx, r, s, s, h_t, n, mu, True,
                         {"r": r, "s": s, "ell": ell}, broken)


def _coset_square(family, ctx, r, s, e, h_t, n, carrier, with_zero, meta, violations):
    """f(x) = x^r h(x^s) against its reduced partner y^r h(y)^e, both over
    the whole field, the partner read on carrier; wired through x^s on
    the units.  f(0) = 0, so with_zero reads f on 0 too, a size-1 fiber.
    A one-point carrier (ell = 1, or the units of GF(2)) is no square."""
    _require(violations, len(carrier) > 1, "#S > 1", len(carrier))
    x_r, lam_t, f_t = _coset_rows(ctx, r, s, h_t)
    g_t = ctx.mul_vec(x_r, ctx.pow_vec(h_t, e))
    xs = ctx.elements_array()
    units = xs[1:]
    return FamilyInstance(family, ctx, xs if with_zero else units, units, carrier, carrier,
                          f_t, g_t, lam_t, lam_t, n, meta=meta, violations=violations)


def _coset_rows(ctx, r, s, h):
    """(x^r, x^s, f) over the whole field with f = x^r h(x^s), for one
    whole-field h table or row by row for a (T, q) matrix of them; x^r and
    x^s are computed once for all rows."""
    xs = ctx.elements_array()
    x_r = ctx.pow_vec(xs, r)
    lam = ctx.pow_vec(xs, s)
    return x_r, lam, ctx.mul_vec(x_r, h[..., lam])


def coset_power_monomial(ctx, s, h):
    """(alpha, t) with h(y)^s = alpha*y^t on the ell-th roots of unity,
    alpha itself a root, or None when h casts no such monomial shadow."""
    q = ctx.order
    if s < 1 or (q - 1) % s:
        raise ValueError(f"s must divide {q - 1}")
    ell = (q - 1) // s
    mu = np.asarray(ctx.roots_of_unity(ell), dtype=np.int64)  # omega^i at i
    hv = value_table(h, ctx)[1][mu]
    if not hv.all():
        return None
    w = ctx.pow_vec(hv, s)  # every w(y) = h(y)^s is itself an ell-th root
    alpha = int(w[0])
    # w(omega) = alpha * omega^t with omega = beta^s = mu[1] (1 when ell = 1)
    t = ctx.log(ctx.div(int(w[1 % ell]), alpha)) // s
    if (w == ctx.scalar_mul_vec(alpha, mu[np.arange(ell) * t % ell])).all():
        return alpha, t
    return None


def coset_power_monomial_n(ctx, r, s, h):
    """gcd(r + t, ell) when the monomial shadow exists, else None."""
    hit = coset_power_monomial(ctx, s, h)
    if hit is None:
        return None
    return math.gcd(r + hit[1], (ctx.order - 1) // s)


# ---------------------------------------------------------------------------
# norm lift: pull a construction up an extension through the norm map
# ---------------------------------------------------------------------------

def build_norm_lift(emb, r, h_sub, n):
    """f(x) = x^r h(N(x)) on the big units, N the norm onto the subfield,
    against g(y) = y^r h(y)^m on the subfield units (m the extension
    degree).

    The norm is x^s with s = (Q-1)/(q-1), so this is the coset
    construction whose roots of unity are exactly the embedded subfield
    units.  gcd(r, s) = 1 keeps f injective on every norm fiber; it does
    not follow from the other hypotheses and is enforced here.  f is read
    on the units only.
    """
    if not isinstance(h_sub, Poly):
        raise TypeError(f"norm-lift embeds the coefficients of h_sub, so it must be a Poly, "
                        f"not {type(h_sub).__name__}")
    positive_n(n)
    big, sub = emb.big, emb.sub
    q, m = sub.order, emb.rel_degree
    s = (big.order - 1) // (q - 1)
    if r < 1:
        raise ValueError("r must be positive")
    broken = []
    _require(broken, math.gcd(q - 1, m) == 1,
             "extension degree coprime to the subfield unit order", (q - 1, m))
    _require(broken, (q - 1) % n == 0, "n divides the subfield unit order", n)
    _require(broken, math.gcd(r, s) == 1, "r coprime to the norm exponent", (r, s))
    _, hs_t = value_table(h_sub, sub)
    bad = _first(np.flatnonzero(hs_t[1:] == 0) + 1)
    _require(broken, bad is None, "h never zero on the subfield units", bad)

    h_big = Poly(big, [(e, emb.embed(c)) for e, c in h_sub.terms])
    embed_t = emb.embed_table
    inst = _coset_square("norm-lift", big, r, s, m, h_big.eval_all(), n,
                         np.sort(embed_t[1:]), False,
                         {"r": r, "s": s, "h": h_sub}, broken)
    # the same reduced map in the subfield's own codec must embed onto it
    g_sub = sub.mul_vec(sub.pow_vec(sub.elements_array(), r), sub.pow_vec(hs_t, m))
    moved = np.flatnonzero(embed_t[g_sub[1:]] != inst.g[embed_t[1:]])
    if moved.size:
        raise ConstructionMismatch(
            f"norm-lift: the subfield-coded reduced map disagrees at unit {moved[0] + 1}")
    inst.meta["sub_reduced"] = g_sub
    return inst


def frobenius_twist(f, j):
    """The polynomial whose values are f's values raised to p^j; exponents
    fold through the unit group so the identity holds on the whole field."""
    ctx = f.ctx
    out = Poly(ctx, [(e * ctx.p ** j if e else 0, ctx.frobenius(c, j))
                     for e, c in f.terms])
    return out.reduce_exponents()


def build_two_branch_lift(emb, r, a, b):
    """Lift of the two-branch construction through an extension of degree
    p^t: f(x) = x^r * ((a-b)/2 * x^((Q-1)/2) + (a+b)/2)^(1/p^t) on the big
    units, the root meaning the inverse of the p^t-power bijection.

    Built as the norm lift of the p^t-th root of the two-branch h, so the
    reduced partner y^r h_root(y)^(p^t) is the two-branch map itself on
    the subfield units.
    """
    big, sub = emb.big, emb.sub
    p, k = sub.p, sub.m
    if p == 2:
        raise ValueError("needs an odd subfield")
    t = exact_log(emb.rel_degree, p)
    if not t:
        raise ValueError(f"extension degree {emb.rel_degree} is not a power of {p}")
    s_sub = (sub.order - 1) // 2
    # the reduced partner is the plain two-branch map, so its hypotheses
    # ride along: they are what make the meta predicate decide 2-to-1-ness
    broken = []
    _require(broken, sub.order % 4 == 3, "subfield size 3 mod 4", sub.order)
    _require(broken, math.gcd(r, s_sub) == 1,
             "r coprime to half the subfield unit order", (r, s_sub))
    h0 = Poly(sub, [(s_sub, sub.div(sub.sub(a, b), 2)),
                    (0, sub.div(sub.add(a, b), 2))])
    h_root = frobenius_twist(h0, (-t) % k)
    inst = build_norm_lift(emb, r, h_root, 2)
    inst.violations = tuple(broken) + inst.violations
    inst.family = "two-branch-lift"
    inst.meta.update({"a": a, "b": b, "t": t,
                      "predicate": branch_case_predicate(sub, r, [a, b])})
    return inst


# ---------------------------------------------------------------------------
# branch interpolation: two-, three-, and four-way splits of the unit group
# ---------------------------------------------------------------------------

def build_branch_interpolation(ctx, r, values):
    """f = x^r h(x^s) with h interpolating values[i] at the i-th power of a
    fixed generator of the ell-th roots of unity; ell = len(values),
    s = (q-1)/ell, claimed n = ell.

    The values may be anything, zero included; whether f really is
    ell-to-1 is exactly branch_case_predicate, and nothing here assumes
    it."""
    q = ctx.order
    ell = len(values)
    if ell < 2 or (q - 1) % ell:
        raise ValueError(f"need len(values) dividing {q - 1}")
    s = (q - 1) // ell
    if r < 1:
        raise ValueError("r must be positive")
    broken = []
    _require(broken, math.gcd(r, s) == 1, "r coprime to s", (r, s))
    values = [ctx.check(v) for v in values]
    coeffs, h_t = _interpolate_rows("branch-interpolation", ctx, [values])
    points = np.asarray(ctx.roots_of_unity(ell), dtype=np.int64)
    return _coset_square("branch-interpolation", ctx, r, s, s, h_t[0], ell, points, True,
                         {"r": r, "s": s, "values": tuple(values),
                          "h": Poly.from_dense(ctx, coeffs[0].tolist())}, broken)


def branch_tables(ctx, r, values):
    """(T, q) value tables over the whole field of build_branch_interpolation's
    f = x^r h(x^s), one per row of the (T, ell) value matrix, by the same
    interpolation and postcondition (_interpolate_rows) and the same f
    (_coset_rows), s = (q-1)/ell; x^r and x^s are computed once for all
    rows."""
    values = np.asarray(values, dtype=np.int64)
    _, h = _interpolate_rows("branch-interpolation", ctx, values)
    return _coset_rows(ctx, r, (ctx.order - 1) // values.shape[1], h)[2]


def _interpolate_rows(family, ctx, values):
    """(coefficient rows, whole-field h tables) of the h of degree < ell
    with h(omega^i) = values[t][i] for each row t of the (T, ell) value
    matrix, omega the fixed generator of the ell-th roots of unity.  The
    postcondition is checked on every row: ConstructionMismatch names the
    first row and root where h misses its value."""
    values = np.asarray(values, dtype=np.int64)
    ell = values.shape[1]
    points = np.asarray(ctx.roots_of_unity(ell), dtype=np.int64)
    coeffs = roots_of_unity_interpolate_rows(ctx, ctx.unit_root(ell), values)
    h = eval_coeff_rows(ctx, coeffs)
    missed = np.argwhere(h[:, points] != values)
    if missed.size:
        t, i = missed[0].tolist()
        raise ConstructionMismatch(
            f"{family}: h(omega^{i}) = {h[t, points[i]]} misses values[{i}] = "
            f"{values[t, i]} in row {t}")
    return coeffs, h


def branch_constant_predicate(ctx, r, values):
    """The reduced map sends every root to one common value; exactly then
    is the built map ell-to-1 on the whole field."""
    ell = len(values)
    if (ctx.order - 1) % ell:
        raise ValueError(f"need len(values) dividing {ctx.order - 1}")
    s = (ctx.order - 1) // ell
    if s == 1 and values.count(0) == ell - 1:
        return True  # s = 1: 0 has ell preimages, the lone nonzero point is the exception
    omega = ctx.unit_root(ell)
    seen = None
    for i, v in enumerate(values):
        if v == 0:
            return False
        gi = ctx.mul(ctx.pow(ctx.pow(omega, i), r), ctx.pow(v, s))
        if seen is None:
            seen = gi
        elif gi != seen:
            return False
    return True


def branch_case_predicate(ctx, r, values):
    """Case-list reading of the same condition: one j works for every i,
    values[i]^s = omega^(j - i*r)."""
    ell = len(values)
    if (ctx.order - 1) % ell:
        raise ValueError(f"need len(values) dividing {ctx.order - 1}")
    s = (ctx.order - 1) // ell
    if s == 1 and values.count(0) == ell - 1:
        return True  # s = 1: 0 has ell preimages, the lone nonzero point is the exception
    if 0 in values:
        return False
    roots = ctx.roots_of_unity(ell)  # roots[a] = omega^a
    powers = [ctx.pow(v, s) for v in values]
    return any(all(w == roots[(j - i * r) % ell] for i, w in enumerate(powers))
               for j in range(ell))


# ---------------------------------------------------------------------------
# piecewise plans: prescribe where every unit-group coset lands
# ---------------------------------------------------------------------------

class PiecewiseSpec:
    """Branch plan for the coset construction.

    targets[i] = a_i sends the i-th coset into the fiber over
    omega^(a_i); levels[i] picks which translate of h realizes it.  An
    n-to-1 outcome needs each chosen target hit exactly n times."""

    def __init__(self, r, s, n, targets, levels):
        self.r = int(r)
        self.s = int(s)
        self.n = int(n)
        self.targets = tuple(int(a) for a in targets)
        self.levels = tuple(int(m) for m in levels)

    def __repr__(self):
        return (f"PiecewiseSpec(r={self.r}, s={self.s}, n={self.n}, "
                f"targets={self.targets}, levels={self.levels})")


def solve_piecewise(ctx, spec):
    """Interpolate h so f = x^r h(x^s) realizes the branch plan, then build
    the coset construction on it.

    Exact postconditions, each a ConstructionMismatch when broken: h at
    the i-th root equals beta^(ell*levels[i] + targets[i] - i*r), and the
    reduced map sends the i-th root to omega^targets[i]."""
    s, r, n = spec.s, spec.r, positive_n(spec.n)
    q = ctx.order
    if s < 1 or (q - 1) % s:
        raise ValueError(f"s must divide {q - 1}")
    ell = (q - 1) // s
    if len(spec.targets) != ell or len(spec.levels) != ell:
        raise ValueError(f"need {ell} targets and {ell} levels")
    broken = []
    _require(broken, all(0 <= a < ell for a in spec.targets),
             "targets within the root group", spec.targets)
    _require(broken, all(0 <= mi < s for mi in spec.levels),
             "levels within a fiber", spec.levels)
    counts = {}
    for a in spec.targets:
        counts[a] = counts.get(a, 0) + 1
    _require(broken, all(c == n for c in counts.values()),
             "each chosen target hit exactly n times", counts)

    points = np.asarray(ctx.roots_of_unity(ell), dtype=np.int64)
    bvals = [ctx.exp_of((ell * spec.levels[i] + spec.targets[i] - i * r) % (q - 1))
             for i in range(ell)]
    coeffs, h_t = _interpolate_rows("piecewise", ctx, [bvals])
    h = Poly.from_dense(ctx, coeffs[0].tolist())
    inst = build_coset_power(ctx, r, s, h_t[0], n)
    # points[a] = omega^a, so the plan is read straight off the roots
    missed = np.flatnonzero(inst.g[points] != points[np.asarray(spec.targets) % ell])
    if missed.size:
        raise ConstructionMismatch(
            f"piecewise: the reduced map misses the plan at root {missed[0]} of {spec}")
    inst.family = "piecewise"
    inst.meta.update({"spec": spec, "h": h})
    inst.violations = tuple(broken) + inst.violations
    return inst


def random_piecewise(ctx, rng):
    """Draw a spec the solver accepts: s from the divisor lattice, n > 1
    dividing the root group order, a balanced target plan, free levels."""
    q = ctx.order
    divs = [d for d in range(1, q) if (q - 1) % d == 0 and (q - 1) // d > 1]
    if not divs:  # q = 2: no root group of order > 1
        raise ValueError(f"a piecewise spec needs q >= 3, got q={q}")
    s = rng.choice(divs)
    ell = (q - 1) // s
    n = rng.choice([d for d in range(2, ell + 1) if ell % d == 0])
    targets = [c for c in rng.sample(range(ell), ell // n) for _ in range(n)]
    rng.shuffle(targets)
    levels = [rng.randrange(s) for _ in range(ell)]
    while True:
        r = rng.randrange(1, max(q - 1, 2))
        if math.gcd(r, s) == 1:
            break
    return PiecewiseSpec(r, s, n, targets, levels)


# ---------------------------------------------------------------------------
# translate link: f(x) = g(x^(q^k) - x + delta) + c*x
# ---------------------------------------------------------------------------

def build_translate_link(ctx, q, k, g, c, delta, n):
    """f(x) = g(psi(x)) + c*x with psi(x) = x^(q^k) - x + delta, against
    h(y) = g(y)^(q^k) - g(y) + c*y + (1-c)*delta on S = psi(field).

    Fibers of psi are cosets of the subfield of order q^l, l = gcd(k, m);
    c a unit of that subfield makes f injective on every fiber and closes
    the square, so f is n-to-1 exactly when h is on S.
    """
    positive_n(n)
    j = exact_log(q, ctx.p)
    if not j or ctx.m % j:
        raise ValueError(f"q={q} does not cut GF({ctx.p}^{ctx.m}) as a subfield")
    m = ctx.m // j
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must lie in [1, {m - 1}]")
    ell = math.gcd(k, m)
    broken = []
    c = ctx.check(c)
    delta = ctx.check(delta)
    _require(broken, c != 0 and ctx.pow(c, q ** ell) == c,
             "c a unit of the linking subfield", c)
    _require(broken, ctx.order % n == 0, "n divides the field size", n)

    xs = ctx.elements_array()
    qk = q ** k
    psi_t = ctx.add_vec(ctx.sub_vec(ctx.pow_vec(xs, qk), xs), delta)
    S = np.flatnonzero(np.bincount(psi_t))  # the image of psi, sorted
    _require(broken, (ctx.order - len(S)) % n == 0,
             "domain and carrier sizes congruent mod n", (ctx.order, len(S)))
    _, g_t = value_table(g, ctx)
    cx = ctx.scalar_mul_vec(c, xs)
    f_t = ctx.add_vec(g_t[psi_t], cx)
    tail = ctx.mul(ctx.sub(1, c), delta)
    h_t = ctx.add_vec(ctx.add_vec(ctx.sub_vec(ctx.pow_vec(g_t, qk), g_t), cx), tail)
    # the square closes exactly when the k-th q-Frobenius fixes c; check it
    # directly so a bad c surfaces with a witness
    bad = _first(np.flatnonzero(psi_t[f_t] != h_t[psi_t]))
    _require(broken, bad is None, "square commutes", bad)

    return FamilyInstance("translate-link", ctx, xs, xs, S, S, f_t, h_t, psi_t, psi_t, n,
                          meta={"q": q, "k": k, "ell": ell, "c": c, "delta": delta,
                                "fiber": q ** ell},
                          violations=broken)


def reduced_blowup(inst):
    """With f bijective on every lam-fiber, each preimage count c >= 1
    occurs at factor times as many values of f on A as of g on S (factor
    the common fiber size).  Returns (factor, ok, witness); the witness is
    a count whose frequencies disagree."""
    A, S = inst.A, inst.S
    factor = len(A) // len(S)
    # profile[c] = how many values have exactly c preimages, c <= len(A)
    pf = np.bincount(np.bincount(inst.f[A]), minlength=len(A) + 1)
    pg = np.bincount(np.bincount(inst.g[S]), minlength=len(A) + 1)
    off = _first(np.flatnonzero(pf[1:] != factor * pg[1:]) + 1)
    return factor, off is None, off


# ---------------------------------------------------------------------------
# tabulated shapes (x^q - x + delta)^e + x on quadratic extensions
# ---------------------------------------------------------------------------

SHIFT_POWER_VARIANTS = ("gouzao1", "gouzao2", "gouzao3", "2gouzao1", "2gouzao2")
Q1_VARIANTS = ("gouzao1", "gouzao2", "2gouzao1")  # built on a GF(q1) below the subfield
BRANCH_FAMILIES = {"miu2": 2, "miu3": 3, "nmiu3": 4}  # family -> its number of branches ell


def _check_tower(q, q1, p):
    if not exact_log(q1, p):
        raise ValueError(f"q1={q1} is not a power of {p} above 1")
    if exact_log(q, q1) is None:
        raise ValueError(f"subfield order {q} is not a power of q1={q1}")


def shift_power_profile(emb, variant, q1=None):
    """Exponent, claimed n, and the arithmetic gate of one tabulated shape,
    as (e, n, gate_ok, gate_note).  ValueError off a quadratic extension,
    or when a variant built on GF(q1) lacks q1, or one that is not gets a
    q1."""
    if emb.rel_degree != 2:
        raise ValueError("needs a quadratic extension")
    if variant not in SHIFT_POWER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    q = emb.sub.order
    takes_q1 = variant in Q1_VARIANTS
    if takes_q1 != (q1 is not None):
        raise ValueError(f"{variant} needs q1" if takes_q1 else f"{variant} takes no q1")
    if variant in ("gouzao1", "gouzao2"):
        _check_tower(q, q1, 3)
        e = 6 * q1 if variant == "gouzao1" else 3 * q1 + 1
        gate = math.gcd((3 * q1 * q - 1) // 2, q - 1) == 1
        return e, 3, gate, "gcd((3*q1*q - 1)/2, q - 1) = 1"
    if variant == "gouzao3":
        if emb.sub.p != 3:
            raise ValueError("needs characteristic 3")
        return 2 * q + 1, 3, True, None
    if variant == "2gouzao1":
        _check_tower(q, q1, 2)
        return q1 + 1, q1, True, None
    if emb.sub.p != 2:  # 2gouzao2
        raise ValueError("needs characteristic 2")
    return 3 * q, 2, True, None


def shift_power_predicate(emb, variant, T, q1=None):
    """The trace-class test each tabulated shape claims equivalent to
    being n-to-1, on T = tr(delta), an element of the base subfield."""
    sub = emb.sub
    if variant == "gouzao1":
        return T != 0 and sub.power_class(T, 2) == 1
    if variant == "gouzao2":
        if T == 0:
            return False
        u = sub.div(sub.sub(sub.pow(T, 3 * q1), 1), T)
        return u != 0 and sub.power_class(u, 2) == 1
    if variant == "gouzao3":
        u = sub.sub(sub.mul(T, T), 1)
        return u != 0 and sub.power_class(u, 2) == 1
    if variant == "2gouzao1":
        if T == 0:
            return False
        v = sub.add(1, sub.inv(T))
        return v != 0 and sub.power_class(v, q1 - 1) == 0
    if variant == "2gouzao2":
        return T not in (0, 1)
    raise ValueError(f"unknown variant {variant!r}")


def build_shift_power(emb, variant, delta, q1=None):
    """One tabulated shape (x^q - x + delta)^e + x on the quadratic
    extension, wired through the translate link with c = 1, plus its
    trace-class predicate in meta."""
    big = emb.big
    e, n, gate, note = shift_power_profile(emb, variant, q1)
    broken = []
    _require(broken, gate, note, (q1, emb.sub.order))
    inst = build_translate_link(big, emb.sub.order, 1, Poly.monomial(big, 1, e),
                                1, delta, n)
    T = emb.trace(delta)
    inst.family = variant
    inst.meta.update({"e": e, "q1": q1, "trace": T,
                      "predicate": shift_power_predicate(emb, variant, T, q1)})
    inst.violations = tuple(broken) + inst.violations
    return inst


def shift_power_poly(big, q, e, delta):
    """(x^q - x + delta)^e + x as an exact polynomial, exponents folded
    through the unit group after every product."""
    base = Poly(big, [(q, 1), (1, big.neg(1)), (0, delta)])
    acc = Poly.constant(big, 1)
    for bit in bin(e)[2:]:
        acc = (acc * acc).reduce_exponents()
        if bit == "1":
            acc = (acc * base).reduce_exponents()
    return (acc + Poly.x(big)).reduce_exponents()


def trace_class_reps(emb):
    """The first big-field element of each trace value onto the subfield,
    keyed by that value in ascending order; the trace is onto, so every
    subfield element is a key."""
    t = emb.trace_table()
    first = np.full(emb.sub.order, len(t))
    np.minimum.at(first, t, np.arange(len(t)))
    return dict(enumerate(first.tolist()))

