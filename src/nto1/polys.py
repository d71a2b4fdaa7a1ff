"""Polynomials over a Field, both as coefficient data and as maps.

Sparse exponent-coefficient pairs are the canonical form, because the
construction families use exponents far above the field size (reduction
mod x^q - x is explicit, never silent).  A dense view exists for Horner
evaluation and shift on low-degree polynomials.  eval_rows
evaluates many polynomials over the whole field with no per-term
powering: over GF(p) as one exact int64 product of the coefficient
matrix with the Vandermonde rows x^e mod p, over GF(p^m), m > 1, in
the log domain, one table gather per distinct exponent; eval_all is its
one-row case.  eval_coeff_rows evaluates dense coefficient rows, and
affine_rows maps each to a*f(x+b) + c (Poly.shift is its scalar oracle).

Interpolation at the ell-th roots of unity is the closed-form inverse DFT,
batched over value rows (roots_of_unity_interpolate_rows); the test suite
checks it against a Vandermonde solve.

row_reduce is the scalar exact elimination over any field: Gauss-Jordan
through the Field's own scalar ops.  linearized_ranks ranks q-polynomials in
a batch: one (B, m, m) GF(p) digit stack gathered from the log tables, one
fraction-free elimination of the stack mod p (_stacked_rank, int64-exact).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegreeMismatch, DegreeTooHigh, FieldMismatch, SingularSystem, ZeroInput,
)
from .fields import Field, _reduce_mod, _unpack, exact_log

_DENSE_CAP = 1 << 22
_SUM_TERMS = (1 << 22) - 1  # this many products below 2^40, plus p, stay below 2^63


class Poly:
    """Polynomial over a Field; immutable."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Field, terms):
        acc = {}
        for e, c in terms:
            e = int(e)
            if e < 0:
                raise DegreeMismatch(f"negative exponent {e}")
            c = ctx.check(c)
            if e in acc:
                acc[e] = ctx.add(acc[e], c)
            elif c:
                acc[e] = c
        self.ctx = ctx
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_dense(cls, ctx: Field, coeffs) -> "Poly":
        return cls(ctx, list(enumerate(coeffs)))

    @classmethod
    def zero(cls, ctx: Field) -> "Poly":
        return cls(ctx, [])

    @classmethod
    def constant(cls, ctx: Field, c: int) -> "Poly":
        return cls(ctx, [(0, c)])

    @classmethod
    def x(cls, ctx: Field) -> "Poly":
        return cls(ctx, [(1, 1)])

    @classmethod
    def monomial(cls, ctx: Field, c: int, e: int) -> "Poly":
        return cls(ctx, [(e, c)])

    # -- inspection ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1

    def dense(self) -> list[int]:
        d = self.degree
        if d >= _DENSE_CAP:
            raise DegreeTooHigh(f"degree {d} too large for a dense view")
        out = [0] * (d + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def term_pairs(self) -> list[list]:
        """Serialization form: [[exponent, coefficient array], ...]."""
        return [[e, list(self.ctx.coeffs(c))] for e, c in self.terms]

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: int) -> int:
        """Term-wise powering; exact for any exponent size."""
        ctx = self.ctx
        x = ctx.check(x)
        acc = 0
        for e, c in self.terms:
            t = c if e == 0 else ctx.mul(c, ctx.pow(x, e))
            acc = ctx.add(acc, t)
        return acc

    def eval_horner(self, x: int) -> int:
        """Horner on the dense view; cross-check partner of __call__."""
        ctx = self.ctx
        acc = 0
        for c in reversed(self.dense()):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    def eval_all(self) -> np.ndarray:
        """Value table over the whole field: the one-row case of eval_rows."""
        return eval_rows(self.ctx, (self,))[0]

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.ctx, list(self.terms) + list(other.terms))

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, [(e, self.ctx.neg(c)) for e, c in self.terms])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = ctx.add(acc.get(e, 0), ctx.mul(c1, c2))
        return Poly(ctx, acc.items())

    def scale(self, c: int) -> "Poly":
        return Poly(self.ctx, [(e, self.ctx.mul(c, tc)) for e, tc in self.terms])

    def shift(self, b: int) -> "Poly":
        """f(x + b), by Horner on the coefficient list; degree must be modest."""
        if self.degree > 4096:
            raise DegreeTooHigh("shift on a very high-degree polynomial")
        ctx = self.ctx
        b = ctx.check(b)
        acc = []  # acc <- acc * (x + b) + c, low to high: entry j is acc[j-1] + b * acc[j]
        for c in reversed(self.dense()):
            acc = [ctx.add(lo, ctx.mul(b, hi)) for lo, hi in zip([c] + acc, acc + [0])]
        return Poly.from_dense(ctx, acc)

    def reduce_exponents(self) -> "Poly":
        """Reduce mod x^q - x as a map on all of GF(q): e -> ((e-1) mod (q-1)) + 1."""
        n = self.ctx.order - 1
        out = []
        for e, c in self.terms:
            out.append((e if e == 0 else (e - 1) % n + 1, c))
        return Poly(self.ctx, out)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in reversed(self.terms):
            cs = str(c)
            if e == 0:
                bits.append(cs)
            elif e == 1:
                bits.append(f"{cs}*x" if c != 1 else "x")
            else:
                bits.append(f"{cs}*x^{e}" if c != 1 else f"x^{e}")
        return "Poly(" + " + ".join(bits) + ")"


def eval_rows(ctx: Field, polys) -> np.ndarray:
    """(len(polys), q) value table of every polynomial over the whole field.

    The columns are the distinct exponents e >= 1 across the rows, not a
    dense range, so sparse high-degree polynomials cost one column per
    exponent; each e is reduced mod n = q - 1 as a Python int first, and
    e = 0 mod n gives x^e = 1 at x != 0.  Constant terms fill their row.

    Over GF(p) the table is one exact int64 product: out = (consts + C @ V)
    mod p for the (rows, terms) coefficient matrix C and the Vandermonde
    rows V[j, x] = x^(e_j) mod p, each V[j, 0] = 0 and the rest of it one
    gather exp[(log x * (e_j mod n)) mod n].  V is built in chunks of
    k <= rows exponents, so it never holds more entries than out.  The
    log-table gate gives p <= 2^20, so each product is below 2^40, and k
    terms sum below k*(p-1)^2 + p < 2^63 for every k < 2^22.  So out is
    reduced mod p before a chunk would take the terms summed since its
    last reduction past 2^22 - 1, and once at the end; a one-row
    evaluation, one exponent per chunk, thus reduces once, not per term.

    Over GF(p^m), m > 1, each column is one log-domain gather: c*x^e is
    exp[(log x * (e mod n)) mod n + log c] at x != 0 and 0 at x = 0.  exp
    holds 2n entries, so only the n-long exponent vector is reduced mod n.
    A row whose coefficient in a column is zero has log c = -1, still a
    valid index, and is masked to 0.  Terms are summed by XOR for p = 2.
    For odd p each term is one packed int64 holding its m base-p digits
    in bit fields of width 63 // m (Field._packed_digits), so it costs one
    gather and one add; after cap terms (fields._packed_headroom: at least
    15 below the 2^20 gate) the sum is unpacked and packed again, before
    any field can carry into the next, and once more at the end.  A row
    over another field is a FieldMismatch."""
    rows = len(polys)
    consts = [0] * rows
    cols = {}  # exponent -> coefficient of every row
    for i, f in enumerate(polys):
        if f.ctx != ctx:
            raise FieldMismatch(f"row {i} is a polynomial over {f.ctx!r}, evaluated over {ctx!r}")
        for e, c in f.terms:
            if e == 0:
                consts[i] = c
            else:
                cols.setdefault(e, [0] * rows)[i] = c
    return _eval_terms(ctx, consts, list(cols), list(cols.values()))


def eval_coeff_rows(ctx: Field, coeffs) -> np.ndarray:
    """(T, q) value table over the whole field of each polynomial whose
    dense coefficients, constant first, are a row of the (T, k) matrix
    coeffs, entries in [0, q) or FieldMismatch.  eval_rows without Poly objects."""
    coeffs = _coeff_matrix(ctx, coeffs)
    cols = coeffs[:, 1:].T
    used = np.flatnonzero(cols.any(axis=1))
    return _eval_terms(ctx, coeffs[:, 0].tolist(), (used + 1).tolist(), cols[used])


def _coeff_matrix(ctx: Field, coeffs, what="coefficient rows") -> np.ndarray:
    """coeffs as a (T, k >= 1) int64 matrix over ctx, else a DegreeMismatch or FieldMismatch."""
    coeffs, q = np.asarray(coeffs), ctx.order
    if coeffs.ndim != 2 or not coeffs.shape[1]:
        raise DegreeMismatch(f"{what} need a (T, k) matrix with k >= 1, not {coeffs.shape}")
    if coeffs.size and (coeffs.dtype.kind not in "iu" or coeffs.min() < 0 or coeffs.max() >= q):
        raise FieldMismatch(f"{what} over GF({q}) need integer entries in [0, {q})")
    return coeffs.astype(np.int64, copy=False)


def affine_rows(ctx: Field, coeffs, a, b, c) -> np.ndarray:
    """Dense coefficient rows (constant first) of a_t*f_t(x + b_t) + c_t for each
    row f_t of the (T, k) matrix coeffs: coefficient j is a * sum_{i >= j}
    C(i, j) f_i b^(i-j), plus c at j = 0, with C(i, j) mod p a prime-field
    element.  One pow_vec, two mul_vec and one add_vec per power b^d, d < k."""
    F = _coeff_matrix(ctx, coeffs)
    abc = [np.asarray(v) for v in (a, b, c)]
    if any(v.shape != F.shape[:1] for v in abc):
        raise DegreeMismatch(f"a, b and c need one entry per coefficient row, {len(F)}")
    a, b, c = _coeff_matrix(ctx, np.stack(abc, axis=1), "a, b and c").T
    out, k = F.copy(), F.shape[1]
    for d in range(1, k):
        w = ctx.mul_vec(ctx.pow_vec(b, d)[:, None], [math.comb(j + d, d) % ctx.p for j in range(k - d)])
        out[:, :k - d] = ctx.add_vec(out[:, :k - d], ctx.mul_vec(F[:, d:], w))
    out = ctx.mul_vec(a[:, None], out)
    out[:, 0] = ctx.add_vec(out[:, 0], c)
    return out


def _eval_terms(ctx: Field, consts: list, exps: list, coeffs) -> np.ndarray:
    """The evaluation behind eval_rows: consts[t] + sum_j coeffs[j][t] x^exps[j]
    for each row t, as a (len(consts), q) table; exps are distinct ints
    >= 1, and no row of the (len(exps), len(consts)) matrix coeffs, an
    array or nested lists, is all zero.  Products log x * (e mod n) < n^2 <=
    2^40 are reduced by floor division (fields._reduce_mod), exact in int64."""
    q, p = ctx.order, ctx.p
    rows = len(consts)
    out = np.zeros((rows, q), dtype=np.int64)
    if any(consts):
        out += np.asarray(consts, dtype=np.int64)[:, None]
    if not exps:
        return out
    ctx._ensure_tables()
    n = q - 1
    exp, log, log_x = ctx._exp, ctx._log, ctx._log[1:]
    es = [e % n for e in exps]  # in Python ints: e may be far above 2^63
    if ctx.m == 1:
        es, C = np.array(es, dtype=np.int64), np.asarray(coeffs, dtype=np.int64).T
        k = min(rows, _SUM_TERMS)
        V = np.zeros((min(k, len(es)), q), dtype=np.int64)  # V[:, 0] = 0^e = 0
        summed = 0  # terms added to out since it was last reduced mod p
        for lo in range(0, len(es), k):
            hi = min(lo + k, len(es))
            if summed + hi - lo > _SUM_TERMS:
                out %= p
                summed = 0
            np.take(exp, _reduce_mod(log_x * es[lo:hi, None], n), out=V[:hi - lo, 1:], mode="clip")  # clip: no buffer
            out += C[:, lo:hi] @ V[:hi - lo]
            summed += hi - lo
        out %= p
        return out
    coeffs = np.asarray(coeffs, dtype=np.int64)
    log_c = log[coeffs][:, :, None]
    zero = coeffs == 0
    if not zero.any():
        zero = None
    units = out[:, 1:]
    single = len(exps) == 1 and not any(consts)
    digits = p != 2 and not single
    if digits:
        packed, width, cap = ctx._packed_digits()
        acc = np.repeat(packed[consts], n).reshape(units.shape)
        terms = 1  # the constant counts as one term
    for j, e in enumerate(es):
        t = exp[_reduce_mod(log_x * e, n) + log_c[j]]
        if zero is not None:
            t[zero[j]] = 0
        if single:
            units[:] = t
        elif p == 2:
            units ^= t
        else:
            if terms == cap:
                acc = packed[_unpack(ctx, acc, width, terms)]
                terms = 1
            acc += packed[t]
            terms += 1
    if digits:
        units[:] = _unpack(ctx, acc, width, terms)
    return out


def additive_witness(ctx: Field, vals: np.ndarray):
    """First x with f(x+y) != f(x) + f(y) for some y, f the whole-field
    value table vals; None when f is additive.  Exhaustive: q vector
    comparisons of length q."""
    xs = ctx.elements_array()
    for x in ctx.elements():
        if not np.array_equal(vals[ctx.add_vec(np.int64(x), xs)], ctx.add_vec(int(vals[x]), vals)):
            return x
    return None


def is_additive(f: Poly) -> bool:
    """True iff f(x+y) = f(x) + f(y) for all x, y.

    Decided structurally (every exponent a power of p); a structural miss
    falls back to exhaustive verification for q <= 2^10, since exponent
    collapse mod x^q - x can make a non-structural polynomial additive as
    a map.
    """
    ctx = f.ctx
    if all(exact_log(e, ctx.p) is not None for e, _ in f.terms):
        return True
    if ctx.order > 2 ** 10:
        return False
    return additive_witness(ctx, f.eval_all()) is None


class LinearizedPoly(Poly):
    """sum a_i x^{q_sub^i} over GF(q_sub^rel): additive and GF(q_sub)-linear.
    A Poly with those terms; l_coeffs holds every a_i, i < rel_degree."""

    def __init__(self, ctx: Field, q_sub: int, l_coeffs):
        k = exact_log(q_sub, ctx.p)
        if not k or ctx.m % k:
            raise DegreeMismatch(f"q_sub={q_sub} is not a valid subfield size for {ctx!r}")
        self.q_sub = q_sub
        self.sub_degree = k
        self.rel_degree = ctx.m // k
        l_coeffs = [ctx.check(c) for c in l_coeffs]
        if len(l_coeffs) > self.rel_degree:
            raise DegreeMismatch("too many linearized coefficients")
        l_coeffs += [0] * (self.rel_degree - len(l_coeffs))
        self.l_coeffs = tuple(l_coeffs)
        self._rank = None
        super().__init__(ctx, [(q_sub ** i, c) for i, c in enumerate(l_coeffs)])

    def rank(self) -> int:
        """Rank as a GF(q_sub)-linear map, computed once: see linearized_ranks."""
        return self._rank if self._rank is not None else linearized_ranks([self])[0]


def linearized_ranks(Ls) -> list[int]:
    """Rank of each LinearizedPoly of the list Ls, all over one field, also
    cached on each L for L.rank().

    The integer p^i encodes xbar^i, and row i of L's m x m matrix over
    GF(p) holds the digits of L(p^i) = sum_j a_j (p^i)^(Q^j), Q = q_sub;
    the rows span the image, a GF(Q)-subspace, so their GF(p)-rank is
    sub_degree times the rank.  Per Q, the (B, m, rel) values
    exp[(log p^i * Q^j) mod n + log a_j] are one log-domain gather
    (FieldTooLarge above the 2^20 gate), summed mod p one digit position
    at a time into the (B, m, m) digit stack; one _stacked_rank ranks it.
    B = 1 costs more than row_reduce: some ten numpy calls per column."""
    ctx = Ls[0].ctx if Ls else None
    if any(L.ctx != ctx for L in Ls):
        raise FieldMismatch(f"linearized_ranks needs polynomials over one field, {ctx!r}")
    if not Ls:
        return []
    ctx._ensure_tables()
    p, n, exp, log = ctx.p, ctx.order - 1, ctx._exp, ctx._log
    log_x = log[np.asarray(ctx._pow_p, dtype=np.int64)][:, None]
    stack = np.empty((len(Ls), ctx.m, ctx.m), dtype=np.int64)
    for Q in {L.q_sub for L in Ls}:
        idx = [b for b, L in enumerate(Ls) if L.q_sub == Q]
        coeffs = np.array([Ls[b].l_coeffs for b in idx], dtype=np.int64)
        frob = np.array([pow(Q, j, n) for j in range(coeffs.shape[1])], dtype=np.int64)
        vals = exp[_reduce_mod(log_x * frob, n) + log[coeffs][:, None, :]]  # log 0 = -1: masked next
        vals *= (coeffs != 0)[:, None, :]
        for d, pd in enumerate(ctx._pow_p):
            stack[idx, :, d] = (vals // pd % p).sum(axis=2) % p
    for L, r in zip(Ls, _stacked_rank(stack, p).tolist()):
        L._rank = r // L.sub_degree
    return [L._rank for L in Ls]


def value_table(f, ctx: Field | None = None):
    """(field, whole-field int64 value table) of a map: a polynomial, over
    ctx when ctx is given, or a raw table of q integer entries in [0, q)
    over ctx.  Anything else over ctx is a FieldMismatch."""
    if isinstance(f, Poly):
        if ctx is not None and f.ctx != ctx:
            raise FieldMismatch(f"a polynomial over {f.ctx!r} used as a map on {ctx!r}")
        return f.ctx, f.eval_all()
    if isinstance(f, np.ndarray):
        if ctx is None:
            raise ZeroInput("a raw value table needs its Field")
        q = ctx.order
        if f.shape != (q,) or f.dtype.kind not in "iu" or f.min() < 0 or f.max() >= q:
            raise FieldMismatch(f"a value table over GF({q}) needs {q} integer entries in [0, {q})")
        return ctx, f.astype(np.int64, copy=False)
    raise TypeError(f"unsupported map object {type(f)!r}")


# ----------------------------------------------------------------------
# Exact linear algebra over a Field.
# ----------------------------------------------------------------------

def row_reduce(ctx: Field, rows: list[list[int]]) -> int:
    """In-place RREF over ctx; returns the rank.

    Scalar Gauss-Jordan through ctx's own inv, mul, add and neg, so it
    works at any order: below the 2^20 gate inv reads the log tables,
    GF(p)'s too, and above it powers.  Every entry is checked on entry
    (FieldMismatch), rows of unequal length raise DegreeMismatch, and the
    reduced rows are written back into rows as lists of ints."""
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise DegreeMismatch(f"row {i} has {len(row)} entries, row 0 has {ncols}")
        rows[i] = [ctx.check(v) for v in row]
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # columns left of col are already zero in the pivot row
        inv = ctx.inv(rows[r][col])
        tail = [ctx.mul(inv, v) for v in rows[r][col:]]
        rows[r] = [0] * col + tail
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = ctx.neg(row[col])
                rows[i] = row[:col] + [ctx.add(a, ctx.mul(f, b)) if b else a
                                       for a, b in zip(row[col:], tail)]
        r += 1
    return r


def matrix_rank(ctx: Field, mat: list[list[int]]) -> int:
    return row_reduce(ctx, [list(row) for row in mat])


def _stacked_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """GF(p)-rank of every matrix of a (B, r, c) int64 stack with entries in
    [0, p), by one fraction-free forward elimination of the stack in place.
    Per column, each matrix with a nonzero entry there at or below its
    rank so far swaps the first such row up as its pivot row; every row
    below becomes pivot * row - f * pivot_row mod p, f its entry in the
    column, and every row above pivot * row mod p.  Both products are at
    most (p - 1)^2, so the difference lies within +-p^2 < 2^62 for every
    p < 2^31 (Field's bound on p) and int64 is exact."""
    rank = np.zeros(len(stack), dtype=np.int64)
    row = np.arange(stack.shape[1])
    for col in range(stack.shape[2]):
        live = (stack[:, :, col] != 0) & (row >= rank[:, None])
        b = np.flatnonzero(live.any(axis=1))
        if not b.size:
            continue
        top, piv = rank[b], live[b].argmax(axis=1)
        prow = stack[b, piv, col:]
        stack[b, piv, col:] = stack[b, top, col:]
        f = np.where(row > top[:, None], stack[b, :, col], 0)[:, :, None]
        sub = stack[b, :, col:]
        sub *= prow[:, None, :1]
        sub -= f * prow[:, None, :]
        sub %= p
        sub[np.arange(b.size), top] = prow
        stack[b, :, col:] = sub
        rank[b] += 1
    return rank


def roots_of_unity_interpolate_rows(ctx: Field, omega: int, values) -> np.ndarray:
    """(T, ell) coefficient rows of the polynomials h of degree < ell with
    h(omega^i) = values[t, i], one per row of the (T, ell) value matrix,
    for omega of multiplicative order exactly ell: the inverse DFT
    h_j = ell^-1 * sum_i values[i] * omega^(-ij).

    Worked in the log domain, one gather per i for all rows and all j:
    omega^(-ij) * values[i] is exp[(log values[i] - i*j*log omega) mod (q - 1)],
    0 where values[i] = 0; the ell terms are summed with add_vec, then
    scaled by ell^-1 (ell divides q - 1, so it is a unit of the prime
    field)."""
    values = _coeff_matrix(ctx, values, "values")
    rows, ell = values.shape
    n = ctx.order - 1
    log_w = ctx.log(omega)
    if n // math.gcd(log_w, n) != ell:
        raise SingularSystem(f"{omega} does not have multiplicative order {ell}")
    exp, log = ctx._exp, ctx._log
    step = log_w * np.arange(ell, dtype=np.int64)
    out = np.zeros((rows, ell), dtype=np.int64)
    for i in range(ell):
        v = values[:, i, None]
        out = ctx.add_vec(out, np.where(v != 0, exp[(log[v] - i * step) % n], 0))
    return ctx.scalar_mul_vec(ctx.inv(ell % ctx.p), out)
