"""Polynomials over a Field, both as coefficient data and as maps.

Sparse exponent-coefficient pairs are the canonical form, because the
construction families use exponents far above the field size (reduction
mod x^q - x is explicit, never silent).  A dense view exists for Horner
evaluation, for shift (Horner on a plain coefficient list, one Poly built
at the end) and for compose on low-degree polynomials.  eval_all works in
the log domain: one table gather per term, no per-term powering.

row_reduce eliminates a whole column per pivot with the vector kernels,
so it needs the log tables (order <= 2^20).  It is the one elimination
here: LinearizedPoly.rank reduces a single m x m digit matrix over GF(p)
with it, with no change of basis to GF(q_sub).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstantPolynomial, DegreeTooHigh, DegreeMismatch, SingularSystem
from .fields import Field

_COMPOSE_DEGREE_CAP = 64
_DENSE_CAP = 1 << 22


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
            if c == 0 and e not in acc:
                continue
            acc[e] = ctx.add(acc.get(e, 0), c)
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

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: int) -> int:
        for te, tc in self.terms:
            if te == e:
                return tc
        return 0

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
        """Value table over the whole field, one log-domain gather per term.

        For e >= 1 the term c*x^e is exp[(log c + log x * (e mod n)) mod n]
        at x != 0 (n = q - 1) and 0 at x = 0; a constant term adds c
        everywhere.  The index stays below n + n^2 <= 2^40 at the 2^20
        log-table gate.  Terms are summed by XOR for p = 2; for odd p their
        digit vectors are summed and reduced mod p once at the end."""
        ctx = self.ctx
        q, p = ctx.order, ctx.p
        const = self.terms[0][1] if self.terms and self.terms[0][0] == 0 else 0
        powers = self.terms[1:] if const else self.terms
        out = np.full(q, const, dtype=np.int64)
        if not powers:
            return out
        ctx._ensure_tables()
        n = q - 1
        exp, log = ctx._exp, ctx._log
        log_x = log[1:]

        def values_at_units(e, c):
            return exp[(log_x * (e % n) + int(log[c])) % n]

        if p == 2:
            for e, c in powers:
                out[1:] ^= values_at_units(e, c)
        elif len(powers) == 1 and not const:
            out[1:] = values_at_units(*powers[0])
        else:
            dig = ctx._digit_matrix()
            acc = np.tile(dig[const], (n, 1))
            for e, c in powers:
                acc += dig[values_at_units(e, c)]
            out[1:] = (acc % p) @ np.asarray(ctx._pow_p, dtype=np.int64)
        return out

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
        coeffs = self.dense()
        if b == 0 or not coeffs:
            return Poly(ctx, self.terms)
        # acc <- acc * (x + b) + c on a low-to-high list; coefficient j of
        # acc * (x + b) is acc[j-1] + b * acc[j], so update from the top
        acc = [coeffs[-1]]
        for c in reversed(coeffs[:-1]):
            acc.append(acc[-1])
            for j in range(len(acc) - 2, 0, -1):
                acc[j] = ctx.add(acc[j - 1], ctx.mul(b, acc[j]))
            acc[0] = ctx.add(ctx.mul(b, acc[0]), c)
        return Poly.from_dense(ctx, acc)

    def compose(self, inner: "Poly") -> "Poly":
        """Symbolic self(inner(x)); both degrees gated at 64."""
        if self.degree > _COMPOSE_DEGREE_CAP or inner.degree > _COMPOSE_DEGREE_CAP:
            raise DegreeTooHigh("compose is only for degree <= 64 operands")
        ctx = self.ctx
        acc = Poly.zero(ctx)
        for c in reversed(self.dense()):
            acc = acc * inner + Poly.constant(ctx, c)
        return acc

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


def normalize(f: Poly):
    """Return (g, (a, b, c)) with g(x) = a*f(x+b) + c monic, g(0) = 0, and the
    x^{d-1} coefficient killed when gcd(p, d) = 1 (left alone otherwise, b=0)."""
    d = f.degree
    if d < 1:
        raise ConstantPolynomial("cannot normalize a constant")
    ctx = f.ctx
    a = ctx.inv(f.coeff(d))
    if math.gcd(ctx.p, d) == 1:
        # monic form has x^{d-1} coefficient a*c_{d-1} + d*b; solve for b
        b = ctx.neg(ctx.div(ctx.mul(a, f.coeff(d - 1)), d % ctx.p))
    else:
        b = 0
    c = ctx.neg(ctx.mul(a, f(b)))
    g = apply_affine(f, a, b, c)
    assert g.coeff(d) == 1 and g.coeff(0) == 0
    if math.gcd(ctx.p, d) == 1:
        assert g.coeff(d - 1) == 0
    return g, (a, b, c)


def apply_affine(f: Poly, a: int, b: int, c: int) -> Poly:
    """a*f(x+b) + c, built as one Poly from the shifted terms."""
    ctx = f.ctx
    return Poly(ctx, [(e, ctx.mul(a, tc)) for e, tc in f.shift(b).terms] + [(0, c)])


def _is_p_power(e: int, p: int) -> bool:
    if e < 1:
        return False
    while e % p == 0:
        e //= p
    return e == 1


def is_additive(f: Poly) -> bool:
    """True iff f(x+y) = f(x) + f(y) for all x, y.

    Decided structurally (every exponent a power of p); a structural miss
    falls back to exhaustive verification for q <= 2^10, since exponent
    collapse mod x^q - x can make a non-structural polynomial additive as
    a map.
    """
    ctx = f.ctx
    if all(_is_p_power(e, ctx.p) for e, _ in f.terms):
        return True
    if ctx.order > 2 ** 10:
        return False
    vals = f.eval_all()
    xs = ctx.elements_array()
    for x in range(ctx.order):
        if not np.array_equal(vals[ctx.add_vec(np.int64(x), xs)], ctx.add_vec(vals[x], vals)):
            return False
    return True


class LinearizedPoly:
    """sum a_i x^{q_sub^i} over GF(q_sub^rel): additive and GF(q_sub)-linear."""

    def __init__(self, ctx: Field, q_sub: int, l_coeffs):
        self.ctx = ctx
        k = 0
        t = q_sub
        while t % ctx.p == 0 and t > 1:
            t //= ctx.p
            k += 1
        if t != 1 or k == 0 or ctx.m % k:
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

    def as_poly(self) -> Poly:
        return Poly(self.ctx, [(self.q_sub ** i, c) for i, c in enumerate(self.l_coeffs)])

    def __call__(self, x: int) -> int:
        return self.as_poly()(x)

    def eval_all(self) -> np.ndarray:
        return self.as_poly().eval_all()

    def kernel(self) -> list[int]:
        vals = self.eval_all()
        return [int(x) for x in np.nonzero(vals == 0)[0]]

    def rank(self) -> int:
        """Rank as a GF(q_sub)-linear map; computed once per instance.

        The integer p^i encodes xbar^i, so the digit vectors of L(p^i) for
        i < m span the image over GF(p); one row_reduce over GF(p) gives its
        GF(p)-dimension.  The image is a GF(q_sub)-subspace, so that
        dimension is exactly sub_degree times the rank."""
        if self._rank is None:
            ctx = self.ctx
            fmap = self.as_poly()
            rows = [ctx.coeffs(fmap(ctx.p ** i)) for i in range(ctx.m)]
            self._rank = matrix_rank(Field(ctx.p, 1), rows) // self.sub_degree
        return self._rank


# ----------------------------------------------------------------------
# Exact linear algebra over a Field (small systems only).
# ----------------------------------------------------------------------

def row_reduce(ctx: Field, rows: list[list[int]]) -> int:
    """In-place RREF over ctx; returns the rank.

    Every entry is checked once on entry (FieldMismatch).  Each pivot
    clears its whole column with one vector product, and the reduced rows
    are written back into rows as lists of ints."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
    M = np.asarray(rows)
    if M.dtype.kind not in "biu" or M.shape != (nrows, ncols):
        for row in rows:
            for v in row:
                ctx.check(v)
        M = np.asarray(rows)
    bad = np.argwhere((M < 0) | (M >= ctx.order))
    if bad.size:
        i, j = bad[0]
        ctx.check(rows[i][j])
    M = M.astype(np.int64)
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(M[r:, col])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = ctx.scalar_mul_vec(ctx.inv(int(M[r, col])), M[r])
        f = M[:, col].copy()
        f[r] = 0
        M = ctx.sub_vec(M, ctx.mul_vec(f[:, None], M[r][None, :]))
        r += 1
    rows[:] = M.tolist()
    return r


def matrix_rank(ctx: Field, mat: list[list[int]]) -> int:
    return row_reduce(ctx, [list(row) for row in mat])


def solve_linear(ctx: Field, mat: list[list[int]], rhs: list[int]) -> list[int]:
    """Solve the square system mat * x = rhs by Gaussian elimination; exact."""
    n = len(mat)
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    rank = row_reduce(ctx, aug)
    if rank < n or any(all(v == 0 for v in row[:n]) and row[n] != 0 for row in aug):
        raise SingularSystem("linear system is singular or inconsistent")
    # rows are in RREF with unit pivots on the diagonal
    sol = [0] * n
    for row in aug:
        lead = next(i for i, v in enumerate(row[:n]) if v != 0)
        sol[lead] = row[n]
    return sol


def vandermonde_solve(ctx: Field, points: list[int], values: list[int]) -> list[int]:
    """Coefficients of the unique polynomial of degree < len(points) through
    (points[i], values[i]), via exact Gaussian elimination on the Vandermonde
    matrix."""
    n = len(points)
    mat = [[ctx.pow(pt, j) if j else 1 for j in range(n)] for pt in points]
    return solve_linear(ctx, mat, list(values))
