"""Exact Walsh transforms over Z[omega] and the spectral n-to-1 test.

Everything here is integer or rational arithmetic: the verdict is an exact
equality against 1 or 0, so floating point has no place.  omega is a
primitive p-th root of unity, and a Z[omega] value is a count vector: p
integers c with value sum_i c_i omega^i.  Since 1 + omega + ... + omega^{p-1}
= 0, c and c + k(1, ..., 1) are the same value; the value is rational iff
c_1 = ... = c_{p-1}, and it is then c_0 - c_{p-1}.

The spectral test needs the power sums S_j at v = 0 of the j-fold additive
convolution of T: v -> W_F(0, v).  By the orthogonality of additive
characters, sum_v W_F(0, v) omega^{-tr(yv)} = q N_y with N_y = |f^{-1}(y)|,
so S_j = q^{j-1} M_j with the fiber moments M_j = sum_y N_y^j.  The paper's
char sum A_0 + sum_j A_j p^{m-jm} S_j is therefore A_0 + sum_j A_j M_j;
its gadget is `phi(n, p, m)`, X(X - n)^2, for n | q or n = 2 with q odd.
`fiber_size_rows` is the one blocked kernel, value tables in and fiber
sizes out; per block one trace-exponent gather, one bincount for every
(map, v), the m batched character-kernel matmuls and the rationality
check.  `walsh_zero_table`, `char_sum` and `spectral_verdict` are its one-row case.
`additive_convolution`, which builds the whole convolution table, is kept
as the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional

import numpy as np

from .counting import row_blocks, row_counts
from .errors import (
    DegreeTooHigh, DomainTooLarge, FieldMismatch, PowerSumNotRational, ZeroInput,
)
from .fields import Field
from .polys import value_table

_WALSH_DOMAIN_CAP = 2 ** 12
_PHI_J_CAP = 8
_PHI_DEN_CAP = 2 ** 31


@dataclass(frozen=True)
class PhiGadget:
    """Rational polynomial phi whose value pattern on fiber sizes encodes the
    n-to-1 verdict: A_0 + sum_j A_j M_j equals the bound, 0 when n | q and
    1 otherwise, exactly when the map is n-to-1."""

    coeffs: tuple  # Fractions A_0..A_J
    n: int
    p: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ZeroInput(f"a gadget needs n >= 1, got n={self.n}")

    @property
    def bound(self) -> Fraction:
        return Fraction(0) if self.order % self.n == 0 else Fraction(1)

    @property
    def order(self) -> int:
        return self.p ** self.m


@lru_cache(maxsize=None)
def _scaled(coeffs: tuple) -> tuple:
    """(den, ints) of a gadget's coefficients: den their common denominator
    and ints[j] = den * A_j as Python ints, so phi = sum_j ints[j] X^j / den."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return den, tuple(int(Fraction(c) * den) for c in coeffs)


def phi(n: int, p: int, m: int) -> PhiGadget:
    """X(X-n)^2, the n-to-1 pattern over GF(p^m) when n divides q (bound 0)
    or n = 2 with q odd (bound 1); any other n is refused."""
    g = PhiGadget(coeffs=(Fraction(0), Fraction(n * n), Fraction(-2 * n), Fraction(1)), n=n, p=p, m=m)
    if n != 2 and g.order % n:
        raise ZeroInput(f"phi needs n | q or n = 2, got n={n}, q={g.order}")
    return g


def validate_phi(g: PhiGadget):
    """Evaluate phi over every integer in [0, p^m] and check the pattern
    that makes the char sum decide n-to-1: phi(0) = phi(n) = 0; with
    t = q mod n > 0, phi(t) = 1; phi(X) > bound at every other X.
    Returns (ok, violating_X)."""
    if len(g.coeffs) - 1 > _PHI_J_CAP:
        return False, None
    if any(Fraction(c).denominator > _PHI_DEN_CAP for c in g.coeffs):
        return False, None
    q = g.order
    t = q % g.n
    den, ints = _scaled(g.coeffs)  # v = den * phi(X) in Python ints
    floor = int(g.bound) * den
    for X in range(q + 1):
        v = 0
        for a in reversed(ints):
            v = v * X + a
        if X in (0, g.n):
            ok = v == 0
        elif X == t:
            ok = v == den
        else:
            ok = v > floor
        if not ok:
            return False, X
    return True, None


def walsh(f, u: int, v: int, ctx: Optional[Field] = None) -> np.ndarray:
    """W_F(u, v) = sum_x omega^{tr(v f(x)) + tr(u x)} as its (p,) count
    vector; at u = 0 it is row v of walsh_zero_table."""
    ctx, values = value_table(f, ctx)
    if ctx.order > _WALSH_DOMAIN_CAP:
        raise DomainTooLarge(f"field order {ctx.order} exceeds 2^12")
    tr = ctx.trace_to_prime_table()
    xs = ctx.elements_array()
    expo = (tr[ctx.scalar_mul_vec(v, values)] + tr[ctx.scalar_mul_vec(u, xs)]) % ctx.p
    return np.bincount(expo, minlength=ctx.p)


def walsh_zero_table(f, ctx: Optional[Field] = None) -> np.ndarray:
    """All W_F(0, v) as a (q, p) matrix of count vectors (row v counts
    omega^0..omega^{p-1}): the one-row case of fiber_size_rows' tables."""
    ctx, values = value_table(f, ctx)
    return next(_zero_tables(ctx, values[None]))[2][0]


def additive_convolution(ctx: Field, U: np.ndarray, T: np.ndarray) -> np.ndarray:
    """R[w] = sum_{v1 + v2 = w} U[v1] * T[v2], the additive-group convolution
    with Z[X]/(X^p - 1) multiplication along rows: omega^i times a count
    vector is its cyclic shift by i."""
    R = np.zeros_like(T)
    xs = ctx.elements_array()
    for v in range(len(T)):
        w = ctx.add_vec(np.int64(v), xs)
        for i in np.flatnonzero(U[v]).tolist():
            R[w] += U[v][i] * np.roll(T, i, axis=1)
    return R


@lru_cache(maxsize=None)
def _character_kernel(p: int) -> np.ndarray:
    """The 0/1 (p^2, p^2) matrix sending (v, c) to (u, c + uv mod p): one
    digit's step of sum_v T[v] omega^{<u, v>}, multiplication by omega^{uv}
    being a cyclic shift of the p coordinates."""
    d, c = np.divmod(np.arange(p * p), p)
    K = ((c[:, None] + d[:, None] * d[None, :]) % p == c[None, :]).astype(np.int64)
    K.flags.writeable = False  # shared by every caller through the cache
    return K


def _zero_tables(ctx: Field, V: np.ndarray):
    """Yield (lo, hi, T) per row_blocks block of V's rows (about 2^14 (map,
    v, x) entries, or one map whose v then run in passes of that size), T
    their (hi - lo, q, p) Walsh zero tables: T[r, v] counts tr(v V[r, x]) =
    tr_exp[lg[v] + lg[V[r, x]]] over x, from lg = log (2n at 0, n = q - 1)
    and tr_exp[k] = tr(beta^k) (0 from 2n), built per call, never memoised."""
    q, p, n = ctx.order, ctx.p, ctx.order - 1
    if q > _WALSH_DOMAIN_CAP:
        raise DomainTooLarge(f"field order {q} exceeds 2^12")
    ctx._ensure_tables()
    lg = np.where(ctx._log < 0, 2 * n, ctx._log)
    tr_exp = np.zeros(4 * n + 1, dtype=np.int64)
    tr_exp[:2 * n] = ctx.trace_to_prime_table()[ctx._exp]
    for lo, hi in row_blocks(len(V), q * q):
        b = hi - lo
        T = np.empty((b, q, p), dtype=np.int64)
        for vlo, vhi in row_blocks(q, b * q):
            k = vhi - vlo
            table = tr_exp[lg + lg[vlo:vhi, None]].T + p * np.arange(k)  # [y, v]: tr(v y) + p v
            key = table[V[lo:hi]]
            key += p * k * np.arange(b)[:, None, None]  # so (r, v) counts in its own p bins
            T[:, vlo:vhi] = np.bincount(key.ravel(), minlength=b * k * p).reshape(b, k, p)
        yield lo, hi, T


def _transform(ctx: Field, T: np.ndarray, first: int = 0) -> np.ndarray:
    """N with q N[r, u] = sum_v T[r, v] omega^{<u, v>} over the base-p digit
    pairing for a (b, q, p) stack of Walsh zero tables, by m int64 matmuls
    of the (b, q/p, p^2) stack with the kernel that pairs the last digit and
    moves it to the front (counts at most q^2); row r holds map r's N_y in
    some order.  Raises PowerSumNotRational naming the row (from first) and
    u unless every sum is q times an integer in [0, q]."""
    q, p, b = ctx.order, ctx.p, len(T)
    K = _character_kernel(p)
    for _ in range(ctx.m):
        T = (T.reshape(b, -1, p * p) @ K).reshape(b, -1, p, p).transpose(0, 2, 1, 3)
    T = T.reshape(b, q, p)
    val = T[..., 0] - T[..., -1]
    bad = (T[..., 1:] != T[..., -1:]).any(axis=-1) | (val % q != 0) | (val < 0) | (val > q * q)
    if bad.any():
        r, u = np.argwhere(bad)[0].tolist()
        raise PowerSumNotRational(f"character sum {T[r, u].tolist()} of row {first + r} at "
                                  f"u={u} is not q = {q} times a fiber size")
    return val // q


def fiber_size_rows(ctx: Field, V: np.ndarray) -> np.ndarray:
    """The blocked kernel: the (B, q) fiber sizes, in _transform's order, of
    the maps whose value tables are the rows of V, per _zero_tables block."""
    q = ctx.order
    if (V.ndim != 2 or V.shape[1] != q or V.dtype.kind not in "iu"
            or (V.size and (V.min() < 0 or V.max() >= q))):
        raise FieldMismatch(f"value tables over GF({q}) need rows of {q} integer entries in [0, {q})")
    N = np.empty(V.shape, dtype=np.int64)
    for lo, hi, T in _zero_tables(ctx, V):
        N[lo:hi] = _transform(ctx, T, lo)
    return N


def _fiber_moments(N: np.ndarray, J: int) -> np.ndarray:
    """(B, J) object array of the moments M_j = sum_y N_y^j (S_j / q^{j-1})
    as Python ints for every row of N: one row_counts gives #{y : N_y = n},
    and the sizes n that occur are raised to exact powers."""
    counts = row_counts(N, N.shape[1] + 1)
    sizes = np.flatnonzero(counts.any(axis=0)).tolist()
    powers = np.array([[n ** j for j in range(1, J + 1)] for n in sizes], dtype=object)
    return counts[:, sizes].astype(object) @ powers.reshape(len(sizes), J)


def char_sum_rows(ctx: Field, N: np.ndarray, *gadgets: PhiGadget) -> list:
    """For each gadget, the char_sum A_0 + sum_j A_j M_j of every row of N
    as Fractions, from one object matmul of the moments, read once; [] for no gadget."""
    if not gadgets:
        return []
    J = max(len(g.coeffs) - 1 for g in gadgets)
    if J > _PHI_J_CAP:
        raise DegreeTooHigh(f"char_sum supports degree <= {_PHI_J_CAP}, got {J}")
    if any(g.p != ctx.p or g.m != ctx.m for g in gadgets):
        raise ZeroInput("gadget was built for a different field")
    moments = _fiber_moments(N, J)
    scaled = [(den, a[0] + moments[:, :len(a) - 1] @ np.array(a[1:], dtype=object))
              for den, a in (_scaled(g.coeffs) for g in gadgets)]
    return [[Fraction(s, den) for s in sums.tolist()] for den, sums in scaled]


def char_sum(f, gadget: PhiGadget, ctx: Optional[Field] = None) -> Fraction:
    """The exact characterization value A_0 + sum_j A_j p^{m-jm} S_j, as
    A_0 + sum_j A_j M_j: the one-row case of fiber_size_rows and
    char_sum_rows, for every gadget degree validate_phi accepts."""
    ctx, values = value_table(f, ctx)
    return char_sum_rows(ctx, fiber_size_rows(ctx, values[None]), gadget)[0][0]


def spectral_verdict(f, gadget: PhiGadget, ctx: Optional[Field] = None) -> bool:
    """True iff the characterization sum sits exactly at the gadget's bound,
    which holds iff f is gadget.n-to-1."""
    return char_sum(f, gadget, ctx) == gadget.bound
