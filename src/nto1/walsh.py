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
char sum A_0 + sum_j A_j p^{m-jm} S_j is therefore A_0 + sum_j A_j M_j.
`_fiber_sizes` reads the N_y off one character transform of T;
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

from .errors import DegreeTooHigh, DomainTooLarge, PowerSumNotRational, ZeroInput
from .fields import Field
from .polys import value_table

_WALSH_DOMAIN_CAP = 2 ** 12
# elements per vectorised block, so that q = 2^12 never allocates q^2 at once
_BLOCK_ELEMS = 2 ** 16
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


def phi_two(p: int, m: int) -> PhiGadget:
    """X(X-2)^2, the 2-to-1 pattern for odd q."""
    if p == 2:
        raise ZeroInput("nondivisor mode needs n=2 coprime to q")
    return PhiGadget(coeffs=(Fraction(0), Fraction(4), Fraction(-4), Fraction(1)), n=2, p=p, m=m)


def phi_prime_power(p: int, m: int, k: int = 1) -> PhiGadget:
    """X(X-p^k)^2, the p^k-to-1 pattern when p^k divides q."""
    if not 1 <= k <= m:
        raise ZeroInput(f"need 1 <= k <= m, got k={k}")
    pk = p ** k
    return PhiGadget(coeffs=(Fraction(0), Fraction(pk * pk), Fraction(-2 * pk), Fraction(1)), n=pk, p=p, m=m)


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
    """All W_F(0, v) at once, as a (q, p) integer matrix of count vectors
    (row v = multiplicities of omega^0..omega^{p-1})."""
    ctx, values = value_table(f, ctx)
    if ctx.order > _WALSH_DOMAIN_CAP:
        raise DomainTooLarge(f"field order {ctx.order} exceeds 2^12")
    q, p = ctx.order, ctx.p
    tr = ctx.trace_to_prime_table()
    out = np.empty((q, p), dtype=np.int64)
    rows = max(1, _BLOCK_ELEMS // q)
    for start in range(0, q, rows):
        vs = np.arange(start, min(start + rows, q), dtype=np.int64)
        # row i of the block counts its exponents in bins i*p .. i*p + p - 1
        expo = tr[ctx.mul_vec(vs[:, None], values[None, :])]
        expo += p * np.arange(len(vs), dtype=np.int64)[:, None]
        out[vs] = np.bincount(expo.ravel(), minlength=len(vs) * p).reshape(len(vs), p)
    return out


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


def _fiber_sizes(ctx: Field, T: np.ndarray) -> np.ndarray:
    """N with q N[u] = sum_v T[v] omega^{<u, v>} over the base-p digit pairing,
    for the Walsh zero table T: m stages, each an int64 matmul of the (q/p, p^2)
    table with the kernel that pairs the last digit and moves it to the front.
    Coordinates stay counts of at most q^2.  Digit and trace pairings are both
    nondegenerate, so the N[u] are the fiber sizes N_y in some order.  Raises
    PowerSumNotRational unless every sum is q times an integer N >= 0."""
    q, p = ctx.order, ctx.p
    K = _character_kernel(p)
    H = T
    for _ in range(ctx.m):
        H = (H.reshape(-1, p * p) @ K).reshape(-1, p, p).transpose(1, 0, 2)
    H = H.reshape(q, p)
    val = H[:, 0] - H[:, -1]
    bad = (H[:, 1:] != H[:, -1:]).any(axis=1) | (val % q != 0) | (val < 0)
    if bad.any():
        u = int(np.flatnonzero(bad)[0])
        raise PowerSumNotRational(f"character sum {H[u].tolist()} at u={u} "
                                  f"is not q = {q} times a fiber size")
    return val // q


def _fiber_moments(ctx: Field, T: np.ndarray, J: int) -> list:
    """[M_1, ..., M_J] as Python ints, M_j = sum_y N_y^j for the map whose
    Walsh zero table is T: the power sum S_j is q^{j-1} M_j."""
    counts = np.bincount(_fiber_sizes(ctx, T)).tolist()  # counts[n] = #{y : N_y = n}
    return [sum(c * n ** j for n, c in enumerate(counts) if c) for j in range(1, J + 1)]


def char_sum(f, gadget: PhiGadget, ctx: Optional[Field] = None) -> Fraction:
    """The exact characterization value A_0 + sum_j A_j p^{m-jm} S_j, where
    S_j is the j-fold additive-convolution power of v -> W_F(0, v) at v = 0,
    computed as A_0 + sum_j A_j M_j on the fiber moments.

    Every M_j comes from one character transform of the Walsh zero table
    (see _fiber_sizes), for every gadget degree validate_phi accepts.  Raises
    PowerSumNotRational if the transform does not give q times a fiber size,
    which would mean the table is not a Walsh table."""
    ctx, values = value_table(f, ctx)
    return _char_sum_of_table(ctx, walsh_zero_table(values, ctx), gadget)


def _char_sum_of_table(ctx: Field, T: np.ndarray, gadget: PhiGadget) -> Fraction:
    """char_sum from an already built Walsh zero table T of the map."""
    J = len(gadget.coeffs) - 1
    if J > _PHI_J_CAP:
        raise DegreeTooHigh(f"char_sum supports degree <= {_PHI_J_CAP}, got {J}")
    if gadget.p != ctx.p or gadget.m != ctx.m:
        raise ZeroInput("gadget was built for a different field")
    den, ints = _scaled(gadget.coeffs)
    return Fraction(ints[0] + sum(a * m_j for a, m_j in zip(ints[1:], _fiber_moments(ctx, T, J))),
                    den)


def spectral_verdict(f, gadget: PhiGadget, ctx: Optional[Field] = None) -> bool:
    """True iff the characterization sum sits exactly at the gadget's bound,
    which holds iff f is gadget.n-to-1."""
    return char_sum(f, gadget, ctx) == gadget.bound
