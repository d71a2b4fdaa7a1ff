"""Closed-form 3-to-1 classifiers for cubics, and the quartic search.

The cubic criteria are exact characterizations; the quartic nonexistence
is verified the way it was found, by exhaustive machine search (sampled
above q = 49 to keep runtimes bounded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import row_blocks, row_counts
from .errors import DomainTooLarge, WrongCharacteristic
from .fields import Field
from .polys import Poly

_EXHAUSTIVE_Q_CAP = 49  # q^4 evaluations stay under 10^7
_SEARCH_Q_CAP = 343
_SAMPLE_COUNT = 10 ** 5


def cubic_char3_is3to1(ctx: Field, a: int, b: int) -> bool:
    """x^3 + a x^2 + b x over GF(3^m) is 3-to-1 iff a = 0 and -b is a
    nonzero square."""
    if ctx.p != 3:
        raise WrongCharacteristic(f"expected characteristic 3, got {ctx.p}")
    a = ctx.check(a)
    b = ctx.check(b)
    if a != 0 or b == 0:
        return False
    return ctx.power_class(ctx.neg(b), 2) == 0


def cubic_charne3_is3to1(ctx: Field, b: int) -> bool:
    """x^3 + b x over GF(p^m), p != 3, is 3-to-1 iff b = 0 and either
    p = 2 with m even, or p > 3 with 3 | p^m - 1."""
    if ctx.p == 3:
        raise WrongCharacteristic("characteristic 3 has its own criterion")
    if ctx.check(b) != 0:
        return False
    if ctx.p == 2:
        return ctx.m % 2 == 0
    return (ctx.order - 1) % 3 == 0


def cubic_poly(ctx: Field, a: int, b: int) -> Poly:
    return Poly(ctx, [(3, 1), (2, a), (1, b)])


@dataclass(frozen=True)
class QuarticSearch:
    hits: tuple  # (a, b, c) triples whose quartic is 3-to-1
    exhaustive: bool
    tried: int


def _rows_are_3to1(counts: np.ndarray, q: int) -> np.ndarray:
    """Row-wise definition check at n = 3 on a (rows, q) fiber-count matrix."""
    t = q % 3
    regular = (counts == 0) | (counts == 3)
    if t == 0:
        return regular.all(axis=1)
    exceptional = counts == t
    return (regular | exceptional).all(axis=1) & (exceptional.sum(axis=1) == 1)


def _carry_free_sum(ctx: Field, terms: int):
    """(spread, decode) for adding up to `terms` field elements with plain
    integer addition.  spread[v] holds the base-p digits of v as digits in
    base B = terms*(p-1) + 1, so a sum of `terms` spread values never
    carries; decode[s] reduces each base-B digit of s mod p and returns the
    field element.  decode has B^m entries (at most 4^8 for three terms
    and q <= 343)."""
    p, m = ctx.p, ctx.m
    radix = terms * (p - 1) + 1
    pow_p = p ** np.arange(m, dtype=np.int64)
    place = radix ** np.arange(m, dtype=np.int64)
    spread = ((ctx.elements_array()[:, None] // pow_p) % p) @ place
    sums = np.arange(radix ** m, dtype=np.int64)
    decode = ((sums[:, None] // place) % radix % p) @ pow_p
    return spread, decode


def quartic_3to1_search(ctx: Field, seed: int = 0) -> QuarticSearch:
    """All (a, b, c) with x^4 + a x^3 + b x^2 + c x 3-to-1 over GF(q).

    Exhaustive over the q^3 coefficient space for q <= 49; above that a
    seeded random sample of 10^5 triples is classified instead and the
    result is flagged non-exhaustive.  Either way the quartics are
    classified as (rows, q) value blocks of about 2^14 entries, one
    row-offset bincount per block, and hits come out in (a, b, c) order
    (sample order when sampled).  Each value is x^4 + a x^3, b x^2 and
    c x read from (q, q) tables and added carry-free.
    """
    q = ctx.order
    if q > _SEARCH_Q_CAP:
        raise DomainTooLarge(f"quartic search gated at q <= {_SEARCH_Q_CAP}")
    xs = cs = ctx.elements_array()
    # row k of each table is the value vector of the term with coefficient k
    head = ctx.add_vec(ctx.pow_vec(xs, 4)[None, :],
                       ctx.mul_vec(cs[:, None], ctx.pow_vec(xs, 3)[None, :]))
    bx2 = ctx.mul_vec(cs[:, None], ctx.pow_vec(xs, 2)[None, :])
    cx = ctx.mul_vec(cs[:, None], xs[None, :])
    spread, decode = _carry_free_sum(ctx, 3)
    head, bx2, cx = spread[head], spread[bx2], spread[cx]
    hits = []
    if q <= _EXHAUSTIVE_Q_CAP:
        for a in range(q):
            for lo, hi in row_blocks(q, q * q):
                vals = decode[head[a] + bx2[lo:hi, None, :] + cx[None, :, :]].reshape(-1, q)
                for r in np.flatnonzero(_rows_are_3to1(row_counts(vals, q), q)):
                    hits.append((a, lo + int(r) // q, int(r) % q))
        return QuarticSearch(hits=tuple(hits), exhaustive=True, tried=q ** 3)
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, q, size=(_SAMPLE_COUNT, 3))
    for lo, hi in row_blocks(_SAMPLE_COUNT, q):
        a, b, c = triples[lo:hi].T
        vals = decode[head[a] + bx2[b] + cx[c]]
        for r in np.flatnonzero(_rows_are_3to1(row_counts(vals, q), q)):
            hits.append(tuple(int(v) for v in triples[lo + r]))
    return QuarticSearch(hits=tuple(hits), exhaustive=False, tried=_SAMPLE_COUNT)
