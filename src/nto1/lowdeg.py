"""Closed-form 3-to-1 classifiers for cubics, and the quartic search.

The cubic criteria are exact characterizations; the quartic nonexistence
is verified the way it was found, by exhaustive machine search over every
field up to q = 343.  The search classifies only Dickson's affine normal
forms (Lidl and Niederreiter, Finite Fields): a translation x -> x + t,
plus a scaling when p = 2, keeps every fiber size, so each normal form
stands for a closed-form family of coefficient triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import n_to_1_rows, row_blocks
from .errors import DomainTooLarge, WrongCharacteristic
from .fields import Field

_SEARCH_Q_CAP = 343


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


@dataclass(frozen=True)
class QuarticSearch:
    hits: tuple  # (a, b, c) triples whose quartic is 3-to-1
    tried: int  # size of the coefficient space covered, always q^3


def _three_to_one(ctx: Field, heads: np.ndarray, cx: np.ndarray) -> list:
    """(i, c) for every 3-to-1 map heads[i] + c x, with heads a (k, q) table
    of value vectors and cx[c] the value vector of c x; classified a block
    of heads at a time (about 2^14 entries, but at least one head's q^2),
    one bincount per block."""
    q = ctx.order
    hits = []
    for lo, hi in row_blocks(len(heads), q * q):
        vals = ctx.add_vec(heads[lo:hi, None, :], cx[None, :, :]).reshape(-1, q)
        for r in np.flatnonzero(n_to_1_rows(vals, q, 3)):
            hits.append((lo + int(r) // q, int(r) % q))
    return hits


def quartic_3to1_search(ctx: Field) -> QuarticSearch:
    """All (a, b, c) with x^4 + a x^3 + b x^2 + c x 3-to-1 over GF(q),
    exhaustive over the q^3 coefficient space for every q <= 343.

    Only normal forms are classified, and each hit is pulled back to its
    whole family in closed form:

    - odd p: x -> x + t with a = -4t clears the cubic term, so the q^2
      rows x^4 + b'x^2 + c'x stand for (a, b, c) with b = b' + 6t^2 and
      c = c' - 2bt + 8t^3, one triple per t;
    - p = 2, a = 0: the q^2 additive rows x^4 + b x^2 + c x themselves
      (at q = 2 the constant map counts as 3-to-1);
    - p = 2, a != 0: x -> x + b/a clears b and x -> a x scales a to 1,
      so the q rows x^4 + x^3 + c''x stand for (a, a s, a(c''a^2 + s^2)),
      one triple per unit a and s in GF(q).

    Hits come out sorted in (a, b, c) order.
    """
    q, p = ctx.order, ctx.p
    if q > _SEARCH_Q_CAP:
        raise DomainTooLarge(f"quartic search gated at q <= {_SEARCH_Q_CAP}")
    xs = ctx.elements_array()
    x4, sq, cube = (ctx.pow_vec(xs, e) for e in (4, 2, 3))
    cx = ctx.mul_vec(xs[:, None], xs[None, :])
    depressed = _three_to_one(ctx, ctx.add_vec(x4, ctx.mul_vec(xs[:, None], sq)), cx)
    hits = []
    if p == 2:
        hits += [(0, b, c) for b, c in depressed]
        units = xs[1:, None]
        b = ctx.mul_vec(units, xs[None, :])
        a = np.broadcast_to(units, b.shape).ravel().tolist()
        for _, c2 in _three_to_one(ctx, ctx.add_vec(x4, cube)[None, :], cx):
            c = ctx.mul_vec(units, ctx.add_vec(ctx.scalar_mul_vec(c2, sq[1:, None]), sq[None, :]))
            hits += zip(a, b.ravel().tolist(), c.ravel().tolist())
    else:
        a = ctx.scalar_mul_vec(-4 % p, xs)  # t runs over xs
        six_t2 = ctx.scalar_mul_vec(6 % p, sq)
        eight_t3 = ctx.scalar_mul_vec(8 % p, cube)
        minus_2t = ctx.scalar_mul_vec(-2 % p, xs)
        for b1, c1 in depressed:
            b = ctx.add_vec(b1, six_t2)
            c = ctx.add_vec(ctx.add_vec(c1, ctx.mul_vec(minus_2t, b)), eight_t3)
            hits += zip(a.tolist(), b.tolist(), c.tolist())
    return QuarticSearch(hits=tuple(sorted(hits)), tried=q ** 3)
