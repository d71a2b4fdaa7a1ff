"""Cubic criteria against brute force, and the quartic search pins."""

import numpy as np
import pytest

from nto1 import (
    Field, Poly, cubic_char3_is3to1, cubic_charne3_is3to1, is_n_to_1,
    quartic_3to1_search, verify,
)
from nto1.counting import n_to_1_rows, row_blocks
from nto1.errors import DomainTooLarge, WrongCharacteristic
from nto1.verify import _prime_powers, cubic_sweep


def _cubic_is_3to1(ctx, a, b):
    """The definition at 3 on x^3 + a x^2 + b x, one map at a time."""
    return is_n_to_1(Poly(ctx, [(3, 1), (2, a), (1, b)]), None, 3)


def test_cubic_char3_exhaustive_gf9():
    ctx = Field(3, 2)
    cases = [(a, b, _cubic_is_3to1(ctx, a, b)) for a in ctx.elements() for b in ctx.elements()]
    assert all(cubic_char3_is3to1(ctx, a, b) == want for a, b, want in cases)
    assert list(cubic_sweep(ctx)) == [(a, b, want, want) for a, b, want in cases]


def test_cubic_charne3_exhaustive():
    for p, m in ((2, 2), (7, 1), (13, 1)):
        ctx = Field(p, m)
        cases = [(0, b, _cubic_is_3to1(ctx, 0, b)) for b in ctx.elements()]
        assert all(cubic_charne3_is3to1(ctx, b) == want for _, b, want in cases), ctx.order
        assert list(cubic_sweep(ctx)) == [(0, b, want, want) for _, b, want in cases]


def test_gf2_zero_cubic_counts_as_3_to_1():
    # x^3 + x is the zero map on GF(2): one fiber of #A mod 3 = 2 preimages
    ctx = Field(2, 1)
    assert _cubic_is_3to1(ctx, 0, 1)
    assert list(cubic_sweep(ctx)) == [(0, 0, False, False), (0, 1, False, True)]


def test_cubic_sweep_builds_one_block_per_step(monkeypatch):
    real, blocks = verify.eval_coeff_rows, []

    def spy(ctx, rows):
        blocks.append(len(rows))
        return real(ctx, rows)

    monkeypatch.setattr(verify, "eval_coeff_rows", spy)
    sweep = cubic_sweep(Field(2, 13))
    assert blocks == []
    assert next(sweep) == (0, 0, False, False)
    assert blocks == [2]  # 2^14 entries: two rows of 2^13


def test_wrong_characteristic_raises():
    with pytest.raises(WrongCharacteristic):
        cubic_char3_is3to1(Field(5, 1), 0, 1)
    with pytest.raises(WrongCharacteristic):
        cubic_charne3_is3to1(Field(3, 2), 0)


def test_quartic_gf3_exact_hits():
    res = quartic_3to1_search(Field(3, 1))
    assert res.tried == 27
    assert res.hits == ((0, 2, 0), (1, 2, 2), (2, 2, 1))
    # re-verify one hit the slow way: x^4 + 2x^2 over GF(3)
    ctx = Field(3, 1)
    f = Poly(ctx, [(4, 1), (2, 2)])
    assert is_n_to_1(f, tuple(ctx.elements()), 3)


def test_quartic_counts_small_fields():
    assert len(quartic_3to1_search(Field(2, 2)).hits) == 12
    res5 = quartic_3to1_search(Field(5, 1))
    assert len(res5.hits) == 10 and res5.hits[0] == (0, 1, 0)
    assert quartic_3to1_search(Field(7, 1)).hits == ()


def test_quartic_exhaustive_above_49():
    res = quartic_3to1_search(Field(5, 3))
    assert res.hits == () and res.tried == 125 ** 3
    with pytest.raises(DomainTooLarge):
        quartic_3to1_search(Field(2, 10))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_quartic_exhaustive_matches_one_at_a_time(p, m):
    ctx = Field(p, m)
    dom = tuple(ctx.elements())
    want = tuple((a, b, c) for a in dom for b in dom for c in dom
                 if is_n_to_1(Poly(ctx, [(4, 1), (3, a), (2, b), (1, c)]), dom, 3))
    assert quartic_3to1_search(ctx).hits == want


def _carry_free_search(ctx):
    """Every (a, b, c) in (a, b, c) order, each quartic's values added
    carry-free: the base-p digits of each term are spread into base
    B = 3(p - 1) + 1, so three spread terms sum with plain integer addition
    and a B^m-entry table reduces each digit mod p."""
    p, m, q = ctx.p, ctx.m, ctx.order
    radix = 3 * (p - 1) + 1
    pow_p = p ** np.arange(m, dtype=np.int64)
    place = radix ** np.arange(m, dtype=np.int64)
    spread = ((ctx.elements_array()[:, None] // pow_p) % p) @ place
    decode = ((np.arange(radix ** m)[:, None] // place) % radix % p) @ pow_p
    xs = ctx.elements_array()
    head = ctx.add_vec(ctx.pow_vec(xs, 4)[None, :],
                       ctx.mul_vec(xs[:, None], ctx.pow_vec(xs, 3)[None, :]))
    bx2 = ctx.mul_vec(xs[:, None], ctx.pow_vec(xs, 2)[None, :])
    cx = ctx.mul_vec(xs[:, None], xs[None, :])
    head, bx2, cx = spread[head], spread[bx2], spread[cx]
    hits = []
    for a in range(q):
        for lo, hi in row_blocks(q, q * q):
            vals = decode[head[a] + bx2[lo:hi, None, :] + cx[None, :, :]].reshape(-1, q)
            for r in np.flatnonzero(n_to_1_rows(vals, q, 3)):
                hits.append((a, lo + int(r) // q, int(r) % q))
    return tuple(hits)


@pytest.mark.parametrize("p,m,q", _prime_powers(49))
def test_normal_forms_match_the_full_sweep(p, m, q):
    # the q^3 sweep the normal-form search replaced, hit for hit
    res = quartic_3to1_search(Field(p, m))
    assert res.hits == _carry_free_search(Field(p, m))
    assert res.tried == q ** 3


def test_quartic_census_up_to_343():
    # every field the search admits: 3-to-1 quartics exist only for q <= 5
    counts = {q: len(quartic_3to1_search(Field(p, m)).hits) for p, m, q in _prime_powers(343)}
    assert {q: n for q, n in counts.items() if n} == {2: 4, 3: 3, 4: 12, 5: 10}
