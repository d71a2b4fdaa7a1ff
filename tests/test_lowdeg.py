"""Cubic criteria against brute force, and the quartic search pins."""

import numpy as np
import pytest

from nto1 import (
    Field, Poly, classify, cubic_char3_is3to1, cubic_charne3_is3to1, cubic_poly,
    is_n_to_1, lowdeg, quartic_3to1_search, report_matches,
)
from nto1.errors import DomainTooLarge, WrongCharacteristic


def test_cubic_char3_exhaustive_gf9():
    ctx = Field(3, 2)
    for a in ctx.elements():
        for b in ctx.elements():
            pred = cubic_char3_is3to1(ctx, a, b)
            got = report_matches(classify(cubic_poly(ctx, a, b)), 3)
            assert pred == got, (a, b)


def test_cubic_charne3_exhaustive():
    for p, m in ((2, 2), (7, 1), (13, 1)):
        ctx = Field(p, m)
        for b in ctx.elements():
            pred = cubic_charne3_is3to1(ctx, b)
            got = report_matches(classify(cubic_poly(ctx, 0, b)), 3)
            assert pred == got, (ctx.order, b)


def test_wrong_characteristic_raises():
    with pytest.raises(WrongCharacteristic):
        cubic_char3_is3to1(Field(5, 1), 0, 1)
    with pytest.raises(WrongCharacteristic):
        cubic_charne3_is3to1(Field(3, 2), 0)


def test_quartic_gf3_exact_hits():
    res = quartic_3to1_search(Field(3, 1))
    assert res.exhaustive
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


def test_quartic_sampled_mode():
    for seed in (1, 7):
        res = quartic_3to1_search(Field(5, 3), seed=seed)
        assert not res.exhaustive and res.tried == 10 ** 5
        assert res.hits == ()
    with pytest.raises(DomainTooLarge):
        quartic_3to1_search(Field(2, 10))


@pytest.mark.parametrize("p,m", [(5, 1), (2, 2), (3, 2), (7, 1)])
def test_quartic_sampled_hits_in_sample_order(monkeypatch, p, m):
    # force the sampled branch on a field with hits and re-check every
    # sampled triple one at a time, in draw order
    ctx = Field(p, m)
    monkeypatch.setattr(lowdeg, "_EXHAUSTIVE_Q_CAP", 1)
    monkeypatch.setattr(lowdeg, "_SAMPLE_COUNT", 3000)
    res = quartic_3to1_search(ctx, seed=3)
    assert not res.exhaustive and res.tried == 3000
    triples = np.random.default_rng(3).integers(0, ctx.order, size=(3000, 3))
    dom = tuple(ctx.elements())
    want = tuple((int(a), int(b), int(c)) for a, b, c in triples
                 if is_n_to_1(Poly(ctx, [(4, 1), (3, int(a)), (2, int(b)), (1, int(c))]), dom, 3))
    assert res.hits == want
    if ctx.order in (4, 5):
        assert want  # these fields have 3-to-1 quartics


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_quartic_exhaustive_matches_one_at_a_time(p, m):
    ctx = Field(p, m)
    dom = tuple(ctx.elements())
    want = tuple((a, b, c) for a in dom for b in dom for c in dom
                 if is_n_to_1(Poly(ctx, [(4, 1), (3, a), (2, b), (1, c)]), dom, 3))
    assert quartic_3to1_search(ctx).hits == want
