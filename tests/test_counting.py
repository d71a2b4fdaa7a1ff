"""The n-to-1 definition itself: classification, membership, oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nto1 import (
    Field, LinearizedPoly, Poly, classify, histogram, is_n_to_1,
    linearized_oracle, merge_histograms, monomial_oracle, report_matches,
)
from nto1.counting import _decide
from nto1.errors import ExceptionCountMismatch, NTo1Error, ZeroInput

F7 = Field(7, 1)
F8 = Field(2, 3)


def table(counts):
    """A map realizing the given positive fiber sizes on 0..sum-1."""
    out = {}
    x = 0
    for v, c in enumerate(counts):
        for _ in range(c):
            out[x] = v
            x += 1
    return out


def test_regular_no_exception():
    rep = classify(table([3, 3, 3, 3]))
    assert (rep.n, rep.exception, rep.irregular) == (3, None, False)


def test_regular_with_exception():
    rep = classify(table([3, 3, 3, 1]))
    assert rep.n == 3 and rep.irregular is False
    assert rep.exception == (3, 1)  # value 3 carries the 10 mod 3 leftover


def test_exception_size_is_forced():
    # two fiber sizes whose small one is not #A mod n: not n-to-1 for any n
    rep = classify(table([2, 2, 3]))
    assert rep.irregular


def test_exception_count_mismatch_is_a_typed_error():
    # one fiber of size 1 beside fibers of size 3 needs #A mod 3 = 1, not 8 mod 3
    assert issubclass(ExceptionCountMismatch, NTo1Error)
    assert not issubclass(ExceptionCountMismatch, AssertionError)
    with pytest.raises(ExceptionCountMismatch):
        _decide({0: 1, 1: 3, 2: 3}, 8)
    assert _decide({0: 1, 1: 3, 2: 3}, 7) == (3, (0, 1), False, None)


def test_small_count_must_be_unique():
    rep = classify(table([3, 1, 1]))
    assert rep.irregular


def test_identity_and_constant():
    rep = classify({x: x for x in range(11)})
    assert (rep.n, rep.exception) == (1, None)
    rep = classify({x: 0 for x in range(11)})
    assert (rep.n, rep.exception) == (11, None)


def test_is_n_to_1_reads_the_definition_literally():
    const5 = {x: 0 for x in range(5)}
    dom = tuple(range(5))
    assert is_n_to_1(const5, dom, 5)
    # for n > #A the single value carries exactly #A mod n = #A preimages
    assert is_n_to_1(const5, dom, 7)
    assert not is_n_to_1(const5, dom, 3)
    assert is_n_to_1({x: x for x in range(5)}, dom, 1)


def test_report_matches():
    rep = classify(Poly(F7, [(3, 1)]))
    assert report_matches(rep, 3)
    assert not report_matches(rep, 2)
    assert not report_matches(classify(table([2, 2, 3])), 2)


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_random_n_to_1_tables_classify_at_n(n, seed):
    rng = random.Random(seed)
    size = n * rng.randrange(2, 6) + rng.randrange(n)
    xs = list(range(size))
    rng.shuffle(xs)
    out = {}
    t = size % n
    vi = 0
    if t:
        for x in xs[:t]:
            out[x] = vi
        vi += 1
    for pos in range(t, size, n):
        for x in xs[pos:pos + n]:
            out[x] = vi
        vi += 1
    rep = classify(out)
    assert is_n_to_1(out, tuple(range(size)), n)
    if t == 0:
        assert rep.n == n and rep.exception is None
    elif n < size:
        assert rep.n == n and rep.exception == (0, t)


def test_histogram_and_merge():
    h = histogram({0: 1, 1: 1, 2: 5})
    assert h == {1: 2, 5: 1}
    assert merge_histograms(h, {5: 3}) == {1: 2, 5: 4}


def test_callable_needs_domain():
    with pytest.raises(ZeroInput):
        classify(lambda x: x)
    rep = classify(lambda x: x % 3, domain=range(9))
    assert rep.n == 3


def test_monomial_oracle_exhaustive_small():
    for ctx in (F7, F8):
        xs = ctx.elements_array()
        for d in range(1, ctx.order):
            rep = classify(ctx.pow_vec(xs, d))
            n = monomial_oracle(ctx, 1, d)
            assert rep.n == n
            assert rep.exception == ((0, 1) if n > 1 else None)


def test_linearized_oracle_random():
    rng = random.Random(5)
    for pm, j in (((2, 4), 1), ((2, 4), 2), ((3, 4), 2)):
        ctx = Field(*pm)
        q_sub = ctx.p ** j
        for _ in range(20):
            L = LinearizedPoly(ctx, q_sub,
                               [rng.randrange(ctx.order) for _ in range(ctx.m // j)])
            rep = classify(L)
            assert rep.n == linearized_oracle(L)
            assert rep.exception is None and not rep.irregular


def test_report_serialization():
    rep = classify(Poly(F7, [(3, 1)]))
    assert rep.to_json() == ('{"domain_size":7,"exception":[0,1],'
                             '"irregular":false,"n":3}')
