"""Exact cyclotomic arithmetic and the spectral n-to-1 test."""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest

from nto1 import (
    CycloInt, Field, LinearizedPoly, Poly, additive_convolution, char_sum,
    histogram, is_n_to_1, phi_prime_power, phi_two, spectral_verdict,
    validate_phi, walsh, walsh_zero_table,
)
from nto1.errors import DomainTooLarge, NTo1Error, PowerSumNotRational, ZeroInput
from nto1.verify import _n_to_1_table

walsh_mod = importlib.import_module("nto1.walsh")  # `nto1.walsh` is the function

F7 = Field(7, 1)
F9 = Field(3, 2)
F25 = Field(5, 2)


def test_cycloint_relation():
    # 1 + w + ... + w^(p-1) = 0 in Z[w]
    one_of_each = CycloInt(5, [1, 1, 1, 1, 1])
    assert one_of_each == CycloInt(5, [0, 0, 0, 0, 0])
    w = CycloInt(5, [0, 1, 0, 0, 0])
    acc = CycloInt(5, [1, 0, 0, 0, 0])
    for _ in range(5):
        acc = acc * w
    assert acc == CycloInt(5, [1, 0, 0, 0, 0])


def test_gadgets_validate():
    assert validate_phi(phi_two(3, 2)) == (True, None)
    assert validate_phi(phi_two(5, 2)) == (True, None)
    assert validate_phi(phi_prime_power(3, 2, 1)) == (True, None)
    assert validate_phi(phi_prime_power(3, 2, 2)) == (True, None)
    assert validate_phi(phi_prime_power(2, 4, 2)) == (True, None)
    with pytest.raises(ZeroInput):
        phi_two(2, 4)  # n = 2 divides q
    with pytest.raises(ZeroInput):
        phi_prime_power(3, 2, 3)


def test_zero_table_shape_and_trivial_row():
    f = Poly(F9, [(2, 1)])
    W = walsh_zero_table(f, F9)
    assert W.shape == (9, 3)
    assert list(W[0]) == [9, 0, 0]
    assert W.sum(axis=1).tolist() == [9] * 9


def test_zero_table_rows_equal_walsh():
    for F in (F9, Field(2, 5)):
        f = Poly(F, [(3, 1), (1, 1)])
        W = walsh_zero_table(f, F)
        for v in F.elements():
            assert walsh(f, 0, v, F) == CycloInt(F.p, list(W[v]))


def test_two_to_one_verdict():
    f = Poly(F7, [(2, 1)])  # gcd(2, 6) = 2
    g = phi_two(7, 1)
    assert spectral_verdict(f, g, F7) is True
    assert char_sum(f, g, F7) == g.bound == Fraction(1)
    # the identity is 1-to-1, not 2-to-1
    assert spectral_verdict(Poly.x(F7), g, F7) is False


def test_p_to_one_verdict():
    L = LinearizedPoly(F9, 3, [F9.neg(1), 1])  # x^3 - x, kernel GF(3)
    g = phi_prime_power(3, 2, 1)
    assert spectral_verdict(L, g, F9) is True
    assert char_sum(L, g, F9) == Fraction(0)
    assert spectral_verdict(Poly.x(F9), g, F9) is False


def test_char_sum_is_exact_fraction():
    f = Poly(F25, [(2, 1), (1, 3)])
    cs = char_sum(f, phi_two(5, 2), F25)
    assert isinstance(cs, Fraction)


def test_spectral_matches_brute_on_random_tables():
    rng = random.Random(11)
    g2 = phi_two(5, 1)
    gp = phi_prime_power(5, 1, 1)
    F5 = Field(5, 1)
    dom = tuple(F5.elements())
    for _ in range(25):
        tbl = np.asarray([rng.randrange(5) for _ in range(5)], dtype=np.int64)
        assert spectral_verdict(tbl, g2, F5) == is_n_to_1(tbl, dom, 2)
        assert spectral_verdict(tbl, gp, F5) == is_n_to_1(tbl, dom, 5)


SPECTRAL_FIELDS = [(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2), (13, 1)]


def _tables(ctx, seed):
    """A random map, a 2-to-1 map and a p-to-1 map over ctx, as value tables."""
    rng = random.Random(seed)
    rand = np.asarray([rng.randrange(ctx.order) for _ in range(ctx.order)], dtype=np.int64)
    return [rand, _n_to_1_table(ctx, 2, rng), _n_to_1_table(ctx, ctx.p, rng)]


def _convolution_powers(ctx, T, J):
    """S_1..S_J as row 0 of the j-fold additive_convolution powers of T."""
    U, out = T, [T[0]]
    for _ in range(J - 1):
        U = additive_convolution(ctx, U, T)
        out.append(U[0])
    return out


def _char_sum_from(g, sums):
    p, m = g.p, g.m
    return g.coeffs[0] + sum(
        Fraction(g.coeffs[j]) * Fraction(p) ** (m - j * m) * CycloInt(p, s.tolist()).as_int()
        for j, s in enumerate(sums, start=1))


@pytest.mark.parametrize("p,m", SPECTRAL_FIELDS)
def test_power_sums_match_convolution_oracle(p, m):
    ctx = Field(p, m)
    for tbl in _tables(ctx, seed=100 * p + m):
        T = walsh_zero_table(tbl, ctx)
        want = _convolution_powers(ctx, T, 3)
        got = walsh_mod._power_sums(ctx, T, 3)
        assert [s.tolist() for s in got] == [s.tolist() for s in want]
        for g in [phi_prime_power(p, m, 1)] + ([phi_two(p, m)] if p != 2 else []):
            assert char_sum(tbl, g, ctx) == _char_sum_from(g, want)


@pytest.mark.parametrize("p,m", SPECTRAL_FIELDS)
def test_power_sums_count_fiber_tuples(p, m):
    """S_j = q^{j-1} sum_y N_y^j: the v-sum over v_1 + ... + v_j = 0 leaves
    the j-tuples of x with one common image, q^{j-1} times each."""
    ctx = Field(p, m)
    q = ctx.order
    for tbl in _tables(ctx, seed=200 * p + m):
        N = np.asarray(list(histogram(tbl).values()), dtype=np.int64)
        sums = walsh_mod._power_sums(ctx, walsh_zero_table(tbl, ctx), 3)
        for j, s in enumerate(sums, start=1):
            assert CycloInt(p, s.tolist()) == q ** (j - 1) * int((N ** j).sum())


def test_char_sum_at_the_domain_cap():
    F = Field(2, 12)
    q = F.order
    tbl = np.random.default_rng(3).integers(0, q, q)
    N = np.asarray(list(histogram(tbl).values()), dtype=np.int64)
    brute = [np.array([q ** (j - 1) * int((N ** j).sum()), 0]) for j in (1, 2, 3)]
    g = phi_prime_power(2, 12, 1)
    assert char_sum(tbl, g, F) == _char_sum_from(g, brute)


def test_power_sums_refuse_int64_overflow():
    F = Field(2, 13)  # q^5 = 2^65
    with pytest.raises(DomainTooLarge):
        walsh_mod._power_sums(F, np.zeros((F.order, 2), dtype=np.int64), 3)


def test_non_rational_power_sum_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(walsh_mod, "_power_sums",
                        lambda ctx, T, J: [T[0], np.array([0, 1, 0]), T[0]])
    assert issubclass(PowerSumNotRational, NTo1Error)
    assert not issubclass(PowerSumNotRational, AssertionError)
    with pytest.raises(PowerSumNotRational):
        char_sum(Poly.x(F9), phi_two(3, 2), F9)


def test_char_sum_of_a_built_table_equals_char_sum():
    rng = random.Random(5)
    for F, gadget in ((F9, phi_two(3, 2)), (F9, phi_prime_power(3, 2, 1)), (F25, phi_two(5, 2))):
        f = Poly(F, [(rng.randrange(1, 3 * F.order), rng.randrange(F.order)) for _ in range(3)])
        T = walsh_zero_table(f)
        assert walsh_mod._char_sum_of_table(F, T, gadget) == char_sum(f, gadget)
    with pytest.raises(ZeroInput):
        walsh_mod._char_sum_of_table(F9, walsh_zero_table(Poly.x(F9)), phi_two(5, 2))
