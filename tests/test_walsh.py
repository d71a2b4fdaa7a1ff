"""Exact Walsh count vectors and the spectral n-to-1 test."""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest

from nto1 import (
    Field, LinearizedPoly, PhiGadget, Poly, SubfieldEmbed, additive_convolution,
    char_sum, classify_rows, histogram, is_n_to_1, phi, spectral_verdict, validate_phi, walsh,
    walsh_zero_table,
)
from nto1.errors import DegreeTooHigh, FieldMismatch, NTo1Error, PowerSumNotRational, ZeroInput
from nto1.fields import _is_prime
from nto1.counting import n_to_1_rows, row_counts
from nto1.verify import _n_to_1_table

walsh_mod = importlib.import_module("nto1.walsh")  # `nto1.walsh` is the function

F7 = Field(7, 1)
F9 = Field(3, 2)
F25 = Field(5, 2)


def _hand_phi(n, p, m):
    """X(X-n)^2 = X^3 - 2n X^2 + n^2 X as a PhiGadget, built by hand."""
    return PhiGadget((Fraction(0), Fraction(n * n), Fraction(-2 * n), Fraction(1)), n, p, m)


def test_gadgets_validate():
    assert validate_phi(phi(2, 3, 2)) == (True, None)
    assert validate_phi(phi(2, 5, 2)) == (True, None)
    assert validate_phi(phi(3, 3, 2)) == (True, None)
    assert validate_phi(phi(9, 3, 2)) == (True, None)
    assert validate_phi(phi(4, 2, 4)) == (True, None)
    # n = 2 dividing q is the divisor gadget, bound 0
    assert phi(2, 2, 4) == _hand_phi(2, 2, 4) and phi(2, 2, 4).bound == 0
    with pytest.raises(ZeroInput, match=r"^phi needs n \| q or n = 2, got n=27, q=9$"):
        phi(27, 3, 2)


def test_phi_is_defined_exactly_where_its_pattern_validates():
    """At every prime power q <= 128 and 1 <= n <= q + 1, phi(n, p, m)
    succeeds, with the hand-built gadget, exactly when validate_phi
    accepts X(X-n)^2 at n; every refusal is a ZeroInput naming n and q."""
    built = 0
    for p in filter(_is_prime, range(2, 129)):
        m = 1
        while p ** m <= 128:
            q = p ** m
            for n in range(1, q + 2):
                g = _hand_phi(n, p, m)
                if validate_phi(g)[0]:
                    assert phi(n, p, m) == g
                    built += 1
                else:
                    with pytest.raises(ZeroInput, match=f", got n={n}, q={q}$"):
                        phi(n, p, m)
            m += 1
    assert built == 157  # the m + 1 divisors p^k of each q = p^m, and n = 2 at each odd q


def test_every_builtin_gadget_validates_with_its_derived_bound():
    """phi(2, p, m) (odd q) and phi(p^k, p, m), 1 <= k <= m, at every
    prime power q <= 4096: validate_phi accepts each, and the bound is 0
    exactly when n | q."""
    checked = 0
    for p in filter(_is_prime, range(2, 4097)):
        m = 1
        while p ** m <= 4096:
            gadgets = [phi(p ** k, p, m) for k in range(1, m + 1)]
            if p != 2:
                gadgets.append(phi(2, p, m))
            for g in gadgets:
                assert validate_phi(g) == (True, None), g
                assert g.bound == (0 if p ** m % g.n == 0 else 1), g
            checked += len(gadgets)
            m += 1
    assert checked == 1317


def test_a_gadget_is_judged_against_its_own_n():
    """The bound follows n: X(X-5)^2 over GF(5) relabelled n = 3 has bound 1,
    and validate_phi then asks phi(5 mod 3) = 1, which fails at X = 2."""
    g = PhiGadget(phi(5, 5, 1).coeffs, 3, 5, 1)
    assert g.bound == 1
    assert validate_phi(g) == (False, 2)


@pytest.mark.parametrize("n", [0, -2])
def test_a_gadget_needs_n_at_least_1(n):
    # n = 0 once divided by zero in bound; n = -2 passed with bound 1
    with pytest.raises(ZeroInput, match=f"^a gadget needs n >= 1, got n={n}$"):
        PhiGadget((Fraction(0), Fraction(1)), n, 3, 2)
    with pytest.raises(ZeroInput, match=f"^a gadget needs n >= 1, got n={n}$"):
        phi(n, 3, 2)  # refused before any q % n


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
            assert np.array_equal(walsh(f, 0, v, F), W[v])


def test_cached_trace_tables_are_read_only():
    # a write into a shared trace table would change every later spectral result of its field
    f = Poly(F9, [(2, 1), (1, 3)])
    before = walsh_zero_table(f, F9)
    for table in (F9.trace_to_prime_table(), SubfieldEmbed(Field(3, 4), F9).trace_table()):
        with pytest.raises(ValueError):
            table[:] = 0
    assert np.array_equal(walsh_zero_table(f, F9), before)


def test_two_to_one_verdict():
    f = Poly(F7, [(2, 1)])  # gcd(2, 6) = 2
    g = phi(2, 7, 1)
    assert spectral_verdict(f, g, F7) is True
    assert char_sum(f, g, F7) == g.bound == Fraction(1)
    # the identity is 1-to-1, not 2-to-1
    assert spectral_verdict(Poly.x(F7), g, F7) is False


def test_p_to_one_verdict():
    L = LinearizedPoly(F9, 3, [F9.neg(1), 1])  # x^3 - x, kernel GF(3)
    g = phi(3, 3, 2)
    assert spectral_verdict(L, g, F9) is True
    assert char_sum(L, g, F9) == Fraction(0)
    assert spectral_verdict(Poly.x(F9), g, F9) is False


def test_char_sum_is_exact_fraction():
    f = Poly(F25, [(2, 1), (1, 3)])
    cs = char_sum(f, phi(2, 5, 2), F25)
    assert isinstance(cs, Fraction)


def test_spectral_matches_brute_on_random_tables():
    rng = random.Random(11)
    g2 = phi(2, 5, 1)
    gp = phi(5, 5, 1)
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
    """S_1..S_J as row 0 of the j-fold additive_convolution powers of T, in
    Python ints (S_8 at q = 49 is far beyond int64)."""
    T = T.astype(object)
    U, out = T, [T[0]]
    for _ in range(J - 1):
        U = additive_convolution(ctx, U, T)
        out.append(U[0])
    return out


def _rational(c):
    """The integer value sum_i c_i omega^i of a count vector c, which must be
    rational: c_1 = ... = c_{p-1}, and the value is then c_0 - c_{p-1}."""
    c = [int(x) for x in c]
    assert all(x == c[-1] for x in c[1:]), c
    return c[0] - c[-1]


def _char_sum_from(g, sums):
    """The paper's A_0 + sum_j A_j p^{m-jm} S_j from count vectors S_j."""
    p, m = g.p, g.m
    return g.coeffs[0] + sum(
        Fraction(g.coeffs[j]) * Fraction(p) ** (m - j * m) * _rational(s)
        for j, s in enumerate(sums, start=1))


def _gadget(roots, n, p, m):
    """The PhiGadget of prod_{r in roots} (X - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return PhiGadget(tuple(coeffs), n, p, m)


@pytest.mark.parametrize("p,m", SPECTRAL_FIELDS)
def test_power_sums_match_convolution_oracle(p, m):
    """Each fiber moment M_j, j <= 8, is S_j / q^{j-1} for the power sum S_j
    read off the j-fold additive_convolution power."""
    J = walsh_mod._PHI_J_CAP
    ctx = Field(p, m)
    q = ctx.order
    for tbl in _tables(ctx, seed=100 * p + m):
        T = walsh_zero_table(tbl, ctx)
        want = _convolution_powers(ctx, T, J)
        moments = walsh_mod._fiber_moments(walsh_mod._transform(ctx, T[None]), J)[0]
        for j, (m_j, s_j) in enumerate(zip(moments, want, strict=True), start=1):
            assert m_j * q ** (j - 1) == _rational(s_j), j
        for g in [phi(p, p, m)] + ([phi(2, p, m)] if p != 2 else []):
            assert char_sum(tbl, g, ctx) == _char_sum_from(g, want[:3])


@pytest.mark.parametrize("p,m", SPECTRAL_FIELDS)
def test_power_sums_count_fiber_tuples(p, m):
    """M_j = sum_y N_y^j counts the j-tuples of x with one common image; the
    v-sum over v_1 + ... + v_j = 0 in S_j counts each q^{j-1} times."""
    ctx = Field(p, m)
    J = walsh_mod._PHI_J_CAP
    for tbl in _tables(ctx, seed=200 * p + m):
        N = list(histogram(tbl).values())
        moments = walsh_mod._fiber_moments(walsh_mod.fiber_size_rows(ctx, tbl[None]), J)[0]
        assert list(moments) == [sum(n ** j for n in N) for j in range(1, J + 1)]


def test_char_sum_at_the_domain_cap():
    F = Field(2, 12)
    q = F.order
    tbl = np.random.default_rng(3).integers(0, q, q)
    N = np.asarray(list(histogram(tbl).values()), dtype=np.int64)
    brute = [np.array([q ** (j - 1) * int((N ** j).sum()), 0]) for j in (1, 2, 3)]
    g = phi(2, 2, 12)
    assert char_sum(tbl, g, F) == _char_sum_from(g, brute)


def test_degree_eight_char_sum_at_the_domain_cap():
    """X^2 (X-2)^6 with n = 2 dividing q, against sum_y phi(N_y) in Python ints."""
    F = Field(2, 12)
    q = F.order
    g = _gadget([0, 0] + [2] * 6, 2, 2, 12)
    assert g.bound == 0
    assert len(g.coeffs) - 1 == walsh_mod._PHI_J_CAP
    assert validate_phi(g) == (True, None)

    def phi(x):
        return x * x * (x - 2) ** 6

    rng = np.random.default_rng(8)
    two = _n_to_1_table(F, 2, random.Random(8))
    for tbl in (rng.integers(0, q, q), rng.integers(0, q // 3, q), two):
        N = list(histogram(tbl).values())  # the y with N_y = 0 add phi(0) = 0
        cs = char_sum(tbl, g, F)
        assert cs == sum(phi(n) for n in N)
        assert (cs == g.bound) == is_n_to_1(tbl, tuple(F.elements()), 2) == (tbl is two)


def test_non_rational_power_sum_is_a_typed_error():
    assert issubclass(PowerSumNotRational, NTo1Error)
    assert not issubclass(PowerSumNotRational, AssertionError)
    T = walsh_zero_table(Poly.x(F9))
    T[0] = [0, 9, 0]  # W(0, 0) = 9 omega is no Walsh value: every sum is 9 omega
    with pytest.raises(PowerSumNotRational):
        walsh_mod._transform(F9, T[None])
    F8 = Field(2, 3)
    T = walsh_zero_table(Poly.x(F8))
    T[0] = [0, 8]  # W(0, 0) = -8: every sum is -8, rational but not 8 N with N >= 0
    with pytest.raises(PowerSumNotRational):
        walsh_mod._transform(F8, T[None])
    T = walsh_zero_table(Poly.x(F8))
    T[1] = [3, 5]  # W(0, 1) = -2: every sum is 8 + 2 or 8 - 2, no multiple of 8
    with pytest.raises(PowerSumNotRational):
        walsh_mod._transform(F8, T[None])


def test_degree_six_nondivisor_gadget():
    """X^2 (X-2)^4, n = 2: a degree-6 gadget needs S_1..S_6, and
    spectral_verdict agrees with brute force."""
    for p, m in SPECTRAL_FIELDS:
        if p == 2:
            continue
        ctx = Field(p, m)
        g = _gadget([0, 0, 2, 2, 2, 2], 2, p, m)
        assert g.bound == 1
        assert validate_phi(g) == (True, None)
        dom = tuple(ctx.elements())
        for tbl in _tables(ctx, seed=300 * p + m):
            assert spectral_verdict(tbl, g, ctx) == is_n_to_1(tbl, dom, 2)


def test_gadget_above_the_phi_cap_is_refused():
    g = _gadget([0, 0] + [2] * 7, 2, 3, 2)
    assert validate_phi(g) == (False, None)
    with pytest.raises(DegreeTooHigh):
        char_sum(Poly.x(F9), g, F9)


BAD_TABLES = {
    "short": np.arange(8, dtype=np.int64),
    "float": np.arange(9, dtype=np.float64),
    "negative": np.asarray([0, 1, 2, 3, 4, 5, 6, 7, -1], dtype=np.int64),
    "too_large": np.asarray([0, 1, 2, 3, 4, 5, 6, 7, 9], dtype=np.int64),
    "two_dimensional": np.zeros((9, 1), dtype=np.int64),
}


@pytest.mark.parametrize("kind", sorted(BAD_TABLES))
def test_raw_tables_are_validated(kind):
    tbl = BAD_TABLES[kind]
    for call in (lambda: char_sum(tbl, phi(2, 3, 2), F9),
                 lambda: spectral_verdict(tbl, phi(2, 3, 2), F9),
                 lambda: walsh_zero_table(tbl, F9),
                 lambda: walsh(tbl, 0, 1, F9)):
        with pytest.raises(FieldMismatch):
            call()


def test_char_sum_refuses_a_gadget_of_another_field():
    with pytest.raises(ZeroInput, match="^gadget was built for a different field$"):
        char_sum(Poly.x(F9), phi(2, 5, 2), F9)


KERNEL_FIELDS = [(7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _corpus(ctx, seed, rounds):
    """rounds x (random, 2-to-1, p-to-1) value tables over ctx, as one matrix."""
    return np.stack([t for r in range(rounds) for t in _tables(ctx, seed + r)])


def _gadgets(p, m):
    return [phi(p, p, m)] + ([phi(2, p, m)] if p != 2 else [])


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_fiber_size_rows_match_brute_force_and_convolution(p, m):
    """The blocked kernel on a corpus of 21 maps (a ragged last block when
    q^2 > 195): each row's sizes are the map's fiber sizes, the moments of
    the first three rows are the additive_convolution power sums, and both
    gadgets' verdicts are n_to_1_rows' and the one-row char_sum's."""
    ctx = Field(p, m)
    q = ctx.order
    V = _corpus(ctx, 400 * p + m, 7)
    N = walsh_mod.fiber_size_rows(ctx, V)
    assert N.shape == V.shape
    assert np.array_equal(np.sort(N, axis=1), np.sort(row_counts(V, q), axis=1))
    for row, moments in zip(V[:3], walsh_mod._fiber_moments(N[:3], 3)):
        want = _convolution_powers(ctx, walsh_zero_table(row, ctx), 3)
        assert [m_j * q ** (j - 1) for j, m_j in enumerate(moments, 1)] == [_rational(s) for s in want]
    gadgets = _gadgets(p, m)
    for g, sums in zip(gadgets, walsh_mod.char_sum_rows(ctx, N, *gadgets)):
        spectral = [s == g.bound for s in sums]
        assert spectral == n_to_1_rows(V, q, g.n).tolist()
        assert spectral == [is_n_to_1(row, None, g.n) for row in V]
        assert sums == [char_sum(row, g, ctx) for row in V]
        kind = 1 if g.n == 2 else 2  # the constructed n-to-1 maps of each round
        assert all(spectral[kind::3])


def test_fiber_size_rows_one_row_and_a_ragged_last_block(monkeypatch):
    """B = 1 is walsh_zero_table's transform; B = 450 over GF(9) runs blocks
    of 202, 202 and 46 maps (2^14 // 81 = 202) whose tables are
    walsh_zero_table's, and reads the field's trace table once."""
    V = _corpus(F9, 7, 150)
    one = walsh_mod.fiber_size_rows(F9, V[:1])
    assert np.array_equal(one, walsh_mod._transform(F9, walsh_zero_table(V[0], F9)[None]))
    blocks = list(walsh_mod._zero_tables(F9, V))
    assert [(lo, hi) for lo, hi, _ in blocks] == [(0, 202), (202, 404), (404, 450)]
    assert np.array_equal(np.concatenate([T for _, _, T in blocks]),
                          np.stack([walsh_zero_table(row, F9) for row in V]))
    reads, real = [], Field.trace_to_prime_table
    monkeypatch.setattr(Field, "trace_to_prime_table", lambda self: reads.append(self) or real(self))
    N = walsh_mod.fiber_size_rows(F9, V)
    assert reads == [F9]
    assert np.array_equal(N, np.concatenate([walsh_mod.fiber_size_rows(F9, V[i:i + 1])
                                             for i in range(len(V))]))


def test_fiber_size_rows_at_the_domain_cap_with_a_degree_eight_gadget():
    """Two maps at q = 2^12, one block each of 2^10 four-v passes, against
    sum_y phi(N_y) for X^2 (X-2)^6."""
    F = Field(2, 12)
    q = F.order
    g = _gadget([0, 0] + [2] * 6, 2, 2, 12)
    V = np.stack([_n_to_1_table(F, 2, random.Random(9)),
                  np.random.default_rng(9).integers(0, q, q)])
    N = walsh_mod.fiber_size_rows(F, V)
    assert np.array_equal(np.sort(N, axis=1), np.sort(row_counts(V, q), axis=1))
    sums = walsh_mod.char_sum_rows(F, N, g)[0]
    assert sums == [sum(n * n * (n - 2) ** 6 for n in row) for row in N.tolist()]
    assert [s == g.bound for s in sums] == [True, False]


_FLOAT_ROWS = np.zeros((2, 9))  # a float matrix: no bincount or gather may see it
_FLAT_ROW = np.arange(9)  # a 1-D vector: one value table with no row axis
_FLOAT_MSG = r"not shape \(2, 9\) dtype float64"
_FLAT_MSG = r"not shape \(9,\) dtype int64"


@pytest.mark.parametrize("call,V,want", [
    (lambda V: row_counts(V, 9), _FLOAT_ROWS, _FLOAT_MSG),
    (lambda V: row_counts(V, 9), _FLAT_ROW, _FLAT_MSG),
    (lambda V: classify_rows(V, 9), _FLOAT_ROWS, _FLOAT_MSG),
    (lambda V: classify_rows(V, 9), _FLAT_ROW, _FLAT_MSG),
    (lambda V: n_to_1_rows(V, 9, 3), _FLOAT_ROWS, _FLOAT_MSG),
    (lambda V: n_to_1_rows(V, 9, 0), _FLAT_ROW, _FLAT_MSG),
    (lambda V: walsh_mod.fiber_size_rows(F9, V), _FLOAT_ROWS, "rows of 9 integer entries"),
], ids=["row_counts-float", "row_counts-1d", "classify_rows-float", "classify_rows-1d",
        "n_to_1_rows-float", "n_to_1_rows-1d", "fiber_size_rows-float"])
def test_a_malformed_value_matrix_is_a_field_mismatch(call, V, want):
    """Refused before any bincount or gather, naming the shape and dtype
    (row_counts) or the integer entries (fiber_size_rows)."""
    with pytest.raises(FieldMismatch, match=want):
        call(V)


def test_row_counts_reads_unsigned_matrices():
    """uint64 + the int64 row offset would be float64: the offset sum is int64."""
    V = np.array([[0, 1, 1, 8], [2, 2, 2, 2]])
    want = row_counts(V, 9)
    for dtype in (np.uint8, np.uint64):
        assert np.array_equal(row_counts(V.astype(dtype), 9), want)


def test_char_sum_rows_with_no_gadget_is_empty():
    assert walsh_mod.char_sum_rows(F9, walsh_mod.fiber_size_rows(F9, _corpus(F9, 2, 1))) == []


def test_non_walsh_table_names_its_row_and_u():
    V = _corpus(F9, 3, 1)
    T = next(walsh_mod._zero_tables(F9, V))[2]
    T[1, 0] = [0, 9, 0]  # W(0, 0) = 9 omega: every sum of row 1 is off by 9 omega - 9
    with pytest.raises(PowerSumNotRational, match=r"^character sum \[.*\] of row 11 at u=0 is not q = 9"):
        walsh_mod._transform(F9, T, first=10)
    assert np.array_equal(walsh_mod._transform(F9, T[[0, 2]]),
                          walsh_mod.fiber_size_rows(F9, V[[0, 2]]))
    with pytest.raises(FieldMismatch):
        walsh_mod.fiber_size_rows(F9, np.full((2, 9), 9))
