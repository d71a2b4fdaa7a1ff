"""Polynomial algebra, evaluation routes, affine maps, linear solving."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nto1 import Field, LinearizedPoly, Poly, eval_rows, is_additive
from nto1 import fields, polys
from nto1.errors import DegreeMismatch, FieldMismatch, FieldTooLarge, SingularSystem
from nto1.polys import (
    _stacked_rank, affine_rows, eval_coeff_rows, linearized_ranks, matrix_rank,
    roots_of_unity_interpolate_rows, row_reduce,
)


def solve_linear(ctx, mat, rhs):
    """Solve the square system mat * x = rhs on row_reduce; exact."""
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


def vandermonde_solve(ctx, points, values):
    """Coefficients of the unique polynomial of degree < len(points) through
    (points[i], values[i]): the oracle for roots_of_unity_interpolate_rows."""
    n = len(points)
    mat = [[ctx.pow(pt, j) if j else 1 for j in range(n)] for pt in points]
    return solve_linear(ctx, mat, list(values))


F7 = Field(7, 1)
F25 = Field(5, 2)
F27 = Field(3, 3)

dense7 = st.lists(st.integers(0, 24), min_size=1, max_size=7)


def test_init_sums_only_repeated_exponents():
    assert Poly(F7, [(2, 3), (2, 5), (1, 4)]).terms == ((1, 4), (2, 1))  # 3 + 5 = 1 mod 7
    assert Poly(F7, [(2, 3), (1, 1), (2, 4)]).terms == ((1, 1),)         # cancels, dropped
    assert Poly(F7, [(3, 0), (1, 2), (0, 0)]).terms == ((1, 2),)         # zeros dropped
    assert Poly(F7, [(3, 0), (3, 5)]).terms == ((3, 5),)
    assert Poly(F7, [(3, 0), (3, 0)]).terms == ()
    rng = random.Random(11)
    for ctx in (F7, F25, F27, Field(2, 4)):
        for _ in range(200):
            pairs = [(rng.randrange(6), rng.choice([0, rng.randrange(ctx.order)]))
                     for _ in range(rng.randrange(8))]
            acc = {}
            for e, c in pairs:
                acc[e] = ctx.add(acc.get(e, 0), c)
            want = tuple(sorted((e, c) for e, c in acc.items() if c))
            assert Poly(ctx, pairs).terms == want, pairs


def test_monomial_argument_order():
    # coefficient first, exponent second
    f = Poly.monomial(F7, 3, 5)
    assert f.terms == ((5, 3),)
    assert f(2) == F7.mul(3, F7.pow(2, 5))


@given(dense7, st.integers(0, 24))
def test_call_matches_horner(coeffs, x):
    f = Poly.from_dense(F25, coeffs)
    assert f(x) == f.eval_horner(x)


@given(dense7)
def test_eval_all_matches_pointwise(coeffs):
    f = Poly.from_dense(F25, coeffs)
    table = f.eval_all()
    for x in range(0, 25, 3):
        assert int(table[x]) == f(x)


@given(dense7, dense7, st.integers(0, 24))
def test_ring_homomorphism_of_evaluation(cf, cg, x):
    f, g = Poly.from_dense(F25, cf), Poly.from_dense(F25, cg)
    assert (f + g)(x) == F25.add(f(x), g(x))
    assert (f * g)(x) == F25.mul(f(x), g(x))
    assert (f - g)(x) == F25.sub(f(x), g(x))


@given(dense7, st.integers(0, 24), st.integers(0, 24))
def test_shift_is_translation(coeffs, b, x):
    f = Poly.from_dense(F25, coeffs)
    assert f.shift(b)(x) == f(F25.add(x, b))


@given(dense7, st.integers(1, 24), st.integers(0, 24), st.integers(0, 24))
def test_apply_affine_definition(coeffs, a, b, c):
    f = Poly.from_dense(F25, coeffs)
    g = Poly.from_dense(F25, affine_rows(F25, [f.dense() or [0]], [a], [b], [c])[0].tolist())
    for x in range(0, 25, 4):
        assert g(x) == F25.add(F25.mul(a, f(F25.add(x, b))), c)


def test_reduce_exponents_preserves_the_map():
    f = Poly(F27, [(0, 2), (1, 1), (26, 3), (27, 5), (53, 4)])
    g = f.reduce_exponents()
    assert all(e == 0 or 1 <= e <= 26 for e, _ in g.terms)
    for x in F27.elements():
        assert f(x) == g(x)


def test_vandermonde_interpolates():
    points = [1, 2, 3, 4]
    values = [6, 0, 2, 2]
    coeffs = vandermonde_solve(F7, points, values)
    h = Poly.from_dense(F7, coeffs)
    for pt, v in zip(points, values):
        assert h(pt) == v
    with pytest.raises(SingularSystem):
        vandermonde_solve(F7, [1, 1], [2, 3])


def test_is_additive():
    assert is_additive(Poly(F27, [(3, 1), (1, 2)]))      # x^3 + 2x
    assert not is_additive(Poly(F27, [(2, 1)]))          # x^2 in char 3
    assert is_additive(Poly(Field(2, 4), [(2, 1), (4, 7)]))


class TestLinearizedPoly:
    def test_eval_matches_definition(self):
        L = LinearizedPoly(F27, 3, [1, 2, 1])  # x + 2x^3 + x^9
        for x in F27.elements():
            want = F27.add(F27.add(x, F27.mul(2, F27.pow(x, 3))), F27.pow(x, 9))
            assert L(x) == want
        assert list(L.eval_all()) == [L(x) for x in F27.elements()]

    def test_additivity(self):
        L = LinearizedPoly(F27, 3, [2, 0, 1])
        for x in range(0, 27, 2):
            for y in range(0, 27, 5):
                assert L(F27.add(x, y)) == F27.add(L(x), L(y))

    def test_rank_counts_kernel(self):
        # x^3 - x kills exactly the prime field
        L = LinearizedPoly(F27, 3, [F27.neg(1), 1])
        kernel = [x for x in F27.elements() if L(x) == 0]
        assert len(kernel) == 3
        assert 3 ** (3 - L.rank()) == len(kernel)

    def test_rank_is_matrix_rank(self):
        F16 = Field(2, 4)
        L = LinearizedPoly(F16, 2, [1, 0, 1, 0])
        rows = [list(F16.coeffs(L(F16.element([int(i == j) for j in range(4)]))))
                for i in range(4)]
        assert L.rank() == matrix_rank(F16, rows)


# (p, m, sub_degree): prime and extension subfields, odd p, the sweep's
# extremes (q = 2^12, 3^7 and 61^2) and a prime field
RANK_TOWERS = [(2, 4, 2), (2, 6, 1), (2, 6, 2), (2, 6, 3), (3, 4, 1), (3, 4, 2),
               (3, 6, 3), (5, 2, 1), (5, 2, 2), (7, 2, 1), (2, 12, 1), (2, 12, 4),
               (3, 7, 1), (61, 2, 1), (61, 2, 2), (5, 1, 1)]


@pytest.mark.parametrize("p,m,k", RANK_TOWERS)
def test_rank_matches_brute_force_kernel(p, m, k):
    # a q_sub-polynomial of rank r over GF(q_sub^rel) has q_sub^(rel - r) roots
    ctx = Field(p, m)
    q_sub, rel = p ** k, m // k
    rng = random.Random(p * 1000 + m * 10 + k)
    lists = [[], [1]] + [[rng.randrange(ctx.order) for _ in range(rel)] for _ in range(6)]
    c = rng.randrange(1, ctx.order)
    lists += [[0] * rel, [3], [0] * (rel - 1) + [c]]  # all-zero and one-term maps
    if rel > 1:
        lists.append([ctx.neg(c), c])  # c(x^q_sub - x) kills GF(q_sub): rank rel - 1
    for coeffs in lists:
        L = LinearizedPoly(ctx, q_sub, coeffs)
        zeros = int(np.count_nonzero(L.eval_all() == 0))
        assert q_sub ** (rel - L.rank()) == zeros, coeffs
        # the digit rows of L(xbar^i) by scalar evaluation
        scalar = [ctx.coeffs(L(p ** i)) for i in range(m)]
        assert L.rank() == matrix_rank(Field(p, 1), scalar) // k, coeffs


def _digit_rank(L):
    """L's rank from the digit rows of L(xbar^i), by scalar evaluation and
    row_reduce over GF(p): the oracle of linearized_ranks."""
    ctx = L.ctx
    rows = [ctx.coeffs(L(ctx.p ** i)) for i in range(ctx.m)]
    return matrix_rank(Field(ctx.p, 1), rows) // L.sub_degree


@pytest.mark.parametrize("p,m,k", RANK_TOWERS)
def test_linearized_ranks_match_the_scalar_digit_rank(p, m, k):
    # one call over every subfield of GF(p^m), the tower's own q_sub included,
    # in a shuffled order, with all-zero, one-term and rank-deficient maps
    ctx = Field(p, m)
    rng = random.Random(p * 1000 + m * 10 + k + 1)
    Ls, known = [], {}  # known: the rank of the all-zero and rank-deficient maps
    for j in [d for d in range(1, m + 1) if m % d == 0]:
        rel = m // j
        c = rng.randrange(1, ctx.order)
        lists = [[c], [0] * (rel - 1) + [c]]
        lists += [[rng.randrange(ctx.order) for _ in range(rel)] for _ in range(6 if j == k else 2)]
        Ls += [LinearizedPoly(ctx, p ** j, coeffs) for coeffs in lists]
        Ls.append(LinearizedPoly(ctx, p ** j, [0] * rel))
        known[Ls[-1]] = 0
        if rel > 1:  # c(x^q_sub - x) kills GF(q_sub): rank rel - 1
            Ls.append(LinearizedPoly(ctx, p ** j, [ctx.neg(c), c]))
            known[Ls[-1]] = rel - 1
    rng.shuffle(Ls)
    assert len({L.q_sub for L in Ls}) == sum(m % d == 0 for d in range(1, m + 1))
    want = [_digit_rank(L) for L in Ls]
    assert all(r == known[L] for L, r in zip(Ls, want) if L in known)
    assert linearized_ranks(Ls) == want
    assert [L.rank() for L in Ls] == want  # cached by the batch
    fresh = [LinearizedPoly(ctx, L.q_sub, L.l_coeffs) for L in Ls]
    assert [L.rank() for L in fresh] == want  # one polynomial at a time
    assert linearized_ranks([]) == []


def test_linearized_ranks_need_one_field():
    Ls = [LinearizedPoly(F27, 3, [1]), LinearizedPoly(Field(3, 2), 3, [1])]
    with pytest.raises(FieldMismatch):
        linearized_ranks(Ls)


STACK_PRIMES = [2, 3, 61, 1048583, 2 ** 31 - 1]


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_stacked_rank_matches_row_reduce(p):
    # random (B, r, c) stacks: square and not, zero rows and columns, rows
    # that combine other rows, and entries p - 1, whose products (p - 1)^2
    # are the largest the int64 elimination meets (below 2^62 at p = 2^31 - 1)
    ctx = Field(p, 1)
    rng = random.Random(p)

    def entry():
        return rng.choice([0, 1, p - 1, rng.randrange(p)])

    for r, c in [(1, 1), (3, 3), (5, 5), (12, 12), (2, 6), (6, 2), (4, 7), (7, 4), (0, 3), (3, 0)]:
        mats = []
        for _ in range(8):
            mat = [[entry() for _ in range(c)] for _ in range(r)]
            if r > 2 and c:
                mat[rng.randrange(r)] = [0] * c
                zcol = rng.randrange(c)
                for row in mat:
                    row[zcol] = 0
                a, b = rng.randrange(p), rng.randrange(p)
                mat[-1] = [(a * x + b * y) % p for x, y in zip(mat[0], mat[1])]
            mats.append(mat)
        mats.append([[p - 1] * c for _ in range(r)])
        stack = np.array(mats, dtype=np.int64).reshape(len(mats), r, c)
        want = [row_reduce(ctx, [list(map(int, row)) for row in mat]) for mat in stack]
        assert _stacked_rank(stack, p).tolist() == want, (p, r, c)
        # reduced in place: entries stay residues, rows from the rank on are zero
        assert stack.size == 0 or 0 <= stack.min() <= stack.max() < p
        assert all(not stack[i, k:].any() for i, k in enumerate(want))
    assert _stacked_rank(np.zeros((0, 4, 4), dtype=np.int64), p).tolist() == []


def test_rank_needs_log_tables():
    # the rank gathers from the log tables, like eval_all on the same map
    with pytest.raises(FieldTooLarge):
        LinearizedPoly(Field(2, 21), 2, [1]).rank()


# ----------------------------------------------------------------------
# The array- and list-native routines against the scalar code they
# replaced, kept here as oracles.
# ----------------------------------------------------------------------

ORACLE_FIELDS = [Field(2, 1), Field(2, 4), Field(3, 1), F27, F25, F7, Field(13, 1), Field(61, 1)]


def _eval_all_oracle(f):
    """Per-term powering, scaling and adding with the vector kernels."""
    ctx = f.ctx
    xs = ctx.elements_array()
    out = np.zeros(ctx.order, dtype=np.int64)
    for e, c in f.terms:
        if e == 0:
            out = ctx.add_vec(out, np.full(ctx.order, c, dtype=np.int64))
        else:
            out = ctx.add_vec(out, ctx.scalar_mul_vec(c, ctx.pow_vec(xs, e)))
    return out


def _shift_oracle(f, b):
    """f(x + b) by Horner on Poly objects."""
    ctx = f.ctx
    xb = Poly(ctx, [(1, 1), (0, b)])
    acc = Poly.zero(ctx)
    for c in reversed(f.dense()):
        acc = acc * xb + Poly.constant(ctx, c)
    return acc


def _row_reduce_oracle(ctx, rows):
    """In-place RREF, one scalar field operation at a time."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][col])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _oracle_polys(ctx, rng):
    """Random sparse polynomials with exponents past q and multiples of
    q - 1, plus a constant-only and the zero polynomial."""
    q, n = ctx.order, ctx.order - 1
    out = [Poly.zero(ctx), Poly.constant(ctx, rng.randrange(1, q)),
           Poly(ctx, [(n, 1)]), Poly(ctx, [(3 * n, rng.randrange(1, q)), (0, rng.randrange(q))])]
    for _ in range(12):
        terms = [(rng.randrange(3 * q + 2), rng.randrange(q)) for _ in range(rng.randrange(1, 6))]
        terms.append((n * rng.randrange(1, 4), rng.randrange(q)))
        out.append(Poly(ctx, terms))
    return out


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
def test_eval_all_matches_pointwise_and_oracle(ctx):
    rng = random.Random(ctx.order)
    for f in _oracle_polys(ctx, rng):
        table = f.eval_all()
        assert table.dtype == np.int64 and table.shape == (ctx.order,)
        assert table.tolist() == [f(x) for x in ctx.elements()], f
        assert table.tolist() == [f.eval_horner(x) for x in ctx.elements()], f
        assert np.array_equal(table, _eval_all_oracle(f)), f


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
def test_shift_and_apply_affine_match_oracle(ctx):
    rng = random.Random(7 * ctx.order)
    q = ctx.order
    polys = [Poly.zero(ctx), Poly.constant(ctx, rng.randrange(1, q))]
    polys += [Poly.from_dense(ctx, [rng.randrange(q) for _ in range(rng.randrange(2, 9))])
              for _ in range(10)]
    for f in polys:
        for b in {0, 1, rng.randrange(q), q - 1}:
            g = f.shift(b)
            assert g == _shift_oracle(f, b)
            assert [g(x) for x in ctx.elements()] == [f(ctx.add(x, b)) for x in ctx.elements()]
            a, c = rng.randrange(1, q), rng.randrange(q)
            h = Poly.from_dense(ctx, affine_rows(ctx, [f.dense() or [0]], [a], [b], [c])[0].tolist())
            assert h == _shift_oracle(f, b).scale(a) + Poly.constant(ctx, c)
            assert h.eval_all().tolist() == [ctx.add(ctx.mul(a, f(ctx.add(x, b))), c)
                                             for x in ctx.elements()]
    with pytest.raises(FieldMismatch):
        polys[-1].shift(q)


def _oracle_matrices(ctx, rng):
    q = ctx.order

    def rand(r, c):
        return [[rng.randrange(q) for _ in range(c)] for _ in range(r)]

    mats = [rand(4, 4), rand(3, 6), rand(6, 3), rand(1, 5), rand(5, 1)]
    sing = rand(3, 5)
    k = rng.randrange(1, q)
    sing.append([ctx.add(a, ctx.mul(k, b)) for a, b in zip(sing[0], sing[2])])
    mats.append(sing)
    zcol = rand(4, 5)
    for row in zcol:
        row[0] = 0
        row[3] = 0
    mats.append(zcol)
    mats.append([[0] * 4 for _ in range(3)])
    mats.append([[rng.randrange(1, q)] + [0] * 3, [0, 0, 0, 0], [rng.randrange(1, q)] * 4])
    return mats


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
def test_row_reduce_matches_oracle(ctx):
    rng = random.Random(11 * ctx.order)
    for mat in _oracle_matrices(ctx, rng) + _oracle_matrices(ctx, rng):
        want = [list(row) for row in mat]
        want_rank = _row_reduce_oracle(ctx, want)
        rows = [list(row) for row in mat]
        rank = row_reduce(ctx, rows)
        assert rank == want_rank == matrix_rank(ctx, mat)
        assert rows == want, mat
        assert all(type(v) is int for row in rows for v in row)


def test_row_reduce_rejects_out_of_range_entries():
    # the bad entry sits in a row the elimination would never read
    for bad in (F7.order, -1, 7.0, "1"):
        rows = [[1, 0], [0, 1], [0, bad]]
        with pytest.raises(FieldMismatch):
            row_reduce(F7, rows)
    # ragged rows, whether short or long, anywhere in the system
    for rows in ([[1], [3, 4]], [[1, 2], [3]], [[1, 0], [0, 1], [5, 6, 0]], [[], [1]]):
        with pytest.raises(DegreeMismatch):
            row_reduce(F7, rows)
    assert row_reduce(F7, []) == 0
    assert row_reduce(F7, [[], []]) == 0


def test_affine_rows_above_the_log_table_gate():
    ctx = Field(2147483647, 1)
    f = Poly.from_dense(ctx, [1, 2, 3])
    h = Poly.from_dense(ctx, affine_rows(ctx, [[1, 2, 3]], [1], [2], [3])[0].tolist())
    want = _shift_oracle(f, 2).scale(1) + Poly.constant(ctx, 3)
    assert h == want == f.shift(2) + Poly.constant(ctx, 3)
    assert ctx._exp is None


def test_elimination_above_the_log_table_gate():
    big = Field(1048583, 1)  # a prime above the 2^20 log-table gate
    p = big.order
    rows = [[2, 3, 5], [7, 11, 13], [17, 19, p - 1]]
    want = [list(row) for row in rows]
    assert row_reduce(big, rows) == 3 == _row_reduce_oracle(big, want)
    assert rows == want == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(big, [[1, 2], [p - 2, p - 4]]) == 1
    mat, rhs = [[3, p - 1], [5, 2]], [4, 9]
    x = solve_linear(big, mat, rhs)
    assert [sum(a * b for a, b in zip(row, x)) % p for row in mat] == rhs
    with pytest.raises(SingularSystem):
        solve_linear(big, [[1, 2], [2, 4]], [1, 3])


# ----------------------------------------------------------------------
# The batch evaluator and the closed-form interpolation, against the
# oracles above and the Vandermonde solve.
# ----------------------------------------------------------------------

BATCH_FIELDS = [Field(2, 1), Field(2, 4), F27, F25, Field(13, 1)]


@pytest.mark.parametrize("ctx", BATCH_FIELDS, ids=repr)
def test_eval_rows_matches_oracle_and_pointwise(ctx):
    rng = random.Random(3 * ctx.order)
    q = ctx.order
    fs = _oracle_polys(ctx, rng)
    # sparse exponents far above q, and rows sharing only some columns
    fs += [Poly(ctx, [(10 ** 6 + 3, rng.randrange(1, q)), (2 ** 70 + 5, 1), (0, rng.randrange(q))]),
           Poly(ctx, [(q ** 5 - 1, rng.randrange(1, q))]),
           Poly(ctx, [(1, 1)]), Poly(ctx, [(2, rng.randrange(1, q)), (q, 1)])]
    table = eval_rows(ctx, fs)
    assert table.dtype == np.int64 and table.shape == (len(fs), q)
    for f, row in zip(fs, table):
        assert np.array_equal(row, _eval_all_oracle(f)), f
        assert row.tolist() == [f(x) for x in ctx.elements()], f
        assert np.array_equal(row, f.eval_all()), f
    # one column with zero and nonzero coefficients and no constant anywhere
    single = [Poly(ctx, [(5, c)]) for c in (0, 1, q - 1, 0)]
    assert eval_rows(ctx, single).tolist() == [[f(x) for x in ctx.elements()] for f in single]
    assert eval_rows(ctx, []).shape == (0, q)


def test_eval_rows_refuses_a_row_over_another_field():
    F9 = Field(3, 2)
    f8 = Poly(Field(2, 3), [(3, 7), (1, 5)])  # codes below 9: read as GF(9), a wrong table
    with pytest.raises(FieldMismatch, match=r"row 1 .*Field\(p=2, m=3\).*Field\(p=3, m=2\)"):
        eval_rows(F9, [Poly.x(F9), f8])
    f27 = Poly(F27, [(1, 20)])  # code 20 is no element of GF(9)
    with pytest.raises(FieldMismatch, match=r"row 0 .*Field\(p=3, m=3\).*Field\(p=3, m=2\)"):
        eval_rows(F9, [f27])


# ----------------------------------------------------------------------
# Prime fields: one int64 product of coefficients and Vandermonde rows.
# ----------------------------------------------------------------------

def _horner_mod_p(row, x, p):
    """The dense row (constant first) at x, by Horner in Python ints mod p."""
    acc = 0
    for c in reversed(row):
        acc = (acc * x + c) % p
    return acc


def test_eval_coeff_rows_is_horner_mod_p_on_every_prime_below_400():
    rng = random.Random(400)
    for p in filter(fields._is_prime, range(2, 400)):
        ctx = Field(p, 1)
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
        rows += [[0] * 6, [rng.randrange(1, p)] + [0] * 5,
                 [rng.choice([0, 0, rng.randrange(p)]) for _ in range(6)]]
        table = eval_coeff_rows(ctx, rows)
        assert table.dtype == np.int64 and table.shape == (len(rows), p)
        assert table.tolist() == [[_horner_mod_p(row, x, p) for x in range(p)] for row in rows], p
    # rows that are only a constant, and all-zero rows, need no exponent at all
    assert eval_coeff_rows(Field(5, 1), [[3, 0], [0, 0]]).tolist() == [[3] * 5, [0] * 5]


@pytest.mark.parametrize("p", [2, 3, 13, 101])
def test_one_row_eval_rows_with_many_sparse_exponents_over_gf_p(p, monkeypatch):
    # one row: every exponent is a chunk of its own
    ctx, n = Field(p, 1), p - 1
    rng = random.Random(p)
    exps = [n, 5 * n, 2 ** 70 + 5, 2 ** 90, 10 ** 6 + 3] + rng.sample(range(1, 4 * p), 6)
    f = Poly(ctx, [(e, rng.randrange(1, p)) for e in exps] + [(0, rng.randrange(p))])
    assert len(f.terms) > 2
    want = [sum(c * pow(x, e, p) for e, c in f.terms) % p for x in range(p)]
    row = eval_rows(ctx, [f])[0]
    assert row.tolist() == want == _eval_all_oracle(f).tolist()
    assert np.array_equal(row, f.eval_all())
    # reduced mod p every third term instead of once at the end
    monkeypatch.setattr(polys, "_SUM_TERMS", 3)
    assert eval_rows(ctx, [f])[0].tolist() == want


def test_eval_over_the_largest_prime_under_the_log_table_gate(monkeypatch):
    p = 1048573
    assert fields._is_prime(p) and all(not fields._is_prime(r) for r in range(p + 1, 2 ** 20))
    ctx = Field(p, 1)
    # every coefficient is p - 1, and so is every odd power of x = p - 1:
    # those products are (p - 1)^2, the largest there are; two rows make
    # chunks of two exponents, so the five exponents take three chunks
    exps = [1, 3, 2 ** 70 + 5, p - 1, 2 * (p - 1)]
    fs = [Poly(ctx, [(e, p - 1) for e in exps] + [(0, p - 1)]), Poly(ctx, [(e, p - 1) for e in exps])]
    table = eval_rows(ctx, fs)
    xs = [0, 1, 2, p - 2, p - 1] + random.Random(p).sample(range(p), 20)
    for f, row in zip(fs, table):
        assert [int(row[x]) for x in xs] == [f(x) for x in xs], f
    # a reduction mod p between every two chunks gives the same table
    monkeypatch.setattr(polys, "_SUM_TERMS", 2)
    assert np.array_equal(eval_rows(ctx, fs), table)


# ----------------------------------------------------------------------
# Packed digit sums (odd p, m > 1): renormalisation and headroom.
# ----------------------------------------------------------------------

def test_packed_sums_renormalise_past_the_cap_on_gf3_12():
    ctx = Field(3, 12)
    q, cap = ctx.order, ctx._packed_digits()[2]
    assert cap == 15
    rng = random.Random(312)
    sparse = Poly(ctx, [(rng.randrange(q, 3 * q), rng.randrange(1, q)) for _ in range(12)]
                  + [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(12)]
                  + [(q - 1, 1), (0, rng.randrange(1, q))])
    dense = Poly(ctx, [(e, rng.randrange(1, q)) for e in range(40)])
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(200)]
    for f in (sparse, dense):
        assert len(f.terms) > cap
        table = f.eval_all()
        assert [int(table[x]) for x in xs] == [f(x) for x in xs], f
    table = dense.eval_all()
    assert [int(table[x]) for x in xs] == [dense.eval_horner(x) for x in xs]


@pytest.mark.parametrize("ctx", [F27, F25, Field(7, 2), Field(3, 11)], ids=repr)
def test_eval_rows_block_equals_one_row_eval_all(ctx):
    rng = random.Random(ctx.order + 1)
    q = ctx.order
    exps = rng.sample(range(1, 3 * q), 20)
    fs = [Poly(ctx, [(e, rng.choice([0, 0, rng.randrange(1, q)])) for e in exps]
               + [(0, rng.choice([0, rng.randrange(1, q)]))]) for _ in range(5)]
    fs += [Poly(ctx, [(e, rng.randrange(1, q)) for e in exps]), Poly.constant(ctx, 2),
           Poly.zero(ctx), Poly(ctx, [(exps[0], 1)])]
    table = eval_rows(ctx, fs)
    if ctx.m == 11:  # cap 15 against 20 columns: the block renormalises
        assert len({e for f in fs for e, _ in f.terms if e}) > ctx._packed_digits()[2]
    for f, row in zip(fs, table):
        assert np.array_equal(row, f.eval_all()), f
    x = rng.randrange(q)
    assert [int(v) for v in table[:, x]] == [f(x) for f in fs]


def test_packed_headroom_holds_below_the_gate():
    caps = {}
    for p in filter(fields._is_prime, range(3, 2 ** 10)):
        m = 2
        while p ** m <= fields._LOG_TABLE_CAP:
            width, cap = fields._packed_headroom(p, m)
            assert cap >= 2 and width * m <= 63
            assert cap * (p - 1) < 2 ** width
            caps[p, m] = cap
            m += 1
    assert min(caps.values()) == caps[3, 12] == 15
    with pytest.raises(FieldTooLarge):
        fields._packed_headroom(3, 40)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("ctx", [F7, Field(13, 1), Field(2, 4), F27, F25], ids=repr)
def test_roots_of_unity_interpolate_matches_vandermonde(ctx):
    rng = random.Random(5 * ctx.order)
    q = ctx.order
    for ell in _divisors(q - 1):
        omega = ctx.unit_root(ell)
        points = [ctx.pow(omega, i) for i in range(ell)]
        cases = [[0] * ell, [rng.randrange(1, q)] * ell]
        cases += [[rng.choice([0, rng.randrange(q)]) for _ in range(ell)] for _ in range(4)]
        for values in cases:
            coeffs = roots_of_unity_interpolate_rows(ctx, omega, [values])[0].tolist()
            assert coeffs == vandermonde_solve(ctx, points, values), (ell, values)
            h = Poly.from_dense(ctx, coeffs)
            assert [h(pt) for pt in points] == values


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
def test_affine_rows_match_shift_oracle_and_pointwise(ctx):
    rng = random.Random(11 * ctx.order)
    q, p = ctx.order, ctx.p
    k = max(7, p + 3)  # rows reach degree >= p, where some C(i, j) vanish mod p
    polys = [[0] * k, [rng.randrange(1, q)] + [0] * (k - 1),
             [rng.randrange(q) for _ in range(k - 1)] + [rng.randrange(1, q)]]
    for _ in range(8):  # random lengths, padded with trailing zero columns
        row = [rng.randrange(q) for _ in range(rng.randrange(1, k + 1))]
        polys.append(row + [0] * (k - len(row)))
    F, abc = [], []
    for row in polys:
        for a, b, c in [(0, rng.randrange(q), rng.randrange(q)), (rng.randrange(1, q), 0, rng.randrange(q)),
                        (rng.randrange(1, q), rng.randrange(1, q), rng.randrange(q)), (1, q - 1, 0)]:
            F.append(row)
            abc.append((a, b, c))
    G = affine_rows(ctx, F, *np.array(abc).T)
    assert G.dtype == np.int64 and G.shape == (len(F), k)
    xs = list(ctx.elements())
    for row, (a, b, c), g_row in zip(F, abc, G.tolist()):
        f, g = Poly.from_dense(ctx, row), Poly.from_dense(ctx, g_row)
        assert g == _shift_oracle(f, b).scale(a) + Poly.constant(ctx, c), (row, a, b, c)
        assert g == f.shift(b).scale(a) + Poly.constant(ctx, c)
        assert g.eval_all().tolist() == [ctx.add(ctx.mul(a, f(ctx.add(x, b))), c) for x in xs]


def test_affine_rows_refuse_bad_shapes_and_entries():
    ctx = Field(7, 1)
    F = [[1, 2, 3], [0, 1, 0]]
    assert affine_rows(ctx, F, [1, 1], [0, 0], [0, 0]).tolist() == F
    with pytest.raises(DegreeMismatch):
        affine_rows(ctx, F, [1], [0, 0], [0, 0])  # a too short
    with pytest.raises(DegreeMismatch):
        affine_rows(ctx, F, [1, 1], [[0, 0]], [0, 0])  # b not a vector
    with pytest.raises(DegreeMismatch):
        affine_rows(ctx, [1, 2, 3], [1], [0], [0])  # one row, not a matrix
    with pytest.raises(DegreeMismatch):
        affine_rows(ctx, [[]], [1], [0], [0])  # no constant column
    for bad in ([[[1, 7], [0, 1]], [1, 1], [0, 0], [0, 0]], [F, [1, 1], [0, -1], [0, 0]],
                [F, [1, 1], [0, 0], [0, 7]], [F, [7, 1], [0, 0], [0, 0]]):
        with pytest.raises(FieldMismatch, match=r"over GF\(7\) need integer entries in \[0, 7\)"):
            affine_rows(ctx, *bad)


@pytest.mark.parametrize("coeffs", [[[-3, 1]], [[2, -1]], [[0, 7]], [[7, 1]]],
                         ids=["negative constant", "negative coefficient", "coefficient q", "constant q"])
def test_eval_coeff_rows_refuses_entries_outside_the_field(coeffs):
    with pytest.raises(FieldMismatch, match=r"^coefficient rows over GF\(7\) need integer entries in \[0, 7\)$"):
        eval_coeff_rows(Field(7, 1), coeffs)


@pytest.mark.parametrize("ctx", [Field(3, 2), Field(13, 1), Field(2, 4), F25], ids=repr)
def test_batched_interpolation_matches_vandermonde_row_by_row(ctx):
    rng = np.random.default_rng(ctx.order)
    q = ctx.order
    for ell in _divisors(q - 1)[1:]:
        omega = ctx.unit_root(ell)
        points = [ctx.pow(omega, i) for i in range(ell)]
        values = rng.integers(0, q, size=(40, ell))
        values[rng.random(values.shape) < 0.3] = 0
        values[0] = 0
        coeffs = roots_of_unity_interpolate_rows(ctx, omega, values)
        assert coeffs.shape == values.shape
        for row, want in zip(values.tolist(), coeffs.tolist()):
            assert want == vandermonde_solve(ctx, points, row), (ell, row)
        tables = eval_coeff_rows(ctx, coeffs)
        for row, table in zip(coeffs.tolist(), tables):
            assert table.tolist() == Poly.from_dense(ctx, row).eval_all().tolist()
        assert (tables[:, points] == values).all()
    with pytest.raises(FieldMismatch):
        roots_of_unity_interpolate_rows(ctx, omega, [[0] * (ell - 1) + [q]])


def test_roots_of_unity_interpolate_needs_exact_order():
    ctx = Field(13, 1)
    with pytest.raises(SingularSystem):
        roots_of_unity_interpolate_rows(ctx, ctx.unit_root(2), [[1, 2, 3, 4]])  # order 2, not 4
    with pytest.raises(SingularSystem):
        roots_of_unity_interpolate_rows(ctx, ctx.unit_root(12), [[1, 2, 3]])
