"""The n-to-1 definition itself: classification, membership, oracles."""

import ast
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nto1 import (
    Field, LinearizedPoly, Poly, classify, classify_rows, counting, histogram, is_n_to_1,
    linearized_oracle, monomial_oracle, verify,
)
from nto1.counting import _decide, _histogram_dict, n_to_1_rows, row_blocks
from nto1.errors import (
    ExceptionCountMismatch, FieldMismatch, HistogramLostMass, NTo1Error, ZeroInput,
)

F7 = Field(7, 1)
F8 = Field(2, 3)


def table(counts):
    """A value table realizing the given positive fiber sizes on 0..sum-1."""
    return np.repeat(np.arange(len(counts)), counts)


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
        _decide(np.array([1, 3, 3]), 8)
    assert _decide(np.array([1, 3, 3]), 7) == (3, (0, 1), False)


def test_small_count_must_be_unique():
    rep = classify(table([3, 1, 1]))
    assert rep.irregular


def test_identity_and_constant():
    rep = classify(np.arange(11))
    assert (rep.n, rep.exception) == (1, None)
    rep = classify(np.zeros(11, dtype=np.int64))
    assert (rep.n, rep.exception) == (11, None)


def test_is_n_to_1_reads_the_definition_literally():
    const5 = np.zeros(5, dtype=np.int64)
    dom = tuple(range(5))
    assert is_n_to_1(const5, dom, 5)
    # for n > #A the single value carries exactly #A mod n = #A preimages
    assert is_n_to_1(const5, dom, 7)
    assert not is_n_to_1(const5, dom, 3)
    assert is_n_to_1(np.arange(5), dom, 1)


def test_an_empty_list_domain_reads_as_an_empty_index_array():
    # np.asarray([]) is float64, once an untyped IndexError as an index
    f = np.arange(7)
    empty = np.array([], dtype=np.int64)
    for domain in ([], (), range(0)):
        with pytest.raises(ZeroInput, match="^empty domain$"):
            classify(f, domain)
        for n in (1, 2, 7):
            assert is_n_to_1(f, domain, n) == is_n_to_1(f, empty, n)
        assert histogram(f, domain) == histogram(f, empty) == {}


def test_classify_names_one_n():
    assert classify(Poly(F7, [(3, 1)])).n == 3
    assert classify(table([2, 2, 3])).n == 0  # irregular: not n-to-1 for any n


@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
@settings(max_examples=60)
def test_definition_and_classify_agree_once_the_domain_holds_n(sizes, data):
    # with #A >= n, some fiber has n preimages, so the definition at n and
    # classify's canonical n are the same question
    t = table(sizes)
    n = data.draw(st.integers(1, t.size))
    assert is_n_to_1(t, None, n) == (classify(t).n == n)


def test_constant_map_below_n_is_n_to_1_but_classifies_as_its_domain():
    # #A < n: the one fiber holds #A mod n = #A, so the definition holds,
    # while classify names n = #A
    for size, n in ((1, 2), (2, 3), (5, 7)):
        const = np.zeros(size, dtype=np.int64)
        assert is_n_to_1(const, None, n)
        assert classify(const).n == size != n


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_random_n_to_1_tables_classify_at_n(n, seed):
    rng = random.Random(seed)
    size = n * rng.randrange(2, 6) + rng.randrange(n)
    xs = list(range(size))
    rng.shuffle(xs)
    out = np.empty(size, dtype=np.int64)
    t = size % n
    vi = 0
    if t:
        out[xs[:t]] = vi
        vi += 1
    for pos in range(t, size, n):
        out[xs[pos:pos + n]] = vi
        vi += 1
    rep = classify(out)
    assert is_n_to_1(out, tuple(range(size)), n)
    if t == 0:
        assert rep.n == n and rep.exception is None
    elif n < size:
        assert rep.n == n and rep.exception == (0, t)


def test_histogram_of_dict():
    # a value table in, a value -> count dict out, also on a domain
    assert histogram(np.array([1, 1, 5])) == {1: 2, 5: 1}
    assert histogram(np.array([1, 1, 5, 7]), domain=[0, 3]) == {1: 1, 7: 1}
    assert histogram(Poly(F7, [(2, 1)]), domain=[1, 6, 0]) == {0: 1, 1: 2}


def test_dict_and_callable_maps_are_refused():
    rep = classify(np.arange(9) % 3, domain=range(9))
    assert rep.n == 3
    for f in ({x: x for x in range(9)}, lambda x: x % 3, [0, 1, 2], np.zeros(3)):
        with pytest.raises(TypeError, match="unsupported map object"):
            histogram(f, domain=range(3))
        with pytest.raises(TypeError, match="unsupported map object"):
            classify(f, domain=range(3))
        with pytest.raises(TypeError, match="unsupported map object"):
            is_n_to_1(f, range(3), 1)


def test_negative_entries_are_a_typed_error():
    for f in (np.array([-1, 0, 3]), np.array([-3, -1])):
        with pytest.raises(FieldMismatch, match="nonnegative"):
            histogram(f)
        with pytest.raises(FieldMismatch, match="nonnegative"):
            classify(f)
        with pytest.raises(FieldMismatch, match="nonnegative"):
            is_n_to_1(f, None, 1)
    with pytest.raises(FieldMismatch, match="nonnegative"):
        classify(np.array([2, -1, 2]), domain=[0, 1])
    with pytest.raises(FieldMismatch, match=r"must lie in \[0, 4\)"):
        n_to_1_rows(np.array([[-1, 0, 3]]), 4, 1)


def _fold(row, n):
    """The definition at n read off one row's histogram, the reference for
    n_to_1_rows."""
    counts = list(histogram(row).values())
    t = len(row) % n
    if t == 0:
        return all(c == n for c in counts)
    return counts.count(t) == 1 and all(c in (n, t) for c in counts)


def test_n_to_1_rows_matches_a_histogram_fold_on_degenerate_tables():
    rng = np.random.default_rng(3)
    size, q = 12, 16
    rows = [np.full(size, v) for v in (0, 5, 15)]                           # constant maps
    rows += [rng.permutation(table([n] * (size // n) + [size % n] * (size % n > 0)))
             for n in range(1, size + 2)]                                    # #A mod n exceptions
    rows += [table([5, 5, 2]), table([5, 2, 2, 3]), table([4, 4, 1, 1, 2])]  # several sizes
    rows += [table([3, 3, 3, 2, 1]), table([1] * size), rng.integers(0, q, size)]
    V = np.array(rows)
    for n in range(0, size + 3):
        got = n_to_1_rows(V, q, n)
        assert got.dtype == bool and got.shape == (len(rows),)
        want = [n >= 1 and _fold(row, n) for row in rows]
        assert got.tolist() == want, n
        assert [is_n_to_1(row, None, n) for row in rows] == want, n
    assert n_to_1_rows(np.zeros((2, 0), dtype=np.int64), q, 3).tolist() == [True, True]


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


# ----------------------------------------------------------------------
# classify decides on the fiber counts; the decision on the value -> count
# histogram it replaced is the oracle.
# ----------------------------------------------------------------------

def _decide_on_histogram(hist, domain_size):
    """The decision on a fiber-size multiset: (n, exception, irregular)."""
    distinct = sorted(set(hist.values()))
    if len(distinct) == 1:
        return distinct[0], None, False
    if len(distinct) == 2:
        small, big = distinct
        small_values = [v for v, c in hist.items() if c == small]
        if len(small_values) == 1:
            if domain_size % big != small:
                raise ExceptionCountMismatch(
                    f"exception count {small} is not #A mod n = {domain_size} mod {big}")
            return big, (small_values[0], small), False
    return 0, None, True


def _oracle_maps():
    """(name, map, domain): every shape of input classify takes."""
    rng = np.random.default_rng(11)
    rnd = random.Random(11)
    F16, F27 = Field(2, 4), Field(3, 3)
    yield from ((f"random {i}", rng.integers(0, int(rng.integers(1, 40)), int(rng.integers(1, 60))), None)
                for i in range(200))
    yield from ((f"rows {i}", row, None) for i, row in enumerate(_random_rows(rng, 40, 64)))
    for ctx in (F7, F8, F16, Field(3, 2), F27):
        yield from ((f"n={n} {ctx}", verify._n_to_1_table(ctx, n, rnd), None) for n in range(2, 9))
    yield from (("constant", np.full(9, 4), None), ("identity", np.arange(13), None),
                ("one point", np.array([5]), None), ("lone exception", table([1, 4, 4, 4]), None),
                ("irregular", table([2, 3, 3, 1]), None), ("two small", table([3, 1, 1]), None))
    yield "on a domain", np.arange(16) % 5, np.array([0, 1, 5, 6, 10, 15])
    yield "on a domain list", np.arange(30) % 7, list(range(3, 30, 2))
    yield from ((f"poly {d}", Poly(F27, [(d, 1), (1, 2)]), None) for d in range(1, 27))
    yield from ((f"poly {d} on units", Poly(F7, [(d, 3)]), np.arange(1, 7)) for d in range(1, 7))
    for ctx, q_sub in ((F16, 2), (F16, 4), (Field(3, 4), 9)):
        for _ in range(10):
            L = LinearizedPoly(ctx, q_sub, [rnd.randrange(ctx.order) for _ in range(4 if q_sub < 4 else 2)])
            yield f"linearized {L}", L, None


def test_classify_decides_as_the_histogram_oracle():
    seen = set()
    for name, f, domain in _oracle_maps():
        rep = classify(f, domain)
        hist = histogram(f, domain)
        want = _decide_on_histogram(hist, sum(hist.values()))
        assert (rep.n, rep.exception, rep.irregular) == want, name
        assert rep.histogram == hist and rep.domain_size == sum(hist.values()), name
        assert all(type(v) in (int, bool) for v in (rep.n, rep.irregular, *(rep.exception or ()))), name
        seen.add((rep.irregular, rep.exception is None))
    assert seen == {(False, True), (False, False), (True, True)}


def test_decide_raises_where_the_histogram_oracle_does():
    # a lone small fiber whose size is not #A mod n; a full table cannot
    # give one, so the counts are passed with a domain size that disagrees
    cases = [([1, 3, 3], 8), ([0, 2, 0, 3, 3], 9), ([3, 3, 3, 0, 2], 12), ([1, 5], 7), ([4, 0, 1], 7),
             ([1, 3, 3], 7), ([2, 2, 2], 5), ([2, 3, 3, 2], 10), ([0, 0, 6], 6)]
    raised = 0
    for counts, size in cases:
        hist = {v: c for v, c in enumerate(counts) if c}
        try:
            want = _decide_on_histogram(hist, size)
        except ExceptionCountMismatch as exc:
            raised += 1
            with pytest.raises(ExceptionCountMismatch) as got:
                _decide(np.array(counts), size)
            assert str(got.value) == str(exc), (counts, size)
        else:
            assert _decide(np.array(counts), size) == want, (counts, size)
    assert raised == 5


# The values of these reports before classify stopped building the
# histogram dict eagerly.
PINNED_REPORTS = [
    ((7, 1), [0, 0, 0, 1],
     "NTo1Report(n=3, exception=(0, 1), histogram={0: 1, 1: 3, 6: 3}, domain_size=7, irregular=False)",
     '{"domain_size":7,"exception":[0,1],"irregular":false,"n":3}'),
    ((7, 1), [0, 1, 1],
     "NTo1Report(n=2, exception=(5, 1), histogram={0: 2, 2: 2, 5: 1, 6: 2}, domain_size=7, irregular=False)",
     '{"domain_size":7,"exception":[5,1],"irregular":false,"n":2}'),
    ((2, 4), [0, 0, 0, 0, 0, 1],
     "NTo1Report(n=5, exception=(0, 1), histogram={0: 1, 1: 5, 10: 5, 11: 5}, domain_size=16, "
     "irregular=False)",
     '{"domain_size":16,"exception":[0,1],"irregular":false,"n":5}'),
    ((2, 4), [0, 1, 1],
     "NTo1Report(n=2, exception=None, histogram={0: 2, 1: 2, 6: 2, 7: 2, 10: 2, 11: 2, 12: 2, 13: 2}, "
     "domain_size=16, irregular=False)",
     '{"domain_size":16,"exception":null,"irregular":false,"n":2}'),
    ((3, 3), [0] * 13 + [1],
     "NTo1Report(n=13, exception=(0, 1), histogram={0: 1, 1: 13, 2: 13}, domain_size=27, irregular=False)",
     '{"domain_size":27,"exception":[0,1],"irregular":false,"n":13}'),
    ((3, 3), [0, 0, 1, 1],
     "NTo1Report(n=0, exception=None, histogram={0: 2, 1: 3, 2: 1, 3: 1, 5: 1, 7: 3, 8: 1, 10: 1, 11: 1, "
     "12: 1, 14: 3, 18: 1, 20: 3, 21: 1, 22: 1, 23: 1, 25: 1, 26: 1}, domain_size=27, irregular=True)",
     '{"domain_size":27,"exception":null,"irregular":true,"n":0}'),
]


@pytest.mark.parametrize("field,dense,text,js", PINNED_REPORTS)
def test_report_repr_json_histogram_and_equality_are_pinned(field, dense, text, js):
    f = Poly.from_dense(Field(*field), dense)
    rep = classify(f)
    with pytest.raises(ValueError):  # read-only: the histogram is built from counts when read
        rep.counts[0] = 5
    assert repr(rep) == str(rep) == text
    assert rep.to_json() == js
    hist = ast.literal_eval(text[text.index("histogram=") + 10:text.index(", domain_size")])
    assert rep.histogram == hist and list(rep.histogram) == sorted(hist)
    same = classify(f.eval_all())
    assert same == rep and not same != rep and same is not rep
    assert not same.counts.flags.writeable
    others = [classify(Poly.from_dense(Field(*g), d))
              for g, d, _, _ in PINNED_REPORTS if (g, d) != (field, dense)]
    assert all(other != rep for other in others)
    assert rep != text and rep != hist


def test_equal_verdicts_on_other_histograms_are_unequal_reports():
    # same n, exception, size and irregular flag; only the histogram differs
    a, b = classify(np.array([0, 1, 1, 6, 1, 6, 6])), classify(np.array([0, 1, 1, 5, 1, 5, 5]))
    assert (a.n, a.exception, a.domain_size, a.irregular) == (b.n, b.exception, b.domain_size, b.irregular)
    assert a != b and a == classify(Poly(F7, [(3, 1)]))


def test_histogram_dict_checks_its_total_on_the_counts():
    counts = np.array([2, 0, 3, 0, 0, 1])
    assert _histogram_dict(counts, 6) == {0: 2, 2: 3, 5: 1}
    assert list(_histogram_dict(counts, 6)) == [0, 2, 5]  # codec order
    with pytest.raises(HistogramLostMass, match="histogram holds 6 preimages for a domain of 7"):
        _histogram_dict(counts, 7)


def test_classify_builds_no_histogram_until_it_is_read(monkeypatch):
    built = []
    real = counting._histogram_dict

    def spy(*args):
        built.append(args)
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("classify called counting.histogram")

    monkeypatch.setattr(counting, "_histogram_dict", spy)
    monkeypatch.setattr(counting, "histogram", refuse)
    rep = classify(Poly(F7, [(3, 1)]))
    assert (rep.n, rep.exception, rep.domain_size, rep.irregular) == (3, (0, 1), 7, False)
    assert rep.to_json()
    assert built == [] and "histogram" not in vars(rep)
    repr(rep)
    assert len(built) == 1 and "histogram" in vars(rep)
    assert rep.histogram is rep.histogram and len(built) == 1
    other = classify(np.arange(5))
    assert other != rep and len(built) == 2 and "histogram" in vars(other)


# ----------------------------------------------------------------------
# classify_rows: _decide on every row of a value matrix at once, with
# classify as the oracle.
# ----------------------------------------------------------------------

def _as_report(f):
    rep = classify(f)
    return rep.n, rep.exception, rep.irregular


def test_classify_rows_hand_rows():
    V = np.array([
        [4, 4, 4, 4, 4, 4, 4],   # constant: 7-to-1
        [3, 0, 6, 1, 5, 2, 4],   # permutation
        [2, 2, 2, 5, 5, 5, 0],   # 3-to-1, value 0 carries 7 mod 3 = 1
        [1, 1, 3, 3, 3, 6, 6],   # sizes 2, 3, 2: irregular
        [0, 0, 1, 1, 2, 2, 2],   # two sizes, the small one twice: irregular
        [0, 1, 1, 2, 2, 3, 3],   # 2-to-1, value 0 carries 1
    ])
    got = classify_rows(V, 7)
    assert got == [_as_report(row) for row in V]
    assert got[:3] == [(7, None, False), (1, None, False), (3, (0, 1), False)]
    assert got[3] == (0, None, True) and got[4] == (0, None, True)
    assert got[5] == (2, (0, 1), False)
    assert all(type(v) in (int, bool) for n, exc, irr in got for v in (n, irr, *(exc or ())))


def test_classify_rows_exception_count_mismatch_is_typed(monkeypatch):
    # a lone small fiber whose size is not #A mod n raises where _decide
    # does; full value rows cannot produce one, so the counts are bumped
    real = np.bincount

    def bumped(x, minlength=0):
        out = real(x, minlength=minlength)
        out[0] += 1  # value 0 of row 0: 1 preimage becomes 2, but 7 mod 3 = 1
        return out

    monkeypatch.setattr(np, "bincount", bumped)
    with pytest.raises(ExceptionCountMismatch, match="exception count 2 is not #A mod n = 7 mod 3"):
        classify_rows(np.array([[2, 2, 2, 5, 5, 5, 0]]), 7)


def test_classify_rows_refuses_bad_input():
    with pytest.raises(FieldMismatch):
        classify_rows(np.array([[0, 7]]), 7)
    with pytest.raises(FieldMismatch):
        classify_rows(np.array([[0, -1]]), 7)
    with pytest.raises(ZeroInput):
        classify_rows(np.zeros((3, 0), dtype=np.int64), 7)
    assert classify_rows(np.zeros((0, 5), dtype=np.int64), 7) == []


def _random_rows(rng, rows, q):
    """Rows mixing n-to-1 maps (with and without exception), maps onto a
    few values, and uniform noise."""
    out = np.empty((rows, q), dtype=np.int64)
    for i in range(rows):
        kind = rng.integers(3)
        if kind == 0:
            n = int(rng.integers(1, q + 1))
            out[i] = rng.permutation(np.arange(q) // n)
        elif kind == 1:
            out[i] = rng.integers(0, rng.integers(1, 4), size=q)
        else:
            out[i] = rng.integers(0, q, size=q)
    return out


@given(st.sampled_from([512, 1000, 2048, 4099]), st.integers(0, 2), st.integers(1, 31),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_classify_rows_in_blocks_matches_classify(q, full, extra, seed):
    step = next(row_blocks(10 ** 6, q))[1]
    rows = full * step + 1 + extra % (step - 1)  # never a multiple of the block
    V = _random_rows(np.random.default_rng(seed), rows, q)
    blocks = list(row_blocks(rows, q))
    assert blocks[0][0] == 0 and blocks[-1][1] == rows
    assert all(hi - lo <= max(1, 2 ** 14 // q) for lo, hi in blocks)
    got = []
    for lo, hi in blocks:
        got += classify_rows(V[lo:hi], q)
    assert got == [_as_report(row) for row in V]
