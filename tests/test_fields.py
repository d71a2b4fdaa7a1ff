"""Field arithmetic, the element codec, and subfield embeddings."""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nto1 import Field, Poly, SubfieldEmbed, eval_rows, field_from_spec, fields
from nto1.errors import FieldMismatch, FieldTooLarge, NotPrime, NotPrimitive, ReducibleModulus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
F9 = Field(3, 2)
F16 = Field(2, 4)
F25 = Field(5, 2)
F27 = Field(3, 3)


def test_default_modulus_is_deterministic():
    # first monic irreducible in the search order, coefficients low-to-high
    assert F9.modulus == (1, 0, 1)
    assert Field(2, 3).modulus == (1, 0, 1, 1)
    assert F27.modulus == (1, 0, 2, 1)
    assert Field(3, 2).beta == F9.beta
    # the search skips the multiples of x; a scan over every candidate agrees
    for p, m in [(2, 1), (2, 5), (3, 3), (5, 2), (7, 3)]:
        candidates = ([(k // p ** (m - 1 - i)) % p for i in range(m)] + [1] for k in range(p ** m))
        assert Field(p, m).modulus == tuple(next(c for c in candidates if fields._is_irreducible(c, p)))


def test_check_accepts_and_rejects_the_same_inputs():
    for a, want in ((3, 3), (np.int64(3), 3), (True, 1), (np.uint8(0), 0), (F9.order - 1, 8)):
        got = F9.check(a)
        assert type(got) is int and got == want
    for bad in (-1, F9.order, np.int64(F9.order), 1.0, "1", None):
        with pytest.raises(FieldMismatch):
            F9.check(bad)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        Field(3, 2, modulus=[1, 2, 1])  # (x+1)^2
    with pytest.raises(NotPrime):
        Field(6, 1)


def test_codec_roundtrip():
    for a in F27.elements():
        assert F27.element(F27.coeffs(a)) == a
    assert F27.element([1, 2]) == 1 + 2 * 3
    with pytest.raises(FieldMismatch):
        F27.check(27)
    with pytest.raises(FieldMismatch):
        F27.check(-1)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_ring_axioms_gf16(a, b, c):
    F = F16
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.integers(1, 24))
def test_inverses_gf25(a):
    assert F25.mul(a, F25.inv(a)) == 1
    assert F25.add(a, F25.neg(a)) == 0


def test_beta_is_primitive():
    seen = set()
    x = 1
    for _ in range(F27.order - 1):
        seen.add(x)
        x = F27.mul(x, F27.beta)
    assert len(seen) == F27.order - 1
    assert F27.element_order(F27.beta) == 26


def test_default_beta_is_the_first_primitive_element():
    # the ascending search from 1 that Field used before it skipped GF(p)
    for p in filter(fields._is_prime, range(2, 65)):
        m = 2
        while p ** m <= 4096:
            F = Field(p, m)
            factors = fields._prime_factors(F.order - 1)
            assert F.beta == next(c for c in range(1, F.order) if F._is_primitive(c, factors)), (p, m)
            m += 1


def _naive_prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def test_prime_factors_by_blocked_trial_division():
    for n in range(1, 3000):
        assert fields._prime_factors(n) == _naive_prime_factors(n), n
    # products of primes from several 2^16-divisor blocks, up to the 2^24 bound
    primes = [2, 3, 5, 7, 65521, 65537, 131071, 1000003]
    rng = random.Random(61)
    for _ in range(50):
        chosen = sorted(rng.sample(primes, rng.randrange(1, 5)))
        n = 1
        for r in chosen:
            n *= r ** rng.randrange(1, 3)
        assert fields._prime_factors(n) == chosen, n
    assert fields._prime_factors(6 * 65537 ** 2 * 16777213 ** 2) == [2, 3, 65537, 16777213]
    # cofactors just under the 2^48 reach: 2^59 - 1 and 2^49 - 1
    assert fields._prime_factors(2 ** 59 - 1) == [179951, 3203431780337]
    assert fields._prime_factors(2 ** 49 - 1) == [127, 4432676798593]
    # limbs above 2^64: 2^64 + 1 = 274177 * 67280421310721
    assert fields._prime_factors(2 ** 64 + 1) == [274177, 67280421310721]
    assert Field(2, 49).element_order(Field(2, 49).beta) == 2 ** 49 - 1


def test_unfactorable_unit_order_is_field_too_large():
    # 2^61 - 1 is prime and above 2^48, so trial division up to 2^24 cannot settle it
    with pytest.raises(FieldTooLarge, match="cannot factor 2305843009213693951"):
        fields._prime_factors(2 ** 61 - 1)
    with pytest.raises(FieldTooLarge, match=r"GF\(2\^61\), q = 2305843009213693952"):
        Field(2, 61)
    # q - 1 is factored before the modulus search, which would not end at degree 500
    with pytest.raises(FieldTooLarge, match=rf"GF\(2\^500\), q = {2 ** 500}: cannot factor "):
        Field(2, 500)


def test_pow_and_frobenius():
    for a in F9.elements():
        acc = 1
        for _ in range(5):
            acc = F9.mul(acc, a)
        assert F9.pow(a, 5) == acc
        # Frobenius is additive
    for a in F9.elements():
        for b in F9.elements():
            assert F9.frobenius(F9.add(a, b)) == F9.add(F9.frobenius(a), F9.frobenius(b))


def test_unit_root_and_power_class():
    w = Field(7, 1).unit_root(3)
    assert Field(7, 1).element_order(w) == 3
    F7 = Field(7, 1)
    squares = {F7.mul(a, a) for a in F7.units()}
    for a in F7.units():
        assert (F7.power_class(a, 2) == 0) == (a in squares)


def test_vec_kernels_match_scalar_ops():
    for F in (F16, Field(7, 1), F27):
        xs = F.elements_array()
        ys = np.roll(xs, 3)
        assert all(int(v) == F.add(int(x), int(y)) for v, x, y in zip(F.add_vec(xs, ys), xs, ys))
        assert all(int(v) == F.mul(int(x), int(y)) for v, x, y in zip(F.mul_vec(xs, ys), xs, ys))
        assert all(int(v) == F.pow(int(x), 5) for v, x in zip(F.pow_vec(xs, 5), xs))
        # scalar_mul_vec keeps the input's shape, 0-d included, and zero entries
        for c in (0, 1, F.beta):
            for a in (np.int64(F.beta), np.int64(0), xs, np.stack([xs, ys, np.zeros_like(xs)])):
                got = F.scalar_mul_vec(c, a)
                assert got.dtype == np.int64 and got.shape == np.shape(a)
                assert got.ravel().tolist() == [F.mul(c, int(x)) for x in np.ravel(a)]
        with pytest.raises(FieldMismatch):
            F.scalar_mul_vec(F.order, xs)


def test_trace_table_on_a_cold_field():
    # must not block when the table is the first thing ever computed
    F = Field(3, 2)
    tr = F.trace_to_prime_table()
    for a in F.elements():
        assert int(tr[a]) == F.trace_to_prime(a)


def test_spec_roundtrip():
    spec = json.loads(F25.spec_json())
    G = field_from_spec(spec)
    assert G.modulus == F25.modulus
    assert G.beta == F25.beta
    with pytest.raises(NotPrimitive, match=r"beta = \[1, 0\] is not a primitive element of GF\(5\^2\)"):
        field_from_spec({"p": 5, "m": 2, "beta": [1, 0]})  # 1 is not primitive


def test_beta_is_a_coefficient_list_or_an_element_code():
    # 6 has order 12 mod 13; 3 has order 3
    assert [Field(13, 1, beta=b).beta for b in (6, [6], np.int64(6))] == [6, 6, 6]
    F = Field(3, 2)
    beta = F.pow(F.beta, 5)  # gcd(5, 8) = 1: primitive, not the default
    assert Field(3, 2, beta=beta) == Field(3, 2, beta=list(F.coeffs(beta))) != F
    # a non-primitive beta, as a code (out of range included) or as a list, is refused by name
    for p, m, bad in ((13, 1, 3), (13, 1, 0), (13, 1, 13), (13, 1, -1), (13, 1, [3]),
                      (3, 2, 3), (3, 2, [0, 1])):  # x has order 4 in GF(9)* modulo x^2 + 1
        with pytest.raises(NotPrimitive) as err:
            Field(p, m, beta=bad)
        assert str(err.value) == f"beta = {bad!r} is not a primitive element of GF({p}^{m})"


def _scalar_tables(F):
    """The log/exp tables by the scalar chain v -> v * beta."""
    n = F.order - 1
    exp = np.zeros(2 * n, dtype=np.int64)
    log = np.full(F.order, -1, dtype=np.int64)
    v = 1
    for i in range(n):
        exp[i] = v
        log[v] = i
        v = F._raw_mul(v, F.beta)
    exp[n:] = exp[:n]
    return exp, log


def _assert_tables_match_scalar(F):
    F._ensure_tables()
    exp, log = _scalar_tables(F)
    assert np.array_equal(F._exp, exp), F
    assert np.array_equal(F._log, log), F
    assert F._log[0] == -1


def test_vectorised_tables_match_scalar_chain_up_to_4096():
    # every default field q <= 4096, which covers every frozen sweep
    for p in filter(fields._is_prime, range(2, 4097)):
        q, m = p, 1
        while q <= 4096:
            _assert_tables_match_scalar(Field(p, m))
            q, m = q * p, m + 1


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (5, 8), (3, 9)])
def test_vectorised_tables_match_scalar_chain_large(p, m):
    _assert_tables_match_scalar(Field(p, m))


_PEAK_SCRIPT = """
import sys, tracemalloc
from nto1 import Field, fields
p, m, case = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
F = Field(p, m)
if case == "trace":
    F._ensure_tables()
tracemalloc.start()
kept = F.trace_to_prime_table().nbytes if case == "trace" else (F._ensure_tables(), F._exp.nbytes + F._log.nbytes)[1]
print(tracemalloc.get_traced_memory()[1] - kept, fields._TABLE_ROWS)
"""


@pytest.mark.parametrize("p,m,case", [(2, 16, "tables"), (3, 10, "tables"), (2, 16, "trace"),
                                      (3, 10, "trace")])
def test_table_builds_peak_is_bounded_above_what_they_keep(p, m, case):
    # a fresh interpreter per case: tables are memoised for the life of the process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    r = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(p), str(m), case],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    excess, rows = map(int, r.stdout.split())
    q = p ** m
    if case == "tables":
        # a doubling step holds a few blocks of rows, plus the digits of the p^h low and
        # p^(m-h) high chunk values, h = ceil(m/2), m int64s each; the log table fills by
        # blocks too.  12.1 MB at GF(2^16) when a step ran whole, 1.05 MB with blocks of
        # rows x m digit arrays
        bound = 4 * rows * 8 + (p ** -(-m // 2) + p ** (m // 2)) * m * 8
    else:
        # the trace holds a fixed count of q-entry arrays (t, y, Frobenius table,
        # add_vec's operands, the section), however many Frobenius steps it takes
        bound = 6 * q * 8
    assert excess <= bound, (excess, bound)


def _subfield_degrees(m):
    return [k for k in range(1, m + 1) if m % k == 0]


@pytest.mark.parametrize("p,m,k", [(p, m, k) for p, m in ((2, 12), (3, 6), (5, 4))
                                   for k in _subfield_degrees(m)])
def test_trace_table_is_the_scalar_trace_on_every_element(monkeypatch, p, m, k):
    emb = SubfieldEmbed(Field(p, m), Field(p, k))
    calls = []
    pow_vec = Field.pow_vec
    monkeypatch.setattr(Field, "pow_vec", lambda self, a, e: calls.append(e) or pow_vec(self, a, e))
    tt = emb.trace_table()
    # one Frobenius table when there is a step to take, none at rel_degree 1
    assert calls == ([emb.q_sub] if emb.rel_degree > 1 else [])
    assert tt.tolist() == [emb.trace(x) for x in emb.big.elements()]


_TRACE_DIGESTS = {  # sha256 of the int64 bytes, as the pow_vec-per-step loop built them
    (2, 16, 1): "24609ba80e14a8cff82f3803239ee11785b9d99df793c4c7a549d77db35e5aac",
    (2, 16, 8): "caef0835ef58f4893f4cbfe3fb18010b70e92f975bdd175d1fcb8f86d17959de",
    (3, 10, 1): "26f8d4e5bc0fade62e064797353ab4c0f2e922ef04d0b533f1a5241c338d8f06",
    (3, 10, 5): "e03f0d3bb1850384ac8fbd0890d0e47482374853ce2c5bf2234c0dea41dcade5",
}


@pytest.mark.parametrize("p,m,k", sorted(_TRACE_DIGESTS))
def test_large_trace_tables_are_pinned(p, m, k):
    F = Field(p, m)
    tt = F.trace_to_prime_table() if k == 1 else SubfieldEmbed(F, Field(p, k)).trace_table()
    assert hashlib.sha256(tt.tobytes()).hexdigest() == _TRACE_DIGESTS[p, m, k]


def test_shared_tables_are_read_only():
    F, G = Field(7, 2), Field(7, 2)
    F.mul(2, 3)
    G.mul(2, 3)
    assert F is not G and F._exp is G._exp
    with pytest.raises(ValueError):
        F._exp[1] = 0
    with pytest.raises(ValueError):
        F._log[1] = 0


def test_spec_beta_and_default_beta_keep_their_own_tables(monkeypatch):
    monkeypatch.setattr(fields, "_MEMO", {})
    probe = Field(13, 2)
    beta = probe.pow(probe.beta, 5)  # gcd(5, 168) = 1: primitive, not the default
    spec = {"p": 13, "m": 2, "beta": list(probe.coeffs(beta))}
    probe._ensure_tables()
    default_tables = (probe._exp.copy(), probe._log.copy())

    monkeypatch.setattr(fields, "_MEMO", {})
    before = field_from_spec(spec)
    before.mul(2, 3)
    default = Field(13, 2)
    default.mul(2, 3)
    after = field_from_spec(spec)
    assert default.beta == probe.beta != beta
    for F, b in ((before, beta), (default, probe.beta), (after, beta)):
        assert F.beta == b
        assert F.exp_of(1) == b
        n = F.order - 1
        assert all(F.exp_of(F.log(a)) == a for a in F.units())
        assert all(F.log(F.exp_of(i)) == i for i in range(n))
    assert before._exp is after._exp
    assert before._exp is not default._exp
    assert np.array_equal(default._exp, default_tables[0])
    assert np.array_equal(default._log, default_tables[1])
    respec = field_from_spec(default.spec_json())
    respec.mul(2, 3)
    assert respec._exp is default._exp
    assert Field(**after.spec_dict()).spec_dict() == after.spec_dict()



def test_equality_and_hash_include_beta():
    default = Field(13, 2)
    beta = default.pow(default.beta, 5)  # primitive, not the default
    other = Field(13, 2, beta=list(default.coeffs(beta)))
    assert other.modulus == default.modulus and other.log(beta) != default.log(beta)
    assert other != default
    assert Poly.x(other) != Poly.x(default)
    again = Field(13, 2)
    assert again == default and hash(again) == hash(default)
    assert Poly.x(again) == Poly.x(default)

def test_cold_construction_is_thread_safe(monkeypatch):
    xs = np.arange(3 ** 7, dtype=np.int64)
    ys = (xs * 5 + 11) % 3 ** 7

    def work(_=None):
        F = Field(3, 7)
        emb = SubfieldEmbed(F, Field(3, 1))
        return F, emb, [F.mul_vec(xs, ys), F.trace_to_prime_table(), emb.trace_table()]

    monkeypatch.setattr(fields, "_MEMO", {})
    _, _, want = work()
    keys = set(fields._MEMO)

    builds = []
    build_tables = fields.Field._build_tables

    def counted(self):
        builds.append((self.p, self.m))
        return build_tables(self)

    monkeypatch.setattr(fields.Field, "_build_tables", counted)
    monkeypatch.setattr(fields, "_MEMO", {})
    start = threading.Barrier(8, timeout=60)

    def cold(_):
        start.wait()
        return work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(cold, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8
    assert set(fields._MEMO) == keys
    assert sorted(builds) == sorted(set(builds))
    F0, emb0, _ = got[0]
    for F, emb, results in got:
        for a, b in zip(results, want):
            assert np.array_equal(a, b)
        assert F._exp is F0._exp and F._log is F0._log
        assert emb.embed_table is emb0.embed_table


# ----------------------------------------------------------------------
# Vector addition: XOR, GF(p) residues and Zech's logarithm, against the
# scalar digit loop.
# ----------------------------------------------------------------------

def _assert_add_neg_match_scalar(F, a, b):
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    got, neg = F.add_vec(a, b), F.neg_vec(b)
    assert got.dtype == neg.dtype == np.int64
    assert got.tolist() == [F.add(x, y) for x, y in zip(a.tolist(), b.tolist())], F
    assert neg.tolist() == [F.neg(y) for y in b.tolist()], F
    assert np.array_equal(F.sub_vec(a, b), F.add_vec(a, neg)), F


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_mul_is_residue_mul_on_every_pair(p):
    F = Field(p, 1)
    for a in range(p):
        for b in range(p):
            assert F.mul(a, b) == F._raw_mul(a, b) == a * b % p, (p, a, b)
    assert type(F.mul(np.int64(p - 1), p - 1)) is int
    for a, b in ((p, 1), (1, p), (-1, 1), (1, 2.0)):
        with pytest.raises(FieldMismatch):
            F.mul(a, b)


def test_prime_field_mul_vec_is_scalar_mul_with_add_vecs_shapes():
    for p in filter(fields._is_prime, range(2, 100)):
        F = Field(p, 1)
        xs = F.elements_array()
        a, b = np.repeat(xs, p), np.tile(xs, p)
        assert F.mul_vec(a, b).tolist() == [F.mul(x, y) for x, y in zip(a.tolist(), b.tolist())], p
        # broadcasts and 0-d inputs come back as add_vec's do
        for u, v in ((xs[:, None], xs[None, :]), (np.int64(p - 1), xs), (p - 1, np.int64(p - 1)),
                     (np.int64(1), np.int64(p - 1)), (xs[1:4], 2)):
            got, like = F.mul_vec(u, v), F.add_vec(u, v)
            assert (type(got), got.dtype, np.shape(got)) == (type(like), like.dtype, np.shape(like))
        assert F._exp is None, p  # no tables


def test_mul_vec_over_the_largest_prime_below_2_31_needs_no_tables():
    p = 2147483647
    F = Field(p, 1)
    a = np.array([p - 1, p - 1, 0, 1, 2 ** 30], dtype=np.int64)
    assert F.mul_vec(a, a).tolist() == [F.mul(x, x) for x in a.tolist()]
    assert int(F.mul_vec(p - 1, p - 1)) == F.mul(p - 1, p - 1) == 1
    assert F.add_vec(p - 1, 1) == 0 and F._exp is None


def test_pow_vec_over_the_largest_prime_below_2_31_needs_no_tables():
    p = 2147483647
    F = Field(p, 1)
    a = np.array([[0, 1, 2, p - 1], [2 ** 30, 12345, p - 2, 7]], dtype=np.int64)
    for e in (1, 2, 3, p - 1, p, 2 ** 70 + 5, 3 * (p - 1)):
        got = F.pow_vec(a, e)
        assert got.shape == a.shape
        assert got.ravel().tolist() == [pow(x, e, p) for x in a.ravel().tolist()], e
    assert F._exp is None


def test_reduce_mod_is_the_remainder_in_place():
    rng = np.random.default_rng(5)
    for n, shape in ((65535, (3 * fields._TABLE_ROWS + 5,)), (1048575, (3, 2 * fields._TABLE_ROWS + 1)),
                     (7, (0,)), (531440, (5, 7))):
        x = rng.integers(0, n * n, size=shape, dtype=np.int64)
        want = x % n
        assert fields._reduce_mod(x, n) is x
        assert np.array_equal(x, want), n


@pytest.mark.parametrize("p,m", [(2, 20), (3, 12), (1048573, 1)])
def test_log_domain_exponents_at_the_gate_match_scalar_pow(p, m):
    F = Field(p, m)
    q, n = F.order, F.order - 1
    rng = np.random.default_rng(q)
    xs = np.concatenate([[0, 1, n], rng.integers(2, q, 200)])
    exps = [1, n - 1, n, n + 1, 5 * n + 1, 2 ** 63 + 12345]
    for e in exps:
        assert F.pow_vec(xs, e).tolist() == [F.pow(x, e) for x in xs.tolist()], e
    cs = rng.integers(1, q, len(exps)).tolist()
    rows = [Poly(F, list(zip(exps, cs)) + [(0, 3)]), Poly(F, [(exps[-1], cs[0])])]
    table = eval_rows(F, rows)
    for f, vals in zip(rows, table):
        want = [0] * len(xs)
        for e, c in f.terms:
            want = [F.add(w, F.mul(c, F.pow(x, e))) for w, x in zip(want, xs.tolist())]
        assert vals[xs].tolist() == want, f
    assert np.array_equal(rows[1].eval_all(), table[1])  # one-row, one-term case
    # pairs whose logs sum to n or past it, with zeros on either side
    la = rng.integers(n // 2, n, 300)
    lb = n - la + rng.integers(0, n // 2, 300)
    a, b = np.append(F._exp[la], [0, 5, 0]), np.append(F._exp[lb], [5, 0, 0])
    assert F.mul_vec(a, b).tolist() == [F.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_add_vec_and_neg_vec_match_scalar_on_every_pair(p, m):
    F = Field(p, m)
    q = F.order
    xs = F.elements_array()
    a, b = np.repeat(xs, q), np.tile(xs, q)  # 0 and every a = -b among them
    _assert_add_neg_match_scalar(F, a, b)
    assert int(np.count_nonzero(F.add_vec(a, b) == 0)) == q
    if m == 1:
        assert F.add_vec(a, b).tolist() == ((a + b) % p).tolist()
        assert [F.add(x, y) for x, y in zip(a.tolist(), b.tolist())] == ((a + b) % p).tolist()


@pytest.mark.parametrize("p,m", [(3, 12), (5, 8)])
def test_add_vec_matches_scalar_on_random_pairs_near_the_gate(p, m):
    F = Field(p, m)
    rng = np.random.default_rng(p ** m)
    a, b = rng.integers(0, F.order, size=(2, 200_000))
    a[:100] = 0
    b[100:200] = 0
    b[200:300] = F.neg_vec(a[200:300])
    _assert_add_neg_match_scalar(F, a, b)


def test_add_vec_above_the_log_table_gate_adds_digit_by_digit():
    F = Field(3, 13)
    rng = np.random.default_rng(13)
    a, b = rng.integers(0, F.order, size=(2, 200))
    b[:5] = F.neg_vec(a[:5])
    a[5:10] = 0
    _assert_add_neg_match_scalar(F, a, b)
    assert F._exp is None and F._digits is None


@pytest.mark.parametrize("p", [1048583, 2 ** 31 - 1])
def test_prime_field_inv_and_pow_above_the_gate_match_raw_pow(p):
    """Above the 2^20 gate GF(p) inverts and powers with the built-in pow;
    the coefficient-list _raw_pow is the reference."""
    F = Field(p, 1)
    rng = random.Random(p)
    for a in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(40)]:
        assert F.inv(a) == F._raw_pow(a, p - 2) == pow(a, -1, p)
        for e in (0, 1, p - 1, -1, rng.randrange(-3 * p, 3 * p)):
            assert F.pow(a, e) == F._raw_pow(a, e % (p - 1)), (a, e)
    assert F.pow(0, 5) == 0 and F.pow(0, 0) == 1
    assert F._exp is None  # no log tables above the gate


def test_add_vec_keeps_the_callers_shapes():
    for F in (Field(3, 3), Field(5, 1), Field(2, 4)):
        q = F.order
        xs = F.elements_array()
        rng = np.random.default_rng(q)
        # an np.int64 scalar with an array, as in additive_convolution
        v = np.int64(q - 2)
        assert F.add_vec(v, xs).tolist() == [F.add(q - 2, x) for x in range(q)]
        assert F.add_vec(int(xs[3]), xs).shape == (q,)
        # (k, 1) + (1, q), as in the p = 2 pull-back of lowdeg.quartic_3to1_search
        block = xs[1:4]
        grid = F.add_vec(block[:, None], xs[None, :])
        assert grid.shape == (3, q)
        assert grid.tolist() == [[F.add(x, y) for y in range(q)] for x in block.tolist()]
        assert F.neg_vec(grid).tolist() == [[F.neg(v) for v in row] for row in grid.tolist()]
        # 2-D matrices, as in row_reduce
        M, N = rng.integers(0, q, size=(2, 4, 6))
        assert F.sub_vec(M, N).tolist() == [[F.sub(x, y) for x, y in zip(r, s)]
                                            for r, s in zip(M.tolist(), N.tolist())]


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 7)])
def test_zech_table(p, m):
    F = Field(p, m)
    Z = F._zech_table()
    n = F.order - 1
    assert Z.shape == (n,) and Z.dtype == np.int64
    assert np.flatnonzero(Z == -1).tolist() == [n // 2]
    assert int(Z.min()) == -1 and int(Z.max()) < n
    one_plus = [F.add(1, F.exp_of(k)) for k in range(n)]
    assert [int(F._exp[z]) if z >= 0 else 0 for z in Z.tolist()] == one_plus
    with pytest.raises(ValueError):
        Z[0] = 0
    assert Field(p, m)._zech_table() is Z


def test_vector_addition_is_thread_safe_on_cold_fields(monkeypatch):
    rng = np.random.default_rng(37)
    a, b = rng.integers(0, 3 ** 7, size=(2, 5000))
    # more terms than the packed sums' cap, so eval_all renormalises
    exps = rng.choice(np.arange(1, 3 ** 8), 300, replace=False)
    terms = list(zip(exps.tolist(), rng.integers(1, 3 ** 7, 300).tolist()))

    def work(_=None):
        F = Field(3, 7)
        f = Poly(F, terms + [(0, 4)])
        assert len(f.terms) > F._packed_digits()[2]
        return F, [F.add_vec(a, b), F.neg_vec(a), f.eval_all()]

    monkeypatch.setattr(fields, "_MEMO", {})
    _, want = work()
    monkeypatch.setattr(fields, "_MEMO", {})
    start = threading.Barrier(4, timeout=60)

    def cold(_):
        start.wait()
        return work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(cold, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    F0 = got[0][0]
    assert len({id(F) for F, _ in got}) == 4
    for F, results in got:
        for x, y in zip(results, want):
            assert np.array_equal(x, y)
        assert F._exp is F0._exp and F._log is F0._log
        assert F._zech_table() is F0._zech_table()
        assert F._packed_digits()[0] is F0._packed_digits()[0]


def test_one_field_shared_by_threads_from_a_cold_memo(monkeypatch):
    """One Field(3, 7) object, eight threads: both trace tables, a Zech
    addition and eval_all agree with one thread's, each table key is built
    once, and the object keeps no table of its own beyond log/exp."""
    rng = np.random.default_rng(41)
    a, b = rng.integers(0, 3 ** 7, size=(2, 5000))
    terms = list(zip(rng.choice(np.arange(1, 3 ** 8), 40, replace=False).tolist(),
                     rng.integers(1, 3 ** 7, 40).tolist()))

    def work(F):
        return [F.trace_to_prime_table(), SubfieldEmbed(F, Field(3, 1)).trace_table(),
                F.add_vec(a, b), Poly(F, terms).eval_all()]

    monkeypatch.setattr(fields, "_MEMO", {})
    want = work(Field(3, 7))
    builds = []
    build_tables = fields.Field._build_tables

    def counted(self):
        builds.append((self.p, self.m, self.modulus, self.beta))
        return build_tables(self)

    monkeypatch.setattr(fields.Field, "_build_tables", counted)
    monkeypatch.setattr(fields, "_MEMO", {})
    F = Field(3, 7)
    start = threading.Barrier(8, timeout=60)

    def shared(_):
        start.wait()
        return work(F)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8
    for results in got:
        for x, y in zip(results, want):
            assert np.array_equal(x, y)
        assert not results[0].flags.writeable and not results[1].flags.writeable
    assert sorted(builds) == sorted(set(builds)) and len(builds) == 2  # GF(3^7) and GF(3)
    assert {k for k, v in vars(F).items() if isinstance(v, np.ndarray)} == {"_log", "_exp"}
    assert not {"_lock", "_tr_prime", "_zech"} & set(vars(F))


def test_odd_addition_builds_no_digit_matrix():
    F = Field(3, 10)
    Poly(F, [(7, 2), (5, 1), (2, 1), (0, 1)]).eval_all()
    xs = F.elements_array()
    F.add_vec(xs, xs[::-1])
    F.neg_vec(xs)
    F.trace_to_prime_table()
    assert F._digits is None


class TestSubfieldEmbed:
    emb = SubfieldEmbed(Field(2, 6), Field(2, 2))

    def test_ring_embedding(self):
        emb, sub = self.emb, self.emb.sub
        for a in sub.elements():
            for b in sub.elements():
                assert emb.embed(sub.add(a, b)) == emb.big.add(emb.embed(a), emb.embed(b))
                assert emb.embed(sub.mul(a, b)) == emb.big.mul(emb.embed(a), emb.embed(b))

    def test_section_inverts_embedding(self):
        for a in self.emb.sub.elements():
            assert self.emb.project(self.emb.embed(a)) == a

    def test_subfield_membership_count(self):
        members = [x for x in self.emb.big.elements() if self.emb.in_subfield(x)]
        assert len(members) == self.emb.q_sub

    def test_trace_lands_in_subfield_and_is_linear(self):
        emb, big, sub = self.emb, self.emb.big, self.emb.sub
        for x in range(0, big.order, 7):
            assert 0 <= emb.trace(x) < sub.order
        for x in range(0, big.order, 5):
            for y in range(0, big.order, 9):
                assert emb.trace(big.add(x, y)) == sub.add(emb.trace(x), emb.trace(y))
        c = emb.embed(sub.beta)
        for x in range(0, big.order, 5):
            assert emb.trace(big.mul(c, x)) == sub.mul(sub.beta, emb.trace(x))

    def test_trace_table_matches_scalar(self):
        tt = self.emb.trace_table()
        for x in self.emb.big.elements():
            assert int(tt[x]) == self.emb.trace(x)

    def test_bad_tower_rejected(self):
        with pytest.raises(Exception):
            SubfieldEmbed(Field(2, 6), Field(2, 4))
        with pytest.raises(FieldMismatch):
            SubfieldEmbed(Field(2, 6), Field(3, 2))


class TestSubfieldEmbedOddP(TestSubfieldEmbed):
    """The same checks on an odd-characteristic tower, GF(3^2) in GF(3^4)."""
    emb = SubfieldEmbed(Field(3, 4), Field(3, 2))


def _towers(cap):
    """(p, m, k) for every GF(p^k) inside GF(p^m) with p^m <= cap and m > 1,
    plus the prime fields up to 13."""
    out = [(p, 1, 1) for p in (2, 3, 5, 7, 11, 13)]
    for p in range(2, 65):
        if fields._is_prime(p):
            m = 2
            while p ** m <= cap:
                out += [(p, m, k) for k in range(1, m + 1) if m % k == 0]
                m += 1
    return out


@pytest.mark.parametrize("p,m,k", _towers(4096))
def test_embedding_on_every_small_tower(p, m, k):
    big, sub = Field(p, m), Field(p, k)
    emb = SubfieldEmbed(big, sub)
    if k > 1:
        # the code p is the power-basis root of the subfield modulus
        vals = Poly(big, list(enumerate(sub.modulus))).eval_all()
        assert emb.embed(p) == int(np.flatnonzero(vals == 0)[0])
    rng = random.Random(p * 100 + m * 10 + k)
    for _ in range(50):
        a, b = rng.randrange(sub.order), rng.randrange(sub.order)
        assert emb.embed(sub.add(a, b)) == big.add(emb.embed(a), emb.embed(b))
        assert emb.embed(sub.mul(a, b)) == big.mul(emb.embed(a), emb.embed(b))
    image = [emb.embed(a) for a in sub.elements()]
    assert [emb.project(x) for x in image] == list(sub.elements())
    if k < m:
        off = min(set(big.elements()) - set(image))
        with pytest.raises(FieldMismatch):
            emb.project(off)
    xs = big.elements() if big.order <= 729 else range(0, big.order, 7)
    tt = emb.trace_table()
    assert [int(tt[x]) for x in xs] == [emb.trace(x) for x in xs]


def test_embedding_needs_the_big_field_log_tables():
    with pytest.raises(FieldTooLarge):
        SubfieldEmbed(Field(2, 21), Field(2, 1))


def test_shift_power_sweep_is_gated_before_the_tower_is_built():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "NTO1_NIGHTLY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "nto1.cli", "sweep", "gouzao3", "--field", "p=3,m=7"],
                       capture_output=True, text=True, env=env, timeout=20)
    assert r.returncode == 3, r.stderr
    assert r.stderr == ("nto1: sweep over 4782969 elements exceeds the gate 8192; "
                        "pass --nightly or set NTO1_NIGHTLY=1\n")


@pytest.mark.parametrize("x,b,want", [
    (0, 2, None), (1, 2, 0), (1, 27, 0), (8, 2, 3), (81, 3, 4), (729, 27, 2),
    (2, 2, 1), (6, 2, None), (12, 3, None), (9, 27, None), (27, 9, None), (-8, 2, None),
])
def test_exact_log(x, b, want):
    assert fields.exact_log(x, b) == want
