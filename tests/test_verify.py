"""Sweep witnesses: a row the batch classifier rejects still gets the
one-map witness text, built from classify's own report; agreement keeps
the first predicate-vs-brute disagreement; branch_sweep refuses cases
outside its criterion; the normalize, walsh, cubic and agwcore2 rows are
pinned by hash, and a corrupted affine row still gets a witness."""

import hashlib
import re

import pytest

from nto1 import Field, classify, verify

# sha256 of repr(verify.run("normalize", seed=s).rows), as the scalar
# Poly.shift route produced them; the batched affine_rows route must match.
NORMALIZE_ROWS_SHA256 = {
    20260817: "c62780abfe3b8a1b9888ce9e4cd3b1dc8f93a99389e95bcc9e8f545e69e7ccdc",
    7: "57add419d5daad5a917c8312e2569eb81a853e76af49976c2f33c7f3b205567f",
}

# sha256 of repr(verify.run("walsh", seed=s).rows), as the CycloInt walsh
# layer with S_j rescaling produced them; count vectors and moments must match.
WALSH_ROWS_SHA256 = {
    20260817: "2ff02934c0be962130ff2a760551ca086f4efd212ff311af80e9674777fb607b",
    7: "705e006e75a996eecde47feacbc2c1e8346a92f248db73e9a26c49ce7c4afe09",
}

# sha256 of repr(verify.run(id, seed=s).rows): the cubic rows as the
# per-pair classify route produced them, the agwcore2 rows as random_diagram
# drew them before it refused an oversized draw early; both must match.
ROWS_SHA256 = {
    ("de3p3", 20260817): "e84505ae2655919026854e86339d39bbe858f2d4b54521f1d7c5777c2dd38593",
    ("de3p3", 7): "e84505ae2655919026854e86339d39bbe858f2d4b54521f1d7c5777c2dd38593",
    ("de3pne3", 20260817): "b731b2eceb4e2606a4254603597d54d2dc9942bdfcca558ea96a10b70e966df3",
    ("de3pne3", 7): "b731b2eceb4e2606a4254603597d54d2dc9942bdfcca558ea96a10b70e966df3",
    ("agwcore2", 20260817): "d3d0ef6cbfe624050f9d693f65e934a4b37cbfeb5bff79ac822b9cb806dfde55",
    ("agwcore2", 7): "bb055196ec68d3bf9780562819f6661d91cee26e2287ea74dabe070829c5d653",
}


def test_monomial_witness_comes_from_classify(monkeypatch):
    real = verify.classify_rows

    def misreport(V, q):
        out = real(V, q)
        if q == 7:
            out[0] = (5, None, False)  # x^1 over GF(7) reported 5-to-1
        return out

    monkeypatch.setattr(verify, "classify_rows", misreport)
    res = verify.run("monomial")
    ctx = Field(7, 1)
    assert not res.ok
    assert res.witness == f"q=7 d=1: expected n=1, got {classify(ctx.pow_vec(ctx.elements_array(), 1))}"
    assert (7, 1, 5, 0) in res.rows and len(res.rows) == 2365


def test_normalize_witness_comes_from_classify(monkeypatch):
    real = verify.classify_rows
    calls = []

    def misreport(V, q):
        out = real(V, q)
        calls.append(q)
        if len(calls) == 2:  # the g rows of the first block, over GF(2)
            out[0] = (0, None, True)
        return out

    monkeypatch.setattr(verify, "classify_rows", misreport)
    res = verify.run("normalize")
    assert not res.ok and len(res.rows) == 17068
    assert [row[-1] for row in res.rows].count(0) == 1 and res.rows[0][-1] == 0
    m = re.fullmatch(r"GF\(2\) f=\[[01, ]+\] a=1 b=[01] c=[01]: (NTo1Report\(.*\)) vs (NTo1Report\(.*\))",
                     res.witness)
    assert m, res.witness
    assert "irregular=False" in m.group(1) and "irregular=False" in m.group(2)


@pytest.mark.parametrize("seed", sorted(NORMALIZE_ROWS_SHA256))
def test_normalize_rows_are_pinned(seed):
    res = verify.run("normalize", seed=seed)
    assert res.ok
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == NORMALIZE_ROWS_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(WALSH_ROWS_SHA256))
def test_walsh_rows_are_pinned(seed):
    res = verify.run("walsh", seed=seed)
    assert res.ok
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == WALSH_ROWS_SHA256[seed]


def test_normalize_witness_names_a_corrupted_affine_row(monkeypatch):
    real = verify.affine_rows
    seen = []

    def corrupt(ctx, F, a, b, c):
        G = real(ctx, F, a, b, c)
        if ctx.order == 7:  # g becomes the constant map, 7-to-1; f has degree <= 5
            seen.append((F[0], int(a[0]), int(b[0]), int(c[0])))
            G[0] = 0
        return G

    monkeypatch.setattr(verify, "affine_rows", corrupt)
    res = verify.run("normalize")
    assert not res.ok and len(res.rows) == 17068
    bad = [row for row in res.rows if not row[-1]]
    assert len(bad) == 1 and bad[0] == next(row for row in res.rows if row[0] == 7)
    (f_row, a, b, c), = seen
    f = list(f_row)
    while f[-1] == 0:
        f.pop()
    m = re.fullmatch(r"GF\(7\) f=(\[[0-6, ]+\]) a=(\d) b=(\d) c=(\d): (NTo1Report\(.*\)) vs (NTo1Report\(.*\))",
                     res.witness)
    assert m, res.witness
    assert m.group(1) == str(f) and m.group(2, 3, 4) == (str(a), str(b), str(c))
    assert m.group(6).startswith("NTo1Report(n=7, exception=None, histogram={0: 7}")


def test_normalize_checks_where_the_exception_moves(monkeypatch):
    real = verify.affine_rows

    def corrupt(ctx, F, a, b, c):
        G = real(ctx, F, a, b, c)
        if ctx.order == 7:  # g + 1: the same fibers, but the exception value off by one
            G[:, 0] = (G[:, 0] + 1) % 7
        return G

    monkeypatch.setattr(verify, "affine_rows", corrupt)
    res = verify.run("normalize")
    # over the prime GF(7) every n >= 2 leaves an exceptional fiber, n = 1 none
    bad = [row for row in res.rows if not row[-1]]
    assert bad and bad == [row for row in res.rows if row[0] == 7 and row[5] >= 2]
    assert res.witness.startswith("GF(7) f=")


def test_agreement_keeps_every_row_and_the_first_witness():
    cases = [(1, 2, True, True), (3, 4, False, True), (5, 6, True, False)]
    rows, witness = verify.agreement(cases, lambda a, b: f"a={a} b={b}")
    assert rows == [(1, 2, 1, 1), (3, 4, 0, 1), (5, 6, 1, 0)]
    assert witness == "a=3 b=4: predicate False, brute True"
    assert verify.agreement(cases[:1], None) == ([(1, 2, 1, 1)], None)


def test_branch_sweep_refuses_cases_outside_the_criterion():
    with pytest.raises(ValueError, match=r"^4 must divide q-1=6$"):
        verify.branch_sweep(Field(7, 1), 1, 4)
    with pytest.raises(ValueError, match=r"^the criterion needs r coprime to \(q-1\)/2; r=3 is not$"):
        verify.branch_sweep(Field(7, 1), 3, 2)


@pytest.mark.parametrize("theorem_id,seed", sorted(ROWS_SHA256))
def test_cubic_and_diagram_rows_are_pinned(theorem_id, seed):
    res = verify.run(theorem_id, seed=seed)
    assert res.ok
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == ROWS_SHA256[theorem_id, seed]
