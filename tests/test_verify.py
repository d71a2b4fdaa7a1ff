"""Sweep witnesses: a row the batch classifier rejects still gets the
one-map witness text, built from classify's own report; agreement keeps
the first predicate-vs-brute disagreement; branch_sweep refuses cases
outside its criterion."""

import re

import pytest

from nto1 import Field, classify, verify


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
