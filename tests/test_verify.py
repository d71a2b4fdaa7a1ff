"""Batched sweeps: a row the batch classifier rejects still gets the
one-map witness text, built from classify's own report."""

import re

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
