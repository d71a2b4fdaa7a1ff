"""Sweep witnesses: a row the batch classifier rejects still gets the
one-map witness text, built from classify's own report; agreement keeps
the first predicate-vs-brute disagreement; branch_sweep refuses cases
outside its criterion; every runner's rows are pinned by hash at two
seeds, and a corrupted affine row still gets a witness."""

import collections
import hashlib
import re

import pytest

from nto1 import Field, SubfieldEmbed, classify, verify
from nto1.families import (
    Q1_VARIANTS, SHIFT_POWER_VARIANTS, build_shift_power, trace_class_reps,
)

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
# drew them before it refused an oversized draw early, the shift-power rows
# as one translate-link square per trace class decided them, and the other
# eight as LinearizedPoly and FamilyInstance stood before either became a
# subclass of Poly and DiagramSpec; all must match.
ROWS_SHA256 = {
    ("de3p3", 20260817): "e84505ae2655919026854e86339d39bbe858f2d4b54521f1d7c5777c2dd38593",
    ("de3p3", 7): "e84505ae2655919026854e86339d39bbe858f2d4b54521f1d7c5777c2dd38593",
    ("de3pne3", 20260817): "b731b2eceb4e2606a4254603597d54d2dc9942bdfcca558ea96a10b70e966df3",
    ("de3pne3", 7): "b731b2eceb4e2606a4254603597d54d2dc9942bdfcca558ea96a10b70e966df3",
    ("agwcore2", 20260817): "d3d0ef6cbfe624050f9d693f65e934a4b37cbfeb5bff79ac822b9cb806dfde55",
    ("agwcore2", 7): "bb055196ec68d3bf9780562819f6661d91cee26e2287ea74dabe070829c5d653",
    ("gouzao1", 20260817): "56bead356839fd72cdbabdd9a7d8d9c99e6316db6d1a16b000fc008122189e94",
    ("gouzao1", 7): "56bead356839fd72cdbabdd9a7d8d9c99e6316db6d1a16b000fc008122189e94",
    ("gouzao2", 20260817): "56de04259a558c1221fff1d5c432071eeffba22d2ec0f5c654c7398cdfe49941",
    ("gouzao2", 7): "56de04259a558c1221fff1d5c432071eeffba22d2ec0f5c654c7398cdfe49941",
    ("gouzao3", 20260817): "0ace0943cf95994e813ecc64b8c5d5f3e5842a7534056b7773bdc3018652717a",
    ("gouzao3", 7): "0ace0943cf95994e813ecc64b8c5d5f3e5842a7534056b7773bdc3018652717a",
    ("2gouzao1", 20260817): "2672726025f4e845d0efb01e3f5cf294b5da5a858546067b12d4eef96134e30d",
    ("2gouzao1", 7): "2672726025f4e845d0efb01e3f5cf294b5da5a858546067b12d4eef96134e30d",
    ("2gouzao2", 20260817): "c3d0fc72730fe93bba972518fab0cf030bb265f2efbaa87183ca0496a4a3fc0d",
    ("2gouzao2", 7): "c3d0fc72730fe93bba972518fab0cf030bb265f2efbaa87183ca0496a4a3fc0d",
    ("monomial", 20260817): "64d3d7097e81e169bd157283630635b428885a3c2c5529003a78a81c007b0262",
    ("monomial", 7): "64d3d7097e81e169bd157283630635b428885a3c2c5529003a78a81c007b0262",
    ("linearized", 20260817): "02dcabce20f68e8b3feaf32bdb0ca9669a1f92b72ebc4f127a133f911ad62d4b",
    ("linearized", 7): "311df7d67143ed487bff0db641914af0d40a379c79d4de782a372a1f87496bb3",
    ("quartic", 20260817): "37e65ba28253827a1f1b42f5ecde1fd650a51d8cafe023688f1508265dc90f69",
    ("quartic", 7): "37e65ba28253827a1f1b42f5ecde1fd650a51d8cafe023688f1508265dc90f69",
    ("miu2", 20260817): "0027c70a3562f47bb2047b857a0524fb16834bcb8fb8367c5a4e0708a49293ba",
    ("miu2", 7): "0027c70a3562f47bb2047b857a0524fb16834bcb8fb8367c5a4e0708a49293ba",
    ("miu3", 20260817): "ad371056ea538f8d21a8071b861cd985ed7063ddab3bd767186a99cda47b8977",
    ("miu3", 7): "ad371056ea538f8d21a8071b861cd985ed7063ddab3bd767186a99cda47b8977",
    ("nmiu3", 20260817): "46961eacd7e0aec06a979dab81141f5cd9f6b6aecbeba081af616d7fa1763b6b",
    ("nmiu3", 7): "46961eacd7e0aec06a979dab81141f5cd9f6b6aecbeba081af616d7fa1763b6b",
    ("piecewisegenerel", 20260817): "9046fa7fa4430ec074ad260d9ef07cbcd10ad1e972bc18fa8baf3f29ef864a42",
    ("piecewisegenerel", 7): "b7cd5279072014a8351487ac04c57eabeba8d8d2c257b47ef1edffae39b7dd7a",
    ("zcriterion", 20260817): "d845aa16ec954a3edbe96b1b7cbe0482d0f5e468869fe7e4c9b79ffe09aa0d52",
    ("zcriterion", 7): "69a9298a16bf6d65e1bfc58fc4ed8a8d831a1cd0077f9bf57657b67125ba1616",
}
SHIFT_POWER_PINS = sorted(k for k in ROWS_SHA256 if k[0] in SHIFT_POWER_VARIANTS)
CUBIC_DIAGRAM_PINS = sorted(k for k in ROWS_SHA256 if k[0] in ("de3p3", "de3pne3", "agwcore2"))
OTHER_PINS = sorted(set(ROWS_SHA256) - set(SHIFT_POWER_PINS) - set(CUBIC_DIAGRAM_PINS))


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


def test_linearized_witness_names_the_first_wrong_row_in_draw_order(monkeypatch):
    # the oracle is wrong on draws 350 and 351 of GF(16) and on 700; the
    # brute side decides draw 351 (q_sub 2) before draw 350 (q_sub 16), as
    # it runs each field's q_sub groups in turn, yet draw order decides
    real = verify.linearized_oracle
    seen = []

    def wrong(L):
        seen.append(L)
        return real(L) + (len(seen) in (351, 352, 701))

    clean = verify.run("linearized").rows
    monkeypatch.setattr(verify, "linearized_oracle", wrong)
    res = verify.run("linearized")
    assert len(seen) == len(res.rows) == 4000
    assert [i for i, row in enumerate(res.rows) if not row[-1]] == [350, 351, 700]
    assert res.rows[350][1] == 16 and res.rows[351][1] == 2
    assert [row[:-1] for row in res.rows] == [row[:-1] for row in clean]
    L = seen[350]
    ctx = L.ctx
    assert ctx.order == 16 and res.rows[350][:3] == (16, L.q_sub, L.rank())
    hist = collections.Counter(L(x) for x in ctx.elements())
    n = 16 // len(hist)
    assert set(hist.values()) == {n}
    assert res.witness == (f"q=16 base={L.q_sub} coeffs={L.l_coeffs}: NTo1Report(n={n}, "
                           f"exception=None, histogram={dict(sorted(hist.items()))}, "
                           f"domain_size=16, irregular=False)")


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


@pytest.mark.parametrize("theorem_id,seed", CUBIC_DIAGRAM_PINS)
def test_cubic_and_diagram_rows_are_pinned(theorem_id, seed):
    res = verify.run(theorem_id, seed=seed)
    assert res.ok
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == ROWS_SHA256[theorem_id, seed]


@pytest.mark.parametrize("theorem_id,seed", OTHER_PINS)
def test_other_sweep_rows_are_pinned(theorem_id, seed):
    res = verify.run(theorem_id, seed=seed)
    # quartic stays red: the no-3-to-1-quartics claim fails at q = 5
    assert res.ok == (theorem_id != "quartic")
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == ROWS_SHA256[theorem_id, seed]


@pytest.mark.parametrize("theorem_id,seed", SHIFT_POWER_PINS)
def test_shift_power_rows_are_pinned(theorem_id, seed):
    res = verify.run(theorem_id, seed=seed)
    # gouzao3 stays red: its runner pins the published 6 classes, the sweep finds 13
    assert res.ok == (theorem_id != "gouzao3")
    assert hashlib.sha256(repr(res.rows).encode()).hexdigest() == ROWS_SHA256[theorem_id, seed]


# one small tower per variant: (variant, big (p, m), q1)
SHIFT_POWER_TOWERS = [("gouzao1", (3, 4), 9), ("gouzao2", (3, 4), 9), ("gouzao3", (3, 4), None),
                      ("2gouzao1", (2, 6), 2), ("2gouzao2", (2, 6), None)]


@pytest.mark.parametrize("variant,big,q1", SHIFT_POWER_TOWERS)
def test_shift_power_sweep_brute_column_is_the_square_verdict(variant, big, q1):
    p, m = big
    emb = SubfieldEmbed(Field(p, m), Field(p, m // 2))
    rows, _ = verify.shift_power_sweep(emb, variant, q1)
    assert [row[:2] for row in rows] == list(trace_class_reps(emb).items())
    for tval, delta, pred, got in rows:
        inst = build_shift_power(emb, variant, delta, q1=q1)
        assert inst.ok and inst.meta["trace"] == tval
        assert (pred, got) == (int(inst.meta["predicate"]), int(inst.holds()))


def test_shift_power_tower_census():
    """Every variant on every quadratic tower up to 3^8 and 2^12, at every
    q1 that cuts the subfield: the predicate equals brute force wherever
    the arithmetic gate holds, and the gate refuses the rest."""
    checked, refused = 0, []
    for p, top in ((3, 8), (2, 12)):
        for k in range(1, top // 2 + 1):
            emb = SubfieldEmbed(Field(p, 2 * k), Field(p, k))
            for variant in SHIFT_POWER_VARIANTS:
                if variant.startswith("2") != (p == 2):
                    continue
                q1s = [p ** j for j in range(1, k + 1) if k % j == 0]
                for q1 in q1s if variant in Q1_VARIANTS else [None]:
                    try:
                        rows, witness = verify.shift_power_sweep(emb, variant, q1)
                    except ValueError as e:
                        assert "the arithmetic gate" in str(e), e
                        refused.append((variant, p ** k, q1))
                        continue
                    assert witness is None, (variant, p ** k, q1, witness)
                    assert len(rows) == p ** k
                    checked += 1
    assert (checked, len(refused)) == (36, 4), refused
