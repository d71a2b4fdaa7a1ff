"""Construction families: equivalence with the reduced partner, hypothesis
enforcement, and the closed-form predicates."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from nto1 import (
    Field, LinearizedPoly, PiecewiseSpec, Poly, SubfieldEmbed, classify, is_n_to_1,
    monomial_oracle, verify_diagram,
)
from nto1 import families, verify
from nto1.counting import n_to_1_rows
from nto1.errors import ConstructionMismatch, FieldMismatch
from nto1.families import (
    branch_case_predicate, branch_constant_predicate, branch_tables, build_additive_split,
    build_branch_interpolation, build_coset_power, build_linearized_mix,
    build_norm_lift, build_shift_power, build_translate_link,
    build_two_branch_lift, coset_power_monomial, coset_power_monomial_n, frobenius_twist,
    random_piecewise, reduced_blowup, shift_power_poly, solve_piecewise, trace_class_reps,
)
from nto1.polys import roots_of_unity_interpolate_rows


def assert_equivalent(inst):
    """The transfer both ways, plus the square and the fiber blowup."""
    assert inst.ok, inst.violations
    assert inst.holds() == inst.holds_reduced()
    factor, ok, witness = reduced_blowup(inst)
    assert ok, (factor, witness)
    assert verify_diagram(inst).ok


# -- additive split ----------------------------------------------------------

def _sub_coeff_qpolys(emb, rng, k):
    """Random q-polynomials with embedded-subfield coefficients; these
    commute with each other under composition."""
    big = emb.big
    pool = [emb.embed(c) for c in emb.sub.elements()]
    return [LinearizedPoly(big, emb.q_sub, [rng.choice(pool) for _ in range(big.m // emb.sub.m)])
            for _ in range(k)]


def test_additive_split_equivalence():
    rng = random.Random(2)
    for pm, sm in (((2, 4), 2), ((3, 4), 2)):
        emb = SubfieldEmbed(Field(*pm), Field(pm[0], sm))
        n = pm[0]  # |S| is a power of p, so p is the only safe nontrivial n
        clean = 0
        for _ in range(400):
            if clean == 6:
                break
            psi, phi = _sub_coeff_qpolys(emb, rng, 2)
            g = Poly.monomial(emb.big, 1, 2)
            inst = build_additive_split(emb, psi, psi, phi, Poly.constant(emb.big, 1), g, n)
            if not inst.ok:
                continue
            clean += 1
            assert_equivalent(inst)
        assert clean == 6


def test_additive_split_rejects_nonadditive_psi():
    emb = SubfieldEmbed(Field(3, 4), Field(3, 2))
    big = emb.big
    square = Poly.monomial(big, 1, 2)  # not additive in char 3
    ident = Poly.x(big)
    inst = build_additive_split(emb, square, square, ident, Poly.constant(big, 1), ident, 1)
    assert not inst.ok
    assert inst.violations[0].hypothesis == "psi additive"
    assert any("additive" in v.hypothesis for v in inst.violations)


# -- linearized mix -----------------------------------------------------------

def test_linearized_mix_equivalence():
    rng = random.Random(4)
    emb = SubfieldEmbed(Field(3, 4), Field(3, 2))
    norm = Poly.monomial(emb.big, 1, 1 + emb.q_sub)  # lands in the subfield
    clean = 0
    for _ in range(400):
        if clean == 6:
            break
        L1, L2, L3 = _sub_coeff_qpolys(emb, rng, 3)
        n = rng.choice([1, 3])
        inst = build_linearized_mix(emb, L1, L2, L3, norm, n)
        if not inst.ok:
            continue
        clean += 1
        assert_equivalent(inst)
    assert clean == 6


# -- coset power ---------------------------------------------------------------

def test_coset_power_monomial_shadow():
    ctx = Field(13, 1)
    for s in (1, 2, 3, 4, 6):
        ell = 12 // s
        for r in (1, 5, 7):
            if math.gcd(r, s) != 1:
                continue
            for t in range(ell):
                h = Poly.monomial(ctx, ctx.pow(ctx.beta, s), t)  # beta^s is an ell-th root
                n = coset_power_monomial_n(ctx, r, s, h)
                assert n is not None
                inst = build_coset_power(ctx, r, s, h, n)
                rep = inst.classify()
                assert rep.n == n
                assert rep.exception == ((0, 1) if n > 1 else None)


def test_coset_power_s1_is_the_monomial_rule():
    ctx = Field(11, 1)
    for r in range(1, 11):
        for t in range(10):
            h = Poly.monomial(ctx, 1, t)
            n = coset_power_monomial_n(ctx, r, 1, h)
            assert n == monomial_oracle(ctx, 1, ((r + t - 1) % 10) + 1)


def test_coset_square_with_one_root_records_it():
    # ell = (q-1)/s = 1 leaves a one-point carrier, which is no square
    ctx = Field(13, 1)
    inst = build_coset_power(ctx, 1, 12, Poly.monomial(ctx, 1, 0), 1)
    assert [(v.hypothesis, v.witness) for v in inst.violations] == [("#S > 1", 1)]
    assert not verify_diagram(inst).ok
    emb = SubfieldEmbed(Field(2, 3), Field(2, 1))  # one subfield unit
    inst = build_norm_lift(emb, 1, Poly.constant(emb.sub, 1), 1)
    assert [(v.hypothesis, v.witness) for v in inst.violations] == [("#S > 1", 1)]
    assert not verify_diagram(inst).ok


def test_clean_coset_squares_pass_verify_diagram():
    # inst.ok is the one test of a clean instance, so it must imply the square
    checked = 0
    for ctx in (Field(7, 1), Field(13, 1), Field(2, 4)):
        q = ctx.order
        for s in (d for d in range(1, q) if (q - 1) % d == 0):
            ell = (q - 1) // s
            for r in range(1, q - 1, 2):
                for t in range(3):
                    h = Poly.monomial(ctx, ctx.pow(ctx.beta, s), t)
                    for n in (d for d in range(1, ell + 1) if ell % d == 0):
                        inst = build_coset_power(ctx, r, s, h, n)
                        assert not inst.ok or verify_diagram(inst).ok, inst
                        checked += inst.ok
    for big, sub in (((2, 3), (2, 1)), ((3, 3), (3, 1)), ((2, 6), (2, 2)), ((5, 3), (5, 1))):
        emb = SubfieldEmbed(Field(*big), Field(*sub))
        for r in (1, 2, 3, 5):
            for hc in range(1, emb.sub.order):
                inst = build_norm_lift(emb, r, Poly.constant(emb.sub, hc), 1)
                assert not inst.ok or verify_diagram(inst).ok, inst
                checked += inst.ok
    assert checked > 100


# -- norm lift -----------------------------------------------------------------

def test_norm_lift_equivalence_and_codec_consistency():
    emb = SubfieldEmbed(Field(3, 3), Field(3, 1))
    for r in (1, 3, 7):
        for hc in (1, 2):
            inst = build_norm_lift(emb, r, Poly.constant(emb.sub, hc), 2)
            assert_equivalent(inst)
            # the subfield-coded copy of the reduced map tells the same story
            sub_rep = classify(inst.meta["sub_reduced"], domain=tuple(emb.sub.units()))
            big_rep = inst.classify_reduced()
            assert sub_rep.n == big_rep.n and sub_rep.irregular == big_rep.irregular


def test_norm_lift_codec_disagreement_is_a_typed_error(monkeypatch):
    emb = SubfieldEmbed(Field(3, 3), Field(3, 1))
    # a subfield product that loses its result breaks the subfield-coded copy
    monkeypatch.setattr(emb.sub, "mul_vec", lambda a, b: np.zeros_like(a))
    with pytest.raises(ConstructionMismatch):
        build_norm_lift(emb, 1, Poly.constant(emb.sub, 2), 2)


def test_norm_lift_enforces_r_coprime_to_norm_exponent():
    emb = SubfieldEmbed(Field(3, 3), Field(3, 1))
    inst = build_norm_lift(emb, 13, Poly.constant(emb.sub, 1), 2)  # s = 13
    assert inst.violations[0].hypothesis == "r coprime to the norm exponent"
    assert inst.violations[0].witness == (13, 13)


def test_raw_tables_are_refused_where_terms_are_read():
    emb = SubfieldEmbed(Field(3, 4), Field(3, 2))
    x = Poly.x(emb.big)
    inst = build_linearized_mix(emb, np.arange(81), x, x, x, 3)
    assert inst.violations[0].hypothesis == "L1 linearized with subfield coefficients"
    assert inst.violations[0].witness == "raw value table ndarray"
    with pytest.raises(TypeError, match="embeds the coefficients of h_sub"):
        build_norm_lift(SubfieldEmbed(Field(3, 3), Field(3, 1)), 1,
                        np.ones(3, dtype=np.int64), 2)



def test_structural_q_poly_reads_terms():
    # a q^2-polynomial is a q-polynomial; a 2-polynomial with an x^2 term is
    # not a 4-polynomial, and its first such term is the witness
    emb = SubfieldEmbed(Field(2, 8), Field(2, 2))
    c = emb.embed(2)
    assert families._structural_q_poly(emb, LinearizedPoly(emb.big, 16, [1, c])) == (True, None)
    L = LinearizedPoly(emb.big, 2, [1, c, 1])
    assert families._structural_q_poly(emb, L) == (False, (2, c))
    assert L == Poly(emb.big, [(1, 1), (2, c), (4, 1)])


# -- two-branch lift ------------------------------------------------------------

def test_frobenius_twist_is_pointwise_frobenius():
    ctx = Field(3, 3)
    f = Poly(ctx, [(5, 7), (2, 11), (0, 4)])
    for j in (1, 2):
        g = frobenius_twist(f, j)
        for x in ctx.elements():
            assert g(x) == ctx.frobenius(f(x), j)


def test_two_branch_lift_exhaustive_gf3_to_gf27():
    emb = SubfieldEmbed(Field(3, 3), Field(3, 1))
    checked = 0
    for r in (1, 2, 3):
        for a in range(3):
            for b in range(3):
                inst = build_two_branch_lift(emb, r, a, b)
                if not inst.ok:
                    continue
                checked += 1
                assert inst.holds() == inst.meta["predicate"], (r, a, b)
    assert checked > 0


def test_two_branch_lift_needs_the_downstairs_hypotheses():
    # GF(5) has q = 1 mod 4: the two-branch criterion is not claimed there,
    # and the lift must not pretend otherwise
    emb = SubfieldEmbed(Field(5, 5), Field(5, 1))
    inst = build_two_branch_lift(emb, 1442, 1, 3)
    assert inst.violations[0].hypothesis == "subfield size 3 mod 4"
    assert any("3 mod 4" in v.hypothesis for v in inst.violations)


# -- branch interpolation ---------------------------------------------------------

def test_branch_predicates_agree():
    rng = random.Random(9)
    for q, ells in ((7, (2, 3)), (13, (2, 3, 4))):
        ctx = Field(q, 1)
        for ell in ells:
            for _ in range(40):
                values = [rng.randrange(q) for _ in range(ell)]
                assert (branch_constant_predicate(ctx, 2, values)
                        == branch_case_predicate(ctx, 2, values))


def test_branch_interpolation_mini_sweep():
    ctx = Field(7, 1)
    for r in (1, 2, 4, 5):
        for a in range(7):
            for b in range(7):
                pred = branch_case_predicate(ctx, r, [a, b])
                inst = build_branch_interpolation(ctx, r, [a, b])
                assert inst.holds() == pred, (r, a, b)


def test_branch_interpolation_hits_its_values():
    ctx = Field(13, 1)
    values = [5, 0, 7]
    inst = build_branch_interpolation(ctx, 2, values)
    h = inst.meta["h"]
    omega = ctx.unit_root(3)
    for i, v in enumerate(values):
        assert h(ctx.pow(omega, i)) == v


def _scalar_branch_table(ctx, r, values):
    """f = x^r h(x^s) by scalar Field.pow/mul and Poly.__call__, element by
    element: the reference for branch_tables."""
    ell = len(values)
    s = (ctx.order - 1) // ell
    coeffs = roots_of_unity_interpolate_rows(ctx, ctx.unit_root(ell), [values])[0]
    h = Poly.from_dense(ctx, coeffs.tolist())
    return np.array([ctx.mul(ctx.pow(x, r), h(ctx.pow(x, s))) for x in ctx.elements()])


def test_block_verdicts_match_scalar_built_maps():
    rng = random.Random(15)
    for p, m in ((2, 2), (5, 1), (3, 2), (13, 1), (5, 2)):
        ctx = Field(p, m)
        q = ctx.order
        for ell in (2, 3, 4):
            if (q - 1) % ell:
                continue
            for r in range(1, q):
                rows = [[rng.choice([0, rng.randrange(1, q)]) for _ in range(ell)]
                        for _ in range(8)]
                # one nonzero point: ell-to-1 exactly when s = (q-1)/ell = 1
                rows += [[v if i == j else 0 for i in range(ell)]
                         for j in range(ell) for v in (1, rng.randrange(1, q))]
                got = branch_tables(ctx, r, rows)
                want = [_scalar_branch_table(ctx, r, row) for row in rows]
                assert got.tolist() == [w.tolist() for w in want], (q, ell, r)
                assert (n_to_1_rows(got, q, ell).tolist()
                        == [is_n_to_1(w, None, ell) for w in want]), (q, ell, r)
                inst = build_branch_interpolation(ctx, r, rows[0])
                assert inst.f.tolist() == got[0].tolist()


def test_interpolation_postconditions_are_typed_errors(monkeypatch):
    # a wrong coefficient row must surface as ConstructionMismatch, which
    # python -O keeps, naming the row and the root it misses
    real = families.roots_of_unity_interpolate_rows

    def off_by_one(ctx, omega, values):
        coeffs = real(ctx, omega, values)
        coeffs[-1, 0] = ctx.add(int(coeffs[-1, 0]), 1)
        return coeffs

    monkeypatch.setattr(families, "roots_of_unity_interpolate_rows", off_by_one)
    ctx = Field(13, 1)
    with pytest.raises(ConstructionMismatch, match=r"branch-interpolation: h\(omega\^0\).* in row 0"):
        build_branch_interpolation(ctx, 5, [1, 2, 0, 4])
    with pytest.raises(ConstructionMismatch, match=r"in row 2$"):
        branch_tables(ctx, 5, [[1, 2, 0, 4], [0, 0, 0, 0], [3, 3, 1, 1]])
    with pytest.raises(ConstructionMismatch, match=r"piecewise: h\(omega\^0\).* in row 0"):
        solve_piecewise(ctx, random_piecewise(ctx, random.Random(12)))


# -- piecewise ---------------------------------------------------------------------

def test_piecewise_lands_on_the_plan():
    rng = random.Random(12)
    for q, m in ((7, 1), (13, 1)):
        ctx = Field(q, m)
        for _ in range(20):
            spec = random_piecewise(ctx, rng)
            inst = solve_piecewise(ctx, spec)
            rep = inst.classify()
            assert rep.n == spec.n and rep.exception == (0, 1)
            omega = ctx.pow(ctx.beta, spec.s)
            for i, a in enumerate(spec.targets):
                assert inst.g[ctx.pow(omega, i)] == ctx.pow(omega, a)


def test_random_piecewise_over_gf2_is_refused_before_any_draw():
    # GF(2)* has no root group of order > 1, once a bare IndexError from rng.choice([])
    rng = random.Random(12)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^a piecewise spec needs q >= 3, got q=2$"):
        random_piecewise(Field(2, 1), rng)
    assert rng.getstate() == state


def test_piecewise_off_plan_is_a_typed_error(monkeypatch):
    build = families.build_coset_power

    def off_plan(*args, **kwargs):
        inst = build(*args, **kwargs)
        inst.g = np.zeros_like(inst.g)
        return inst

    monkeypatch.setattr(families, "build_coset_power", off_plan)
    ctx = Field(13, 1)
    with pytest.raises(ConstructionMismatch):
        solve_piecewise(ctx, random_piecewise(ctx, random.Random(12)))


def test_piecewise_rejects_unbalanced_targets():
    ctx = Field(7, 1)
    spec = PiecewiseSpec(r=1, s=1, n=2, targets=[0, 0, 0, 1, 2, 2], levels=[0] * 6)
    inst = solve_piecewise(ctx, spec)
    assert inst.violations[0].hypothesis == "each chosen target hit exactly n times"
    assert inst.violations[0].witness == {0: 3, 1: 1, 2: 2}


def test_piecewise_names_each_broken_hypothesis_once():
    # n = 2 does not divide the root group order 3: one violation for that, not two
    inst = solve_piecewise(Field(7, 1), PiecewiseSpec(1, 2, 2, [0, 1, 2], [0, 0, 0]))
    names = [v.hypothesis for v in inst.violations]
    assert "n divides the root group order" in names
    assert len(names) == len(set(names)), names


# -- translate link ------------------------------------------------------------------

def test_translate_link_equivalence():
    rng = random.Random(6)
    for pm in ((2, 4), (3, 4)):
        ctx = Field(*pm)
        q = ctx.p ** (pm[1] // 2)
        made = 0
        for _ in range(400):
            if made == 10:
                break
            g = Poly.from_dense(ctx, [rng.randrange(ctx.order) for _ in range(4)])
            delta = rng.randrange(ctx.order)
            inst = build_translate_link(ctx, q, 1, g, 1, delta, ctx.p)
            if not inst.ok:
                continue
            made += 1
            assert_equivalent(inst)
        assert made == 10


def test_translate_link_exceptional_reduced_blows_up_irregular():
    # a reduced map with an exception cannot transfer its class literally:
    # the fiber blowup turns the one exceptional value into q^ell of them
    ctx = Field(2, 4)
    for gc, delta in (([1, 3, 15, 4], 0), ([4, 0, 14, 13], 13)):
        inst = build_translate_link(ctx, 4, 1, Poly.from_dense(ctx, gc),
                                    1, delta, 2)
        assert inst.ok
        assert inst.classify_reduced().exception is not None
        assert inst.classify().irregular


def test_translate_link_rejects_bad_c():
    ctx = Field(2, 4)
    # c = beta generates GF(16), not the linking subfield GF(4)
    inst = build_translate_link(ctx, 4, 1, Poly.x(ctx), ctx.beta, 0, 2)
    assert inst.violations[0].hypothesis == "c a unit of the linking subfield"
    assert inst.violations[0].witness == ctx.beta


# -- tabulated shift-power shapes ------------------------------------------------------

def test_shift_power_poly_matches_the_table():
    emb = SubfieldEmbed(Field(3, 6), Field(3, 3))
    inst = build_shift_power(emb, "gouzao1", 1, q1=27)
    f = shift_power_poly(emb.big, 27, inst.meta["e"], 1)
    table = f.eval_all()
    assert all(int(table[x]) == inst.f[x] for x in emb.big.elements())


def test_shift_power_predicate_is_a_trace_class_invariant():
    emb = SubfieldEmbed(Field(3, 6), Field(3, 3))
    tt = emb.trace_table()
    rng = random.Random(3)
    reps = trace_class_reps(emb)
    for tval in list(reps)[:5]:
        mates = [x for x in emb.big.elements() if int(tt[x]) == tval]
        d1, d2 = rng.sample(mates, 2)
        i1 = build_shift_power(emb, "gouzao3", d1)
        i2 = build_shift_power(emb, "gouzao3", d2)
        assert i1.meta["predicate"] == i2.meta["predicate"]
        assert i1.holds() == i2.holds()



@pytest.mark.parametrize("big,sub", [((3, 4), (3, 2)), ((2, 6), (2, 3)), ((2, 6), (2, 2)),
                                     ((5, 2), (5, 1))])
def test_trace_class_reps_are_the_first_index_of_each_trace(big, sub):
    emb = SubfieldEmbed(Field(*big), Field(*sub))
    traces, first = np.unique(emb.trace_table(), return_index=True)
    assert trace_class_reps(emb) == dict(zip(traces.tolist(), first.tolist()))


def test_shift_power_small_sweep_counts():
    emb = SubfieldEmbed(Field(2, 8), Field(2, 4))
    rows, _ = verify.shift_power_sweep(emb, "2gouzao2")
    assert all(pred == got for _, _, pred, got in rows)
    assert sum(pred for _, _, pred, _ in rows) == 14


def test_shift_power_gate_is_decided_once():
    # gcd((3*q1*q - 1)/2, q - 1) = gcd(40, 8) = 8 over GF(81)/GF(9) with q1 = 3
    emb = SubfieldEmbed(Field(3, 4), Field(3, 2))
    note = "gcd((3*q1*q - 1)/2, q - 1) = 1"
    with pytest.raises(ValueError, match=re.escape(
            f"gouzao1: the arithmetic gate {note} fails for this tower, "
            "so the predicate is not claimed")):
        verify.shift_power_sweep(emb, "gouzao1", 3)
    inst = build_shift_power(emb, "gouzao1", 0, q1=3)  # one instance is built and flagged
    assert (inst.violations[0].hypothesis, inst.violations[0].witness) == (note, (3, 9))


def test_shift_power_tower_validation():
    emb = SubfieldEmbed(Field(3, 6), Field(3, 3))
    with pytest.raises(ValueError):
        build_shift_power(emb, "gouzao1", 0, q1=12)  # not a power of 3
    with pytest.raises(ValueError, match="^gouzao1 needs q1$"):
        build_shift_power(emb, "gouzao1", 0)
    with pytest.raises(ValueError, match="^gouzao3 takes no q1$"):
        verify.shift_power_sweep(emb, "gouzao3", q1=27)
    with pytest.raises(ValueError):
        build_shift_power(emb, "2gouzao2", 0)  # wrong characteristic
    deep = SubfieldEmbed(Field(2, 8), Field(2, 2))
    with pytest.raises(ValueError):
        build_shift_power(deep, "2gouzao2", 0)  # not a quadratic extension


# -- one map representation ------------------------------------------------------------

def _one_instance_per_builder():
    """(instance, old per-point formula of its reduced map) for one instance
    of every builder, hypotheses broken or not."""
    rng = random.Random(2)
    out = []

    emb = SubfieldEmbed(Field(2, 4), Field(2, 2))
    big = emb.big
    psi, phi = _sub_coeff_qpolys(emb, rng, 2)
    h, g = Poly.constant(big, 1), Poly.monomial(big, 1, 2)
    out.append((build_additive_split(emb, psi, psi, phi, h, g, 2),
                lambda y: big.add(big.mul(h(y), phi(y)), psi(g(y)))))

    emb3 = SubfieldEmbed(Field(3, 4), Field(3, 2))
    big3 = emb3.big
    L1, L2, L3 = _sub_coeff_qpolys(emb3, rng, 3)
    norm = Poly.monomial(big3, 1, 1 + emb3.q_sub)
    out.append((build_linearized_mix(emb3, L1, L2, L3, norm, 3),
                lambda y: big3.add(L1(y), big3.mul(L2(y), norm(y)))))

    f13 = Field(13, 1)
    hc = Poly.from_dense(f13, [2, 1])
    out.append((build_coset_power(f13, 5, 3, hc, 2),
                lambda y: f13.mul(f13.pow(y, 5), f13.pow(hc(y), 3))))

    lift = SubfieldEmbed(Field(3, 3), Field(3, 1))
    up, sub = lift.big, lift.sub

    def norm_formula(inst):
        r, h_sub = inst.meta["r"], inst.meta["h"]
        return lambda y: up.mul(up.pow(y, r), up.pow(lift.embed(h_sub(lift.project(y))), 3))

    inst = build_norm_lift(lift, 7, Poly.from_dense(sub, [1, 1, 1]), 2)
    assert inst.meta["sub_reduced"].tolist() == [
        sub.mul(sub.pow(y, 7), sub.pow(inst.meta["h"](y), 3)) for y in sub.elements()]
    out.append((inst, norm_formula(inst)))
    inst = build_two_branch_lift(lift, 1, 1, 2)
    out.append((inst, norm_formula(inst)))

    values = [5, 0, 7]
    inst = build_branch_interpolation(f13, 5, values)
    roots = dict(zip(f13.roots_of_unity(3), values))
    out.append((inst, lambda y: f13.mul(f13.pow(y, 5), f13.pow(roots[y], 4))))

    spec = random_piecewise(f13, random.Random(12))
    omega = f13.unit_root((f13.order - 1) // spec.s)
    plan = {f13.pow(omega, i): f13.pow(omega, a) for i, a in enumerate(spec.targets)}
    out.append((solve_piecewise(f13, spec), plan.__getitem__))

    f16 = Field(2, 4)
    gt = Poly.from_dense(f16, [1, 3, 15, 4])
    c = next(c for c in range(2, 16) if f16.pow(c, 4) == c)  # a unit of GF(4)
    out.append((build_translate_link(f16, 4, 1, gt, c, 13, 2),
                lambda y: f16.add(f16.add(f16.sub(f16.pow(gt(y), 4), gt(y)), f16.mul(c, y)),
                                  f16.mul(f16.sub(1, c), 13))))

    tower = SubfieldEmbed(Field(2, 8), Field(2, 4))
    inst = build_shift_power(tower, "2gouzao2", 5)
    e, big8 = inst.meta["e"], tower.big
    out.append((inst, lambda y: big8.add(big8.sub(big8.pow(big8.pow(y, e), 16),
                                                  big8.pow(y, e)), y)))
    return out


def _profile(values):
    """Preimage count -> how many values have it, counted with Counters."""
    return Counter(Counter(values.tolist()).values())


def test_maps_are_tables_and_agree_with_the_diagram():
    cases = _one_instance_per_builder()
    assert len({inst.family for inst, _ in cases}) == 9
    for inst, formula in cases:
        q = inst.ctx.order
        for t in (inst.f, inst.g):
            assert t.dtype == np.int64 and t.shape == (q,), inst
        for t in (inst.domain, inst.A, inst.S, inst.Sbar, inst.lam, inst.lambar):
            assert t.dtype == np.int64, inst
        assert inst.g[inst.S].tolist() == [formula(y) for y in inst.S.tolist()], inst

        domain = inst.domain.tolist()
        assert set(domain) - set(inst.A.tolist()) <= {0}  # 0 -> 0 is the only point off the square
        # the square's own sets, with 0 -> 0 added back where the domain has it
        f, A = inst.f.copy(), inst.A
        if 0 in domain and 0 not in A:
            f[0], A = 0, np.append(A, 0)
        assert inst.holds() == is_n_to_1(f, A, inst.n), inst
        assert inst.holds_reduced() == is_n_to_1(inst.g, inst.S, inst.n), inst
        assert inst.classify() == classify(f, domain=A), inst
        assert inst.classify_reduced() == classify(inst.g, domain=inst.S), inst

        factor = len(inst.A) // len(inst.S)
        pf, pg = _profile(inst.f[inst.A]), _profile(inst.g[inst.S])
        off = sorted(c for c in set(pf) | set(pg) if pf[c] != factor * pg[c])
        assert reduced_blowup(inst) == (factor, not off, off[0] if off else None), inst



@pytest.mark.parametrize("n", [0, -2])
def test_builders_refuse_n_below_1_before_any_work(n):
    # every other argument is None, so any work before the n check would raise otherwise
    msg = f"^n must be a positive int, got {n}$"
    h = Poly.x(Field(3, 1))
    for build in (lambda: build_additive_split(None, None, None, None, None, None, n),
                  lambda: build_linearized_mix(None, None, None, None, None, n),
                  lambda: build_coset_power(None, None, None, None, n),
                  lambda: build_norm_lift(None, None, h, n),
                  lambda: build_translate_link(None, None, None, None, None, None, n),
                  lambda: solve_piecewise(None, PiecewiseSpec(1, 1, n, [], []))):
        with pytest.raises(ValueError, match=msg):
            build()


# -- the map door ----------------------------------------------------------------------

def _bad_maps(ctx):
    """Maps that are not value tables over ctx, by the flaw each has."""
    q = ctx.order
    ones = np.ones(q, dtype=np.int64)
    negative, too_large = ones.copy(), ones.copy()
    negative[3], too_large[3] = -2, q
    return {"float": np.ones(q), "negative": negative, "too_large": too_large,
            "wrong_length": ones[1:], "other_field": Poly.x(Field(17, 1))}


_F13, _F16 = Field(13, 1), Field(2, 4)
_X16 = Poly.x(_F16)
MAP_DOORS = {
    "coset_power": (_F13, lambda h: build_coset_power(_F13, 1, 2, h, 1)),
    "coset_power_monomial": (_F13, lambda h: coset_power_monomial(_F13, 2, h)),
    "translate_link": (_F16, lambda g: build_translate_link(_F16, 4, 1, g, 1, 0, 2)),
    "additive_split": (_F16, lambda h: build_additive_split(
        SubfieldEmbed(_F16, Field(2, 2)), _X16, _X16, _X16, h, _X16, 2)),
}


@pytest.mark.parametrize("flaw", ["float", "negative", "too_large", "wrong_length",
                                  "other_field"])
@pytest.mark.parametrize("door", sorted(MAP_DOORS))
def test_builders_take_maps_through_value_table(door, flaw):
    ctx, build = MAP_DOORS[door]
    with pytest.raises(FieldMismatch):
        build(_bad_maps(ctx)[flaw])
