"""Commutative-square verification and the n-to-1 transfer."""

import hashlib
import json
import random

import numpy as np
import pytest

from nto1 import (
    DiagramSpec, Violation, condition3, random_diagram, transfer, verify_diagram,
)
from nto1.errors import HypothesesNotVerified, HypothesisViolated


def two_to_one_square():
    # lam halves A onto S; g folds S in two; f realizes g fiberwise:
    # the lam-fiber {2s, 2s+1} maps bijectively onto the lambar-fiber
    # over g(s), which is {2*g(s), 2*g(s)+1}
    A = np.arange(8)
    S = Sbar = np.arange(4)
    g = np.array([0, 0, 1, 1])
    lam = A // 2
    lambar = A // 2
    f = 2 * g[A // 2] + A % 2
    return DiagramSpec(A, S, Sbar, f, g, lam, lambar, 2)


def test_hand_built_square_verifies_and_transfers():
    d = two_to_one_square()
    rep = verify_diagram(d)
    assert rep.ok, rep.violations
    v = transfer(d, rep)
    assert v.f_n_to_1 and v.g_n_to_1
    assert v.forward_ok and v.backward_ok


def test_broken_commutation_is_caught():
    d = two_to_one_square()
    d.f[0] = 7  # 7 sits in a different lambar fiber
    rep = verify_diagram(d)
    assert not rep.ok
    names = {v.hypothesis for v in rep.violations}
    assert any("commut" in n or "bijective" in n for n in names)


def test_each_hypothesis_names_its_first_witness():
    d = two_to_one_square()
    d.f[3] = 9  # 9 is no label of A
    d.lam[0] = -1  # nor is -1 one of S, though S[-1] is
    d.g[2] = 5
    assert verify_diagram(d).violations == (
        Violation("f maps A into A", 3), Violation("lam maps A into S", 0),
        Violation("g maps S into Sbar", 2))
    with pytest.raises(ValueError, match="labels must be nonnegative"):
        DiagramSpec(d.A - 1, d.S, d.Sbar, d.f, d.g, d.lam, d.lambar, 2)
    d = two_to_one_square()
    d.lam[[4, 5]] = 1  # the lam-fiber over 2 empties, the one over 1 doubles
    assert verify_diagram(d).violations == (
        Violation("lam surjective onto S", 2),
        Violation("commutation lambar(f(x)) = g(lam(x))", 4),
        Violation("f bijective from lam-fiber to lambar-fiber", 1),
        Violation("f bijective from lam-fiber to lambar-fiber", 2))
    d = two_to_one_square()
    d.f[1] = 0  # the lam-fiber {0, 1} no longer maps injectively
    assert verify_diagram(d).violations == (
        Violation("f bijective from lam-fiber to lambar-fiber", 0),)


def test_json_labels_are_ints_in_range():
    good = two_to_one_square().to_json_dict()
    assert DiagramSpec.from_json_dict(good).to_json_dict() == good
    for key, value, msg in (
            ("A", [[0, 1], *range(1, 8)], r"A: \[0, 1\] is not a label"),
            ("S", [0, 1, 2, -3], "S: -3 is not a label"),
            ("Sbar", [0, 1, 2, 1 << 20], "Sbar: 1048576 is not a label"),
            ("S", [0, 1, 2, 1], "S repeats a label"),
            ("lam", good["lam"][1:], "lam has no pair for 0"),
            ("lambar", [[0, 1], *good["lambar"]], "lambar pairs a label twice"),
            ("g", [[0, 0], [1]], r"g must be a list of \[label, label\] pairs"),
            ("n", 0, "n must be a positive int")):
        with pytest.raises(ValueError, match=msg):
            DiagramSpec.from_json_dict({**good, key: value})


def test_transfer_refuses_broken_squares():
    d = two_to_one_square()
    d.f[0] = 7
    with pytest.raises(HypothesesNotVerified):
        transfer(d)


def test_condition3_none_when_g_not_n_to_1():
    d = two_to_one_square()
    assert condition3(d) is True  # n = 2 divides #S = 4, nothing to locate
    # with n not dividing #S, a g that is not n-to-1 gives None
    A = np.arange(7)
    S = Sbar = np.arange(3)
    g = np.zeros(3, dtype=np.int64)
    lam = np.minimum(A // 2, 2)
    d2 = DiagramSpec(A, S, Sbar, np.zeros(7, dtype=np.int64), g, lam, lam, 2)
    assert condition3(d2) is None


def test_condition3_count_mismatch_is_a_typed_error():
    # g is 2-to-1 on #S = 3 with its exception, but #A = 4 breaks
    # #A = #S (mod n); checked with a typed error, so python -O keeps it
    A = np.arange(4)
    S = Sbar = np.arange(3)
    g = np.array([0, 0, 1])
    lam = A % 3
    d = DiagramSpec(A, S, Sbar, np.zeros(4, dtype=np.int64), g, lam, lam, 2)
    with pytest.raises(HypothesisViolated, match="#A = #S"):
        condition3(d)


def test_json_roundtrip():
    rng = random.Random(3)
    d = random_diagram(rng, max_set=40)
    blob = json.dumps(d.to_json_dict(), sort_keys=True)
    d2 = DiagramSpec.from_json_dict(json.loads(blob))
    assert verify_diagram(d2).ok == verify_diagram(d).ok
    v1, v2 = transfer(d, verify_diagram(d)), transfer(d2, verify_diagram(d2))
    assert (v1.f_n_to_1, v1.g_n_to_1, v1.condition3) == (v2.f_n_to_1, v2.g_n_to_1, v2.condition3)


def test_random_corpus_transfer_pins():
    rng = random.Random(20260817)
    verified = fwd = bwd = 0
    c3 = {True: 0, False: 0, None: 0}
    for _ in range(300):
        d = random_diagram(rng, max_set=100)
        rep = verify_diagram(d)
        if not rep.ok:
            continue
        verified += 1
        v = transfer(d, rep)
        fwd += v.forward_ok
        bwd += v.backward_ok
        c3[v.condition3] += 1
    assert verified == 300
    assert fwd == 300 and bwd == 300
    assert (c3[True], c3[False], c3[None]) == (184, 78, 38)


def test_condition3_failure_blocks_backward_inference():
    # g n-to-1 without condition (3) really does leave f undetermined:
    # the corpus contains many such squares where f is not n-to-1
    rng = random.Random(7)
    gap = 0
    for _ in range(400):
        d = random_diagram(rng, max_set=100)
        rep = verify_diagram(d)
        if not rep.ok:
            continue
        v = transfer(d, rep)
        if v.g_n_to_1 and v.condition3 is False and not v.f_n_to_1:
            gap += 1
    assert gap == 94


def _square_digest(seeds, draws, **kw):
    """sha256 of successive draws at each seed: every square's sorted-key
    JSON, or its refusal message, then the generator state after it."""
    h = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(draws):
            try:
                blob = json.dumps(random_diagram(rng, **kw).to_json_dict(), sort_keys=True)
            except ValueError as e:
                blob = str(e)
            h.update(blob.encode() + repr(rng.getstate()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seeds,draws,kw,digest", [
    ([20260817], 200, {"max_set": 100},
     "8fc1a04ae44431d5b8bcad220dad2ce53753a47a1c2f6399eb92bd3c970900e4"),
    ([7], 200, {"max_set": 100},
     "8dafb474c2f6e65fec9e17890976d29e29ad48bc2e6b068b190eec947ebd1b78"),
    (range(1, 7), 20, {"n": 1},
     "36c664200a01b57aff02aa4fad709f4de22597664e1e6cb4ad02990a0476cdde"),
    (range(10), 5, {"n": 7, "max_set": 10},  # 9 of these 50 draws are refusals
     "12793edfda436e11b3bdab92338ad02a488dcae559518664be6ac261508a7a8a"),
])
def test_random_squares_are_pinned(seeds, draws, kw, digest):
    """The squares themselves and the draw order behind them: the transfer
    rows above do not change when a square is relabelled, these do."""
    assert _square_digest(seeds, draws, **kw) == digest

