"""Commutative-square engine: transfer n-to-1 status between the top and
bottom maps of a verified diagram.

    A ---f---> A
    |          |
   lam       lambar
    |          |
    v          v
    S ---g---> Sbar

Hypotheses: #S = #Sbar > 1, #A = #S (mod n), lam and lambar surjective,
lambar(f(x)) = g(lam(x)) for all x, and f restricted to each lam-fiber is a
bijection onto the lambar-fiber of g(s).  Under these, f n-to-1 forces
g n-to-1; the converse needs the extra fiber condition on the exceptional
value (condition3 below).
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .counting import is_n_to_1
from .errors import HypothesesNotVerified, HypothesisViolated, SetTooLarge

_LABEL_CAP = 1 << 20  # JSON labels are ints in [0, 2^20); sets hold at most 2^20


@dataclass(frozen=True)
class Violation:
    hypothesis: str
    witness: object

    def __str__(self):
        return f"{self.hypothesis}: witness {self.witness!r}"


@dataclass
class FiberReport:
    ok: bool
    violations: tuple = ()


@dataclass
class TransferVerdict:
    n: int
    f_n_to_1: bool
    g_n_to_1: bool
    condition3: Optional[bool]  # None when g is not n-to-1 (nothing to locate)
    forward_ok: bool            # f n-to-1 implies g n-to-1
    backward_ok: bool           # g n-to-1 and condition3 imply f n-to-1


def _labels(xs, what):
    """A JSON list of labels as an int64 array; ValueError on anything
    that is not an int in [0, 2^20)."""
    if not isinstance(xs, list):
        raise ValueError(f"{what} must be a list")
    for x in xs:
        if type(x) is not int or not 0 <= x < _LABEL_CAP:
            raise ValueError(f"{what}: {x!r} is not a label, an int in [0, 2^20)")
    return np.array(xs, dtype=np.int64)


def positive_n(n):
    """n when it is a positive int, else ValueError naming it."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    return n


def _distinct(x):
    """The sorted distinct entries of an int array: a sort and a compare
    of neighbours, where np.unique would import numpy.ma."""
    x = np.sort(x)
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


class DiagramSpec:
    """One commutative square.  A, S and Sbar are int64 label arrays in
    codec order (the serialization order); f, g, lam and lambar are int64
    tables indexed by label, read on A (g on S)."""

    def __init__(self, A, S, Sbar, f, g, lam, lambar, n):
        self.A, self.S, self.Sbar, self.f, self.g, self.lam, self.lambar = (
            np.asarray(x, dtype=np.int64) for x in (A, S, Sbar, f, g, lam, lambar))
        if max(len(self.A), len(self.S), len(self.Sbar)) > _LABEL_CAP:
            raise SetTooLarge(f"sets up to {_LABEL_CAP} elements supported")
        if min(x.min(initial=0) for x in (self.A, self.S, self.Sbar)) < 0:
            raise ValueError("labels must be nonnegative")
        self.n = positive_n(n)

    def to_json_dict(self):
        def pairs(table, domain):
            return np.stack([domain, table[domain]], axis=1).tolist()
        return {
            "A": self.A.tolist(),
            "S": self.S.tolist(),
            "Sbar": self.Sbar.tolist(),
            "f": pairs(self.f, self.A),
            "g": pairs(self.g, self.S),
            "lam": pairs(self.lam, self.A),
            "lambar": pairs(self.lambar, self.A),
            "n": self.n,
        }

    @staticmethod
    def from_json_dict(d):
        """Inverse of to_json_dict.  Every label must be an int in
        [0, 2^20), no set may repeat one, and every map needs exactly one
        pair for each point of its domain; ValueError names the first part
        that is not so."""
        if not isinstance(d, dict):
            raise ValueError("a diagram is a JSON object")
        A, S, Sbar = (_labels(d[k], k) for k in ("A", "S", "Sbar"))
        for name, labels in (("A", A), ("S", S), ("Sbar", Sbar)):
            if len(_distinct(labels)) < len(labels):
                raise ValueError(f"{name} repeats a label")

        def table(name, domain):
            pairs = d[name]
            if not (isinstance(pairs, list)
                    and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
                raise ValueError(f"{name} must be a list of [label, label] pairs")
            keys, vals = (_labels([p[i] for p in pairs], name) for i in (0, 1))
            if len(_distinct(keys)) < len(keys):
                raise ValueError(f"{name} pairs a label twice")
            t = np.full(1 + max(keys.max(initial=-1), domain.max(initial=-1)), -1)
            t[keys] = vals
            missing = domain[t[domain] < 0]
            if missing.size:
                raise ValueError(f"{name} has no pair for {missing[0]}")
            return t

        return DiagramSpec(A, S, Sbar, table("f", A), table("g", S),
                           table("lam", A), table("lambar", A), d["n"])


def _marks(labels, size):
    """Boolean table over [0, size), True exactly at the given labels."""
    marks = np.zeros(size, dtype=bool)
    marks[labels] = True
    return marks


def verify_diagram(d: DiagramSpec) -> FiberReport:
    """Check every hypothesis of the transfer theorem.  Violations carry a
    concrete witness; fiber bijectivity is checked for all s, never sampled."""
    violations = []
    if not (len(d.S) == len(d.Sbar) > 1):
        violations.append(Violation("set sizes (#S = #Sbar > 1)",
                                    (len(d.S), len(d.Sbar))))
    if (len(d.A) - len(d.S)) % d.n != 0:
        violations.append(Violation("cardinality congruence (#A = #S mod n)",
                                    (len(d.A), len(d.S), d.n)))

    fA, lamA, lambarA, gS = d.f[d.A], d.lam[d.A], d.lambar[d.A], d.g[d.S]
    size = 1 + max(int(x.max(initial=-1))
                   for x in (d.A, d.S, d.Sbar, fA, lamA, lambarA, gS))
    in_A, in_S, in_Sbar = (_marks(x, size) for x in (d.A, d.S, d.Sbar))
    for hypothesis, vals, domain, target in (
            ("f maps A into A", fA, d.A, in_A),
            ("lam maps A into S", lamA, d.A, in_S),
            ("lambar maps A into Sbar", lambarA, d.A, in_Sbar),
            ("g maps S into Sbar", gS, d.S, in_Sbar)):
        bad = domain[(vals < 0) | ~target[vals]]
        if bad.size:
            violations.append(Violation(hypothesis, int(bad[0])))

    if violations:
        return FiberReport(ok=False, violations=tuple(violations))

    for hypothesis, image, onto in (("lam surjective onto S", lamA, d.S),
                                    ("lambar surjective onto Sbar", lambarA, d.Sbar)):
        missing = onto[~_marks(image, size)[onto]]
        if missing.size:
            violations.append(Violation(hypothesis, int(missing.min())))

    bad = d.A[d.lambar[fA] != d.g[lamA]]
    if bad.size:
        violations.append(Violation("commutation lambar(f(x)) = g(lam(x))", int(bad[0])))

    # commutation already places f(fiber) inside the target fiber, so
    # bijective reduces to: injective and sizes match
    fiber = np.bincount(lamA, minlength=size)
    target = np.bincount(lambarA, minlength=size)
    images = np.bincount(_distinct(lamA * size + fA) // size, minlength=size)
    bad = d.S[(images[d.S] != fiber[d.S]) | (fiber[d.S] != target[gS])]
    violations += [Violation("f bijective from lam-fiber to lambar-fiber", s)
                   for s in bad.tolist()]
    return FiberReport(ok=not violations, violations=tuple(violations))


def condition3(d: DiagramSpec) -> Optional[bool]:
    """n | #S, or the unique exceptional value of g (the one with
    t = #A mod n preimages) has a singleton lambar-fiber.  None when g is
    not n-to-1 at n, since then there is no exceptional value to inspect."""
    if len(d.S) % d.n == 0:
        return True
    if not is_n_to_1(d.g, d.S, d.n):
        return None
    t = len(d.A) % d.n
    # hypothesis #A = #S (mod n) makes the two t candidates agree
    if t != len(d.S) % d.n:
        raise HypothesisViolated("#A = #S (mod n)", (len(d.A), len(d.S), d.n))
    # is_n_to_1 has required exactly one value of g with t preimages
    exceptional = np.flatnonzero(np.bincount(d.g[d.S]) == t)
    return int(np.count_nonzero(d.lambar[d.A] == exceptional[0])) == 1


def transfer(d: DiagramSpec, report: FiberReport = None) -> TransferVerdict:
    """Decide n-to-1-ness of both maps and evaluate the two implications of
    the theorem: forward (f n-to-1 forces g n-to-1) and backward (g n-to-1
    plus condition3 force f n-to-1)."""
    if report is None:
        report = verify_diagram(d)
    if not report.ok:
        raise HypothesesNotVerified(
            "; ".join(str(v) for v in report.violations))

    f_ok = is_n_to_1(d.f, d.A, d.n)
    g_ok = is_n_to_1(d.g, d.S, d.n)
    cond3 = condition3(d)

    forward_ok = (not f_ok) or g_ok
    backward_ok = (not (g_ok and bool(cond3))) or f_ok

    return TransferVerdict(
        n=d.n, f_n_to_1=f_ok, g_n_to_1=g_ok, condition3=cond3,
        forward_ok=forward_ok, backward_ok=backward_ok,
    )


def random_diagram(rng, n=None, max_set=100) -> DiagramSpec:
    """Draw a random diagram satisfying every hypothesis of the theorem.

    First the datum: g's fiber sizes over its image, the shuffled Sbar
    (whose first points are that image) and the lambar-fiber sizes d,
    balanced so that a compatible lam partition exists.  Then the wiring,
    by scatters: S = range(k), and f maps each lam-fiber bijectively onto
    a shuffled copy of its lambar-fiber.  g is strictly n-to-1, n-to-1
    with a singleton exception (condition3 holds) or a fat one (condition3
    fails; neither exists at n = 1), or irregular.  The order of the rng
    calls is part of the contract: the agwcore2 rows and `nto1 diagram
    --random` depend on it.  ValueError when n < 1, or when no draw fits
    in max_set points.
    """
    if n is None:
        n = rng.choice([2, 2, 3, 3, 4, 5])
    if n < 1:
        raise ValueError(f"diagram needs n >= 1, got n={n}")
    mode = rng.choice(["strict", "exc1", "excfat", "irregular"] if n > 1 else ["strict", "irregular"])

    for _ in range(200):
        # datum: g's fiber sizes over its image; #S = k is their sum, and
        # every point of Sbar gets a lambar-fiber of size >= 1, so #A >= k
        if mode == "strict":
            sizes = [n] * rng.randrange(1, 5)
        elif mode == "irregular":
            sizes = [rng.randrange(1, n + 2) for _ in range(rng.randrange(2, 5))]
        else:
            sizes = [n] * rng.randrange(1, 4) + [rng.randrange(1, n)]
        k = sum(sizes)
        if k < 2 or k > max_set:
            continue
        Sbar = list(range(k))
        rng.shuffle(Sbar)
        image, rest = Sbar[:len(sizes)], Sbar[len(sizes):]
        d = [1] * k
        for sb in image:
            d[sb] = rng.randrange(1, 4)
        if mode in ("exc1", "excfat"):  # excfat keeps #A = #S (mod n): t*(d0 - 1) = 0
            d[image[-1]] = 1 if mode == "exc1" else 1 + n
        # balance: #A = sum over image of size*d, so the fibers off the
        # image, each of size >= 1, must absorb sum (size-1)*d
        need = sum((sz - 1) * d[sb] for sb, sz in zip(image, sizes))
        if need < len(rest) or (need and not rest):
            continue
        for _ in range(need - len(rest)):
            d[rest[rng.randrange(len(rest))]] += 1
        total_A = sum(d)
        if total_A > max_set or (total_A - k) % n != 0:
            continue

        # wiring: g sends a shuffled run of sizes[i] points of S onto image[i]
        g = np.zeros(k, dtype=np.int64)
        pool = list(range(k))
        rng.shuffle(pool)
        g[pool] = np.repeat(image, sizes)
        # the lambar-fibers are consecutive runs of the shuffled A in Sbar
        # order, so lambar-fiber sb is A[end[sb] - d[sb]:end[sb]]
        A = list(range(total_A))
        rng.shuffle(A)
        lam, lambar, f = np.zeros((3, total_A), dtype=np.int64)
        lambar[A] = np.repeat(Sbar, [d[sb] for sb in Sbar])
        end = dict(zip(Sbar, accumulate(d[sb] for sb in Sbar)))
        # each s gets a lam-fiber of size d[g(s)], the next run of cursor,
        # and f maps it onto lambar-fiber g(s); by the balance these runs
        # use up A exactly
        cursor = list(A)
        rng.shuffle(cursor)
        targets = []
        for sb in g.tolist():
            block = A[end[sb] - d[sb]:end[sb]]
            rng.shuffle(block)
            targets += block
        lam[cursor] = np.repeat(np.arange(k), np.array(d)[g])
        f[cursor] = targets
        return DiagramSpec(A, range(k), Sbar, f, g, lam, lambar, n)
    raise ValueError(f"no random diagram with n={n} and at most max_set={max_set} points in 200 draws")
