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
from typing import Mapping, Optional

from .counting import classify, is_n_to_1, NTo1Report
from .errors import HypothesesNotVerified, HypothesisViolated, SetTooLarge

_SET_CAP = 1 << 20


def _as_table(fn, domain):
    # closures and dicts both become plain dicts keyed by domain elements
    if isinstance(fn, Mapping):
        return {a: fn[a] for a in domain}
    return {a: fn(a) for a in domain}


@dataclass(frozen=True)
class Violation:
    hypothesis: str
    witness: object

    def __str__(self):
        return f"{self.hypothesis}: witness {self.witness!r}"


@dataclass(frozen=True)
class FiberInfo:
    size: int          # #lam^-1(s)
    image_size: int    # #lambar^-1(g(s))
    bijective: bool


@dataclass
class FiberReport:
    ok: bool
    fibers: dict               # s -> FiberInfo
    violations: tuple = ()


@dataclass
class TransferVerdict:
    n: int
    f_n_to_1: bool
    g_n_to_1: bool
    condition3: Optional[bool]  # None when g is not n-to-1 (nothing to locate)
    forward_ok: bool            # f n-to-1 implies g n-to-1
    backward_ok: bool           # g n-to-1 and condition3 imply f n-to-1
    f_report: NTo1Report = None
    g_report: NTo1Report = None


class DiagramSpec:
    """One commutative square.  Maps may be dicts or callables; sets are
    element sequences (order is the codec order for serialization)."""

    def __init__(self, A, S, Sbar, f, g, lam, lambar, n):
        if len(A) > _SET_CAP or len(S) > _SET_CAP or len(Sbar) > _SET_CAP:
            raise SetTooLarge(f"sets up to {_SET_CAP} elements supported")
        self.A = tuple(A)
        self.S = tuple(S)
        self.Sbar = tuple(Sbar)
        self.f = _as_table(f, self.A)
        self.g = _as_table(g, self.S)
        self.lam = _as_table(lam, self.A)
        self.lambar = _as_table(lambar, self.A)
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n

    def to_json_dict(self):
        def pairs(table, domain):
            return [[a, table[a]] for a in domain]
        return {
            "A": list(self.A),
            "S": list(self.S),
            "Sbar": list(self.Sbar),
            "f": pairs(self.f, self.A),
            "g": pairs(self.g, self.S),
            "lam": pairs(self.lam, self.A),
            "lambar": pairs(self.lambar, self.A),
            "n": self.n,
        }

    @classmethod
    def from_json_dict(cls, d):
        def table(pairs):
            return {a: b for a, b in pairs}
        # JSON round-trips tuples as lists; normalize to hashable tuples
        def elem(x):
            return tuple(x) if isinstance(x, list) else x
        def fix(t):
            return {elem(k): elem(v) for k, v in t.items()}
        return cls(
            A=[elem(x) for x in d["A"]],
            S=[elem(x) for x in d["S"]],
            Sbar=[elem(x) for x in d["Sbar"]],
            f=fix(table(d["f"])), g=fix(table(d["g"])),
            lam=fix(table(d["lam"])), lambar=fix(table(d["lambar"])),
            n=d["n"],
        )


def verify_diagram(d: DiagramSpec) -> FiberReport:
    """Check every hypothesis of the transfer theorem.  Violations carry a
    concrete witness; fiber bijectivity is checked for all s, never sampled."""
    violations = []
    S_set, Sbar_set, A_set = set(d.S), set(d.Sbar), set(d.A)

    if not (len(d.S) == len(d.Sbar) > 1):
        violations.append(Violation("set sizes (#S = #Sbar > 1)",
                                    (len(d.S), len(d.Sbar))))
    if (len(d.A) - len(d.S)) % d.n != 0:
        violations.append(Violation("cardinality congruence (#A = #S mod n)",
                                    (len(d.A), len(d.S), d.n)))

    for hypothesis, table, domain, target in (
            ("f maps A into A", d.f, d.A, A_set),
            ("lam maps A into S", d.lam, d.A, S_set),
            ("lambar maps A into Sbar", d.lambar, d.A, Sbar_set),
            ("g maps S into Sbar", d.g, d.S, Sbar_set)):
        for a in domain:
            if table[a] not in target:
                violations.append(Violation(hypothesis, a))
                break

    if violations:
        return FiberReport(ok=False, fibers={}, violations=tuple(violations))

    missing = S_set - {d.lam[a] for a in d.A}
    if missing:
        violations.append(Violation("lam surjective onto S", min(missing, key=repr)))
    missing = Sbar_set - {d.lambar[a] for a in d.A}
    if missing:
        violations.append(Violation("lambar surjective onto Sbar", min(missing, key=repr)))

    for a in d.A:
        if d.lambar[d.f[a]] != d.g[d.lam[a]]:
            violations.append(Violation("commutation lambar(f(x)) = g(lam(x))", a))
            break

    lam_fibers = {s: [] for s in d.S}
    for a in d.A:
        if d.lam[a] in lam_fibers:
            lam_fibers[d.lam[a]].append(a)
    lambar_sizes = {sb: 0 for sb in d.Sbar}
    for a in d.A:
        if d.lambar[a] in lambar_sizes:
            lambar_sizes[d.lambar[a]] += 1

    fibers = {}
    for s in d.S:
        fiber = lam_fibers[s]
        target_size = lambar_sizes.get(d.g[s], 0)
        images = {d.f[a] for a in fiber}
        # commutation already places f(fiber) inside the target fiber, so
        # bijective reduces to: injective and sizes match
        bij = len(images) == len(fiber) == target_size
        fibers[s] = FiberInfo(size=len(fiber), image_size=target_size, bijective=bij)
        if not bij:
            violations.append(Violation("f bijective from lam-fiber to lambar-fiber", s))

    return FiberReport(ok=not violations, fibers=fibers, violations=tuple(violations))


def condition3(d: DiagramSpec, g_report: NTo1Report = None) -> Optional[bool]:
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
    counts = {}
    for s in d.S:
        counts[d.g[s]] = counts.get(d.g[s], 0) + 1
    exceptional = [sb for sb, c in counts.items() if c == t]
    if len(exceptional) != 1:
        # t == n would make the exception invisible; cannot happen since
        # 0 < t < n here, and is_n_to_1 guarantees exactly one such value
        return None
    s0 = exceptional[0]
    fiber = sum(1 for a in d.A if d.lambar[a] == s0)
    return fiber == 1


def transfer(d: DiagramSpec, report: FiberReport = None) -> TransferVerdict:
    """Classify both maps and evaluate the two implications of the theorem:
    forward (f n-to-1 forces g n-to-1) and backward (g n-to-1 plus
    condition3 force f n-to-1)."""
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
        f_report=classify(d.f, domain=d.A),
        g_report=classify(d.g, domain=d.S),
    )


def random_diagram(rng, n=None, max_set=100) -> DiagramSpec:
    """Draw a random diagram satisfying every hypothesis of the theorem.

    Construction: pick g's fiber profile over Sbar first, then pick the
    lambar-fiber sizes, balance them so a compatible lam partition exists,
    and wire f as a random bijection fiber-by-fiber.  The g profile is drawn
    from four shapes: strictly n-to-1, n-to-1 with a singleton exception
    (condition3 holds), n-to-1 with a fat exceptional fiber (condition3
    fails), and irregular.
    """
    if n is None:
        n = rng.choice([2, 2, 3, 3, 4, 5])
    mode = rng.choice(["strict", "exc1", "excfat", "irregular"])

    for _ in range(200):
        # g fiber sizes over the image; #S = sum of sizes
        if mode == "strict":
            im = rng.randrange(1, 5)
            sizes = [n] * im
        elif mode in ("exc1", "excfat"):
            im = rng.randrange(1, 4)
            t = rng.randrange(1, n)
            sizes = [n] * im + [t]
        else:
            im = rng.randrange(2, 5)
            sizes = [rng.randrange(1, n + 2) for _ in range(im)]
        k = sum(sizes)
        if k < 2:
            continue

        Sbar = list(range(k))
        rng.shuffle(Sbar)
        image = Sbar[:len(sizes)]
        nonimage = Sbar[len(sizes):]

        # lambar-fiber sizes d[sb] >= 1; sizes over the image are free,
        # except the exceptional value in the two exception modes
        d_sizes = {}
        for sb, sz in zip(image, sizes):
            d_sizes[sb] = rng.randrange(1, 4)
        if mode == "exc1":
            d_sizes[image[-1]] = 1
        elif mode == "excfat":
            # keep #A = #S (mod n): t*(d0 - 1) must vanish mod n
            d_sizes[image[-1]] = 1 + n

        # balance: sum over Sbar of d = #A = sum over image of size*d,
        # so the non-image fibers must absorb sum (size-1)*d
        need = sum((sz - 1) * d_sizes[sb] for sb, sz in zip(image, sizes))
        if need < len(nonimage):
            continue
        alloc = [1] * len(nonimage)
        for _ in range(need - len(nonimage)):
            if not alloc:
                break
            alloc[rng.randrange(len(alloc))] += 1
        if sum(alloc) != need:
            continue
        for sb, c in zip(nonimage, alloc):
            d_sizes[sb] = c

        total_A = sum(d_sizes.values())
        if total_A > max_set or (total_A - k) % n != 0:
            continue

        # S mirrors Sbar's labels; g sends each block of S onto its image value
        S = list(range(k))
        g = {}
        pool = list(S)
        rng.shuffle(pool)
        pos = 0
        for sb, sz in zip(image, sizes):
            for s in pool[pos:pos + sz]:
                g[s] = sb
            pos += sz

        # partition A by lambar, then carve lam-fibers to match g's wiring
        A = list(range(total_A))
        rng.shuffle(A)
        lambar = {}
        blocks = {}
        pos = 0
        for sb in Sbar:
            blocks[sb] = A[pos:pos + d_sizes[sb]]
            for a in blocks[sb]:
                lambar[a] = sb
            pos += d_sizes[sb]

        # every s needs a lam-fiber of size d_sizes[g(s)]; f maps it
        # bijectively onto blocks[g(s)].  Hand out fresh elements of A:
        # the multiset of lam-fiber sizes sums to total_A by the balance.
        lam = {}
        f = {}
        cursor = list(A)
        rng.shuffle(cursor)
        idx = 0
        ok = True
        for s in S:
            dsz = d_sizes[g[s]]
            members = cursor[idx:idx + dsz]
            if len(members) < dsz:
                ok = False
                break
            idx += dsz
            targets = list(blocks[g[s]])
            rng.shuffle(targets)
            for a, b in zip(members, targets):
                lam[a] = s
                f[a] = b
        if not ok or idx != total_A:
            continue

        return DiagramSpec(A=A, S=S, Sbar=Sbar, f=f, g=g,
                           lam=lam, lambar=lambar, n=n)
    raise RuntimeError("diagram sampling failed to converge")
