"""Ground-truth n-to-1 classification by brute force, plus closed-form oracles.

A map f on a finite domain A is n-to-1 when every value has n or 0
preimages, except that if n does not divide #A, exactly one value has
#A mod n preimages.  classify() finds the canonical such n (the common
nonzero fiber size); is_n_to_1() checks the definition at a given n,
which matters for degenerate maps that satisfy it for several n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DomainTooLarge, ExceptionCountMismatch, FieldMismatch, HistogramLostMass, ZeroInput,
)
from .fields import Field
from .polys import LinearizedPoly, Poly

_DOMAIN_CAP = 2 ** 22
_BLOCK_ELEMS = 1 << 14  # value-matrix entries per batch; bounds batched callers' peak memory


@dataclass(frozen=True, eq=False, repr=False)
class NTo1Report:
    """classify()'s verdict; the histogram dict is built from counts when read."""
    n: int
    exception: Optional[tuple]  # (value, t) or None
    counts: np.ndarray  # preimage count of each value code (a bincount)
    domain_size: int
    irregular: bool

    @cached_property
    def histogram(self) -> dict:
        return _histogram_dict(self.counts, self.domain_size)

    def __eq__(self, other):  # as the dataclass would with a histogram field
        return isinstance(other, NTo1Report) and (
            (self.n, self.exception, self.histogram, self.domain_size, self.irregular)
            == (other.n, other.exception, other.histogram, other.domain_size, other.irregular))

    def __repr__(self):
        return (f"NTo1Report(n={self.n!r}, exception={self.exception!r}, histogram={self.histogram!r}, "
                f"domain_size={self.domain_size!r}, irregular={self.irregular!r})")

    def to_json(self) -> str:
        exception = list(self.exception) if self.exception else None
        return json.dumps({"n": self.n, "exception": exception, "domain_size": self.domain_size,
                           "irregular": self.irregular}, sort_keys=True, separators=(",", ":"))


def _counts(f, domain):
    """(bincount, size) of an int64 value table, or of a polynomial's
    eval_all(), read on domain (indices; an empty one as int64) when given.
    A negative entry is a FieldMismatch, caught from bincount at no extra pass."""
    if isinstance(f, Poly):
        f = f.eval_all()
    if not (isinstance(f, np.ndarray) and f.dtype.kind in "iu"):
        raise TypeError(f"unsupported map object {type(f)!r}; maps are integer value tables")
    vals = f if domain is None else f[np.asarray(domain) if len(domain) else np.empty(0, np.int64)]
    if vals.size > _DOMAIN_CAP:
        raise DomainTooLarge(f"domain size {vals.size} exceeds 2^22")
    try:
        return np.bincount(vals), vals.size
    except ValueError:
        raise FieldMismatch(
            f"table entries must be nonnegative element codes; found {vals.min()}") from None


def _histogram_dict(counts, size: int) -> dict:
    """value -> count dict of the nonzero entries of a bincount, in codec
    order, checked on the counts first to hold all size preimages."""
    hit = np.flatnonzero(counts)
    total = int(counts.sum())
    if total != size:
        raise HistogramLostMass(f"histogram holds {total} preimages for a domain of {size}")
    return dict(zip(hit.tolist(), counts[hit].tolist()))


def histogram(f, domain=None) -> dict:
    """Exact value -> preimage-count table of an int64 value table, or of a
    polynomial's eval_all(), read on domain (an index array) when given;
    one bincount, values in codec order."""
    return _histogram_dict(*_counts(f, domain))


def _decide(counts, size: int):
    """Core decision on one map's fiber counts (a bincount) over a nonempty
    domain.  Returns (n, exception, irregular); exception is (value, t)."""
    hit = counts[counts > 0]
    small, big = int(hit.min()), int(hit.max())
    if small == big:
        return big, None, False
    is_small = counts == small
    if np.count_nonzero(is_small) == 1 and np.count_nonzero(hit == big) == hit.size - 1:
        if size % big != small:
            raise ExceptionCountMismatch(
                f"exception count {small} is not #A mod n = {size} mod {big}")
        return big, (int(np.flatnonzero(is_small)[0]), small), False
    return 0, None, True


def row_blocks(count: int, width: int):
    """Lazily, consecutive (lo, hi) ranges covering range(count), each of
    at most _BLOCK_ELEMS // width rows (at least one), so a batch of rows
    of this width stays near 2^14 entries."""
    step = max(1, _BLOCK_ELEMS // width)
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def row_counts(V: np.ndarray, q: int) -> np.ndarray:
    """(rows, q) fiber-count matrix of a 2-D integer (rows, size) value
    matrix with entries in [0, q), from one bincount of V + row * q."""
    if V.ndim != 2 or V.dtype.kind not in "iu":
        raise FieldMismatch(f"a value matrix is 2-D integer, not shape {V.shape} dtype {V.dtype}")
    rows = len(V)
    if V.size and (V.min() < 0 or V.max() >= q):
        raise FieldMismatch(f"value matrix entries must lie in [0, {q})")
    offset = q * np.arange(rows, dtype=np.int64)[:, None]
    key = V.astype(np.int64, copy=False) + offset  # uint64 + int64 would be float64
    return np.bincount(key.ravel(), minlength=rows * q).reshape(rows, q)


def _fits(counts, size: int, n: int):
    """The definition at n >= 1 on fiber counts over a domain of the given
    size, along the last axis (one map, or one per row): every nonzero
    fiber holds n preimages, except exactly one holding t = size mod n
    when t > 0.  As counts: n * #(fibers of size n) + t = size, and
    #(fibers of size t) = 1 when t > 0."""
    t = size % n
    ok = n * (counts == n).sum(axis=-1) + t == size
    if t:
        ok &= (counts == t).sum(axis=-1) == 1
    return ok


def n_to_1_rows(V: np.ndarray, q: int, n: int) -> np.ndarray:
    """is_n_to_1 at n for every row of a (rows, size) value matrix with
    entries in [0, q), from one row_counts: a boolean per row."""
    counts = row_counts(V, q)
    if n < 1:
        return np.zeros(len(V), dtype=bool)
    return _fits(counts, V.shape[1], n)


def classify_rows(V: np.ndarray, q: int) -> list:
    """_decide for every row of a (rows, size) value matrix with entries in
    [0, q), from one row_counts.

    Per row: the largest fiber, the smallest nonzero one, how many fibers
    have each, and whether a third size exists.  Returns one
    (n, exception, irregular) per row with exception = (value, t) or
    None, n = 0 when irregular, as classify reports them; raises
    ExceptionCountMismatch exactly where _decide does."""
    counts = row_counts(V, q)
    size = V.shape[1]
    if size == 0:
        raise ZeroInput("empty domain")
    big = counts.max(axis=1)
    hit = counts > 0
    small = np.where(hit, counts, size + 1).min(axis=1)
    is_small = counts == small[:, None]
    n_small = is_small.sum(axis=1)
    n_big = (counts == big[:, None]).sum(axis=1)
    two_sizes = (small < big) & (n_small + n_big == hit.sum(axis=1))
    exceptional = two_sizes & (n_small == 1)
    bad = np.flatnonzero(exceptional & (size % big != small))
    if bad.size:
        i = bad[0]
        raise ExceptionCountMismatch(
            f"exception count {small[i]} is not #A mod n = {size} mod {big[i]}")
    n = np.where((small == big) | exceptional, big, 0)
    value = np.where(exceptional, is_small.argmax(axis=1), -1)
    return [(ni, (vi, ti) if vi >= 0 else None, ni == 0)
            for ni, vi, ti in zip(n.tolist(), value.tolist(), small.tolist())]


def classify(f, domain=None) -> NTo1Report:
    """Find the canonical n fitting the definition, or report irregular."""
    counts, size = _counts(f, domain)
    if size == 0:
        raise ZeroInput("empty domain")
    n, exc, irregular = _decide(counts, size)
    counts.flags.writeable = False
    return NTo1Report(n=n, exception=exc, counts=counts, domain_size=size, irregular=irregular)


def is_n_to_1(f, domain, n: int) -> bool:
    """Check the definition at a prescribed n (degenerate maps can pass for
    several n, so this is not the same as classify().n == n); the same
    decision (_fits) as n_to_1_rows, on one bincount."""
    counts, size = _counts(f, domain)
    return n >= 1 and bool(_fits(counts, size, n))


# ----------------------------------------------------------------------
# Closed-form oracles the brute force must agree with.
# ----------------------------------------------------------------------

def monomial_oracle(ctx: Field, a: int, d: int) -> int:
    """a*x^d over GF(q) is n-to-1 with n = gcd(d, q-1); for n > 1 the value 0
    is the exception with a single preimage."""
    if ctx.check(a) == 0:
        raise ZeroInput("monomial coefficient must be nonzero")
    if d < 1:
        raise ZeroInput("exponent must be >= 1")
    return math.gcd(d, ctx.order - 1)


def linearized_oracle(L: LinearizedPoly) -> int:
    """A q-polynomial of rank k over GF(q^m) is q^{m-k}-to-1, no exception."""
    return L.q_sub ** (L.rel_degree - L.rank())
