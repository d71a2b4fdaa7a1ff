"""Exact arithmetic in GF(p^m).

An element of GF(p^m) is an integer in [0, p^m): its base-p digits, least
significant first, are the coordinates in the power basis 1, x, x^2, ...
of the modulus.  Constants c < p are therefore their own encoding, and
GF(p) elements are plain residues.

The modulus, when not supplied, is the lexicographically smallest monic
irreducible of degree m (coefficients compared low-to-high).  The primitive
element beta, when not supplied, is found by ascending search, so two
constructions with the same (p, m, modulus) are identical in every detail.

Construction data is memoised for the life of the process, in one
module-level table filled under one lock: the factors of q - 1 and the
default modulus per (p, m); the default beta per (p, m, modulus); the
log/exp tables and the Zech table per (p, m, modulus, beta); the packed
digit table per (p, m); every SubfieldEmbed's embedding table per modulus
and beta of both fields.  Every Field(...) call still returns a new
object, but objects with the same key share that data, and shared arrays
are read-only.  Trace tables are built per call, read-only, and never kept.

Vector addition never walks digits below the log-table gate: p = 2 adds
by XOR, GF(p) adds residues, and odd p with m > 1 adds in the log domain
through Zech's logarithm Z[k] = log(1 + beta^k), so a + b = a * (1 + b/a)
is exp[log a + Z[(log b - log a) mod n]] for n = q - 1.

A ring embedding of GF(q_sub) is a power map on discrete logs, so
SubfieldEmbed reads it off the big field's exp table: it needs the log
tables of both fields (FieldTooLarge above the 2^20 gate), and its
section is a reverse lookup.  The absolute trace is the embedded GF(p)'s,
so one trace loop of Frobenius-table gathers serves both.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
    NotPrimitive,
    ReducibleModulus,
    TraceOutsideField,
    ZeroInput,
)

_PRIME_CAP = 2 ** 31
# trial divisors stop here, so every n below 2^48 factors
_TRIAL_BOUND = 2 ** 24
_LOG_TABLE_CAP = 2 ** 20
_TABLE_ROWS = 4096  # rows per block of a table doubling step or log reduction: caps transients

# Process-wide construction memo; keys by their first entry:
#   ("factors", p, m)                         prime factors of q - 1
#   ("modulus", p, m)                         default modulus
#   ("beta", p, m, modulus)                   default primitive element
#   ("tables", p, m, modulus, beta)           (log, exp), read-only
#   ("zech", p, m, modulus, beta)             Zech table, read-only
#   ("packed", p, m)                          packed digits, read-only
#   ("embed", p, m, modulus, beta, k, sub_modulus, sub_beta)
#                                             embedding table, read-only
# A build may re-enter the memo (an embedding needs both fields' tables),
# hence the RLock.
_MEMO: dict = {}
_MEMO_LOCK = threading.RLock()


def _memo(key, build):
    """The memo entry for key, built once by build() under _MEMO_LOCK."""
    try:
        return _MEMO[key]
    except KeyError:
        pass
    with _MEMO_LOCK:
        if key not in _MEMO:
            _MEMO[key] = build()
        return _MEMO[key]


def _is_prime(p: int) -> bool:
    if p < 2 or p >= _PRIME_CAP:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division up
    to _TRIAL_BOUND, 2^16 divisors per numpy block.  FieldTooLarge when the
    cofactor left over is above _TRIAL_BOUND^2, where it may be composite."""
    out, whole = [], n
    d = 2
    while d <= _TRIAL_BOUND and d * d <= n:
        ds = np.arange(d, min(d + 2 ** 16, math.isqrt(n), _TRIAL_BOUND) + 1, dtype=np.int64)
        # n mod ds by Horner on 32-bit limbs: r < 2^24, so r * 2^32 + limb fits int64
        r = np.zeros_like(ds)
        for shift in range(n.bit_length() // 32 * 32, -1, -32):
            r = ((r << 32) | ((n >> shift) & 0xFFFFFFFF)) % ds
        for x in ds[r == 0].tolist():
            if n % x == 0:  # false for composite x: its prime factors are gone
                out.append(x)
                while n % x == 0:
                    n //= x
        d = int(ds[-1]) + 1
    if n > _TRIAL_BOUND ** 2:
        raise FieldTooLarge(f"cannot factor {whole}: its cofactor {n} is above 2^48 "
                            "with no prime factor up to 2^24")
    if n > 1:
        out.append(n)
    return out


def exact_log(x: int, b: int) -> int | None:
    """The k >= 0 with b**k == x, or None when x is no power of b (b >= 2).
    The package's one exact-power test: subfield sizes, tower orders and
    q-power exponents are all read through it."""
    k = 0
    while x > 1 and x % b == 0:
        x //= b
        k += 1
    return k if x == 1 else None


def _packed_headroom(p: int, m: int) -> tuple[int, int]:
    """(width, cap) for m base-p digits packed into one int64: width = 63 // m
    bits per digit, so the top field ends below bit 63, and a sum of at most
    cap = (2^width - 1) // (p - 1) packed values keeps every field at most
    2^width - 1, so no carry crosses into the next digit and the int64 stays
    non-negative.  For odd p and m > 1 at q <= 2^20 the tightest case is
    3^12, with width 5 and cap 15; FieldTooLarge when cap < 2."""
    width = 63 // m
    cap = ((1 << width) - 1) // (p - 1)
    if cap < 2:
        raise FieldTooLarge(f"GF({p}^{m}): {width}-bit digit fields cannot hold a sum of 2 digits")
    return width, cap


def _reduce_mod(x: np.ndarray, n: int) -> np.ndarray:
    """x mod n in place (x a contiguous int64 array): one remainder call within a block, else
    x - (x // n) * n by blocks of _TABLE_ROWS, as floor division by a scalar uses libdivide."""
    if x.size <= _TABLE_ROWS:
        return np.remainder(x, n, out=x)
    flat = x.reshape(-1)
    for lo in range(0, flat.size, _TABLE_ROWS):
        flat[lo:lo + _TABLE_ROWS] -= flat[lo:lo + _TABLE_ROWS] // n * n
    return x


def _unpack(ctx, acc: np.ndarray, width: int, terms: int, out=None) -> np.ndarray:
    """Field elements, into out when given, from packed sums of terms digit vectors
    (Field._packed_digits): bit field i, at most terms * (p - 1), mod p is digit i."""
    mask = (1 << width) - 1
    scaled = np.asarray(ctx._pow_p)[:, None] * (np.arange(terms * (ctx.p - 1) + 1) % ctx.p)
    out = scaled[0].take(acc & mask, out=out)
    for i in range(1, ctx.m):
        out += scaled[i].take((acc >> (width * i)) & mask)
    return out


# ----------------------------------------------------------------------
# Polynomial helpers over Z/pZ.  Coefficient lists are low-to-high and
# trimmed; these run only during field construction, so clarity wins.
# ----------------------------------------------------------------------

def _p_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _p_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _p_trim(out)


def _p_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - factor * fi) % p
        _p_trim(a)
    return a


def _p_gcd(a, f, p):
    a, b = list(a), list(f)
    while b:
        a, b = b, _p_mod(a, b, p)
    return a


def _p_pow(r, e, f, p):
    """r(x)^e mod f, by square-and-multiply."""
    result = [1]
    base = list(r)
    while e:
        if e & 1:
            result = _p_mod(_p_mul(result, base, p), f, p)
        base = _p_mod(_p_mul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f, p) -> bool:
    """Monic f of degree m is irreducible iff it shares no factor with
    x^{p^i} - x for any i <= m/2 (any smaller-degree factor would show up)."""
    m = len(f) - 1
    if m == 1:
        return True
    r = [0, 1]
    for _ in range(m // 2):
        r = _p_pow(r, p, f, p)
        diff = list(r)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        _p_trim(diff)
        g = _p_gcd(f, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> list[int]:
    # Enumerate monic candidates in lexicographic order of (c_0, c_1, ...),
    # i.e. c_0 is the most significant digit of the counter.  For m > 1 the
    # candidates with c_0 = 0 are multiples of x, so the counter starts past them.
    for k in range(p ** (m - 1) if m > 1 else 0, p ** m):
        rev = []
        t = k
        for _ in range(m):
            rev.append(t % p)
            t //= p
        coeffs = rev[::-1] + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible of degree {m} over GF({p})")  # pragma: no cover


class Field:
    """GF(p^m) with integer-coded elements and exact table-driven arithmetic.

    modulus, when given, is a coefficient list (low-to-high), as in
    spec_dict(); beta is one too, or an element code, and must be primitive.
    """

    def __init__(self, p: int, m: int, modulus=None, beta=None):
        if not _is_prime(p):
            raise NotPrime(f"p={p} is not a prime below 2^31")
        if m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        try:  # first, so a q - 1 out of reach is refused before any modulus search
            factors = _memo(("factors", p, m), lambda: _prime_factors(self.order - 1))
        except FieldTooLarge as e:
            raise FieldTooLarge(f"GF({p}^{m}), q = {self.order}: {e}") from None
        if modulus is None:
            modulus = _memo(("modulus", p, m), lambda: _smallest_irreducible(p, m))
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise DegreeMismatch(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._pow_p = tuple(p ** i for i in range(m))
        if beta is None:
            self.beta = _memo(("beta", p, m, self.modulus), lambda: self._find_primitive(factors))
        else:
            self.beta = int(beta) if isinstance(beta, (int, np.integer)) else self.element(beta)
            if not self._is_primitive(self.beta, factors):
                raise NotPrimitive(f"beta = {beta!r} is not a primitive element of GF({p}^{m})")
        self._exp = None
        self._log = None
        self._digits = None

    # -- construction internals ----------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        da = self.coeffs(a)
        db = self.coeffs(b)
        prod = _p_mod(_p_mul(list(da), list(db), self.p), list(self.modulus), self.p)
        return self.element(prod)

    def _raw_pow(self, a: int, e: int) -> int:
        return self.element(_p_pow(self.coeffs(a), e, list(self.modulus), self.p))

    def _is_primitive(self, a: int, factors) -> bool:
        """factors: the prime factors of q - 1."""
        n = self.order - 1
        return 0 < a < self.order and all(self._raw_pow(a, n // r) != 1 for r in factors)

    def _find_primitive(self, factors) -> int:
        # for m > 1 no constant is primitive: GF(p)* has order p - 1 < q - 1
        start = 1 if self.m == 1 else self.p
        return next(c for c in range(start, self.order) if self._is_primitive(c, factors))

    # -- element codec ---------------------------------------------------

    def element(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise DegreeMismatch(f"coefficient vector longer than m={self.m}")
        return sum((c % self.p) * self._pow_p[i] for i, c in enumerate(coeffs))

    def coeffs(self, a: int) -> tuple:
        self.check(a)
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def check(self, a: int) -> int:
        if type(a) is int and 0 <= a < self.order:
            return a
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.order:
            raise FieldMismatch(f"{a!r} is not an element of GF({self.p}^{self.m})")
        return int(a)

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    # -- tables ------------------------------------------------------------

    def _ensure_tables(self):
        if self._exp is not None:
            return
        if self.order > _LOG_TABLE_CAP:
            raise FieldTooLarge(f"order {self.order} exceeds the log-table gate 2^20")
        log, exp = _memo(("tables", self.p, self.m, self.modulus, self.beta), self._build_tables)
        self._log = log  # readers test _exp, so it is set last
        self._exp = exp

    def _build_tables(self):
        """(log, exp) with exp[i] = exp[i + n] = beta^i for n = q - 1, log[0] = -1.
        Doubling k fills exp[k:2k] = beta^k * exp[:k] by blocks of _TABLE_ROWS rows,
        on GF(p) as residue products below p^2.  For m > 1 times beta^k is linear on
        digits (row i of M_k: x^i * beta^k; M_2k = M_k^2 mod p), so a code's image is
        the digitwise sum mod p of the images of its low h = ceil(m/2) digits and its
        other m - h: a step tabulates (chunk digits @ M_k) mod p over the p^h and
        p^(m-h) chunk values, then two gathers per code: XORed codes for p = 2, else
        packed digits added (cap >= 2: no carry) and unpacked.  Up to q = _TABLE_ROWS
        one table, full, maps every code, and composing it with itself doubles k."""
        p, m, n = self.p, self.m, self.order - 1
        exp = np.empty(2 * n, dtype=np.int64)
        exp[0] = 1
        if m > 1:
            h = (m + 1) // 2
            size = p ** h  # low chunk values; the high chunk's rows follow
            width = 1 if p == 2 else _packed_headroom(p, m)[0]
            weights = np.left_shift(1, width * np.arange(m, dtype=np.int64))
            chunks = np.zeros((size + p ** (m - h), m), dtype=np.int64)  # digits of the chunk values
            chunks[:size, :h] = np.arange(size, dtype=np.int64)[:, None] // np.asarray(self._pow_p[:h]) % p
            chunks[size:, h:] = chunks[:p ** (m - h), :m - h]
            step = np.array([self.coeffs(self._raw_mul(pi, self.beta)) for pi in self._pow_p], np.int64)
            image = (chunks @ step) % p @ weights
            def times(src, out=None):  # src * beta^k from image: low chunk images, then high
                if p == 2:
                    return np.bitwise_xor(image.take(src & (size - 1)), image[size:].take(src >> h), out=out)
                acc = image[size:].take(hi := src // size) + image.take(src - hi * size)
                return _unpack(self, acc, width, 2, out=out)
            full = times(np.arange(self.order, dtype=np.int64)) if self.order <= _TABLE_ROWS else None
        k = 1
        while k < n:
            t = min(k, n - k)
            if m == 1:
                _reduce_mod(np.multiply(exp[:t], pow(self.beta, k, p), out=exp[k:k + t]), p)
            elif full is not None:
                exp[k:k + t], full = full[exp[:t]], full[full]
            else:
                for lo in range(0, t, _TABLE_ROWS):
                    times(exp[lo:min(lo + _TABLE_ROWS, t)], out=exp[k + lo:k + min(lo + _TABLE_ROWS, t)])
                step = (step @ step) % p
                image = (chunks @ step) % p @ weights
            k *= 2
        exp[n:] = exp[:n]
        log = np.full(self.order, -1, dtype=np.int64)
        for lo in range(0, n, _TABLE_ROWS):  # log[exp[i]] = i, a block of i at a time
            log[exp[lo:min(lo + _TABLE_ROWS, n)]] = np.arange(lo, min(lo + _TABLE_ROWS, n), dtype=np.int64)
        exp.flags.writeable = False
        log.flags.writeable = False
        return log, exp

    def _zech_table(self) -> np.ndarray:
        """Z[k] = log(1 + beta^k) for k < n = q - 1, with Z[n/2] = -1 where
        1 + beta^k = 0 (odd p).  Adding 1 changes only digit 0, so
        1 + e = e - e % p + (e + 1) % p needs no digit matrix."""
        self._ensure_tables()

        def build():
            e = self._exp[: self.order - 1]
            z = self._log[e - e % self.p + (e + 1) % self.p]
            z.flags.writeable = False
            return z

        return _memo(("zech", self.p, self.m, self.modulus, self.beta), build)

    def _packed_digits(self):
        """(packed, width, cap): packed[a] holds the base-p digits of a in
        bit fields of the given width, digit i at bit width * i; sums of up
        to cap packed values do not carry (see _packed_headroom)."""
        p, m = self.p, self.m
        width, cap = _packed_headroom(p, m)

        def build():
            idx = np.arange(self.order, dtype=np.int64)
            packed = np.zeros(self.order, dtype=np.int64)
            for i, pi in enumerate(self._pow_p):
                packed |= ((idx // pi) % p) << (width * i)
            packed.flags.writeable = False
            return packed

        return _memo(("packed", p, m), build), width, cap

    def exp_of(self, i: int) -> int:
        """beta^i."""
        self._ensure_tables()
        return int(self._exp[i % (self.order - 1)])

    def log(self, a: int) -> int:
        """Discrete log base beta; a must be nonzero."""
        self.check(a)
        if a == 0:
            raise ZeroInput("log of zero")
        self._ensure_tables()
        return int(self._log[a])

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        a = self.check(a)
        b = self.check(b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        s = 0
        for pi in self._pow_p:
            s += ((a // pi + b // pi) % self.p) * pi
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        a = self.check(a)
        if self.p == 2:
            return a
        if self.m == 1:
            return -a % self.p
        s = 0
        for pi in self._pow_p:
            s += (-(a // pi) % self.p) * pi
        return s

    def mul(self, a: int, b: int) -> int:
        a = self.check(a)
        b = self.check(b)
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self.order <= _LOG_TABLE_CAP:
            self._ensure_tables()
            return int(self._exp[self._log[a] + self._log[b]])
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.order > _LOG_TABLE_CAP:  # GF(p) by the built-in pow, else coefficient lists
            return pow(a, -1, self.p) if self.m == 1 else self._raw_pow(a, self.order - 2)
        self._ensure_tables()
        return int(self._exp[self.order - 1 - self._log[a]])  # an index in [1, n]: exp holds 2n

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        a = self.check(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        n = self.order - 1
        if self.order > _LOG_TABLE_CAP:
            return pow(a, e % n, self.p) if self.m == 1 else self._raw_pow(a, e % n)
        self._ensure_tables()
        return int(self._exp[(self._log[a] * (e % n)) % n])

    def frobenius(self, a: int, i: int = 1) -> int:
        return self.pow(a, self.p ** i)

    def trace_to_prime(self, a: int) -> int:
        """Absolute trace onto GF(p), returned as a residue in [0, p)."""
        t = 0
        y = a
        for _ in range(self.m):
            t = self.add(t, y)
            y = self.pow(y, self.p)
        if t >= self.p:
            raise TraceOutsideField(f"trace {t} landed outside the prime field GF({self.p})")
        return t

    # -- multiplicative structure ---------------------------------------------

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("order of zero")
        n = self.order - 1
        o = n
        for r in _prime_factors(n):
            while o % r == 0 and self.pow(a, o // r) == 1:
                o //= r
        return o

    def unit_root(self, ell: int) -> int:
        """An element of multiplicative order exactly ell (requires ell | q-1)."""
        n = self.order - 1
        if ell <= 0 or n % ell:
            raise ZeroInput(f"{ell} does not divide q-1={n}")
        return self.exp_of(n // ell)

    def roots_of_unity(self, ell: int) -> list[int]:
        """mu_ell as [omega^0, omega^1, ...] for omega = beta^{(q-1)/ell}."""
        w = self.unit_root(ell)
        out = [1]
        for _ in range(ell - 1):
            out.append(self.mul(out[-1], w))
        return out

    def power_class(self, a: int, k: int) -> int:
        """Index j of the power-residue class of a for k-th powers:
        a^{(q-1)/g} = omega^j with g = gcd(k, q-1), omega = beta^{(q-1)/g}."""
        if a == 0:
            raise ZeroInput("power class of zero")
        g = math.gcd(k, self.order - 1)
        return self.log(a) % g

    # -- vectorized kernels -----------------------------------------------------

    def elements_array(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def _digit_matrix(self) -> np.ndarray:
        if self._digits is None:  # lock-free, as _ensure_tables: a racing build is equal
            idx = np.arange(self.order, dtype=np.int64)
            cols = [(idx // (self.p ** i)) % self.p for i in range(self.m)]
            self._digits = np.stack(cols, axis=1).astype(np.int64)
        return self._digits

    def add_vec(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        p = self.p
        if p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % p
        if self.order > _LOG_TABLE_CAP:  # no log tables: digit by digit
            return sum(((a // pi + b // pi) % p) * pi for pi in self._pow_p)
        zech = self._zech_table()
        la, s = self._log[a], np.asarray(self._log[b])  # from here s is the one new array, in place
        s = np.subtract(s, la, out=s if s.shape == np.broadcast(a, b).shape else None)
        zech.take(s, mode="wrap", out=s)  # the difference mod n = len(zech), in the gather
        cancel = s < 0  # z = -1 where b = -a
        s += la
        self._exp.take(s, mode="wrap", out=s)  # a take reads each index before it writes there
        s[cancel] = 0
        return np.add(a, b, out=s, where=(a == 0) | (b == 0))  # a + 0 = a, 0 + b = b

    def neg_vec(self, a):
        a = np.asarray(a, dtype=np.int64)
        p = self.p
        if p == 2:
            return a.copy()
        if self.m == 1:
            return -a % p
        if self.order > _LOG_TABLE_CAP:
            return sum((-(a // pi) % p) * pi for pi in self._pow_p)
        self._ensure_tables()
        return np.where(a == 0, 0, self._exp[self._log[a] + (self.order - 1) // 2])

    def sub_vec(self, a, b):
        return self.add_vec(a, self.neg_vec(b))

    def mul_vec(self, a, b):
        """a * b elementwise; on GF(p) a * b mod p, with no tables."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:  # residues below p < 2^31: products stay below 2^62
            return a * b % self.p
        self._ensure_tables()
        out = np.asarray(self._exp[self._log[a] + self._log[b]])  # log sums below 2n, -1 or -2 at a 0
        out[(a == 0) | (b == 0)] = 0
        return out

    def scalar_mul_vec(self, c: int, a):
        return self.mul_vec(self.check(c), a)

    def pow_vec(self, a, e: int):
        """a^e elementwise for e >= 1 (0^e = 0): exp[log a * (e mod n) mod n], the product
        below n^2 <= 2^40 reduced exactly by floor division (_reduce_mod).  Above the gate
        GF(p) squares and multiplies residues below 2^62, the exponent folded into [1, p - 1]."""
        if e < 1:
            raise ZeroInput("pow_vec requires e >= 1")
        a = np.asarray(a, dtype=np.int64)
        n = self.order - 1
        if self.m == 1 and self.order > _LOG_TABLE_CAP:
            out = np.ones_like(a)
            for bit in bin((e - 1) % n + 1)[2:]:
                out = out * out % self.p
                if bit == "1":
                    out = out * a % self.p
            return out
        self._ensure_tables()
        out = np.zeros(a.shape, dtype=np.int64)
        mask = a != 0
        out[mask] = self._exp[_reduce_mod(self._log[a[mask]] * (e % n), n)]
        return out

    def trace_to_prime_table(self) -> np.ndarray:
        """Absolute trace of every element, as residues in [0, p): the
        trace table of GF(p) inside this field, built per call; read-only."""
        return SubfieldEmbed(self, Field(self.p, 1)).trace_table()

    # -- serialization ---------------------------------------------------------

    def spec_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "beta": list(self.coeffs(self.beta)),
        }

    def spec_json(self) -> str:
        return json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.beta))


def field_from_spec(spec: dict | str) -> Field:
    if isinstance(spec, str):
        spec = json.loads(spec)
    return Field(int(spec["p"]), int(spec["m"]), spec.get("modulus"), spec.get("beta"))


class SubfieldEmbed:
    """GF(p^k) inside GF(p^m) for k | m: ring embedding, section, and trace.

    The embedding sends the power-basis root of the subfield modulus to its
    smallest-index root rho inside the big field, so it is deterministic.
    A ring map is multiplicative, so on the units it is beta_sub^j -> e^j
    with e the image of beta_sub, sum_i digit_i(beta_sub) * rho^i: one
    gather of the big field's exp table by the subfield's logs.  That
    table (embed_table[a] = embed(a), read-only) is memoised per modulus
    and beta of both fields; the section is its reverse lookup.  Both
    fields need log tables, so a big field above 2^20 is FieldTooLarge.
    """

    def __init__(self, big: Field, sub: Field):
        if big.p != sub.p:
            raise FieldMismatch("different characteristics")
        if big.m % sub.m:
            raise DegreeMismatch(f"GF({sub.p}^{sub.m}) is not a subfield of GF({big.p}^{big.m})")
        self.big = big
        self.sub = sub
        self.rel_degree = big.m // sub.m
        self.q_sub = sub.order
        self.embed_table = _memo(("embed", big.p, big.m, big.modulus, big.beta,
                                  sub.m, sub.modulus, sub.beta), self._embedding)

    def _embedding(self):
        big, sub = self.big, self.sub
        big._ensure_tables()
        sub._ensure_tables()
        rho = self._find_root()
        e = 0
        for i, d in enumerate(sub.coeffs(sub.beta)):
            e = big.add(e, big.mul(d, big.pow(rho, i)))
        table = big._exp[(big.log(e) * sub._log) % (big.order - 1)]
        table[0] = 0
        table.flags.writeable = False
        return table

    def _find_root(self) -> int:
        """Smallest-index root of the subfield modulus: vector Horner on 256 candidates at a time."""
        big = self.big
        for lo in range(0, big.order, 256):
            cand = np.arange(lo, min(lo + 256, big.order), dtype=np.int64)
            acc = np.zeros_like(cand)
            for c in reversed(self.sub.modulus):
                acc = big.add_vec(big.mul_vec(acc, cand), c)
            hit = np.flatnonzero(acc == 0)
            if hit.size:
                return lo + int(hit[0])
        raise ReducibleModulus("subfield modulus has no root in the big field")  # pragma: no cover

    def embed(self, a: int) -> int:
        return int(self.embed_table[self.sub.check(a)])

    def project(self, x: int) -> int:
        """Inverse of embed; x must lie in the subfield image."""
        hit = np.flatnonzero(self.embed_table == self.big.check(x))
        if not hit.size:
            raise FieldMismatch(f"element {x} is not in the embedded GF({self.sub.p}^{self.sub.m})")
        return int(hit[0])

    def in_subfield(self, x: int) -> bool:
        return self.big.pow(x, self.q_sub) == x

    def trace(self, x: int) -> int:
        """tr onto the subfield: sum of x^{q_sub^i}, returned as a sub element."""
        t = 0
        y = self.big.check(x)
        for _ in range(self.rel_degree):
            t = self.big.add(t, y)
            y = self.big.pow(y, self.q_sub)
        return self.project(t)

    def trace_table(self) -> np.ndarray:
        """Trace of every element, as subfield indices, built per call; read-only.
        Steps gather y = frob[y] = y^{q_sub}."""
        big = self.big
        t = y = big.elements_array()
        frob = big.pow_vec(t, self.q_sub) if self.rel_degree > 1 else None
        for _ in range(self.rel_degree - 1):
            y = frob[y]
            t = big.add_vec(t, y)
        # the section: a q-entry inverse of the embedding, -1 off its image
        section = np.full(big.order, -1, dtype=np.int64)
        section[self.embed_table] = np.arange(self.q_sub, dtype=np.int64)
        t = section[t]
        if t.min() < 0:
            raise TraceOutsideField(f"trace table left the embedded GF({self.sub.p}^{self.sub.m})")
        t.flags.writeable = False
        return t
