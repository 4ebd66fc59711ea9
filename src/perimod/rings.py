"""Exact arithmetic in Z/pZ, in F_p[t], and in the quotient fields F_p[t]/(pi).

Everything here is immutable and pure: operations return fully reduced
canonical representatives, and re-reducing a result is always the identity.
A polynomial over F_p is a plain tuple of its residues in ascending powers
of t with trailing zeros trimmed (the zero polynomial is ()).  One check,
_poly, guards every polynomial that enters: it tests p and every
coefficient and trims the tuple, for parse_poly, is_irreducible and
RingSpec alike.  One long division on coefficient lists, _rem, gives the
remainders that RingSpec.element and the one gcd, _gcd on coefficient
lists, need; Rabin's test runs _gcd.  One trial division, prime_factors,
serves primality (is_prime_int), the generator search and the stats
averages.

Every ring element is its dense integer index 0 <= i < q, a plain int, for
Z/p and for quotient fields alike: the base-p digits of i are the
coefficients of the reduced polynomial, so a Z/p element is its residue.
RingSpec.element reduces an int or a coefficient tuple to its index, and
RingSpec.render(i) gives the index's text.  A ring over F_p has at least p
elements, so require_odd_prime (and every RingSpec) refuses a p past the
square of the scan budget before trial division; a smaller p is tested
first, and its ring is refused past the budget after, before Rabin's test.

Arithmetic on elements is one kernel of whole-ring index tables, read by
every count, orbit and verify cell: pow_index_table(ring, e) is z -> z^e,
one lookup per element in the ring's discrete log/antilog tables, and
RingSpec.translation_table(c) is z -> z + c, built digit by digit.  One
coefficient-list product, _mul_mod (Z/p is read as F_p[t]/(t), m = 1),
serves the two places that multiply: the log/antilog tables and Rabin's
t^(p^k) by square-and-multiply (_pow_mod).  _mul_mod forms the schoolbook
product, then reduces it in one pass from the top down.  log_tables finds
the generator of the unit group by its order test over the primes of q - 1,
skipping the constants past m = 1, then walks its powers once, each step a
product by the m x m matrix of z -> g z on the base-p digits.  The
log/antilog pair is cached per ring and each power table per ring and
exponent.  The tests check the
tables against a schoolbook oracle, tests/polyoracle.py, that shares no
code with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, count
from math import isqrt
from operator import mul
from typing import Sequence

from .budget import capped_power, refuse_monics, refuse_past, scan_budget
from .errors import DomainError, UsageError, require_type


# ---------------------------------------------------------------------------
# primes


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division by 2 and
    then by odd divisors only; [] for n < 2.  Adequate at desk scale."""
    out = []
    for f in chain((2,), count(3, 2)):
        if f * f > n:
            break
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def is_prime_int(n: int) -> bool:
    """Whether n is prime: its only prime factor is n itself (prime_factors,
    so False for n < 2).  Cached, as every ring and every polynomial check
    (_poly) tests its p."""
    return prime_factors(n) == [n]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending (simple sieve)."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    p = 2
    while p * p <= hi:
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
        p += 1
    return [i for i in range(max(lo, 2), hi + 1) if sieve[i]]


def require_odd_prime(p: int) -> int:
    """p itself if it is an odd prime p >= 3, the only moduli the counting
    results treat; UsageError otherwise.  Past the scan budget squared, ResourceError first."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise UsageError(f"modulus must be an odd prime >= 3, got {p!r}")
    root = isqrt(p - 1) + 1  # the ceiling of sqrt(p): root > budget iff p > budget^2
    refuse_past(scan_budget(), root, lambda: f"testing {p} needs trial divisors up to {root}")
    if not is_prime_int(p):
        raise UsageError(f"{p} is not prime")
    return p


# ---------------------------------------------------------------------------
# polynomials over F_p


def _poly(coeffs: Sequence[int], p: int) -> tuple[int, ...]:
    """The polynomial over F_p with these ascending coefficients, as a tuple
    with trailing zeros trimmed (the zero polynomial is ()).  The one check
    of a polynomial: p must be an odd prime, coeffs a tuple or list, and
    every coefficient an int (not a bool) in [0, p); UsageError otherwise."""
    require_odd_prime(p)
    if not isinstance(coeffs, (tuple, list)):
        raise UsageError(f"polynomial {coeffs!r} is not a tuple or list of coefficients")
    for a in coeffs:
        if type(a) is not int or not 0 <= a < p:
            raise UsageError(f"coefficient {a!r} is not an int in [0, {p})")
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def format_poly(f: Sequence[int]) -> str:
    """Comma-separated ascending coefficients; the zero polynomial is "0"."""
    return ",".join(map(str, f)) or "0"


def parse_poly(text: str, p: int) -> tuple[int, ...]:
    """Parse the comma-coefficient format, e.g. "1,0,1" -> (1, 0, 1), 1 + t^2.

    A text is refused in its own words first, so a coefficient outside
    [0, p) is rejected rather than reduced, and named with the text.
    """
    coeffs = []
    for part in text.split(","):
        part = part.strip()
        try:
            a = int(part)
        except ValueError as exc:
            raise UsageError(f"bad polynomial coefficient {part!r} in {text!r}") from exc
        if not (0 <= a < p):
            raise UsageError(f"coefficient {a} out of range [0, {p}) in {text!r}")
        coeffs.append(a)
    return _poly(coeffs, p)


def _rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a by b by long division on ascending coefficient lists
    over F_p, trailing zeros trimmed; b's last coefficient is nonzero."""
    m = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    low = b[:m]
    rem = list(a)
    while len(rem) > m:  # cancel the top coefficient against b's lead
        coef = rem.pop() * inv_lead % p
        if coef:
            for i, y in enumerate(low, len(rem) - m):
                rem[i] = (rem[i] - coef * y) % p
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd of ascending coefficient lists over F_p by Euclid on _rem,
    so _gcd(a, [], p) is a made monic.  b is trimmed (empty, or its last
    coefficient nonzero), and a need not be unless b is empty."""
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], p - 2, p) if a else 0
    return [x * inv % p for x in a]


def _mul_mod(a: list[int], b: list[int], p: int, low: Sequence[int]) -> list[int]:
    """a * b on length-m coefficient lists, reduced modulo the monic
    t^m + low[m-1] t^(m-1) + ... + low[0]: the schoolbook product, then each
    t^k with k >= m replaced by -low t^(k-m), from the top down, and one % p
    per coefficient."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        lead = prod[k] % p
        if lead:
            for j, y in enumerate(low, k - m):
                prod[j] -= lead * y
    return [x % p for x in prod[:m]]


def _pow_mod(a: list[int], e: int, p: int, low: Sequence[int]) -> list[int]:
    """a^e on length-m coefficient lists by square-and-multiply on _mul_mod;
    a^0 is 1, also for a = 0."""
    result = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul_mod(result, a, p, low)
        e >>= 1
        if e:
            a = _mul_mod(a, a, p, low)
    return result


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test: f of degree n over F_p, its ascending coefficients checked
    by _poly, is irreducible iff t^(p^n) = t (mod f) and
    gcd(t^(p^(n/r)) - t, f) = 1 for every prime r dividing n.
    """
    f = _poly(f, p)
    n = len(f) - 1
    if n < 1:
        raise DomainError("irreducibility is undefined for constants and zero")
    if n == 1:
        return True
    monic = _gcd(f, [], p)  # gcd(f, 0): f made monic
    low = monic[:n]
    t = [0, 1] + [0] * (n - 2)
    # t^(p^k) mod f by iterated p-th powering (x -> x^p is a ring map mod f)
    needed = {n // r for r in prime_factors(n)}
    frob = t
    for k in range(1, n + 1):
        frob = _pow_mod(frob, p, p, low)
        if k in needed and len(_gcd([(a - b) % p for a, b in zip(frob, t)], monic, p)) != 1:
            return False
    return frob == t


@lru_cache(maxsize=None)
def _monic_irreducibles(p: int, m: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for n in range(p**m):
        f = tuple(_coeffs(n, p, m)) + (1,)
        if is_irreducible(f, p):
            out.append(f)
    return tuple(out)


def enumerate_monic_irreducibles(p: int, m: int) -> list[tuple[int, ...]]:
    """All monic irreducible polynomials of degree exactly m over F_p.

    Ordered by the base-p value of the coefficient vector (so for m = 1 this
    is t, t+1, ..., t+(p-1)).
    """
    require_type("m", m, int)
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
    refuse_monics(p, m)
    return list(_monic_irreducibles(require_odd_prime(p), m))


# ---------------------------------------------------------------------------
# rings


class RingKind(Enum):
    PRIME_FIELD = "zp"
    QUOTIENT_FIELD = "fpt"


@dataclass(frozen=True)
class RingSpec:
    """Which finite ring is in play: Z/pZ, or F_p[t]/(pi), p an odd prime and
    q = p^m within the scan budget, checked when the ring is built.  degree_m
    (the number of base-p digits of an index), cardinality_q and the hash are
    set then too; equality reads p and modulus only."""

    p: int
    modulus: "tuple[int, ...] | None" = None
    degree_m: int = field(init=False, repr=False, compare=False)
    cardinality_q: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = require_odd_prime(self.p)
        pi = self.modulus
        if pi is not None:
            pi = _poly(pi, p)
            object.__setattr__(self, "modulus", pi)
        m = len(self.modulus_coeffs) - 1
        limit = scan_budget()
        q = capped_power(p, m, limit)
        if m > limit.bit_length():  # q is refused, and pi and p^m can be too long to print
            refuse_past(limit, q, lambda: f"scanning F_{p}[t]/(pi) of degree {m} needs {p}^{m} elements")
        for name, value in (("degree_m", m), ("cardinality_q", q), ("_hash", hash((p, pi)))):
            object.__setattr__(self, name, value)
        self.refuse_scan()  # before Rabin's test, whose cost grows as m^3
        if pi is None:
            return
        if pi[-1:] != (1,):
            raise UsageError(f"modulus must be monic: {format_poly(pi)}")
        if m < 1:
            raise UsageError(f"modulus must have degree >= 1, got {m}")
        if not is_irreducible(pi, p):
            raise UsageError(f"modulus {format_poly(pi)} is reducible over F_{p}")

    def __hash__(self) -> int:
        return self._hash

    def refuse_scan(self) -> None:
        """Refuse a scan of the ring's q elements past the scan budget as it is now."""
        q = self.cardinality_q
        refuse_past(scan_budget(), q, lambda: f"scanning {self.describe()} needs {q} elements")

    @property
    def modulus_coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients of the modulus; Z/p reads as F_p[t]/(t)."""
        return (0, 1) if self.modulus is None else self.modulus

    def element(self, value: "int | tuple[int, ...]") -> int:
        """The index of an int, or of a polynomial's coefficient tuple,
        reduced into this ring."""
        p = self.p
        if type(value) is int:
            return value % p
        if type(value) is not tuple:
            raise UsageError(f"cannot build an element of {self.describe()} from {value!r}")
        f = _poly(value, p)
        if self.modulus is None and len(f) > 1:
            raise UsageError("Z/p element cannot come from a non-constant polynomial")
        return _index(_rem(f, self.modulus_coeffs, p), p)

    # -- dense index machinery (base-p digits of the coefficient vector) --

    def render(self, idx: int) -> str:
        """Text form of an index: comma-separated ascending coefficients, "0"
        for zero (for Z/p, the decimal residue)."""
        return format_poly(_digits(idx, self.p))

    def translation_table(self, c: int) -> list[int]:
        """Index table of z -> z + c over the whole ring, c given by its index.

        Built digit by digit: the table over the low k + 1 digits repeats the
        one over the low k digits once per value of digit k, shifted by c's.
        """
        p = self.p
        table = [0]
        weight = 1
        for _ in range(self.degree_m):
            c, ck = divmod(c, p)
            digit = [(a + ck) % p * weight for a in range(p)]
            table = [high + low for high in digit for low in table]
            weight *= p
        return table

    def describe(self) -> str:
        if self.modulus is None:
            return f"Z/{self.p}"
        return f"F_{self.p}[t]/({format_poly(self.modulus)})"


def _digits(idx: int, p: int) -> list[int]:
    """Base-p digits of idx, least significant first, without trailing zeros."""
    out = []
    while idx:
        idx, d = divmod(idx, p)
        out.append(d)
    return out


def _coeffs(idx: int, p: int, m: int) -> list[int]:
    """The m base-p digits of idx, least significant first, zeros kept."""
    return [idx // p**k % p for k in range(m)]


def _index(coeffs: Sequence[int], p: int) -> int:
    """The index whose base-p digits are coeffs, least significant first."""
    idx = 0
    for a in reversed(coeffs):
        idx = idx * p + a
    return idx


@lru_cache(maxsize=None)
def log_tables(ring: RingSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Discrete log and antilog of the ring's unit group over the dense index.

    antilog[k] is the index of g^k for 0 <= k < q - 1, and log[antilog[k]] = k;
    log[0] is -1, as zero has no logarithm.  The generator g is the first
    index, in index order, of order q - 1: the first with g^((q-1)/r) != 1 for
    every prime r dividing q - 1.  Past m = 1 the search starts at t, as a
    constant's order divides p - 1 < q - 1.  The antilog is then one walk
    from 1 through the powers of g, each step a product by the m x m matrix
    of z -> g z on the base-p digits.
    """
    p = ring.p
    m = ring.degree_m
    low = ring.modulus_coeffs[:-1]
    q = p**m
    one = _coeffs(1, p, m)
    factors = prime_factors(q - 1)
    for candidate in range(p if m > 1 else 1, q):
        g = _coeffs(candidate, p, m)
        if all(_pow_mod(g, (q - 1) // r, p, low) != one for r in factors):
            break
    # column j of the matrix is g t^j; the walk reads it by rows
    rows = list(zip(*(_mul_mod(g, _coeffs(p**j, p, m), p, low) for j in range(m))))
    weights = [p**j for j in range(m)]
    antilog = [1]
    x = one
    for _ in range(q - 2):
        x = [sum(map(mul, row, x)) % p for row in rows]
        antilog.append(sum(map(mul, weights, x)))
    log = [-1] * q
    for k, i in enumerate(antilog):
        log[i] = k
    return tuple(log), tuple(antilog)


@lru_cache(maxsize=None)
def pow_index_table(ring: RingSpec, exponent: int) -> tuple[int, ...]:
    """Index table of z -> z^exponent over the whole ring (cached).

    Read off the log/antilog kernel: z^e = g^(e log z mod (q-1)) for z != 0,
    and 0^e is 0, or 1 when e = 0.
    """
    if exponent < 0:
        raise UsageError(f"exponent must be nonnegative, got {exponent}")
    log, antilog = log_tables(ring)
    n = len(antilog)
    e = exponent % n
    return ((0,) if exponent else (1,)) + tuple(antilog[k * e % n] for k in log[1:])
