"""Exact arithmetic in Z/pZ, in F_p[t], and in the quotient fields F_p[t]/(pi).

Everything here is immutable and pure: ring elements are frozen dataclasses,
operations return fully reduced canonical representatives, and re-reducing a
result is always the identity.  Polynomials are stored as tuples of residues
in ascending powers of t with trailing zeros trimmed (the zero polynomial is
the empty tuple).  FpPoly keeps parsing, formatting and the long division
that poly_gcd and the reduction of input polynomials need.

Every ring element is its dense integer index 0 <= i < q, for Z/p and for
quotient fields alike: the base-p digits of i are the coefficients of the
reduced polynomial, so a Z/p element is its residue.  RingElem.poly gives the
FpPoly view.  RingSpec checks its modulus (monic, irreducible) when built.

One coefficient-list kernel, _mul_mod, does every product (Z/p is read as
F_p[t]/(t), m = 1): RingElem *, mod_pow and Rabin's t^(p^k) by
square-and-multiply (_pow_mod), and the per-ring discrete log/antilog tables
over the index, built once by walking the powers of a generator of the unit
group.  A power table is one lookup per element in them; + and - and the
z -> z + c table work digit by digit.  The log/antilog pair is cached per
ring and each power table per ring and exponent.  The tests check the kernel
against a schoolbook oracle, tests/polyoracle.py, that shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence, Union

from .budget import refuse_monics
from .errors import DomainError, UsageError


# ---------------------------------------------------------------------------
# primes


def is_prime_int(n: int) -> bool:
    """Trial-division primality test; adequate at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


@dataclass(frozen=True)
class Prime:
    """An odd prime p >= 3 (the only moduli the counting results treat)."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or self.value < 3 or self.value % 2 == 0:
            raise UsageError(f"modulus must be an odd prime >= 3, got {self.value!r}")
        if not is_prime_int(self.value):
            raise UsageError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Prime({self.value})"


# ---------------------------------------------------------------------------
# polynomials over F_p


@dataclass(frozen=True)
class FpPoly:
    """A polynomial over F_p in canonical form.

    coeffs[i] is the coefficient of t^i; the last entry is nonzero unless the
    tuple is empty (the zero polynomial).  The strict constructor rejects
    non-canonical input; use FpPoly.make to reduce arbitrary coefficients.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise UsageError(f"coefficient modulus must be >= 2, got {self.p}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise UsageError("non-canonical polynomial: trailing zero coefficient")
        if any(not (0 <= a < self.p) for a in self.coeffs):
            raise UsageError(f"coefficients must lie in [0, {self.p})")

    @classmethod
    def make(cls, p: int, coeffs: Sequence[int]) -> "FpPoly":
        """Reduce coefficients mod p and trim trailing zeros."""
        cs = [a % p for a in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(p, tuple(cs))

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls(p, ())

    @classmethod
    def t(cls, p: int) -> "FpPoly":
        return cls(p, (0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_same_p(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise UsageError(f"mixed coefficient moduli: {self.p} vs {other.p}")

    def monic(self) -> "FpPoly":
        """Monic normalization; the zero polynomial stays zero."""
        if self.is_zero or self.is_monic:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return FpPoly.make(self.p, [inv * c for c in self.coeffs])

    def divmod(self, divisor: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        """Long division: self = q * divisor + r with deg r < deg divisor."""
        self._check_same_p(divisor)
        if divisor.is_zero:
            raise DomainError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        ddeg = divisor.degree
        if self.degree < ddeg:
            return FpPoly.zero(p), self
        inv_lead = pow(divisor.coeffs[-1], p - 2, p)
        quot = [0] * (self.degree - ddeg + 1)
        for shift in range(self.degree - ddeg, -1, -1):
            coef = (rem[shift + ddeg] * inv_lead) % p
            if coef:
                quot[shift] = coef
                for i, b in enumerate(divisor.coeffs):
                    rem[shift + i] = (rem[shift + i] - coef * b) % p
        return FpPoly.make(p, quot), FpPoly.make(p, rem)

    def __mod__(self, divisor: "FpPoly") -> "FpPoly":
        return self.divmod(divisor)[1]

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}, {format_poly(self)!r})"


def format_poly(f: FpPoly) -> str:
    """Comma-separated ascending coefficients; the zero polynomial is "0"."""
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def parse_poly(text: str, p: int) -> FpPoly:
    """Parse the comma-coefficient format, e.g. "1,0,1" -> 1 + t^2.

    Coefficients outside [0, p) are rejected rather than reduced.
    """
    parts = text.split(",")
    coeffs = []
    for part in parts:
        part = part.strip()
        try:
            a = int(part)
        except ValueError as exc:
            raise UsageError(f"bad polynomial coefficient {part!r} in {text!r}") from exc
        if not (0 <= a < p):
            raise UsageError(f"coefficient {a} out of range [0, {p}) in {text!r}")
        coeffs.append(a)
    return FpPoly.make(p, coeffs)


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic greatest common divisor; gcd(a, 0) = monic(a), gcd(0, 0) = 0."""
    a._check_same_p(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _mul_mod(a: list[int], b: list[int], p: int, low: Sequence[int]) -> list[int]:
    """a * b on length-m coefficient lists, reduced modulo the monic
    t^m + low[m-1] t^(m-1) + ... + low[0]."""
    acc = [0] * len(a)
    top = max((k for k, bk in enumerate(b) if bk), default=-1)
    for k in range(top + 1):
        if k:  # a <- a * t, with t^m replaced by -low
            lead = a[-1]
            a = [0] + a[:-1]
            if lead:
                a = [(x - lead * y) % p for x, y in zip(a, low)]
        if b[k]:
            acc = [(x + b[k] * y) % p for x, y in zip(acc, a)]
    return acc


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


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: FpPoly) -> bool:
    """Rabin test: f of degree n over F_p is irreducible iff t^(p^n) = t (mod f)
    and gcd(t^(p^(n/r)) - t, f) = 1 for every prime r dividing n.
    """
    n = f.degree
    if f.is_zero or n == 0:
        raise DomainError("irreducibility is undefined for constants and zero")
    if n == 1:
        return True
    p = f.p
    f = f.monic()
    low = f.coeffs[:n]
    t = [0, 1] + [0] * (n - 2)
    # t^(p^k) mod f by iterated p-th powering (x -> x^p is a ring map mod f)
    needed = {n // r for r in _prime_factors(n)}
    frob = t
    for k in range(1, n + 1):
        frob = _pow_mod(frob, p, p, low)
        if k in needed and poly_gcd(FpPoly.make(p, [a - b for a, b in zip(frob, t)]), f).degree != 0:
            return False
    return frob == t


@lru_cache(maxsize=None)
def _monic_irreducibles(p: int, m: int) -> tuple[FpPoly, ...]:
    out = []
    for n in range(p**m):
        f = FpPoly(p, tuple(_coeffs(n, p, m)) + (1,))
        if is_irreducible(f):
            out.append(f)
    return tuple(out)


def enumerate_monic_irreducibles(p: Union[Prime, int], m: int) -> list[FpPoly]:
    """All monic irreducible polynomials of degree exactly m over F_p.

    Ordered by the base-p value of the coefficient vector (so for m = 1 this
    is t, t+1, ..., t+(p-1)).
    """
    pv = int(p)
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
    refuse_monics(pv, m)
    return list(_monic_irreducibles(pv, m))


# ---------------------------------------------------------------------------
# rings and their elements


class RingKind(Enum):
    PRIME_FIELD = "zp"
    QUOTIENT_FIELD = "fpt"


@dataclass(frozen=True)
class RingSpec:
    """Which finite ring is in play: Z/pZ, or F_p[t]/(pi).  An int p is
    checked and stored as a Prime.  degree_m (the modulus degree: the number
    of base-p digits of an index), cardinality_q = p^m and the hash are set
    once, when the ring is built; equality reads p and modulus only."""

    p: Prime
    modulus: "FpPoly | None" = None
    degree_m: int = field(init=False, repr=False, compare=False)
    cardinality_q: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", Prime(self.p))
        object.__setattr__(self, "degree_m", len(self.modulus_coeffs) - 1)
        object.__setattr__(self, "cardinality_q", self.p.value**self.degree_m)
        object.__setattr__(self, "_hash", hash((self.p, self.modulus)))
        pi = self.modulus
        if pi is None:
            return
        if pi.p != self.p.value:
            raise UsageError(f"modulus over F_{pi.p} does not match prime {self.p.value}")
        if not pi.is_monic:
            raise UsageError(f"modulus must be monic: {format_poly(pi)}")
        if pi.degree < 1:
            raise UsageError(f"modulus must have degree >= 1, got {pi.degree}")
        if not is_irreducible(pi):
            raise UsageError(f"modulus {format_poly(pi)} is reducible over F_{pi.p}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def kind(self) -> RingKind:
        return RingKind.PRIME_FIELD if self.modulus is None else RingKind.QUOTIENT_FIELD

    @property
    def modulus_coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients of the modulus; Z/p reads as F_p[t]/(t)."""
        return (0, 1) if self.modulus is None else self.modulus.coeffs

    @classmethod
    def prime_field(cls, p: Union[Prime, int]) -> "RingSpec":
        return cls(p)

    @classmethod
    def quotient_field(cls, p: Union[Prime, int], pi: FpPoly) -> "RingSpec":
        return cls(p, pi)

    def element(self, value: "int | FpPoly | Sequence[int]") -> "RingElem":
        """Smart constructor: reduce an integer or polynomial into this ring."""
        p = self.p.value
        if isinstance(value, int):
            return RingElem(self, value % p)
        if not isinstance(value, (FpPoly, tuple, list)):
            raise UsageError(f"cannot build an element of {self.describe()} from {value!r}")
        poly = value if isinstance(value, FpPoly) else FpPoly.make(p, value)
        if poly.p != p:
            raise UsageError(f"polynomial over F_{poly.p} does not belong to F_{p}[t]")
        if self.modulus is None and poly.degree > 0:
            raise UsageError("Z/p element cannot come from a non-constant polynomial")
        if poly.degree >= self.degree_m:
            poly = poly % self.modulus
        return RingElem(self, _index(poly.coeffs, p))

    def zero(self) -> "RingElem":
        return self.element(0)

    def one(self) -> "RingElem":
        return self.element(1)

    # -- dense index machinery (base-p digits of the coefficient vector) --

    def index_of(self, e: "RingElem") -> int:
        if e.ring != self:
            raise UsageError("element belongs to a different ring")
        return e.rep

    def element_at(self, idx: int) -> "RingElem":
        return RingElem(self, idx)

    def translation_table(self, c: int) -> list[int]:
        """Index table of z -> z + c over the whole ring, c given by its index.

        Built digit by digit: the table over the low k + 1 digits repeats the
        one over the low k digits once per value of digit k, shifted by c's.
        """
        p = self.p.value
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
            return f"Z/{self.p.value}"
        return f"F_{self.p.value}[t]/({format_poly(self.modulus)})"


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


@dataclass(frozen=True)
class RingElem:
    """An element of a RingSpec, stored as its dense index.

    rep is the index 0 <= rep < q for every ring: its base-p digits are the
    coefficients of the reduced polynomial, so for Z/p it is the residue
    itself.  The poly property gives the FpPoly view.  The strict
    constructor enforces the range; RingSpec.element reduces arbitrary input.
    """

    ring: RingSpec
    rep: int

    def __post_init__(self) -> None:
        if not isinstance(self.rep, int) or not (0 <= self.rep < self.ring.cardinality_q):
            raise UsageError(f"index {self.rep!r} out of range for {self.ring.describe()}")

    @property
    def poly(self) -> FpPoly:
        """The reduced polynomial of degree < m whose coefficients are rep's digits."""
        p = self.ring.p.value
        return FpPoly(p, tuple(_digits(self.rep, p)))

    def _operands(self, other: "RingElem") -> tuple[list[int], list[int], int]:
        """Both coefficient lists (m digits each) and p, for one ring."""
        if self.ring != other.ring:
            raise UsageError("elements belong to different rings")
        p, m = self.ring.p.value, self.ring.degree_m
        return _coeffs(self.rep, p, m), _coeffs(other.rep, p, m), p

    def __add__(self, other: "RingElem") -> "RingElem":
        a, b, p = self._operands(other)
        return RingElem(self.ring, _index([(x + y) % p for x, y in zip(a, b)], p))

    def __sub__(self, other: "RingElem") -> "RingElem":
        a, b, p = self._operands(other)
        return RingElem(self.ring, _index([(x - y) % p for x, y in zip(a, b)], p))

    def __mul__(self, other: "RingElem") -> "RingElem":
        a, b, p = self._operands(other)
        return RingElem(self.ring, _index(_mul_mod(a, b, p, self.ring.modulus_coeffs[:-1]), p))

    @property
    def is_zero(self) -> bool:
        return self.rep == 0

    def render(self) -> str:
        """Text form: comma-separated ascending coefficients, "0" for zero (for
        Z/p, the decimal residue)."""
        return ",".join(map(str, _digits(self.rep, self.ring.p.value))) or "0"

    def __repr__(self) -> str:
        return f"RingElem({self.ring.describe()}, {self.render()})"


def mod_pow(base: RingElem, exponent: int, ring: RingSpec) -> RingElem:
    """base^exponent in the ring; exponent 0 gives 1 (also for base 0)."""
    if base.ring != ring:
        raise UsageError("base does not belong to the stated ring")
    if exponent < 0:
        raise UsageError(f"exponent must be nonnegative, got {exponent}")
    p = ring.p.value
    power = _pow_mod(_coeffs(base.rep, p, ring.degree_m), exponent, p, ring.modulus_coeffs[:-1])
    return RingElem(ring, _index(power, p))


@lru_cache(maxsize=None)
def log_tables(ring: RingSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Discrete log and antilog of the ring's unit group over the dense index.

    antilog[k] is the index of g^k for 0 <= k < q - 1, and log[antilog[k]] = k;
    log[0] is -1, as zero has no logarithm.  The generator g is the first
    index, in index order, whose powers first return to 1 at step q - 1.
    """
    p = ring.p.value
    m = ring.degree_m
    low = ring.modulus_coeffs[:-1]
    q = p**m
    one = _coeffs(1, p, m)
    for candidate in range(1, q):
        g = _coeffs(candidate, p, m)
        antilog = [1]
        x = g
        while x != one:
            antilog.append(_index(x, p))
            x = _mul_mod(x, g, p, low)
        if len(antilog) == q - 1:
            break
    log = [-1] * q
    for k, i in enumerate(antilog):
        log[i] = k
    return tuple(log), tuple(antilog)


@lru_cache(maxsize=None)
def pow_index_table(ring: RingSpec, exponent: int) -> tuple[int, ...]:
    """Index table of z -> z^exponent over the whole ring (cached).

    Read off the log/antilog kernel: z^e = g^(e log z mod (q-1)) for z != 0,
    and 0^e is 0, or 1 when e = 0 (as in mod_pow).
    """
    if exponent < 0:
        raise UsageError(f"exponent must be nonnegative, got {exponent}")
    log, antilog = log_tables(ring)
    n = len(antilog)
    e = exponent % n
    return ((0,) if exponent else (1,)) + tuple(antilog[k * e % n] for k in log[1:])
