"""Ring-layer tests: every operation against an independent oracle."""

import ast
import copy
import dataclasses
import random
import time
from pathlib import Path

import pytest
from polyoracle import elements, naive_add, naive_mul, naive_pow, poly_mul, poly_rem

from perimod import rings
from perimod.budget import refuse_past, scan_budget
from perimod.dynamics import DegreeBase, DegreeSpec
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import (
    RingSpec,
    _gcd,
    _mul_mod,
    _pow_mod,
    _poly,
    enumerate_monic_irreducibles,
    format_poly,
    is_irreducible,
    is_prime_int,
    log_tables,
    parse_poly,
    pow_index_table,
    prime_factors,
    primes_in_range,
    require_odd_prime,
)

# ---------------------------------------------------------------------------
# oracles (tests/polyoracle.py holds the ring arithmetic)


def all_monics(p, degree):
    """Every monic polynomial of the given degree over F_p."""
    out = []
    for n in range(p**degree):
        coeffs = []
        v = n
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        out.append(tuple(coeffs) + (1,))
    return out


def make(p, coeffs):
    """The polynomial over F_p with coeffs reduced mod p, trailing zeros trimmed."""
    cs = [a % p for a in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def divides(g, f, p):
    """Does the monic g divide f over F_p, by the oracle's long division?"""
    return not any(poly_rem(f, g, p))


def reducible_by_trial_division(f, p):
    """f (monic, degree >= 1) divisible by some lower-degree monic over F_p?"""
    return any(divides(g, f, p) for d in range(1, len(f) - 1) for g in all_monics(p, d))


def mobius_irreducible_count(p, m):
    """(1/m) * sum over d | m of mu(d) * p^(m/d)."""

    def mu(n):
        result = 1
        f = 2
        while f * f <= n:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                result = -result
            f += 1
        if n > 1:
            result = -result
        return result

    return sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


def quotient_ring(p, coeffs):
    return RingSpec(p, tuple(coeffs))


def naive_order(ring, z):
    """Multiplicative order of a unit by repeated multiplication."""
    acc, order = z, 1
    while acc != 1:
        acc, order = naive_mul(ring, acc, z), order + 1
    return order


def default_sweep_rings():
    """The 211 rings of the default verify sweep: Z/p and F_p[t]/(pi) for
    p <= 13 and deg pi <= 2."""
    rings = []
    for p in primes_in_range(3, 13):
        rings.append(RingSpec(p))
        for m in (1, 2):
            rings.extend(RingSpec(p, pi) for pi in enumerate_monic_irreducibles(p, m))
    return rings


def sweep_exponents(ring):
    """Reduced exponents of both degree families at ell = 1, 2 on the ring."""
    p, q = ring.p, ring.cardinality_q
    return {
        DegreeSpec(base, ell).exponent(p, q)
        for base in DegreeBase
        for ell in (1, 2)
        if p >= DegreeSpec(base, ell).min_prime
    }


# ---------------------------------------------------------------------------
# primes and construction


def test_prime_accepts_odd_primes():
    for p in (3, 5, 7, 11, 997):
        assert require_odd_prime(p) == p


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, -7])
def test_prime_rejects_non_odd_primes(bad):
    with pytest.raises(UsageError) as err:
        require_odd_prime(bad)
    odd = bad > 2 and bad % 2
    assert str(err.value) == (f"{bad} is not prime" if odd else f"modulus must be an odd prime >= 3, got {bad}")


def test_is_prime_int_agrees_with_the_sieve():
    primes = primes_in_range(2, 10**4)
    assert [n for n in range(-3, 10**4 + 1) if is_prime_int(n)] == primes


def test_prime_factors_are_the_sieve_primes_of_n():
    primes = set(primes_in_range(2, 10**4))
    for n in range(1, 10**4 + 1):
        factors = prime_factors(n)
        assert factors == sorted(set(factors)) and primes.issuperset(factors), n
        rest = n
        for f in factors:  # each factor taken to its full power
            while rest % f == 0:
                rest //= f
        assert rest == 1, n


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_polynomials_refuse_a_modulus_that_is_not_an_odd_prime(p):
    # unchecked, p = 4 sends enumerate_monic_irreducibles(4, 2) into an
    # endless loop, and enumerate_monic_irreducibles(9, 1) lists 9 polynomials
    for call in (
        lambda: _poly((0, 1), p),
        lambda: RingSpec(p, (1, 2, 2)),
        lambda: parse_poly("0", p),
        lambda: is_irreducible((1, 0, 1), p),
        lambda: enumerate_monic_irreducibles(p, 1),
        lambda: enumerate_monic_irreducibles(p, 2),
    ):
        with pytest.raises(UsageError, match="odd prime >= 3|is not prime"):
            call()


def test_poly_canonical_form():
    # a polynomial is the tuple of its ascending coefficients, trailing zeros trimmed
    assert parse_poly("1,2,0,0", 3) == (1, 2)
    assert parse_poly("0,0,0", 5) == ()
    assert _poly([1, 0, 1, 0], 3) == (1, 0, 1)
    assert _poly((0, 0), 5) == ()
    for bad in (3, 5, -1):  # out-of-range residues are refused, not reduced
        with pytest.raises(UsageError) as err:
            _poly((1, bad), 3)
        assert str(err.value) == f"coefficient {bad} is not an int in [0, 3)"


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "1"])
def test_a_coefficient_must_be_an_int(bad):
    # 2.0 == 2 and True == 1, but neither is a residue: each entry point
    # refuses them alike, rather than failing in pow or storing them
    for call in (
        lambda: RingSpec(5, (bad, 0, 1)),
        lambda: RingSpec(5, (2, 0, bad)),
        lambda: RingSpec(5).element((bad,)),
        lambda: quotient_ring(5, [2, 0, 1]).element((0, bad)),
        lambda: is_irreducible((bad, 0, 1), 5),
    ):
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == f"coefficient {bad!r} is not an int in [0, 5)"


@pytest.mark.parametrize("bad", [7, 2.0, "1,0,1"])
def test_a_polynomial_must_be_a_tuple_or_list(bad):
    # an int, a float or a text is not a coefficient sequence: refused by
    # name, not by a TypeError from iterating it (or one per character)
    for call in (lambda: RingSpec(5, bad), lambda: is_irreducible(bad, 5)):
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value) == f"polynomial {bad!r} is not a tuple or list of coefficients"


def test_poly_text_format_round_trip():
    assert format_poly(parse_poly("1,0,1", 3)) == "1,0,1"
    assert format_poly(()) == "0"
    assert parse_poly("0", 5) == ()
    with pytest.raises(UsageError):
        parse_poly("1,5", 5)  # coefficient outside [0, p) is rejected, not reduced
    with pytest.raises(UsageError):
        parse_poly("1,x", 5)


def test_poly_modulus_requires_monic_irreducible():
    with pytest.raises(UsageError, match="reducible"):
        quotient_ring(5, [1, 0, 1])  # t^2+1 splits mod 5
    with pytest.raises(UsageError, match="monic"):
        quotient_ring(3, [1, 2])  # not monic
    with pytest.raises(UsageError, match="degree"):
        quotient_ring(3, [1])
    with pytest.raises(UsageError, match=r"^coefficient 5 is not an int in \[0, 5\)$"):
        RingSpec(5, (1, 0, 5))
    with pytest.raises(UsageError, match="reducible"):
        RingSpec(5, (1, 0, 1))  # a direct RingSpec is checked too
    good = quotient_ring(3, [1, 0, 1, 0])  # stored trimmed
    assert good.degree_m == 2 and good.modulus == (1, 0, 1)
    # p is checked and stored as the int it is
    assert RingSpec(5).modulus is None and type(RingSpec(5).p) is int
    assert RingSpec(3, (1, 0, 1)) == good
    with pytest.raises(UsageError, match="not prime"):
        RingSpec(9)
    with pytest.raises(UsageError, match="odd prime"):
        RingSpec(4)


def test_a_prime_past_the_budget_is_refused_before_trial_division():
    # a ring over F_p has at least p elements, so a p past budget^2 is
    # refused before trial division, which would try 5 * 10^8 divisors
    p = 1000000000000000003
    for build in (lambda: RingSpec(p), lambda: _poly((1,), p)):
        start = time.monotonic()
        with pytest.raises(ResourceError) as err:
            build()
        assert time.monotonic() - start < 0.1
        assert str(err.value) == f"testing {p} needs trial divisors up to 1000000001, budget is 100000"


@pytest.mark.parametrize("coeffs", [[2, 1] + [0] * 598 + [1], [0] * 600 + [1], [2, 1] + [0] * 598 + [2]])
def test_a_ring_past_the_budget_is_refused_before_rabins_test(coeffs, monkeypatch):
    # Rabin's test of a degree-600 pi takes seconds, and neither 3^600 nor
    # 601 coefficients fit on one error line, so past the degree cap the
    # modulus is named by its degree; t^600 is reducible and the last pi is
    # not monic, and both are still refused on their size
    def refuse(*args):
        raise AssertionError("the modulus was tested before the budget check")

    monkeypatch.setattr(rings, "is_irreducible", refuse)
    pi = tuple(coeffs)
    start = time.monotonic()
    with pytest.raises(ResourceError) as err:
        RingSpec(3, pi)
    assert time.monotonic() - start < 2.0
    assert str(err.value) == "scanning F_3[t]/(pi) of degree 600 needs 3^600 elements, budget is 100000"


def test_a_ring_is_refused_just_past_the_budget_and_built_at_it(monkeypatch):
    pi = (1, 0, 1)
    for budget, ring, message in (
        ("8", lambda: RingSpec(3, pi), "scanning F_3[t]/(1,0,1) needs 9 elements, budget is 8"),
        ("6", lambda: RingSpec(7), "scanning Z/7 needs 7 elements, budget is 6"),
    ):
        monkeypatch.setenv("PERIMOD_BUDGET", budget)
        with pytest.raises(ResourceError) as err:
            ring()
        assert str(err.value) == message
        monkeypatch.setenv("PERIMOD_BUDGET", str(int(budget) + 1))
        assert ring().cardinality_q == int(budget) + 1


# ---------------------------------------------------------------------------
# power tables


def test_pow_index_table_examples():
    z5 = RingSpec(5)
    assert pow_index_table(z5, 4)[2] == 1
    z3 = RingSpec(3)
    assert pow_index_table(z3, 5)[0] == 0
    z7 = RingSpec(7)
    assert pow_index_table(z7, 9)[3] == 6  # 3^9 = 19683 = 6 mod 7
    f9 = quotient_ring(3, [1, 0, 1])
    t = f9.element((0, 1))
    assert f9.render(pow_index_table(f9, 2)[t]) == "2"  # t^2 = -1 = 2


def test_pow_index_table_agrees_with_repeated_multiplication():
    # exponents far past q - 1, so the reduction mod q - 1 wraps many times
    rings = [
        RingSpec(3),
        RingSpec(7),
        quotient_ring(3, [1, 0, 1]),  # F_9
        quotient_ring(3, [1, 2, 0, 1]),  # F_27
        quotient_ring(5, [2, 0, 1]),  # F_25
        quotient_ring(7, [1, 0, 1]),  # F_49
    ]
    for ring in rings:
        elems = elements(ring)
        acc = [1] * len(elems)
        for e in range(0, 2001):
            if e <= 120 or e % 97 == 0 or e == 2000:
                assert pow_index_table(ring, e) == tuple(acc), (ring, e)
            acc = [naive_mul(ring, a, z) for a, z in zip(acc, elems)]


def test_pow_index_table_matches_oracle_power():
    rings = default_sweep_rings()
    assert len(rings) == 211
    for ring in rings + [quotient_ring(3, [1, 2, 0, 1])]:  # plus F_27, m = 3
        elems = elements(ring)
        for e in sorted(sweep_exponents(ring)):
            table = pow_index_table(ring, e)
            assert table == tuple(naive_pow(ring, z, e) for z in elems), (ring, e)
        assert pow_index_table(ring, 0) == (1,) * len(elems)  # 0^0 = 1
    with pytest.raises(UsageError):
        pow_index_table(RingSpec(5), -1)


def test_log_tables_are_inverse_bijections_from_first_generator():
    for ring in default_sweep_rings() + [quotient_ring(3, [1, 2, 0, 1]), quotient_ring(5, [2, 3, 0, 1])]:
        q = ring.cardinality_q
        log, antilog = log_tables(ring)
        assert len(log) == q and log[0] == -1
        assert sorted(antilog) == list(range(1, q))
        assert sorted(log[1:]) == list(range(q - 1))
        assert all(log[antilog[k]] == k for k in range(q - 1))
        # antilog[k] = g^k, and g is the first index of order q - 1
        g = antilog[1]
        acc = 1
        for k in range(q - 1):
            assert acc == antilog[k]
            acc = naive_mul(ring, acc, g)
        assert naive_order(ring, g) == q - 1
        assert all(naive_order(ring, i) < q - 1 for i in range(1, antilog[1]))
    # over t^2 + 1, t has order 4 in F_9^*, so the search must go past it
    f9 = quotient_ring(3, [1, 0, 1])
    assert naive_order(f9, f9.element((0, 1))) == 4
    assert log_tables(f9)[1][1] == f9.element((1, 1))


def test_log_tables_first_generator_past_the_sweep():
    # every cubic over F_3 and F_5, every quartic over F_3, and F_{7^3}, where
    # q - 1 = 2 * 3^2 * 19 has a repeated prime factor
    rings = [RingSpec(p, pi) for p, m in ((3, 3), (5, 3), (3, 4))
             for pi in enumerate_monic_irreducibles(p, m)]
    for ring in rings + [quotient_ring(7, [2, 0, 0, 1])]:
        q = ring.cardinality_q
        log, antilog = log_tables(ring)
        assert sorted(antilog) == list(range(1, q))
        assert all(log[antilog[k]] == k for k in range(q - 1))
        g = antilog[1]
        assert all(antilog[k + 1] == naive_mul(ring, antilog[k], g) for k in range(q - 2))
        assert naive_order(ring, g) == q - 1
        assert all(naive_order(ring, i) < q - 1 for i in range(1, g))
    # Z/p searches from 1: its generator is the least primitive root
    assert [log_tables(RingSpec(p))[1][1] for p in (3, 5, 7, 11, 13)] == [2, 2, 3, 2, 2]


def test_mul_mod_matches_schoolbook_oracle():
    def digits(z, p, m):
        return [z // p**k % p for k in range(m)]

    def check(p, modulus, a, b):
        assert _mul_mod(a, b, p, modulus[:-1]) == poly_rem(poly_mul(a, b, p), modulus, p)

    def operand(rng, p, m):
        """A random operand; one in four is zero and one in four has a zero
        top coefficient."""
        a = [rng.randrange(p) for _ in range(m)]
        kind = rng.randrange(4)
        if kind == 0:
            return [0] * m
        if kind == 1:
            a[-1] = 0
        return a

    for p, modulus in ((3, [1, 0, 1]), (3, [1, 2, 0, 1])):  # F_9 and F_27: every pair
        m = len(modulus) - 1
        elems = [digits(z, p, m) for z in range(p**m)]
        for a in elems:
            for b in elems:
                check(p, modulus, a, b)
        ring = RingSpec(p, tuple(modulus))
        for z, a in enumerate(elems):  # every power up to q, 0^0 = 1 included
            for e in range(p**m + 1):
                assert _pow_mod(a, e, p, modulus[:-1]) == digits(naive_pow(ring, z, e), p, m)
    rng = random.Random(20)
    big = ((313, [5, 0, 1]), (3, [1, 0, 1, 2, 0, 0, 0, 0, 0, 1]), (5, [4, 1] + [0] * 10 + [1]))
    for p, modulus in big:
        assert is_irreducible(modulus, p)
        m = len(modulus) - 1
        for _ in range(500):
            check(p, modulus, operand(rng, p, m), operand(rng, p, m))


def test_frobenius_fixed_field_fact():
    # z^q = z for every element of a field with q elements (q <= 81)
    rings = [
        quotient_ring(3, [1, 0, 1]),
        quotient_ring(3, [1, 2, 0, 1]),
        quotient_ring(3, [2, 1, 0, 0, 1]),  # F_81
        quotient_ring(5, [2, 0, 1]),
        quotient_ring(7, [1, 0, 1]),  # F_49
    ]
    for ring in rings:
        q = ring.cardinality_q
        assert pow_index_table(ring, q) == tuple(range(q))
        for z in elements(ring):
            assert naive_pow(ring, z, q) == z


# ---------------------------------------------------------------------------
# gcd and irreducibility


def test_polyoracle_imports_nothing_from_perimod():
    modules = []
    for node in ast.walk(ast.parse((Path(__file__).parent / "polyoracle.py").read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert not [name for name in modules if name.startswith((".", "perimod"))]


def monic_gcd(a, b, p):
    """The monic gcd of two polynomials over F_p, by the list gcd _gcd."""
    return tuple(_gcd(a, b, p))


def test_poly_gcd_examples():
    assert monic_gcd((4, 0, 1), (4, 1), 5) == (4, 1)
    assert monic_gcd((3, 2, 4), (), 5) == (2, 3, 1)  # (3, 2, 4) / 4
    assert monic_gcd((), (), 3) == ()
    assert monic_gcd((1, 0, 1), (2, 0, 1), 3) == (1,)


def test_poly_gcd_against_common_divisor_enumeration():
    # gcd must be the highest-degree monic dividing both operands
    p = 3
    polys = [(1, 1), (2, 1), (1, 0, 1)]
    for a in polys:
        for b in polys:
            prod_a = make(p, poly_mul(a, [1, 2], p))
            prod_b = make(p, poly_mul(b, [1, 2], p))
            g = monic_gcd(prod_a, prod_b, p)
            assert divides(g, prod_a, p) and divides(g, prod_b, p)
            for d in range(len(g), min(len(prod_a), len(prod_b))):
                for candidate in all_monics(p, d):
                    assert not (divides(candidate, prod_a, p) and divides(candidate, prod_b, p))


def test_is_irreducible_examples():
    assert is_irreducible((1, 0, 1), 3) is True
    assert is_irreducible((1, 0, 1), 5) is False  # (t+2)(t+3)
    assert is_irreducible((0, 1), 7) is True
    assert is_irreducible((0, 1, 0), 7) is True  # trimmed to t
    with pytest.raises(DomainError):
        is_irreducible((), 3)
    with pytest.raises(DomainError):
        is_irreducible((2,), 3)


def test_is_irreducible_matches_trial_division():
    for p in (3, 5):
        for degree in (2, 3, 4):
            for f in all_monics(p, degree):
                assert is_irreducible(f, p) == (not reducible_by_trial_division(f, p)), format_poly(f)


def test_an_enumeration_checks_its_prime_once_per_monic(monkeypatch):
    # each monic is checked once, by _poly as Rabin's test starts, and the
    # test itself (two gcd steps at m = 6) runs on coefficient lists, so it
    # checks no prime again
    calls = []

    def counted(p):
        calls.append(p)
        return require_odd_prime(p)

    monkeypatch.setattr(rings, "require_odd_prime", counted)
    found = rings._monic_irreducibles.__wrapped__(3, 6)
    assert len(found) == mobius_irreducible_count(3, 6)
    assert len(calls) <= 3**6


def test_enumerate_monic_irreducibles():
    assert [format_poly(f) for f in enumerate_monic_irreducibles(3, 1)] == ["0,1", "1,1", "2,1"]
    assert len(enumerate_monic_irreducibles(3, 2)) == 3
    assert len(enumerate_monic_irreducibles(5, 2)) == 10
    # m = 6 has two prime factors, so Rabin's gcd step runs for r = 2 and r = 3
    assert mobius_irreducible_count(3, 6) == 116
    for p, m in [(p, m) for p in (3, 5, 7) for m in (1, 2, 3, 4)] + [(3, 6)]:
        found = enumerate_monic_irreducibles(p, m)
        assert len(found) == mobius_irreducible_count(p, m)
        assert len(set(found)) == len(found)
        assert all(len(f) == m + 1 and f[-1] == 1 for f in found)


def test_enumeration_refuses_a_degree_that_is_no_int():
    # a float m once raised a raw TypeError, and True listed the degree-1 monics
    for m in (2.0, True, "2"):
        with pytest.raises(UsageError) as err:
            enumerate_monic_irreducibles(3, m)
        assert str(err.value) == f"m must be an int, got {m!r}"


def test_enumerate_budget():
    with pytest.raises(ResourceError):
        enumerate_monic_irreducibles(101, 4)


# ---------------------------------------------------------------------------
# rings and elements


def test_ring_elements_examples():
    z3 = RingSpec(3)
    assert [z3.render(i) for i in range(z3.cardinality_q)] == ["0", "1", "2"]
    f9 = quotient_ring(3, [1, 0, 1])
    assert f9.cardinality_q == 9 and len({f9.render(i) for i in range(9)}) == 9
    f5 = quotient_ring(5, [0, 1])  # F_5[t]/(t)
    assert f5.cardinality_q == 5
    # every index is the reduced polynomial its text names, of at most m digits
    for ring in (z3, f5, f9):
        for i in range(ring.cardinality_q):
            text = ring.render(i)
            assert len(text.split(",")) <= ring.degree_m
            assert ring.element(parse_poly(text, ring.p)) == i


def test_ring_element_reduction_and_arith():
    f9 = quotient_ring(3, [1, 0, 1])
    t = f9.element((0, 1))
    assert t == 3 and f9.render(t) == "0,1"
    assert f9.render(pow_index_table(f9, 2)[t]) == "2"  # t^2 = -1
    assert f9.render(f9.translation_table(t)[t]) == "0,2"  # t + t = 2t
    assert f9.render(f9.element((0, 0, 1))) == "2"  # reduce t^2 on entry
    assert f9.render(f9.element(7)) == "1"
    z5 = RingSpec(5)
    assert z5.element(-3) == 2
    assert z5.element((3,)) == z5.element((3, 0)) == z5.element(3)
    with pytest.raises(UsageError, match="^Z/p element cannot come from a non-constant polynomial$"):
        z5.element((0, 1))  # Z/p takes constant polynomials only
    with pytest.raises(UsageError):
        z5.element([1, 1])
    for flag in (True, False):  # a bool is not an index, though it is an int
        with pytest.raises(UsageError) as err:
            z5.element(flag)
        assert str(err.value) == f"cannot build an element of Z/5 from {flag!r}"


def test_element_reduces_like_the_oracle_division():
    # every polynomial of degree < 2m over F_3, reduced on entry
    for pi in ([1, 0, 1], [1, 2, 0, 1]):
        ring = quotient_ring(3, pi)
        m = ring.degree_m
        for n in range(3 ** (2 * m)):
            a = [n // 3**k % 3 for k in range(2 * m)]
            expected = sum(r * 3**k for k, r in enumerate(poly_rem(a, pi, 3)))
            assert ring.element(tuple(a)) == expected, (pi, a)  # trailing zeros kept


def test_index_round_trip_and_addition():
    for ring in (RingSpec(7), quotient_ring(3, [1, 0, 1]), quotient_ring(3, [1, 2, 0, 1])):
        q = ring.cardinality_q
        for i in range(q):
            poly = parse_poly(ring.render(i), ring.p)
            assert len(poly) <= ring.degree_m
            assert ring.element(poly) == i
            assert ring.render(i) == format_poly(poly)
        for c in range(q):
            table = ring.translation_table(c)
            assert len(table) == q
            for i in range(q):
                assert table[i] == naive_add(ring, i, c)


def test_budget_override(monkeypatch):
    def work():
        return "scanning Z/7 needs 7 elements"

    def unformatted():
        raise AssertionError("a passing check formatted its message")

    assert scan_budget() == 10**5
    monkeypatch.setenv("PERIMOD_BUDGET", "5")
    with pytest.raises(ResourceError, match=r"^scanning Z/7 needs 7 elements, budget is 5$"):
        refuse_past(scan_budget(), 7, work)
    monkeypatch.setenv("PERIMOD_BUDGET", "7")
    refuse_past(scan_budget(), 7, unformatted)
    for bad, message in (("not-a-number", "must be an integer, got 'not-a-number'"), ("0", "must be positive, got 0")):
        monkeypatch.setenv("PERIMOD_BUDGET", bad)
        with pytest.raises(UsageError, match=f"^PERIMOD_BUDGET {message}$"):
            scan_budget()


def test_cached_ring_attributes_keep_equality_and_hash():
    # degree_m, cardinality_q and the hash are set when a ring is built;
    # rings built separately from one modulus are still equal, hash alike
    # and share their cache entries
    pi = (3, 0, 1)
    a, b = RingSpec(17, pi), RingSpec(17, (3, 0, 1))
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    before = pow_index_table.cache_info()
    assert pow_index_table(a, 7) is pow_index_table(b, 7)
    after = pow_index_table.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    f9 = RingSpec(3, (1, 0, 1))
    f27 = RingSpec(3, (1, 2, 0, 1))
    assert f9 != RingSpec(3, (2, 1, 1))
    assert "cardinality_q" not in repr(f9)
    for ring, m, q in ((RingSpec(7), 1, 7), (f9, 2, 9), (f27, 3, 27)):
        for other in (ring, copy.copy(ring), dataclasses.replace(ring)):
            assert (other.degree_m, other.cardinality_q) == (m, q)
            assert other == ring and hash(other) == hash(ring)
    moved = dataclasses.replace(f9, modulus=f27.modulus)
    assert (moved.degree_m, moved.cardinality_q) == (3, 27)
    assert moved == f27 and hash(moved) == hash(f27)
