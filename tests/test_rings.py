"""Ring-layer tests: every operation against an independent oracle."""

import ast
import copy
import dataclasses
from pathlib import Path

import pytest
from polyoracle import elements, naive_mul, naive_pow, poly_mul, poly_rem

from perimod.budget import refuse_past, scan_budget
from perimod.dynamics import DegreeBase, DegreeSpec
from perimod.errors import DomainError, ResourceError, UsageError
from perimod.rings import (
    FpPoly,
    Prime,
    RingElem,
    RingSpec,
    enumerate_monic_irreducibles,
    format_poly,
    is_irreducible,
    log_tables,
    mod_pow,
    parse_poly,
    poly_gcd,
    pow_index_table,
    primes_in_range,
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
        out.append(FpPoly(p, tuple(coeffs) + (1,)))
    return out


def reducible_by_trial_division(f):
    """f (monic, degree >= 1) divisible by some lower-degree monic?"""
    for d in range(1, f.degree):
        for g in all_monics(f.p, d):
            if not any(poly_rem(f.coeffs, g.coeffs, f.p)):
                return True
    return False


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
    return RingSpec.quotient_field(p, FpPoly.make(p, coeffs))


def naive_order(z):
    """Multiplicative order of a unit by repeated multiplication."""
    one = z.ring.one()
    acc, order = z, 1
    while acc != one:
        acc, order = naive_mul(acc, z), order + 1
    return order


def default_sweep_rings():
    """The 211 rings of the default verify sweep: Z/p and F_p[t]/(pi) for
    p <= 13 and deg pi <= 2."""
    rings = []
    for p in primes_in_range(3, 13):
        rings.append(RingSpec.prime_field(p))
        for m in (1, 2):
            rings.extend(RingSpec.quotient_field(p, pi) for pi in enumerate_monic_irreducibles(p, m))
    return rings


def sweep_exponents(ring):
    """Reduced exponents of both degree families at ell = 1, 2 on the ring."""
    p, q = ring.p.value, ring.cardinality_q
    return {
        DegreeSpec(base, ell).reduced_exponent_for(p, q)
        for base in DegreeBase
        for ell in (1, 2)
        if p >= DegreeSpec(base, ell).min_prime
    }


# ---------------------------------------------------------------------------
# primes and construction


def test_prime_accepts_odd_primes():
    for p in (3, 5, 7, 11, 997):
        assert Prime(p).value == p


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, -7])
def test_prime_rejects_non_odd_primes(bad):
    with pytest.raises(UsageError):
        Prime(bad)


def test_poly_canonical_form():
    assert FpPoly.make(3, [4, 3, 3]).coeffs == (1,)
    assert FpPoly.make(5, [0, 0, 0]).coeffs == ()
    assert FpPoly.make(5, [0, 0, 0]).is_zero
    with pytest.raises(UsageError):
        FpPoly(3, (1, 0))  # trailing zero is non-canonical
    with pytest.raises(UsageError):
        FpPoly(3, (5,))  # out-of-range residue


def test_poly_text_format_round_trip():
    assert format_poly(parse_poly("1,0,1", 3)) == "1,0,1"
    assert format_poly(FpPoly.zero(7)) == "0"
    assert parse_poly("0", 5).is_zero
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
    with pytest.raises(UsageError, match="does not match prime 5"):
        RingSpec.quotient_field(5, FpPoly.make(3, [1, 0, 1]))
    with pytest.raises(UsageError, match="reducible"):
        RingSpec(Prime(5), FpPoly.make(5, [1, 0, 1]))  # a direct RingSpec is checked too
    good = quotient_ring(3, [1, 0, 1])
    assert good.degree_m == 2 and good.modulus == FpPoly.make(3, [1, 0, 1])
    # an int prime is checked and stored as a Prime
    assert RingSpec(5) == RingSpec.prime_field(5)
    assert RingSpec(3, FpPoly.make(3, [1, 0, 1])) == good
    with pytest.raises(UsageError, match="not prime"):
        RingSpec(9)
    with pytest.raises(UsageError, match="odd prime"):
        RingSpec(4)


# ---------------------------------------------------------------------------
# mod_pow


def test_mod_pow_examples():
    z5 = RingSpec.prime_field(5)
    assert mod_pow(z5.element(2), 4, z5).rep == 1
    z3 = RingSpec.prime_field(3)
    assert mod_pow(z3.element(0), 5, z3).rep == 0
    z7 = RingSpec.prime_field(7)
    assert mod_pow(z7.element(3), 9, z7).rep == 6  # 3^9 = 19683 = 6 mod 7


def test_mod_pow_zero_exponent_is_one_even_for_zero_base():
    for ring in (RingSpec.prime_field(5), quotient_ring(3, [1, 0, 1])):
        assert mod_pow(ring.zero(), 0, ring) == ring.one()


def test_mod_pow_rejects_foreign_ring_and_negative_exponent():
    z5 = RingSpec.prime_field(5)
    z7 = RingSpec.prime_field(7)
    with pytest.raises(UsageError):
        mod_pow(z5.element(2), 3, z7)
    with pytest.raises(UsageError):
        mod_pow(z5.element(2), -1, z5)


def test_mod_pow_agrees_with_repeated_multiplication():
    rings = [
        RingSpec.prime_field(3),
        RingSpec.prime_field(7),
        quotient_ring(3, [1, 0, 1]),  # F_9
        quotient_ring(3, [1, 2, 0, 1]),  # F_27
        quotient_ring(5, [2, 0, 1]),  # F_25
        quotient_ring(7, [1, 0, 1]),  # F_49
    ]
    for ring in rings:
        for z in elements(ring):
            acc = ring.one()
            for e in range(0, 2001):
                if e <= 120 or e % 97 == 0 or e == 2000:
                    assert mod_pow(z, e, ring) == acc
                acc = naive_mul(acc, z)


def test_pow_index_table_matches_oracle_power():
    rings = default_sweep_rings()
    assert len(rings) == 211
    for ring in rings + [quotient_ring(3, [1, 2, 0, 1])]:  # plus F_27, m = 3
        elems = elements(ring)
        for e in sorted(sweep_exponents(ring)):
            table = pow_index_table(ring, e)
            assert table == tuple(naive_pow(z, e).rep for z in elems), (ring, e)
        assert pow_index_table(ring, 0) == (1,) * len(elems)  # 0^0 = 1, as in mod_pow
    with pytest.raises(UsageError):
        pow_index_table(RingSpec.prime_field(5), -1)


def test_log_tables_are_inverse_bijections_from_first_generator():
    for ring in default_sweep_rings() + [quotient_ring(3, [1, 2, 0, 1]), quotient_ring(5, [2, 3, 0, 1])]:
        q = ring.cardinality_q
        log, antilog = log_tables(ring)
        assert len(log) == q and log[0] == -1
        assert sorted(antilog) == list(range(1, q))
        assert sorted(log[1:]) == list(range(q - 1))
        assert all(log[antilog[k]] == k for k in range(q - 1))
        # antilog[k] = g^k, and g is the first index of order q - 1
        g = ring.element_at(antilog[1])
        acc = ring.one()
        for k in range(q - 1):
            assert ring.index_of(acc) == antilog[k]
            acc = naive_mul(acc, g)
        assert naive_order(g) == q - 1
        assert all(naive_order(ring.element_at(i)) < q - 1 for i in range(1, antilog[1]))
    # over t^2 + 1, t has order 4 in F_9^*, so the search must go past it
    f9 = quotient_ring(3, [1, 0, 1])
    assert naive_order(f9.element(FpPoly.t(3))) == 4
    assert f9.element_at(log_tables(f9)[1][1]) == f9.element(FpPoly.make(3, [1, 1]))


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
        for z in elements(ring):
            assert mod_pow(z, q, ring) == z


# ---------------------------------------------------------------------------
# polynomial products, gcd, irreducibility


def test_ring_products():
    f9 = quotient_ring(3, [1, 0, 1])
    t = f9.element(FpPoly.t(3))
    assert (t * t).render() == "2"  # t^2 = -1 = 2
    a = f9.element([2, 1])
    assert a * f9.one() == a
    f5 = quotient_ring(5, [0, 1])  # F_5[t]/(t)
    assert (f5.element([1, 1]) * f5.element([2, 1])).render() == "2"
    assert [x * y for x in elements(f9) for y in elements(f9)] == [
        naive_mul(x, y) for x in elements(f9) for y in elements(f9)
    ]
    with pytest.raises(UsageError):
        t * quotient_ring(5, [2, 0, 1]).element(FpPoly.t(5))  # mixed primes


def test_polyoracle_imports_nothing_from_perimod():
    modules = []
    for node in ast.walk(ast.parse((Path(__file__).parent / "polyoracle.py").read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert not [name for name in modules if name.startswith((".", "perimod"))]


def test_poly_gcd_examples():
    assert poly_gcd(FpPoly.make(5, [4, 0, 1]), FpPoly.make(5, [4, 1])) == FpPoly.make(5, [4, 1])
    a = FpPoly.make(5, [3, 2, 4])
    assert poly_gcd(a, FpPoly.zero(5)) == a.monic()
    assert poly_gcd(FpPoly.zero(3), FpPoly.zero(3)).is_zero
    assert poly_gcd(FpPoly.make(3, [1, 0, 1]), FpPoly.make(3, [2, 0, 1])) == FpPoly.make(3, [1])


def test_poly_gcd_against_common_divisor_enumeration():
    # gcd must be the highest-degree monic dividing both operands
    p = 3
    polys = [FpPoly.make(p, [1, 1]), FpPoly.make(p, [2, 1]), FpPoly.make(p, [1, 0, 1])]
    for a in polys:
        for b in polys:
            prod_a = FpPoly.make(p, poly_mul(a.coeffs, [1, 2], p))
            prod_b = FpPoly.make(p, poly_mul(b.coeffs, [1, 2], p))
            g = poly_gcd(prod_a, prod_b)
            assert (prod_a % g).is_zero and (prod_b % g).is_zero
            for d in range(g.degree + 1, min(prod_a.degree, prod_b.degree) + 1):
                for candidate in all_monics(p, d):
                    assert not ((prod_a % candidate).is_zero and (prod_b % candidate).is_zero)


def test_is_irreducible_examples():
    assert is_irreducible(FpPoly.make(3, [1, 0, 1])) is True
    assert is_irreducible(FpPoly.make(5, [1, 0, 1])) is False  # (t+2)(t+3)
    assert is_irreducible(FpPoly.t(7)) is True
    with pytest.raises(DomainError):
        is_irreducible(FpPoly.zero(3))
    with pytest.raises(DomainError):
        is_irreducible(FpPoly.make(3, [2]))


def test_is_irreducible_matches_trial_division():
    for p in (3, 5):
        for degree in (2, 3, 4):
            for f in all_monics(p, degree):
                assert is_irreducible(f) == (not reducible_by_trial_division(f)), format_poly(f)


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
        assert all(f.degree == m and f.is_monic for f in found)


def test_enumerate_budget():
    with pytest.raises(ResourceError):
        enumerate_monic_irreducibles(101, 4)


# ---------------------------------------------------------------------------
# rings and elements


def test_ring_elements_examples():
    z3 = RingSpec.prime_field(3)
    assert [z3.element_at(i).rep for i in range(z3.cardinality_q)] == [0, 1, 2]
    f9 = quotient_ring(3, [1, 0, 1])
    assert f9.cardinality_q == 9 and len({f9.element_at(i).poly for i in range(9)}) == 9
    f5 = quotient_ring(5, [0, 1])  # F_5[t]/(t)
    assert f5.cardinality_q == 5


def test_ring_element_reduction_and_arith():
    f9 = quotient_ring(3, [1, 0, 1])
    t = f9.element(FpPoly.t(3))
    assert (t * t).render() == "2"  # t^2 = -1
    assert f9.element(FpPoly.make(3, [0, 0, 1])).render() == "2"  # reduce t^2 on entry
    assert f9.element(7).render() == "1"
    z5 = RingSpec.prime_field(5)
    assert z5.element(-3).rep == 2
    assert z5.element(FpPoly.make(5, [3])) == z5.element(3)
    with pytest.raises(UsageError):
        t + z5.element(1)
    with pytest.raises(UsageError):
        z5.element(FpPoly.t(5))  # Z/p takes constant polynomials only
    with pytest.raises(UsageError):
        z5.element([1, 1])
    for bad in (-1, 5, 2.0, FpPoly.make(5, [2])):
        with pytest.raises(UsageError):
            RingElem(z5, bad)
    for bad in (-1, 9, "1", FpPoly.t(3)):
        with pytest.raises(UsageError):
            RingElem(f9, bad)


def test_index_round_trip_and_addition():
    for ring in (RingSpec.prime_field(7), quotient_ring(3, [1, 0, 1]), quotient_ring(3, [1, 2, 0, 1])):
        q = ring.cardinality_q
        elems = [ring.element_at(i) for i in range(q)]
        for i, elem in enumerate(elems):
            assert ring.index_of(elem) == i
            assert elem.poly.degree < ring.degree_m
            assert ring.element(elem.poly) == elem
            assert elem.render() == format_poly(elem.poly)
        for bad in (-1, q, q + 1):
            with pytest.raises(UsageError):
                ring.element_at(bad)
        for c in range(q):
            table = ring.translation_table(c)
            assert len(table) == q
            for i in range(q):
                assert elems[table[i]] == elems[i] + elems[c]


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
    pi = FpPoly.make(17, [3, 0, 1])
    a, b = RingSpec.quotient_field(17, pi), RingSpec.quotient_field(17, FpPoly.make(17, [3, 0, 1]))
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    before = pow_index_table.cache_info()
    assert pow_index_table(a, 7) is pow_index_table(b, 7)
    after = pow_index_table.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    f9 = RingSpec.quotient_field(3, FpPoly.make(3, [1, 0, 1]))
    f27 = RingSpec.quotient_field(3, FpPoly.make(3, [1, 2, 0, 1]))
    assert f9 != RingSpec.quotient_field(3, FpPoly.make(3, [2, 1, 1]))
    assert "cardinality_q" not in repr(f9)
    for ring, m, q in ((RingSpec.prime_field(7), 1, 7), (f9, 2, 9), (f27, 3, 27)):
        for other in (ring, copy.copy(ring), dataclasses.replace(ring)):
            assert (other.degree_m, other.cardinality_q) == (m, q)
            assert other == ring and hash(other) == hash(ring)
    moved = dataclasses.replace(f9, modulus=f27.modulus)
    assert (moved.degree_m, moved.cardinality_q) == (3, 27)
    assert moved == f27 and hash(moved) == hash(f27)
