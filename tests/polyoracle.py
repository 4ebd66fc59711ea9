"""Schoolbook arithmetic in F_p[t]/(pi): the oracle the ring tests check against.

perimod computes on whole-ring index tables: its power tables are read off
log/antilog tables built on one coefficient-list product, and its
translation tables are built digit by digit, so a test that compared them
with each other would compare the kernel with itself.  This file computes
single sums, products and powers the textbook way: digit lists from the
dense index, a schoolbook product, long division by the monic modulus, and
square-and-multiply.  An element is its index 0 <= i < q, a plain int, as
in perimod; the oracle reads a ring only through p and modulus_coeffs, and
imports nothing from perimod.  Its long division, poly_rem, is also the
division oracle of the gcd, irreducibility and element-reduction tests, so
none of them checks perimod's remainder routine with itself.
"""


def poly_mul(a, b, p):
    """Schoolbook product of two ascending coefficient lists over F_p."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_rem(a, modulus, p):
    """Remainder of a by a monic modulus of degree m, as m coefficients."""
    m = len(modulus) - 1
    rem = list(a) + [0] * max(m - len(a), 0)
    for shift in range(len(rem) - 1 - m, -1, -1):
        lead = rem[shift + m]
        for i, y in enumerate(modulus):
            rem[shift + i] = (rem[shift + i] - lead * y) % p
    return rem[:m]


def _digits(ring, idx):
    out = []
    for _ in range(len(ring.modulus_coeffs) - 1):
        idx, d = divmod(idx, ring.p)
        out.append(d)
    return out


def _index(ring, coeffs):
    idx = 0
    for a in reversed(coeffs):
        idx = idx * ring.p + a
    return idx


def naive_add(ring, x, y, sign=1):
    """x + y (x - y with sign=-1), coefficient by coefficient."""
    p = ring.p
    return _index(ring, [(a + sign * b) % p for a, b in zip(_digits(ring, x), _digits(ring, y))])


def _mul(ring, a, b):
    p = ring.p
    return poly_rem(poly_mul(a, b, p), ring.modulus_coeffs, p)


def naive_mul(ring, x, y):
    """x * y: schoolbook product, then long division by the modulus."""
    return _index(ring, _mul(ring, _digits(ring, x), _digits(ring, y)))


def naive_pow(ring, x, e):
    """x^e by square-and-multiply on the schoolbook product; x^0 is 1, also
    for x = 0."""
    base, result = _digits(ring, x), [1]
    while e:
        if e & 1:
            result = _mul(ring, result, base)
        base = _mul(ring, base, base)
        e >>= 1
    return _index(ring, result)


def elements(ring):
    """Every element of the ring, in index order."""
    return range(ring.p ** (len(ring.modulus_coeffs) - 1))
