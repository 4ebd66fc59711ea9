"""Schoolbook arithmetic in F_p[t]/(pi): the oracle the ring tests check against.

perimod multiplies ring elements, raises them to powers and builds its
log/antilog tables on one coefficient-list kernel, so a test that compared
them with each other would compare the kernel with itself.  This file
computes the same values the textbook way: digit lists from the dense
index, a schoolbook product, long division by the monic modulus, and
square-and-multiply.  It reads a ring only through p, modulus_coeffs,
element_at and the index rep, and imports nothing from perimod.
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


def _digits(x):
    ring, idx = x.ring, x.rep
    out = []
    for _ in range(len(ring.modulus_coeffs) - 1):
        idx, d = divmod(idx, ring.p.value)
        out.append(d)
    return out


def _element(ring, coeffs):
    idx = 0
    for a in reversed(coeffs):
        idx = idx * ring.p.value + a
    return ring.element_at(idx)


def naive_add(x, y, sign=1):
    """x + y (x - y with sign=-1), coefficient by coefficient."""
    p = x.ring.p.value
    return _element(x.ring, [(a + sign * b) % p for a, b in zip(_digits(x), _digits(y))])


def _mul(ring, a, b):
    p = ring.p.value
    return poly_rem(poly_mul(a, b, p), ring.modulus_coeffs, p)


def naive_mul(x, y):
    """x * y: schoolbook product, then long division by the modulus."""
    return _element(x.ring, _mul(x.ring, _digits(x), _digits(y)))


def naive_pow(x, e):
    """x^e by square-and-multiply on the schoolbook product; x^0 is 1, also
    for x = 0."""
    ring, base, result = x.ring, _digits(x), [1]
    while e:
        if e & 1:
            result = _mul(ring, result, base)
        base = _mul(ring, base, base)
        e >>= 1
    return _element(ring, result)


def elements(ring):
    """Every element of the ring, in index order."""
    return [ring.element_at(i) for i in range(ring.p.value ** (len(ring.modulus_coeffs) - 1))]
