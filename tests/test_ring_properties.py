"""Property test of the ring axioms on dense indices, checked against the
schoolbook oracle in tests/polyoracle.py."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from polyoracle import naive_add, naive_mul, naive_pow  # noqa: E402

from perimod.rings import FpPoly, RingSpec, mod_pow  # noqa: E402

RINGS = (
    RingSpec.prime_field(3),
    RingSpec.prime_field(7),
    RingSpec.quotient_field(3, FpPoly.make(3, [1, 0, 1])),  # F_9
    RingSpec.quotient_field(5, FpPoly.make(5, [2, 0, 1])),  # F_25
    RingSpec.quotient_field(3, FpPoly.make(3, [1, 2, 0, 1])),  # F_27
    RingSpec.quotient_field(7, FpPoly.make(7, [1, 0, 1])),  # F_49
)


@st.composite
def cases(draw):
    ring = draw(st.sampled_from(RINGS))
    x, y, z = (ring.element_at(draw(st.integers(0, ring.cardinality_q - 1))) for _ in range(3))
    return ring, x, y, z, draw(st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_ring_axioms_on_indices(case):
    ring, x, y, z, e = case
    assert x + y == naive_add(x, y)
    assert x - y == naive_add(x, y, sign=-1)
    assert x * y == naive_mul(x, y)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert ring.element(x.poly) == x
    assert mod_pow(x, e, ring) == naive_pow(x, e)
    assert mod_pow(x, ring.cardinality_q, ring) == x
