"""Property test of the table kernel that every count reads, the power and
translation tables over dense indices, checked against the schoolbook oracle
in tests/polyoracle.py."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from polyoracle import naive_add, naive_mul, naive_pow  # noqa: E402

from perimod.rings import RingSpec, parse_poly, pow_index_table  # noqa: E402

RINGS = (
    RingSpec(3),
    RingSpec(7),
    RingSpec(3, (1, 0, 1)),  # F_9
    RingSpec(5, (2, 0, 1)),  # F_25
    RingSpec(3, (1, 2, 0, 1)),  # F_27
    RingSpec(7, (1, 0, 1)),  # F_49
)


@st.composite
def cases(draw):
    ring = draw(st.sampled_from(RINGS))
    x, y = (draw(st.integers(0, ring.cardinality_q - 1)) for _ in range(2))
    return ring, x, y, draw(st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_table_kernel_matches_oracle_on_indices(case):
    ring, x, y, e = case
    power = pow_index_table(ring, e)
    assert power[x] == naive_pow(ring, x, e)
    assert power[naive_mul(ring, x, y)] == naive_mul(ring, naive_pow(ring, x, e), naive_pow(ring, y, e))
    assert ring.translation_table(y)[x] == naive_add(ring, x, y)
    text = ring.render(x)
    assert len(text.split(",")) <= ring.degree_m
    assert ring.element(parse_poly(text, ring.p)) == x
