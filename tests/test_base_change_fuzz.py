"""Base change Q -> Z through the integral model, on Hypothesis draws.

Each draw is a table over Q with perfbench-sized fractions (a/b with
|a| <= 10^12 and 1 <= b <= 10^4, and the constants -1, 0 and 1): an
associative six-tuple, exceptional or commutative, or a random unital
table of rank 2 to 4.  Its integral model over ZZ must keep every answer
that test_certificate_oracles.assert_q_to_z_through_the_model checks
against the Fraction loops: the associativity verdict and failing
triple, the standard involution with traces D t_i, and the
characteristic polynomial of left multiplication by an element with
integer model coordinates.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lowrank import QQ, CubicCoefficients, StructureConstants, build_algebra  # noqa: E402

from test_certificate_oracles import assert_q_to_z_through_the_model  # noqa: E402

RATIONALS = st.one_of(
    st.sampled_from([-1, 0, 1]),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**4)),
)


@st.composite
def q_tables(draw):
    """A table over Q: an exceptional (n, 0, m, n, 0, m) or commutative
    (b, c, 0, 0, y, z) six-tuple, or a unital table of rank 2 to 4 with
    random products off the unit."""
    kind = draw(st.sampled_from(("exceptional", "commutative", "random")))
    if kind == "exceptional":
        n, m = draw(RATIONALS), draw(RATIONALS)
        return build_algebra(CubicCoefficients(QQ, n, 0, m, n, 0, m))
    if kind == "commutative":
        b, c, y, z = (draw(RATIONALS) for _ in range(4))
        return build_algebra(CubicCoefficients(QQ, b, c, 0, 0, y, z))
    k = draw(st.integers(2, 4))
    unit = [[int(l == j) for l in range(k)] for j in range(k)]
    return StructureConstants(QQ, [
        [
            unit[max(i, j)] if min(i, j) == 0
            else [draw(RATIONALS) for _ in range(k)]
            for j in range(k)
        ]
        for i in range(k)
    ])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_q_to_z_through_the_integral_model(data):
    alg = data.draw(q_tables())
    x = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=alg.rank, max_size=alg.rank))
    assert_q_to_z_through_the_model(alg, [x])
