"""Differential oracle against sympy, a test-only dependency.

Rank, kernel dimension and the characteristic polynomial of drawn matrices
up to 6 x 6, with entries up to 10^30, must agree with ``sympy.Matrix``,
which shares no code with ``ratmat`` or ``_chains``.
"""

from fractions import Fraction

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dacscanon._chains import charpoly
from dacscanon.ratmat import RatMatrix, kernel_basis, rank

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
BIG = 10**30
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
SIZES = st.integers(0, 6)


def entries(draw, rows, cols):
    return [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


@st.composite
def drawn(draw, rows, cols):
    """rows x cols entries, of full or deficient rank (a product through a
    thinner inner dimension)."""
    inner = draw(SIZES)
    if inner >= min(rows, cols):
        return entries(draw, rows, cols)
    left = RatMatrix(entries(draw, rows, inner), cols=inner)
    return (left * RatMatrix(entries(draw, inner, cols), cols=cols)).to_lists()


def to_sympy(a, rows, cols):
    q = [Fraction(x) for r in a for x in r]
    return sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator) for x in q])


@SETTINGS
@given(st.data(), SIZES, SIZES)
def test_rank_and_kernel_dimension_match_sympy(data, rows, cols):
    a = data.draw(drawn(rows, cols))
    M, S = RatMatrix(a, cols=cols), to_sympy(a, rows, cols)
    assert rank(M) == S.rank()
    assert kernel_basis(M).dim == len(S.nullspace()) == cols - S.rank()


@SETTINGS
@given(st.data(), SIZES)
def test_charpoly_matches_sympy(data, n):
    a = data.draw(drawn(n, n))
    got = charpoly(RatMatrix(a, cols=n))
    want = to_sympy(a, n, n).charpoly().all_coeffs()[::-1]
    assert [Fraction(x) for x in got] == [Fraction(int(c.p), int(c.q)) for c in want]
