"""Property tests of the canonical forms on drawn index data (hypothesis).

The feedback canonical form is a fixed point of the pipeline: decoding the
system built from any index datum returns that datum and that system.
Index translation keeps the system dimensions that explicitation relates.
Drawn scrambles of generated systems, larger drawn systems under a time
cap, and scrambles with large entries, leave the indices and the canonical
system unchanged.  So do scrambles of
inputs well beyond the generators: permutation-only scrambles, sparse
systems, and degenerate shapes.
"""

import random
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dacscanon._chains import frobenius_form
from dacscanon.canonical import EmcfIndices, FbcfIndices, build_fbcf, fbcf, translate_indices
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf
from dacscanon.ratmat import RatMatrix, qq
from dacscanon.systems import Dacs, ExFbTransform, apply_exfb, explicitate, verify_exfb

MAX_STATES = 12
SETTINGS = settings(
    max_examples=50,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _index_list(max_blocks=2, max_index=3):
    return st.lists(st.integers(1, max_index), max_size=max_blocks).map(
        lambda lst: tuple(sorted(lst, reverse=True))
    )


@st.composite
def _frobenius_block(draw, max_size=2):
    k = draw(st.integers(0, max_size))
    entries = draw(st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k))
    M = RatMatrix([entries[i * k : (i + 1) * k] for i in range(k)], cols=k)
    return frobenius_form(M)[1]


@st.composite
def fbcf_indices(draw):
    A_rho = draw(_frobenius_block())
    f = FbcfIndices(
        eps_p=draw(_index_list()),
        eps_bar_p=draw(_index_list()),
        sigma_p=draw(_index_list()),
        sigma_bar_p=draw(_index_list()),
        eta_p=draw(_index_list()),
        n_rho=A_rho.rows,
        A_rho=A_rho,
        dead_u=draw(st.integers(0, 1)),
    )
    assume(f.n <= MAX_STATES)
    return f


@st.composite
def emcf_indices(draw):
    e = EmcfIndices(
        eps=draw(_index_list()),
        eps_bar=draw(_index_list()),
        A_nn=RatMatrix.zeros(*(2 * [draw(st.integers(0, 2))])),
        sigma=draw(_index_list()),
        delta=draw(st.integers(0, 2)),
        sigma_bar=draw(_index_list()),
        eta=draw(_index_list()),
        dead_u=draw(st.integers(0, 1)),
        dead_y=draw(st.integers(0, 1)),
    )
    assume(e.n <= MAX_STATES)
    return e


@SETTINGS
@given(f=fbcf_indices(), seed=st.integers(0, 10**6))
def test_canonical_form_is_a_fixed_point(f, seed):
    d = build_fbcf(f)
    _, got, d_can = fbcf(d)
    assert got == f
    assert d_can == d
    # and the indices survive an implicit-side scramble
    scrambled, _ = random_exfb_scramble(d, Seeded(seed, entry_bound=1))
    assert fbcf(scrambled)[1] == f


@SETTINGS
@given(e=emcf_indices())
def test_translate_indices_keeps_dimensions(e):
    f = translate_indices(e)
    # l = rank E + p with rank E = n - s; states and controls carry over
    assert (f.l, f.n, f.m) == (e.n - e.s + e.p, e.n, e.m)
    o, _ = explicitate(build_fbcf(f))
    assert (o.n, o.m, o.s, o.p) == (e.n, e.m, e.s, e.p)


@settings(SETTINGS, max_examples=20)
@given(
    system=st.integers(0, 10**6),
    scramble=st.integers(0, 2**32 - 1),
    entry_bound=st.sampled_from([1, 3]),
)
def test_indices_are_invariant_under_drawn_scrambles(system, scramble, entry_bound):
    d, built = random_fbcf(Seeded(system), bounds=(3, 4))
    scrambled, t_scr = random_exfb_scramble(d, Seeded(scramble, entry_bound=entry_bound))
    assert verify_exfb(d, scrambled, t_scr)
    t, got, d_can = fbcf(scrambled)
    assert got == built
    assert d_can == d
    assert verify_exfb(scrambled, d_can, t)


# Larger drawn systems (bounds (4, 5): up to about 50 states, where one
# fbcf takes well under 2 s on a 2-CPU host) under a fixed per-example time cap
@settings(SETTINGS, max_examples=4, deadline=timedelta(seconds=20))
@given(system=st.integers(0, 10**6), scramble=st.integers(0, 2**32 - 1))
def test_larger_drawn_systems_round_trip_under_a_time_cap(system, scramble):
    d, built = random_fbcf(Seeded(system), bounds=(4, 5))
    scrambled, t_scr = random_exfb_scramble(d, Seeded(scramble, entry_bound=1))
    assert verify_exfb(d, scrambled, t_scr)
    t, got, d_can = fbcf(scrambled)
    assert got == built
    assert d_can == d
    assert verify_exfb(scrambled, d_can, t)


@pytest.mark.parametrize("case", range(3))
def test_large_entry_scrambles_round_trip(case):
    # criterion-2 systems hidden behind scrambles with entries up to 9
    base = 900001 + 2 * case
    d, built = random_fbcf(Seeded(base), bounds=(3, 4))
    scrambled, t_scr = random_exfb_scramble(d, Seeded(base + 1, entry_bound=9))
    assert verify_exfb(d, scrambled, t_scr)
    t, got, d_can = fbcf(scrambled)
    assert got == built
    assert d_can == d
    assert verify_exfb(scrambled, d_can, t)


# ---------------------------------------------------------------------------
# inputs beyond the generators
# ---------------------------------------------------------------------------


def _decodes_stably(d, seed):
    """fbcf(d) with a verified certificate; a scramble with entries up to 2
    keeps its indices and canonical system.  Returns both."""
    t, f, d_can = fbcf(d)
    assert verify_exfb(d, d_can, t)
    scrambled, _ = random_exfb_scramble(d, Seeded(seed, entry_bound=2))
    t2, f2, d_can2 = fbcf(scrambled)
    assert (f2, d_can2) == (f, d_can)
    assert verify_exfb(scrambled, d_can2, t2)
    return f, d_can


def _random_dacs(rng, l, n, m, density=1.0):
    """Entries in [-3, 3]; each is nonzero with probability ``density``."""

    def matrix(rows, cols):
        entries = [
            [qq(rng.choice([-3, -2, -1, 1, 2, 3])) if rng.random() < density else qq(0)
             for _ in range(cols)]
            for _ in range(rows)
        ]
        return RatMatrix(entries, cols=cols)

    return Dacs(E=matrix(l, n), H=matrix(l, n), L=matrix(l, m))


def _permutation(rng, k):
    return RatMatrix.identity(k).take_rows(rng.sample(range(k), k))


@pytest.mark.parametrize("case", range(5))
def test_permutation_scrambles_round_trip(case):
    # criterion-2 systems behind pure row, state and input permutations
    base = 900001 + 2 * case
    d, built = random_fbcf(Seeded(base), bounds=(3, 4))
    rng = random.Random(case)
    t_scr = ExFbTransform(
        Q=_permutation(rng, d.l), P=_permutation(rng, d.n), F=RatMatrix.zeros(d.m, d.n),
        G=_permutation(rng, d.m),
    )
    scrambled = apply_exfb(d, t_scr)
    assert verify_exfb(d, scrambled, t_scr)
    assert _decodes_stably(scrambled, base) == (built, d)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_systems_decode(seed):
    rng = random.Random(seed)
    d = _random_dacs(rng, rng.randint(2, 6), rng.randint(2, 6), rng.randint(0, 3), density=0.3)
    _decodes_stably(d, seed)


@pytest.mark.parametrize("shape", [(1, 6, 1), (6, 1, 1), (2, 7, 0), (0, 3, 1), (3, 0, 2), (0, 0, 0)])
def test_extreme_shapes_decode(shape):
    _decodes_stably(_random_dacs(random.Random(str(shape)), *shape), 7)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("E", ["zero", "identity"])
def test_trivial_E_decodes(n, E):
    rng = random.Random(n)
    d = _random_dacs(rng, n, n, rng.randint(0, 2))
    E_n = RatMatrix.zeros(n, n) if E == "zero" else RatMatrix.identity(n)
    _decodes_stably(Dacs(E=E_n, H=d.H, L=d.L), n)
