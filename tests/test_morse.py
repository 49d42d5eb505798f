"""Triangular form, normal form, and Sylvester solver tests."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from dacscanon import morse, ratmat
from dacscanon.canonical import emcf, fbcf
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf
from dacscanon.ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    hstack,
    inverse,
    place,
    qq,
    rank,
    vstack,
)
from dacscanon.systems import (
    EmTransform,
    Odecs2,
    apply_em,
    explicitate,
    verify_em,
)
from dacscanon.geometry import invariant_subspaces
from dacscanon._chains import charpoly, poly_from_roots, poly_gcd
from dacscanon.cli import parse_system
from dacscanon.morse import (
    MtfSystem,
    NonUniqueWarning,
    NoSolution,
    emnf,
    emtf,
    mnf,
    mtf,
    solve_constrained_sylvester,
    solve_sylvester,
)
from test_systems import random_em, random_matrix, random_odecs


FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "circuit.json"


def mat(rows, cols=None):
    return RatMatrix([[qq(x) for x in r] for r in rows], cols=cols)


# -- Sylvester ----------------------------------------------------------------


def test_sylvester_scalar():
    X = solve_sylvester(mat([[0]]), mat([[1]]), mat([[-2]]))
    assert X == mat([[2]])


def test_sylvester_no_solution():
    with pytest.raises(NoSolution):
        solve_sylvester(RatMatrix.zeros(1, 1), RatMatrix.zeros(1, 1), mat([[1]]))


def test_sylvester_disjoint_spectra_exact():
    rng = random.Random(7)
    A = mat([[1, 1], [0, 2]])
    B = mat([[3, 1, 0], [0, 4, 1], [0, 0, 5]])
    for _ in range(5):
        C = random_matrix(rng, 2, 3)
        X = solve_sylvester(A, B, C)
        assert A * X - X * B == C


def test_sylvester_nonunique_warns():
    with pytest.warns(NonUniqueWarning):
        X = solve_sylvester(RatMatrix.zeros(1, 1), RatMatrix.zeros(1, 1), RatMatrix.zeros(1, 1))
    assert X == RatMatrix.zeros(1, 1)


def test_constrained_vacuous_matches_plain():
    A = mat([[1, 1], [0, 2]])
    B = mat([[5]])
    C = mat([[3], [4]])
    assert solve_constrained_sylvester(A, B, C) == solve_sylvester(A, B, C)
    assert solve_constrained_sylvester(
        A, B, C, right_zero=RatMatrix.zeros(1, 0), left_zero=RatMatrix.zeros(0, 2)
    ) == solve_sylvester(A, B, C)


def test_constrained_construct_then_solve():
    rng = random.Random(8)
    for _ in range(5):
        A = random_matrix(rng, 3, 3)
        B = random_matrix(rng, 2, 2)
        X0 = random_matrix(rng, 3, 2)
        R = random_matrix(rng, 2, 2)
        L = random_matrix(rng, 1, 3)
        X = solve_constrained_sylvester(
            A,
            B,
            A * X0 - X0 * B,
            right_zero=R,
            target_r=X0 * R,
            left_zero=L,
            target_l=L * X0,
        )
        assert A * X - X * B == A * X0 - X0 * B
        assert X * R == X0 * R
        assert L * X == L * X0


def test_constrained_conflicting_constraints():
    Z = RatMatrix.zeros(1, 1)
    with pytest.raises(NoSolution):
        solve_constrained_sylvester(
            Z, Z, Z,
            right_zero=RatMatrix.identity(1), target_r=RatMatrix.zeros(1, 1),
            left_zero=RatMatrix.identity(1), target_l=mat([[1]]),
        )


# -- triangular form ----------------------------------------------------------


def group_sizes(o):
    """(m1u, s1): how the first input group splits between the two kinds."""
    inv = invariant_subspaces(o)
    v_space_basis = vstack([RatMatrix.zeros(o.m, o.s), RatMatrix.identity(o.s)])
    s1 = 0
    for j in range(inv.U_star.dim):
        col = inv.U_star.basis.col(j)
        if all(col[i] == 0 for i in range(o.m)):
            s1 += 1
    return inv.U_star.dim - s1, s1


def blocks_of(r):
    d = r.dims
    offs = [0, d.n1, d.n1 + d.n2, d.n1 + d.n2 + d.n3, d.n1 + d.n2 + d.n3 + d.n4]
    return [list(range(offs[i], offs[i + 1])) for i in range(4)]


def check_triangular_pattern(r):
    o = r.system
    d = r.dims
    A, B_w, C, D_w = o.merged()
    b1, b2, b3, b4 = blocks_of(r)
    m1u, s1 = group_sizes(o)
    assert r.groups == (m1u, s1)
    g1 = list(range(m1u)) + list(range(o.m, o.m + s1))
    g3 = list(range(m1u, o.m)) + list(range(o.m + s1, o.m + o.s))
    y3, y4 = list(range(d.p3)), list(range(d.p3, o.p))
    for rows, cols in [(b2, b1), (b2, b3), (b3, b1), (b3, b2), (b4, b1), (b4, b2), (b4, b3)]:
        assert A.submatrix(rows, cols).is_zero()
    assert B_w.take_rows(b2 + b4).is_zero()
    assert B_w.submatrix(b3, g1).is_zero()
    assert C.submatrix(y3, b1 + b2).is_zero()
    assert C.submatrix(y4, b1 + b2 + b3).is_zero()
    assert D_w.take_cols(g1).is_zero()
    assert D_w.take_rows(y4).is_zero()
    return b1, b2, b3, b4, g1, g3, y3, y4


def check_block_properties(r):
    """Controllability of block 1, observability of block 4, primeness of
    block 3, via independent rank/subspace tests."""
    o = r.system
    d = r.dims
    A, B_w, C, D_w = o.merged()
    b1, b2, b3, b4, g1, g3, y3, y4 = check_triangular_pattern(r)
    A1 = A.submatrix(b1, b1)
    B1 = B_w.submatrix(b1, g1)
    ctrb = []
    cur = B1
    for _ in range(max(d.n1, 1)):
        ctrb.append(cur)
        cur = A1 * cur
    assert rank(hstack(ctrb)) == d.n1
    A4 = A.submatrix(b4, b4)
    C4 = C.submatrix(y4, b4)
    obs = []
    cur = C4
    for _ in range(max(d.n4, 1)):
        obs.append(cur)
        cur = cur * A4
    assert rank(vstack(obs)) == d.n4
    # block 3 is prime: no output-nulling states, no useless inputs, and the
    # conditioned/reachable pair fills everything
    m1u, s1 = group_sizes(o)
    sub = Odecs2(
        A.submatrix(b3, b3),
        o.B_u.submatrix(b3, range(m1u, o.m)),
        o.B_v.submatrix(b3, range(s1, o.s)),
        C.submatrix(y3, b3),
        o.D_u.submatrix(y3, range(m1u, o.m)),
    )
    inv3 = invariant_subspaces(sub)
    assert inv3.V_star.dim == 0
    assert inv3.U_star.dim == 0
    assert inv3.W_star.dim == sub.n
    assert inv3.Y_star.dim == sub.p


def test_mtf_random_systems():
    rng = random.Random(11)
    for n, m, p in [(3, 1, 1), (4, 2, 2), (3, 2, 1), (2, 1, 2)]:
        for _ in range(2):
            o = random_odecs(rng, n, m, 0, p)
            r = mtf(o)
            assert isinstance(r.transform, EmTransform) and r.transform.T_v.rows == 0
            assert verify_em(o, r.system, r.transform)
            inv = invariant_subspaces(o)
            assert r.dims == (inv.n1, inv.n2, inv.n3, inv.n4, inv.m1, inv.m3, inv.p3, inv.p4)
            check_block_properties(r)


def test_mtf_rejects_second_kind_inputs():
    rng = random.Random(12)
    o = random_odecs(rng, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        mtf(o)
    with pytest.raises(ValueError):
        mnf(emtf(o))


def tight_blocks_system(rng):
    """A system already in triangular coordinates with all four blocks
    nontrivial; returns it with its expected dimensions."""
    A12 = random_matrix(rng, 2, 1)
    A13 = random_matrix(rng, 2, 1)
    A14 = random_matrix(rng, 2, 1)
    A24 = random_matrix(rng, 1, 1)
    A34 = random_matrix(rng, 1, 1)
    A = vstack(
        [
            hstack([mat([[0, 1], [0, 0]]), A12, A13, A14]),
            hstack([RatMatrix.zeros(1, 2), mat([[3]]), RatMatrix.zeros(1, 1), A24]),
            hstack([RatMatrix.zeros(1, 3), mat([[0]]), A34]),
            hstack([RatMatrix.zeros(1, 4), mat([[0]])]),
        ]
    )
    B12 = random_matrix(rng, 2, 1)
    B = vstack(
        [
            hstack([mat([[0], [1]]), B12]),
            RatMatrix.zeros(1, 2),
            hstack([RatMatrix.zeros(1, 1), mat([[1]])]),
            RatMatrix.zeros(1, 2),
        ]
    )
    C34 = random_matrix(rng, 1, 1)
    C = vstack(
        [
            hstack([RatMatrix.zeros(1, 3), mat([[1]]), C34]),
            hstack([RatMatrix.zeros(1, 4), mat([[1]])]),
        ]
    )
    D = RatMatrix.zeros(2, 2)
    return Odecs2(A, B, RatMatrix.zeros(5, 0), C, D), (2, 1, 1, 1, 1, 1, 1, 1)


def test_mtf_dims_match_tight_construction():
    rng = random.Random(13)
    o, expected = tight_blocks_system(rng)
    inv = invariant_subspaces(o)
    assert (inv.n1, inv.n2, inv.n3, inv.n4, inv.m1, inv.m3, inv.p3, inv.p4) == expected
    r = mtf(o)
    assert tuple(r.dims) == expected
    check_block_properties(r)


def test_mtf_dims_invariant_under_scrambling():
    rng = random.Random(14)
    o, expected = tight_blocks_system(rng)
    for _ in range(3):
        t = random_em(rng, 5, 2, 0, 2)
        scrambled = apply_em(o, t)
        r = mtf(scrambled)
        assert tuple(r.dims) == expected
        assert verify_em(scrambled, r.system, r.transform)


def test_emtf_random_systems():
    rng = random.Random(15)
    for n, m, s, p in [(3, 1, 1, 1), (4, 2, 1, 2), (3, 1, 2, 1)]:
        for _ in range(2):
            o = random_odecs(rng, n, m, s, p)
            r = emtf(o)
            assert isinstance(r.transform, EmTransform)
            assert verify_em(o, r.system, r.transform)
            check_block_properties(r)
            W = inverse(r.transform.T_w)
            assert W.submatrix(range(m), range(m, m + s)).is_zero()


def test_emtf_with_no_second_kind_matches_mtf():
    rng = random.Random(16)
    o = random_odecs(rng, 3, 2, 0, 2)
    r1 = mtf(o)
    r2 = emtf(o)
    assert r1.system == r2.system
    assert r1.dims == r2.dims
    assert r1.transform == r2.transform
    assert mnf(r1) == emnf(r2)


# -- normal form --------------------------------------------------------------


def check_diagonal_pattern(r):
    b1, b2, b3, b4, g1, g3, y3, y4 = check_triangular_pattern(r)
    A, B_w, C, D_w = r.system.merged()
    for rows, cols in [(b1, b2), (b1, b3), (b1, b4), (b2, b4), (b3, b4)]:
        assert A.submatrix(rows, cols).is_zero()
    assert B_w.submatrix(b1, g3).is_zero()
    assert C.submatrix(y3, b4).is_zero()
    polys = [charpoly(A.submatrix(b, b)) for b in (b1, b2, b3, b4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert poly_gcd(polys[i], polys[j]) == [qq(1)]


def test_mnf_on_already_diagonal_system_is_identity():
    # a triangular-form system with no coupling blocks and disjoint block
    # spectra: the normal-form stages have nothing to do
    rng = random.Random(20)
    o, expected = tight_blocks_system(rng)
    base = mtf(o)
    d = base.dims
    first = mnf(base)
    diag = first.system
    wrapped = MtfSystem(
        system=diag,
        dims=d,
        transform=EmTransform.identity(5, 2, 0, 2),
        groups=first.groups,
        source=diag,
    )
    again = mnf(wrapped)
    assert again.system == diag
    t = again.transform
    assert t.T_x == RatMatrix.identity(5)
    assert t.TF_u.is_zero() and t.TK.is_zero()


def test_mnf_random_pipeline():
    rng = random.Random(17)
    for n, m, p in [(3, 1, 1), (4, 2, 2), (3, 2, 1)]:
        for _ in range(2):
            o = random_odecs(rng, n, m, 0, p)
            r = mnf(mtf(o))
            assert isinstance(r.transform, EmTransform) and r.transform.T_v.rows == 0
            assert verify_em(o, r.system, r.transform)
            check_diagonal_pattern(r)


def test_emnf_random_pipeline_and_identity_input_transform():
    rng = random.Random(18)
    for n, m, s, p in [(3, 1, 1, 1), (4, 2, 1, 2)]:
        o = random_odecs(rng, n, m, s, p)
        base = emtf(o)
        r = emnf(base)
        assert verify_em(o, r.system, r.transform)
        check_diagonal_pattern(r)
        # the normal-form stages add no input or output transform on top of
        # the triangular one
        assert r.transform.T_u == base.transform.T_u
        assert r.transform.T_v == base.transform.T_v
        assert r.transform.TR == base.transform.TR
        assert r.transform.T_y == base.transform.T_y


def test_mnf_rejects_non_triangular_input():
    rng = random.Random(19)
    o = random_odecs(rng, 3, 1, 0, 1)
    r = mtf(o)
    dense = random_odecs(rng, 3, 1, 0, 1)
    with pytest.raises(ValueError):
        mnf(
            MtfSystem(
                system=dense, dims=r.dims, transform=r.transform, groups=r.groups, source=o
            )
        )


def _criterion_2_case(case):
    base = 900001 + 2 * case
    d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
    return random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0]


def _counted(monkeypatch, name):
    """Patch morse's binding of ``name`` to count its calls."""
    calls, real = [], getattr(morse, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(morse, name, counting)
    return calls


@pytest.mark.parametrize("which", ["circuit", "case0"])
def test_emnf_proves_disjoint_spectra_once(monkeypatch, which):
    # characteristic polynomials of blocks 2, 1 and 4 only, once each: block
    # 3's spectrum is tested by invertibility, and the decoupling needs no
    # polynomial; at most one placement per block
    d = parse_system(str(FIXTURE)) if which == "circuit" else _criterion_2_case(0)
    tri = emtf(explicitate(d)[0])
    charpolys = _counted(monkeypatch, "charpoly")
    placements = _counted(monkeypatch, "pole_place")
    emnf(tri)
    b1, b2, _, b4 = morse._state_blocks(tri.dims)
    A = tri.system.A
    assert [args[0] for args in charpolys] == [A.submatrix(b, b) for b in (b2, b1, b4)]
    assert len(placements) <= 3


def test_decoupling_stage_inverts_each_pencil_once(monkeypatch):
    # the (57, 51, 11) ladder input, blocks (16, 2, 24, 9): one inverse of
    # the pencil P(t1) and one of P(t4), each (n2 + n3 + m3) square, for the
    # 16 and 9 Taylor terms of rows 1 and columns 4, and one of A4 - t1 I
    # for the corner's 16 terms
    d, _ = random_fbcf(Seeded(800001), bounds=(5, 6))
    tri = emtf(explicitate(random_exfb_scramble(d, Seeded(800002, entry_bound=1))[0])[0])
    assert tuple(tri.dims)[:4] == (16, 2, 24, 9)
    inside, inverses = [], []
    real_inverse, real_stage = ratmat.inverse, morse._decoupling_stage

    def counting_inverse(M):
        if inside:
            inverses.append(M.shape)
        return real_inverse(M)

    def stage(*args):
        inside.append(True)
        try:
            return real_stage(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(ratmat, "inverse", counting_inverse)
    monkeypatch.setattr(morse, "_decoupling_stage", stage)
    emnf(tri)
    size, n4 = tri.dims.n2 + tri.dims.n3 + tri.dims.m3, tri.dims.n4
    assert inverses == [(size, size), (size, size), (n4, n4)]


def _hand_built_emnf(A, B_u, C, D, dims, groups):
    """emnf of a hand-built triangular form; checks the result and returns
    the characteristic polynomials of its four diagonal blocks."""
    o = Odecs2(mat(A), mat(B_u), RatMatrix.zeros(len(A), 0), mat(C), mat(D))
    tri = MtfSystem(
        system=o,
        dims=dims,
        transform=EmTransform.identity(o.n, o.m, 0, o.p),
        groups=groups,
        source=o,
    )
    r = emnf(tri)
    assert verify_em(o, r.system, r.transform)
    check_diagonal_pattern(r)
    polys = [charpoly(r.system.A.submatrix(b, b)) for b in morse._state_blocks(dims)]
    assert r.chi2 == polys[1]
    return polys


def test_emnf_targets_skip_the_roots_of_block_2():
    # block 2 has the eigenvalues 0 and 1, the first two candidates of
    # 0, 1, -1, 2, ..., so block 1 goes to t1 = -1 and block 4 to t4 = 2
    A = [[5, 1, 2, 3], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 3]]
    dims = morse.BlockDims(n1=1, n2=2, n3=0, n4=1, m1=1, m3=0, p3=0, p4=1)
    polys = _hand_built_emnf(A, [[1], [0], [0], [0]], [[0, 0, 0, 1]], [[0]], dims, (1, 0))
    assert polys == [
        poly_from_roots([-1]), poly_from_roots([0, 1]), [qq(1)], poly_from_roots([2])
    ]


# one state per block; group-1 input 0 drives block 1, group-3 input 1 drives
# the prime block 3 (pencil [[-s, 1], [1, 0]] when A3 = 0), output 0 sees
# block 3 and output 1 sees block 4
_ONE_STATE_DIMS = morse.BlockDims(n1=1, n2=1, n3=1, n4=1, m1=1, m3=1, p3=1, p4=1)


def _one_state_blocks(a2, a3):
    A = [[5, 1, 1, 1], [0, a2, 0, 1], [0, 0, a3, 1], [0, 0, 0, 7]]
    B_u = [[1, 1], [0, 0], [0, 1], [0, 0]]
    C = [[0, 0, 1, 1], [0, 0, 0, 1]]
    return _hand_built_emnf(A, B_u, C, [[0, 0], [0, 0]], _ONE_STATE_DIMS, (1, 0))


def test_emnf_targets_skip_the_roots_of_block_3():
    # chi_3 = s rules out 0 and is coprime to chi_2 = s - 3, so block 3
    # keeps its spectrum and blocks 1 and 4 go to 1 and -1
    polys = _one_state_blocks(3, 0)
    assert polys == [poly_from_roots(r) for r in ([1], [3], [0], [-1])]


def test_emnf_places_block_3_when_it_shares_a_root_with_block_2():
    # chi_2 = chi_3 = s: block 3 moves to the third integer that is no root
    # of chi_2, after t1 = 1 and t4 = -1
    polys = _one_state_blocks(0, 0)
    assert polys == [poly_from_roots(r) for r in ([1], [0], [2], [-1])]


def test_emnf_without_admissible_targets_raises(monkeypatch):
    # n2 + n3 + 3 candidates always hold the targets; running out is a
    # broken proof, not a user error
    monkeypatch.setattr(morse, "_poly_at", lambda p, t: qq(0))
    with pytest.raises(InternalInvariantViolation):
        _one_state_blocks(3, 0)


# -- coupling equations ---------------------------------------------------------


def _taylor_calls_met(monkeypatch):
    """Every (G, N, P0, n_dyn, t) the normal form solves on the circuit
    fixture and on criterion-2 cases 0-9: the rows of block 1, the columns
    of block 4 (transposed) and the corner."""
    met = []
    real = morse._taylor_left

    def recording(*args):
        met.append(args)
        return real(*args)

    monkeypatch.setattr(morse, "_taylor_left", recording)
    systems = [parse_system(str(FIXTURE))] + [_criterion_2_case(case) for case in range(10)]
    for d in systems:
        emnf(emtf(explicitate(d)[0]))
    monkeypatch.undo()
    return met


def _hand_built_pencils():
    # x1' = x2, x2' = u1, y1 = x1, y2 = 2 u2 (a prime block with a static
    # part), hidden by output injection K and feedback F, which keep the
    # pencil's J = diag(I, 0) shape
    base = mat([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 2]])
    K = mat([[1, 0, 1, 2], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    F = mat([[1, 0, 0, 0], [0, 1, 0, 0], [1, -1, 1, 0], [2, 0, 0, 1]])
    with_D = K * base * F
    assert not with_D.submatrix(range(2, 4), range(2, 4)).is_zero()
    return [
        (RatMatrix.zeros(0, 0), 0, 1),
        (mat([[2, 1], [1, 1]]), 0, -1),
        (with_D, 2, 0),
        (with_D, 2, 3),
    ]


def _hand_built_taylor_calls():
    """Each hand-built pencil and its transpose against a nilpotent N of
    0 to 3 rows (strictly upper triangular) and a drawn G."""
    rng = random.Random(11)
    calls = []
    for P0, n_dyn, t in _hand_built_pencils():
        for k in range(4):
            N = mat([[rng.randint(-3, 3) if j > i else 0 for j in range(k)] for i in range(k)], k)
            for P in (P0, P0.T):
                calls.append((random_matrix(rng, k, P.rows), N, P, n_dyn, t))
    return calls


def test_taylor_left_solves_its_defining_equation(monkeypatch):
    # X P(t) = N X J - G, that is A X J - X P0 = G for A = t I + N
    met = _taylor_calls_met(monkeypatch)
    assert len(met) == 3 * 11
    assert sum(1 for call in met if call[1].rows) >= 11
    for G, N, P0, n_dyn, t in met + _hand_built_taylor_calls():
        X = morse._taylor_left(G, N, P0, n_dyn, t)
        assert X.shape == G.shape
        size = P0.rows
        J = place(size, size, [(range(n_dyn), range(n_dyn), RatMatrix.identity(n_dyn))])
        A = N + RatMatrix.identity(N.rows).scale(qq(t))
        assert A * X * J - X * P0 == G


def test_decoupling_matches_the_public_sylvester_solver(monkeypatch):
    # T1, T4 and T3 from the Taylor series equal solve_sylvester's on the
    # stage's input, the corner's right-hand side read off the system after
    # the output injection K1 and feedback F3; fbcf solves no Sylvester
    # equation by the closed form
    stages, real = [], morse._decoupling_stage

    def recording(o, d, g3, t1, t4):
        t = real(o, d, g3, t1, t4)
        stages.append((o, d, g3, t))
        return t

    monkeypatch.setattr(morse, "_decoupling_stage", recording)
    closed_forms = _counted(monkeypatch, "_sylvester_closed_form")
    systems = [parse_system(str(FIXTURE))] + [_criterion_2_case(case) for case in range(10)]
    for d in systems:
        fbcf(d)
    assert closed_forms == []
    monkeypatch.undo()
    assert len(stages) == len(systems)
    for o, d, g3, t in stages:
        b1, b2, b3, b4 = morse._state_blocks(d)
        y3 = range(d.p3)
        F3 = t.TF_w.submatrix(g3, b4)
        K1 = t.TK.submatrix(b1, y3)
        corrected = apply_em(o, morse._feedback_stage(o, [(g3, b4, F3)], [(b1, y3, K1)])).A
        S = t.T_x
        T1, T2, T3, T4 = (S.submatrix(r, c) for r, c in ((b1, b2), (b1, b3), (b1, b4), (b2, b4)))
        block = corrected.submatrix
        A14 = block(b1, b4) + T1 * block(b2, b4) + T2 * block(b3, b4)
        assert T1 == solve_sylvester(block(b1, b1), block(b2, b2), block(b1, b2))
        assert T4 == solve_sylvester(block(b2, b2), block(b4, b4), block(b2, b4))
        assert T3 == solve_sylvester(block(b1, b1), block(b4, b4), A14)


# block 1 at one state driven by input 0, block 3 at one state with input 1
# and output 0; the block-3 pencil [[-s, b3], [c3, d3]] decides primeness
_NON_PRIME_DIMS = morse.BlockDims(n1=1, n2=0, n3=1, n4=0, m1=1, m3=1, p3=1, p4=0)


@pytest.mark.parametrize(
    "b3, c3, d3, stage",
    [
        (0, 1, 0, "_decoupling_stage"),  # det = 0, so P(t1) is singular
        (0, 0, 0, "_decoupling_stage"),
        (0, 0, 1, "_prime_canonical"),  # det = -s: P(t1) and P(t4) invertible
    ],
    ids=["singular_P_t1", "zero_pencil", "not_unimodular"],
)
def test_non_prime_block_3_raises_in_the_pipeline(b3, c3, d3, stage):
    o = Odecs2(
        mat([[2, 1], [0, 0]]), mat([[1, 1], [0, b3]]), RatMatrix.zeros(2, 0),
        mat([[0, c3]]), mat([[0, d3]]),
    )
    tri = MtfSystem(
        system=o,
        dims=_NON_PRIME_DIMS,
        transform=EmTransform.identity(2, 2, 0, 1),
        groups=(1, 0),
        source=o,
    )
    with pytest.raises(InternalInvariantViolation) as info:
        emcf(emnf(tri))
    assert stage in [entry.name for entry in info.traceback]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
