"""Wong sequences, invariant subspaces, duality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacscanon.geometry import _embed_top, _v_sequence, dualize, invariant_subspaces, wong_sequences
from dacscanon.ratmat import (
    RatMatrix,
    Subspace,
    hstack,
    image,
    kernel_basis,
    mat,
    orthogonal_complement,
    preimage,
    qq,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from dacscanon.systems import Dacs, Odecs2, explicitate

from test_systems import random_dacs, random_matrix, random_odecs


def at(seq, i):
    """seq[i] with conceptual padding past stabilization."""
    return seq[min(i, len(seq) - 1)]


def test_trivial_ode_wong():
    # E = I, L = 0, H invertible: every V_i is everything, every W_i is zero
    d = Dacs(E=RatMatrix.identity(3), H=mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), L=RatMatrix.zeros(3, 0))
    w = wong_sequences(d)
    assert w.V_star == Subspace.full(3) and len(w.V_seq) == 1
    assert w.W_star == Subspace.zero(3) and len(w.W_seq) == 1
    assert w.What_seq[0] == Subspace.zero(3)


def test_unconstrained_output_invariants():
    rng = random.Random(10)
    o = Odecs2(
        A=random_matrix(rng, 3, 3),
        B_u=random_matrix(rng, 3, 2),
        B_v=random_matrix(rng, 3, 1),
        C=RatMatrix.zeros(2, 3),
        D_u=RatMatrix.zeros(2, 2),
    )
    inv = invariant_subspaces(o)
    assert inv.V_star == Subspace.full(3)
    assert inv.Y_star == Subspace.zero(2)
    assert inv.U_star == Subspace.full(3)  # merged input count m + s = 3


@pytest.mark.parametrize("seed", range(10))
def test_monotone_and_stabilized(seed):
    rng = random.Random(700 + seed)
    d = random_dacs(rng, rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 2))
    w = wong_sequences(d)
    for a, b in zip(w.V_seq, w.V_seq[1:]):
        assert b.is_subspace_of(a) and b != a
    for a, b in zip(w.W_seq, w.W_seq[1:]):
        assert a.is_subspace_of(b) and a != b
    for a, b in zip(w.What_seq, w.What_seq[1:]):
        assert a.is_subspace_of(b) and a != b
    assert len(w.V_seq) <= d.n + 1 and len(w.W_seq) <= d.n + 1
    # limits are fixed points of their recursions
    ImL = image(d.L)
    assert w.V_star == preimage(d.H, subspace_sum(image(d.E * w.V_star.basis), ImL))
    assert w.W_star == preimage(d.E, subspace_sum(image(d.H * w.W_star.basis), ImL))
    assert w.What_seq[-1] == w.W_star


@pytest.mark.parametrize("seed", range(10))
def test_explicitation_preserves_sequences(seed):
    rng = random.Random(800 + seed)
    n = rng.randint(1, 5)
    d = random_dacs(rng, rng.randint(1, 5), n, rng.randint(0, 2))
    o, _ = explicitate(d)
    wd = wong_sequences(d)
    inv = invariant_subspaces(o)
    for i in range(n + 1):
        assert at(wd.V_seq, i) == at(inv.V_seq, i)
        assert at(wd.W_seq, i) == at(inv.W_seq, i)
    for i in range(n):  # What starts at index one
        assert at(wd.What_seq, i) == at(inv.What_seq, i)


@pytest.mark.parametrize("seed", range(6))
def test_state_decomposition_counts(seed):
    rng = random.Random(900 + seed)
    n, m, s, p = rng.randint(1, 5), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
    o = random_odecs(rng, n, m, s, p)
    inv = invariant_subspaces(o)
    assert inv.n1 + inv.n2 + inv.n3 + inv.n4 == n
    assert inv.m1 + inv.m3 == m + s
    assert inv.p3 + inv.p4 == p
    # n1 and n4 are read off the carried V* ∩ W* and V* + W*
    assert inv.V_cap_W.dim == inv.n1 and inv.V_plus_W.dim == n - inv.n4
    assert inv.V_cap_W.is_subspace_of(inv.V_star) and inv.V_cap_W.is_subspace_of(inv.W_star)
    assert inv.V_plus_W == subspace_sum(inv.V_star, inv.W_star)
    # U*, Y* match their defining formulas
    A, B_w, C, D_w = o.merged()
    BD = vstack([B_w, D_w])
    CD = hstack([C, D_w])
    embedded = Subspace.from_columns(vstack([inv.V_star.basis, RatMatrix.zeros(p, inv.V_star.dim)]))
    assert inv.U_star == preimage(BD, embedded)
    lifted = vstack(
        [
            hstack([inv.W_star.basis, RatMatrix.zeros(n, m + s)]),
            hstack([RatMatrix.zeros(m + s, inv.W_star.dim), RatMatrix.identity(m + s)]),
        ]
    )
    assert inv.Y_star == image(CD * lifted)


def test_dual_of_dual_and_self_dual():
    rng = random.Random(11)
    o = random_odecs(rng, 3, 2, 0, 2)
    assert dualize(dualize(o)) == o
    S = mat([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    sym = Odecs2(
        A=S, B_u=mat([[1, 0], [0, 1], [2, 0]]), B_v=RatMatrix.zeros(3, 0),
        C=mat([[1, 0, 2], [0, 1, 0]]), D_u=mat([[0, 1], [1, 0]]),
    )
    d = dualize(sym)
    assert d.A == sym.A and d.B_u == sym.B_u and d.C == sym.C and d.D_u == sym.D_u


@pytest.mark.parametrize("seed", range(8))
def test_duality_relations(seed):
    rng = random.Random(1000 + seed)
    n, m, s, p = rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
    o = random_odecs(rng, n, m, s, p)
    inv = invariant_subspaces(o)
    inv_d = invariant_subspaces(dualize(o))
    assert inv.V_star == orthogonal_complement(inv_d.W_star)
    assert inv.W_star == orthogonal_complement(inv_d.V_star)
    assert inv.U_star == orthogonal_complement(inv_d.Y_star)
    assert inv.Y_star == orthogonal_complement(inv_d.U_star)


def sparse_matrix(rng, rows, cols, bound=2, density=0.5):
    return RatMatrix(
        [[qq(rng.randint(-bound, bound)) if rng.random() < density else qq(0) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def sparse_odecs(rng, n, m, s, p, bound=2, density=0.5):
    """A general explicit system: B_v has no kernel structure and D_u is
    drawn like every other block."""
    blocks = [(n, n), (n, m), (n, s), (p, n), (p, m)]
    A, B_u, B_v, C, D_u = (sparse_matrix(rng, r, c, bound, density) for r, c in blocks)
    return Odecs2(A=A, B_u=B_u, B_v=B_v, C=C, D_u=D_u)


def forward_sequences(o):
    """V, W and What by the forward recursions, with no duality and no
    restriction: V_{k+1} = [A; C]^-1((V_k x 0) + Im [B_w; D_w]) and
    W_{k+1} = [A B_w]((W_k x R^mw) ∩ ker [C D_w])."""
    A, B_w, C, D_w = o.merged()
    n, p, mw = o.n, o.p, B_w.cols
    ImBD = image(vstack([B_w, D_w]))
    CD = hstack([C, D_w])

    def v_step(S):
        return preimage(vstack([A, C]), subspace_sum(image(vstack([S.basis, RatMatrix.zeros(p, S.dim)])), ImBD))

    def w_step(S):
        N_S = orthogonal_complement(S).basis.T
        both = kernel_basis(vstack([hstack([N_S, RatMatrix.zeros(N_S.rows, mw)]), CD]))
        return image(hstack([A, B_w]) * both.basis)

    def run(S, step):
        seq = [S]
        for _ in range(n + 1):
            nxt = step(seq[-1])
            if nxt == seq[-1]:
                return seq
            seq.append(nxt)
        raise AssertionError("no fixed point within n steps")

    return run(Subspace.full(n), v_step), run(Subspace.zero(n), w_step), run(image(o.B_v), w_step)


# (n, m, s, p): no states, no inputs, no outputs, v inputs only, then drawn
SHAPES = [(0, 1, 1, 1), (4, 0, 0, 2), (5, 2, 1, 0), (5, 0, 2, 2), (0, 0, 0, 0)]


@pytest.mark.parametrize("seed", range(30))
def test_invariant_subspaces_match_forward_recursions(seed):
    rng = random.Random(1100 + seed)
    if seed < len(SHAPES):
        n, m, s, p = SHAPES[seed]
    else:
        n, m, s, p = rng.randint(1, 7), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
    o = sparse_odecs(rng, n, m, s, p, bound=rng.choice([1, 2, 50]), density=rng.choice([0.3, 0.6, 1.0]))
    for system in (o, dualize(o)):
        inv = invariant_subspaces(system)
        assert (inv.V_seq, inv.W_seq, inv.What_seq) == forward_sequences(system)


ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-5, 5, max_denominator=4))


@st.composite
def restricted_recursions(draw):
    """(M, N, start) with M (n + q) x n, N (n + q) x k and start any subspace
    of Q^n, spanned by drawn columns."""
    n, q, k, j = (draw(st.integers(0, hi)) for hi in (5, 3, 3, 5))

    def matrix(rows, cols):
        return RatMatrix([draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)], cols=cols)

    return matrix(n + q, n), matrix(n + q, k), image(matrix(n, j))


@settings(max_examples=80, deadline=None, database=None)
@given(restricted_recursions())
def test_v_sequence_is_the_restricted_recursion(case):
    M, N, start = case
    n, q = M.cols, M.rows - M.cols
    seq = _v_sequence(M, N, start)
    assert seq[0] == start and len(seq) <= n + 1
    steps = [subspace_intersect(S, preimage(M, subspace_sum(_embed_top(S, q), image(N)))) for S in seq]
    # each term is the step of the one before, and the list ends at its
    # first fixed point
    assert steps[:-1] == seq[1:] and steps[-1] == seq[-1]
    assert all(a != b for a, b in zip(seq, seq[1:]))
    assert all(Subspace.from_columns(S.basis).basis == S.basis for S in seq)


if __name__ == "__main__":
    import sys

    pytest.main([__file__, "-q"])
    sys.exit(0)
