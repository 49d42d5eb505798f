"""Wong sequences, invariant subspaces, duality."""

from __future__ import annotations

import random

import pytest

from dacscanon.geometry import dualize, invariant_subspaces, wong_sequences
from dacscanon.ratmat import (
    RatMatrix,
    Subspace,
    hstack,
    image,
    kernel_basis,
    mat,
    orthogonal_complement,
    preimage,
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


if __name__ == "__main__":
    import sys

    pytest.main([__file__, "-q"])
    sys.exit(0)
