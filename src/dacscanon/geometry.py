"""Augmented Wong sequences and controlled/conditioned invariant subspaces.

For an implicit system (E, H, L) the three sequences

    V_0 = R^n,   V_{i+1} = H^{-1}(E V_i + Im L)
    W_0 = 0,     W_{i+1} = E^{-1}(H W_i + Im L)
    Whats_1 = ker E,  same recursion as W

stabilize within n steps (V is nested decreasing, W and What increasing).
For an explicit two-input-kind system the classical null-output controlled
invariant sequence V_i, its input companion U_i, the unknown-input
conditioned invariant sequence W_i with output companion Y_i, and the
variant What_i started at Im B_v are computed on the merged single-kind
form (A, B_w, C, D_w).  The limits of the implicit and explicit sequences
agree when the explicit system is an explicitation of the implicit one,
which is what makes these subspaces computable on either side of the
transformation and is checked in the tests.

Everything is exact; subspaces are kept in canonical echelon bases so
equality tests are plain comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    Subspace,
    _annihilator,
    hstack,
    image,
    kernel_basis,
    preimage,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from .systems import Dacs, Odecs2


@dataclass(frozen=True)
class WongResult:
    """Stabilized augmented Wong sequences of an implicit system.

    V_seq[i] is V_i; W_seq[i] is W_i; What_seq[i] is What_{i+1} (that
    sequence starts at index one with ker E).  Lists end at the first
    fixed point, which each recursion reaches within n steps.
    """

    V_seq: List[Subspace]
    W_seq: List[Subspace]
    What_seq: List[Subspace]
    V_star: Subspace
    W_star: Subspace


@dataclass(frozen=True)
class InvariantResult:
    """Invariant subspace sequences of an explicit system (merged form).

    Indexing matches WongResult.  The input and output companions of the
    limits are U* = {w : B_w w in V*, D_w w = 0} and
    Y* = [C D_w] (W* x R^(m+s)); V_cap_W and V_plus_W are V* ∩ W* and
    V* + W*.  The decomposition counts split the state, input and output
    spaces:

        n1 = dim(V* ∩ W*), n2 = dim V* - n1, n3 = dim W* - n1,
        n4 = n - dim(V* + W*), m1 = dim U*, m3 = (m+s) - m1,
        p3 = dim Y*, p4 = p - p3.
    """

    V_seq: List[Subspace]
    W_seq: List[Subspace]
    What_seq: List[Subspace]
    V_star: Subspace
    W_star: Subspace
    U_star: Subspace
    Y_star: Subspace
    V_cap_W: Subspace
    V_plus_W: Subspace
    n1: int
    n2: int
    n3: int
    n4: int
    m1: int
    m3: int
    p3: int
    p4: int


def _map_subspace(M: RatMatrix, S: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    return image(M * S.basis)


def _iterate(start: Subspace, step, limit: int) -> List[Subspace]:
    """Run a subspace recursion until its first fixed point."""
    seq = [start]
    while True:
        nxt = step(seq[-1])
        if nxt == seq[-1]:
            return seq
        seq.append(nxt)
        if len(seq) > limit + 1:
            raise InternalInvariantViolation("subspace sequence failed to stabilize in %d steps" % limit)


def wong_sequences(d: Dacs) -> WongResult:
    n = d.n
    ImL = image(d.L)

    def v_step(S):
        return preimage(d.H, subspace_sum(_map_subspace(d.E, S), ImL))

    def w_step(S):
        return preimage(d.E, subspace_sum(_map_subspace(d.H, S), ImL))

    V_seq = _iterate(Subspace.full(n), v_step, n)
    W_seq = _iterate(Subspace.zero(n), w_step, n)
    What_seq = _iterate(kernel_basis(d.E), w_step, n)
    if What_seq[-1] != W_seq[-1]:
        raise InternalInvariantViolation("W and What sequences reached different limits")
    return WongResult(V_seq, W_seq, What_seq, V_seq[-1], W_seq[-1])


def _embed_top(S: Subspace, below: int) -> Subspace:
    """S x {0} inside a taller ambient space.  Zero rows appended to a
    canonical basis leave it canonical."""
    return Subspace(S.ambient_dim + below, vstack([S.basis, RatMatrix.zeros(below, S.dim)]))


def _sum_with_full_inputs(S: Subspace, mw: int) -> RatMatrix:
    """Basis matrix of S x R^mw (columns: S-basis stacked over 0, then inputs)."""
    n = S.ambient_dim
    return vstack(
        [
            hstack([S.basis, RatMatrix.zeros(n, mw)]),
            hstack([RatMatrix.zeros(mw, S.dim), RatMatrix.identity(mw)]),
        ]
    )


def invariant_subspaces(o: Odecs2) -> InvariantResult:
    n, p = o.n, o.p
    A, B_w, C, D_w = o.merged()
    mw = B_w.cols
    AC = vstack([A, C])
    BD = vstack([B_w, D_w])
    CD = hstack([C, D_w])
    AB = hstack([A, B_w])
    ImBD = image(BD)

    def v_step(S):
        return preimage(AC, subspace_sum(_embed_top(S, p), ImBD))

    def w_step(S):
        # (S x R^mw) ∩ ker [C D_w] is the kernel of [[N_S, 0], [C, D_w]]
        N_S = _annihilator(S)
        both = kernel_basis(vstack([hstack([N_S, RatMatrix.zeros(N_S.rows, mw)]), CD]))
        return image(AB * both.basis)

    V_seq = _iterate(Subspace.full(n), v_step, n)
    W_seq = _iterate(Subspace.zero(n), w_step, n)
    What_seq = _iterate(image(o.B_v), w_step, n)
    if What_seq[-1] != W_seq[-1]:
        raise InternalInvariantViolation("W and What sequences reached different limits")

    V_star, W_star = V_seq[-1], W_seq[-1]
    U_star = preimage(BD, _embed_top(V_star, p))
    Y_star = image(CD * _sum_with_full_inputs(W_star, mw))
    V_cap_W = subspace_intersect(V_star, W_star)
    V_plus_W = subspace_sum(V_star, W_star)
    n1 = V_cap_W.dim
    n2 = V_star.dim - n1
    n3 = W_star.dim - n1
    n4 = n - V_plus_W.dim
    m1 = U_star.dim
    p3 = Y_star.dim
    return InvariantResult(
        V_seq=V_seq,
        W_seq=W_seq,
        What_seq=What_seq,
        V_star=V_star,
        W_star=W_star,
        U_star=U_star,
        Y_star=Y_star,
        V_cap_W=V_cap_W,
        V_plus_W=V_plus_W,
        n1=n1,
        n2=n2,
        n3=n3,
        n4=n4,
        m1=m1,
        m3=mw - m1,
        p3=p3,
        p4=p - p3,
    )


def dualize(o: Odecs2) -> Odecs2:
    """Dual of the merged form: (A, B_w, C, D_w) -> (A^T, C^T, B_w^T, D_w^T).

    The result is a single-input-kind system (s = 0) whose inputs are the
    outputs of o and vice versa.
    """
    A, B_w, C, D_w = o.merged()
    return Odecs2(
        A=A.T,
        B_u=C.T,
        B_v=RatMatrix.zeros(o.n, 0),
        C=B_w.T,
        D_u=D_w.T,
    )
