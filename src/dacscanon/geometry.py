"""Augmented Wong sequences and controlled/conditioned invariant subspaces.

For an implicit system (E, H, L) the three sequences

    V_0 = R^n,   V_{i+1} = H^{-1}(E V_i + Im L)
    W_0 = 0,     W_{i+1} = E^{-1}(H W_i + Im L)
    Whats_1 = ker E,  same recursion as W

stabilize within n steps (V is nested decreasing, W and What increasing).
For an explicit system's merged form (A, B_w, C, D_w), the null-output
controlled invariant V_i, the unknown-input conditioned invariant W_i and
What_i started at Im B_v come from one restricted recursion
S_{k+1} = {x in S_k : M x in (S_k x 0) + Im N}, run on the system for V
and on its dual for the orthogonal complements of W and What.  The limits
on both sides agree when the explicit system explicitates the implicit
one, which the tests check.

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
    orthogonal_complement,
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


def _v_sequence(M: RatMatrix, N: RatMatrix, start: Subspace) -> List[Subspace]:
    """S_0 = start, S_{k+1} = {x in S_k : M x in (S_k x 0) + Im N} up to its
    first fixed point (Wonham 1985, ch. 4).  With K the canonical basis of
    S_k and Z an annihilator of (S_k x 0) + Im N, S_{k+1} = K ker(Z M K): an
    elimination with dim S_k columns, canonical as it stands because K is
    the identity on its leading rows."""
    n = start.ambient_dim
    ImN = image(N)

    def step(S):
        K = S.basis
        Z = _annihilator(subspace_sum(_embed_top(S, M.rows - n), ImN))
        return Subspace(n, K * kernel_basis(Z * (M * K)).basis)

    return _iterate(start, step, n)


def invariant_subspaces(o: Odecs2) -> InvariantResult:
    """V, W and What of the merged form, each by ``_v_sequence``.

    V_{k+1} = [A; C]^-1((V_k x 0) + Im [B_w; D_w]) decreases from R^n, so
    restricting its step to V_k changes nothing.  W_{k+1} = [A B_w]((W_k x
    R^(m+s)) ∩ ker [C D_w]) increases, from 0 and (What) from Im B_v, which
    lies in What_1 because D_w is zero on the v inputs.  By (S1 ∩ S2)^⊥ =
    S1^⊥ + S2^⊥ and (M S)^⊥ = [M^T]^-1(S^⊥), W_{k+1}^⊥ = [A^T; B_w^T]^-1
    ((W_k^⊥ x 0) + Im [C^T; D_w^T]) ⊆ W_k^⊥: step by step the V recursion
    of dualize(o), started at R^n and at ker B_v^T (Morse 1973).
    """
    n, p = o.n, o.p
    A, B_w, C, D_w = o.merged()
    BD = vstack([B_w, D_w])
    CD = hstack([C, D_w])
    V_seq = _v_sequence(vstack([A, C]), BD, Subspace.full(n))
    dual = (vstack([A.T, B_w.T]), CD.T)
    W_seq = [orthogonal_complement(S) for S in _v_sequence(*dual, Subspace.full(n))]
    What_seq = [orthogonal_complement(S) for S in _v_sequence(*dual, kernel_basis(o.B_v.T))]
    if What_seq[-1] != W_seq[-1]:
        raise InternalInvariantViolation("W and What sequences reached different limits")

    V_star, W_star = V_seq[-1], W_seq[-1]
    U_star = preimage(BD, _embed_top(V_star, p))
    Y_star = image(hstack([C * W_star.basis, D_w]))  # [C D_w](W* x R^(m+s))
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
        m3=B_w.cols - m1,
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
