"""Triangular and block-diagonal forms for linear systems with two input
kinds, plus exact solvers for Sylvester equations.

The triangular form splits the state into four parts along the invariant
subspaces (the compatible part V* ∩ W*, the rest of V*, the rest of W*, and
a completion), the inputs into the part that can act inside V* and the rest,
and the outputs into the reachable image and a completion.  In the adapted
coordinates a feedback stage and an output-injection stage, each a single
exact linear solve, zero out every block below the diagonal staircase.

The normal form then makes the diagonal blocks' spectra pairwise disjoint.
Only block 2's spectrum is an invariant, so exact pole placement puts block
1 and block 4 each at a single small integer eigenvalue t1 and t4 (block 3
too when it shares a root with block 2).  One stage then removes all five
coupling blocks by output injection into block 1, feedback from block 4
and a unipotent state similarity.  As A1 - t1 I and A4 - t4 I are
nilpotent, each coupling equation is solved by a finite Taylor series at
t1 or t4: the rows of block 1 and the columns of block 4 take one inverse
each of the pencil of blocks 2 and 3 there, the corner one of A4 - t1 I.
No characteristic polynomial enters, and every solution is unique.

Both input kinds are handled in merged form; only the *second* kind may mix
into the first through the input transform, never the reverse, so the
certificates keep the lower-block-triangular input structure throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import List, NamedTuple, Optional, Tuple

from ._chains import NotControllable, charpoly, pole_place, poly_from_roots, poly_gcd
from .geometry import invariant_subspaces
from .ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    Subspace,
    _inverse_or_violation,
    _kron,
    _unvec,
    _vec,
    block_diag,
    complement,
    hstack,
    is_invertible,
    kernel_basis,
    place,
    qq,
    rank,
    rank_rref,
    right_inverse,
    solve,
    solve_left,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from .systems import (
    EmTransform,
    Odecs2,
    apply_em,
    em_compose,
    verify_em,
)


class NoSolution(ValueError):
    """The (constrained) Sylvester system is inconsistent."""


class NonUniqueWarning(UserWarning):
    """The Sylvester solution is not unique; the first echelon solution was
    returned."""


class BlockDims(NamedTuple):
    n1: int
    n2: int
    n3: int
    n4: int
    m1: int
    m3: int
    p3: int
    p4: int


@dataclass(frozen=True)
class MtfSystem:
    """A system in triangular form together with its certificate.

    ``transform`` maps ``source`` to ``system``.  ``groups`` holds the
    input-group sizes (m1u, s1): of the first input group, m1u inputs are
    of the first kind and s1 of the second.  The later stages read both, so
    a hand-built instance must supply them; neither takes part in ``==``.
    """

    system: Odecs2
    dims: BlockDims
    transform: EmTransform
    groups: Tuple[int, int] = field(compare=False)
    source: Odecs2 = field(compare=False, repr=False)


@dataclass(frozen=True)
class MnfSystem:
    """A system in block-diagonal normal form together with its certificate.

    ``groups`` is as in MtfSystem.  ``chi2`` is the characteristic
    polynomial of block 2, whose Frobenius form the canonical stage builds
    from it.  Neither takes part in ``==``.
    """

    system: Odecs2
    dims: BlockDims
    transform: EmTransform
    groups: Tuple[int, int] = field(compare=False)
    chi2: List = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# Sylvester machinery
# ---------------------------------------------------------------------------


def _sylvester_operator(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Matrix of X -> A X - X B under column-major vectorization."""
    return _kron(RatMatrix.identity(B.rows), A) - _kron(B.T, RatMatrix.identity(A.rows))


def _matrix_poly_eval(p: List, A: RatMatrix) -> RatMatrix:
    """p(A) for an ascending coefficient list, by Horner's rule."""
    M = RatMatrix.zeros(A.rows, A.rows)
    for c in reversed(p):
        M = M * A + RatMatrix.identity(A.rows).scale(c)
    return M


def _sylvester_closed_form(A: RatMatrix, B: RatMatrix, C: RatMatrix, q: List) -> RatMatrix:
    """The unique X with A X - X B = C, given q = charpoly(B) coprime to the
    characteristic polynomial of A.

    Multiplying X (sI - B) = (sI - A) X + C by adj(sI - B) = sum_k N_k s^k
    (N_{d-1} = I, N_{k-1} = B N_k + q_k I) and evaluating at s = A from the
    left leaves q(A) X = sum_k A^k C N_k, summed here by Horner's rule.  A
    singular q(A) or a failed check raises InternalInvariantViolation."""
    d = B.rows
    S, N = C, RatMatrix.identity(d)
    for k in range(d - 1, 0, -1):
        N = B * N + RatMatrix.identity(d).scale(q[k])
        S = A * S + C * N
    X = _inverse_or_violation(_matrix_poly_eval(q, A), "Sylvester spectra are not disjoint") * S
    if A * X - X * B != C:
        raise InternalInvariantViolation("closed-form Sylvester solution failed")
    return X


def solve_sylvester(A: RatMatrix, B: RatMatrix, C: RatMatrix) -> RatMatrix:
    """Exact X with A X - X B = C.

    Raises NoSolution if inconsistent; warns NonUniqueWarning (and returns the
    first echelon solution) when the operator is singular but consistent.  The
    solution is unique exactly when the characteristic polynomials of A and B
    are coprime.
    """
    if A.rows != A.cols or B.rows != B.cols:
        raise ValueError("Sylvester coefficients must be square")
    if C.rows != A.rows or C.cols != B.rows:
        raise ValueError("right-hand side has shape %s, expected %dx%d" % (C.shape, A.rows, B.rows))
    q = charpoly(B)
    if poly_gcd(charpoly(A), q) == [qq(1)]:
        return _sylvester_closed_form(A, B, C, q)
    M = _sylvester_operator(A, B)
    x = solve(M, _vec(C))
    if x is None:
        raise NoSolution("Sylvester equation is inconsistent")
    if rank(M) < M.cols:
        warnings.warn("Sylvester solution is not unique", NonUniqueWarning, stacklevel=2)
    return _unvec(x, A.rows, B.rows)


def solve_constrained_sylvester(
    A: RatMatrix,
    B: RatMatrix,
    C: RatMatrix,
    right_zero: Optional[RatMatrix] = None,
    target_r: Optional[RatMatrix] = None,
    left_zero: Optional[RatMatrix] = None,
    target_l: Optional[RatMatrix] = None,
) -> RatMatrix:
    """Exact X with A X - X B = C, X*right_zero = target_r, left_zero*X = target_l.

    Omitted targets default to zero matrices (the constraints then pin the
    named products to zero, hence the parameter names).  Raises NoSolution if
    the joint linear system is inconsistent.
    """
    if A.rows != A.cols or B.rows != B.cols:
        raise ValueError("Sylvester coefficients must be square")
    nA, nB = A.rows, B.rows
    if C.rows != nA or C.cols != nB:
        raise ValueError("right-hand side has shape %s, expected %dx%d" % (C.shape, nA, nB))
    rows = [_sylvester_operator(A, B)]
    rhs = [_vec(C)]
    if right_zero is not None:
        if right_zero.rows != nB:
            raise ValueError("right constraint must have %d rows" % nB)
        if target_r is None:
            target_r = RatMatrix.zeros(nA, right_zero.cols)
        rows.append(_kron(right_zero.T, RatMatrix.identity(nA)))
        rhs.append(_vec(target_r))
    if left_zero is not None:
        if left_zero.cols != nA:
            raise ValueError("left constraint must have %d columns" % nA)
        if target_l is None:
            target_l = RatMatrix.zeros(left_zero.rows, nB)
        rows.append(_kron(RatMatrix.identity(nB), left_zero))
        rhs.append(_vec(target_l))
    M = vstack(rows)
    x = solve(M, vstack(rhs))
    if x is None:
        raise NoSolution("constrained Sylvester system is inconsistent")
    if rank(M) < M.cols:
        warnings.warn(
            "constrained Sylvester solution is not unique", NonUniqueWarning, stacklevel=2
        )
    return _unvec(x, nA, nB)


# ---------------------------------------------------------------------------
# triangular form
# ---------------------------------------------------------------------------


def _state_blocks(d: BlockDims) -> List[List[int]]:
    n1, n2, n3, n4 = d.n1, d.n2, d.n3, d.n4
    offs = [0, n1, n1 + n2, n1 + n2 + n3, n1 + n2 + n3 + n4]
    return [list(range(offs[i], offs[i + 1])) for i in range(4)]


def _v_space(m: int, s: int) -> Subspace:
    """The second-kind directions of the merged input space (u, v)."""
    v = range(m, m + s)
    return Subspace.from_columns(place(m + s, s, [(v, range(s), RatMatrix.identity(s))]))


def _feedback_stage(o: Odecs2, F_blocks=(), K_blocks=()) -> EmTransform:
    """Identity certificate for o with the merged feedback F_w (rows w = (u,
    v)) and the output injection K placed from blocks; with every
    coordinate change the identity, TF_w = F_w and TK = K."""
    n, w, p = o.n, o.m + o.s, o.p
    eye = RatMatrix.identity
    return EmTransform(eye(n), eye(w), eye(p), place(w, n, F_blocks), place(n, p, K_blocks), o.m)


def _static_pattern(rows: int, cols: int, delta: int) -> RatMatrix:
    """The rows x cols pattern [[0, 0], [0, I_delta]]."""
    r, c = range(rows - delta, rows), range(cols - delta, cols)
    return place(rows, cols, [(r, c, RatMatrix.identity(delta))])


def _static_normalizer(D: RatMatrix) -> Tuple[RatMatrix, RatMatrix, int]:
    """(T_y, T_u, delta) with T_y D T_u^{-1} = [[0, 0], [0, I_delta]]."""
    p = D.rows
    delta, R, Qy = rank_rref(D)
    Rd = R.take_rows(range(delta))
    Tu_inv = hstack([kernel_basis(Rd).basis, right_inverse(Rd)])
    T_u = _inverse_or_violation(Tu_inv, "static rank factorization failed")
    T_y = RatMatrix.identity(p).take_rows(list(range(delta, p)) + list(range(delta))) * Qy
    if T_y * D * Tu_inv != _static_pattern(p, D.cols, delta):
        raise InternalInvariantViolation("static block did not normalize")
    return T_y, T_u, delta


def _input_groups(m: int, s: int, m1u: int, s1: int) -> Tuple[List[int], List[int]]:
    g1 = list(range(m1u)) + list(range(m, m + s1))
    g3 = list(range(m1u, m)) + list(range(m + s1, m + s))
    return g1, g3


def _stage0(o: Odecs2) -> Tuple[EmTransform, BlockDims, int, int]:
    """Coordinate changes adapted to the invariant subspaces."""
    inv = invariant_subspaces(o)
    d = BlockDims(inv.n1, inv.n2, inv.n3, inv.n4, inv.m1, inv.m3, inv.p3, inv.p4)
    n, m, s, p = o.n, o.m, o.s, o.p

    vw = inv.V_cap_W
    basis_x = hstack(
        [
            vw.basis,
            complement(vw, inv.V_star),
            complement(vw, inv.W_star),
            complement(inv.V_plus_W, Subspace.full(n)),
        ]
    )
    T_x = _inverse_or_violation(basis_x, "state blocks do not assemble to a basis")

    v_space = _v_space(m, s)
    u_v = subspace_intersect(inv.U_star, v_space)
    t_u1 = complement(u_v, inv.U_star)
    t_u3 = complement(subspace_sum(inv.U_star, v_space), Subspace.full(m + s))
    t_v1 = u_v.basis
    t_v3 = complement(u_v, v_space)
    basis_w = hstack([t_u1, t_u3, t_v1, t_v3])
    m1u, s1 = t_u1.cols, t_v1.cols
    not_a_basis = "input groups do not assemble to a basis"
    if m1u + t_u3.cols != m or s1 + t_v3.cols != s:
        raise InternalInvariantViolation(not_a_basis)
    T_w = _inverse_or_violation(basis_w, not_a_basis)
    if not basis_w.submatrix(range(m), range(m, m + s)).is_zero():
        raise InternalInvariantViolation("second-kind inputs leaked into the first kind")

    basis_y = hstack([inv.Y_star.basis, complement(inv.Y_star, Subspace.full(p))])
    T_y = _inverse_or_violation(basis_y, "output blocks do not assemble to a basis")

    return EmTransform.coordinates(T_x, T_w, T_y, m), d, m1u, s1


def _assert_stage0(o: Odecs2, d: BlockDims, g1: List[int]) -> None:
    _, B_w, C, D_w = o.merged()
    lower = list(range(d.n1, o.n))
    if not B_w.submatrix(lower, g1).is_zero():
        raise InternalInvariantViolation("group-1 inputs act outside the first block")
    if not D_w.take_cols(g1).is_zero():
        raise InternalInvariantViolation("group-1 inputs feed through")
    y4 = list(range(d.p3, o.p))
    if not D_w.take_rows(y4).is_zero():
        raise InternalInvariantViolation("feedthrough leaves the reachable output block")
    if not C.submatrix(y4, range(d.n1 + d.n2 + d.n3)).is_zero():
        raise InternalInvariantViolation("unreachable outputs see blocks 1-3")


def _f_stage(o: Odecs2, d: BlockDims, g3: List[int]) -> Tuple[Odecs2, EmTransform]:
    A, B_w, C, D_w = o.merged()
    rows34 = list(range(d.n1 + d.n2, o.n))
    cols12 = list(range(d.n1 + d.n2))
    y3 = list(range(d.p3))
    coeff = vstack([B_w.submatrix(rows34, g3), D_w.submatrix(y3, g3)])
    rhs = -vstack([A.submatrix(rows34, cols12), C.submatrix(y3, cols12)])
    sol = solve(coeff, rhs)
    if sol is None:
        raise InternalInvariantViolation("feedback stage is unsolvable")
    t = _feedback_stage(o, [(g3, cols12, sol)])
    return apply_em(o, t), t


def _k_stage(o: Odecs2, d: BlockDims, g3: List[int]) -> Tuple[Odecs2, EmTransform]:
    A, B_w, C, D_w = o.merged()
    _, b2, b3, b4 = _state_blocks(d)
    y3 = list(range(d.p3))
    coeff = hstack([C.submatrix(y3, b3), D_w.submatrix(y3, g3)])
    rows24 = b2 + b4
    sol = solve_left(coeff, -hstack([A.submatrix(rows24, b3), B_w.submatrix(rows24, g3)]))
    if sol is None:
        raise InternalInvariantViolation("output-injection stage is unsolvable")
    t = _feedback_stage(o, K_blocks=[(rows24, y3, sol)])
    return apply_em(o, t), t


def _d_normalize(
    o: Odecs2, d: BlockDims, m1u: int
) -> Tuple[Odecs2, EmTransform]:
    """Input/output changes on group 3 bringing the feedthrough block to
    [[0, 0], [0, I]]."""
    T_y3, T_u3, _ = _static_normalizer(o.D_u.submatrix(range(d.p3), range(m1u, o.m)))
    eye = RatMatrix.identity
    t = EmTransform.coordinates(
        eye(o.n),
        block_diag([eye(m1u), T_u3, eye(o.s)]),
        block_diag([T_y3, eye(o.p - d.p3)]),
        o.m,
    )
    return apply_em(o, t), t


def _assert_triangular(
    o: Odecs2, d: BlockDims, m1u: int, s1: int, normalized: bool = True
) -> None:
    A, B_w, C, D_w = o.merged()
    b1, b2, b3, b4 = _state_blocks(d)
    g1, _ = _input_groups(o.m, o.s, m1u, s1)
    y3 = list(range(d.p3))
    y4 = list(range(d.p3, o.p))
    zero_blocks = [
        (b2, b1), (b2, b3), (b3, b1), (b3, b2), (b4, b1), (b4, b2), (b4, b3),
    ]
    for rows, cols in zero_blocks:
        if not A.submatrix(rows, cols).is_zero():
            raise InternalInvariantViolation("state coupling block is not zero")
    if not B_w.take_rows(b2 + b4).is_zero():
        raise InternalInvariantViolation("inputs act on blocks 2 or 4")
    if not B_w.submatrix(b3, g1).is_zero():
        raise InternalInvariantViolation("group-1 inputs act on block 3")
    if not C.submatrix(y3, b1 + b2).is_zero():
        raise InternalInvariantViolation("reachable outputs see blocks 1-2")
    if not C.submatrix(y4, b1 + b2 + b3).is_zero():
        raise InternalInvariantViolation("unreachable outputs see blocks 1-3")
    if not D_w.take_cols(g1).is_zero() or not D_w.take_rows(y4).is_zero():
        raise InternalInvariantViolation("feedthrough outside the group-3 block")
    if normalized:
        D3 = o.D_u.submatrix(y3, range(m1u, o.m))
        if D3 != _static_pattern(d.p3, D3.cols, rank(D3)):
            raise InternalInvariantViolation("feedthrough block is not normalized")


def _require_single_kind(o: Odecs2, stage: str) -> None:
    """The ValueError of the single-kind entry points for s != 0."""
    if o.s != 0:
        raise ValueError("%s expects no second-kind inputs; use em%s" % (stage, stage[1:]))


def mtf(o: Odecs2) -> MtfSystem:
    """Triangular form of a single-input-kind system: :func:`emtf` on an
    Odecs2 with s = 0, so the certificate is an EmTransform with empty
    v-blocks (the classical Morse action)."""
    _require_single_kind(o, "mtf")
    return emtf(o)


def emtf(o: Odecs2) -> MtfSystem:
    """Triangular form with both input kinds; the input transform never mixes
    second-kind inputs into the first kind."""
    t0, d, m1u, s1 = _stage0(o)
    o1 = apply_em(o, t0)
    g1, g3 = _input_groups(o.m, o.s, m1u, s1)
    _assert_stage0(o1, d, g1)
    o2, t1 = _f_stage(o1, d, g3)
    o3, t2 = _k_stage(o2, d, g3)
    o4, t3 = _d_normalize(o3, d, m1u)
    total = em_compose(em_compose(em_compose(t0, t1), t2), t3)
    _assert_triangular(o4, d, m1u, s1)
    if not verify_em(o, o4, total):
        raise InternalInvariantViolation("triangular-form certificate failed to verify")
    return MtfSystem(system=o4, dims=d, transform=total, groups=(m1u, s1), source=o)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def _integer_candidate(k: int) -> int:
    """The k-th integer of the order 0, 1, -1, 2, -2, ..."""
    return (k + 1) // 2 if k % 2 else -(k // 2)


def _poly_at(p: List, t: int):
    """p(t) by Horner's rule, coefficients low degree first."""
    v = qq(0)
    for c in reversed(p):
        v = v * t + c
    return v


def _disjoint_spectra_stage(
    o: Odecs2, d: BlockDims, g1: List[int], g3: List[int]
) -> Tuple[EmTransform, List[RatMatrix], List, int, int]:
    """Feedback and output injection (preserving the triangular pattern) that
    make the four diagonal blocks' characteristic polynomials pairwise
    coprime; returns it with the diagonal blocks it leaves, block 2's
    polynomial chi_2, and the eigenvalues t1 and t4 it gives blocks 1 and 4.

    Only block 2's spectrum is an invariant.  Feedback puts block 1 at the
    single eigenvalue t1 and output injection puts block 4 at t4, the first
    two integers of 0, 1, -1, 2, -2, ... that are roots of neither chi_2 nor
    chi_3.  Block 3 keeps its spectrum unless gcd(chi_2, chi_3) != 1; then
    chi_3 does not constrain t1 and t4, and feedback puts block 3 at t3, the
    next integer that is no root of chi_2.  Pairwise coprimality follows from
    those evaluations, t1 != t4 (!= t3) and the one gcd.  A block already at
    its target is left alone, so the stage is the identity on its own output.
    chi_2 and chi_3 have at most n2 + n3 roots, so n2 + n3 + 3 candidates
    always suffice.  chi_3 is never formed: t is a root of it exactly when
    A3 - t I is singular, and gcd(chi_2, chi_3) = 1 exactly when chi_2(A3)
    is invertible (its eigenvalues are chi_2 at those of A3)."""
    A, B_w, C, _ = o.merged()
    b1, b2, b3, b4 = _state_blocks(d)
    y4 = list(range(d.p3, o.p))
    blocks = [A.submatrix(b, b) for b in (b1, b2, b3, b4)]
    chi2, A3, eye3 = charpoly(blocks[1]), blocks[2], RatMatrix.identity(d.n3)
    place3 = not is_invertible(_matrix_poly_eval(chi2, A3))
    candidates = map(_integer_candidate, range(d.n2 + d.n3 + 3))
    admissible = (
        t
        for t in candidates
        if _poly_at(chi2, t) != 0 and (place3 or is_invertible(A3 - eye3.scale(qq(t))))
    )
    need = 3 if place3 else 2
    targets = list(islice(admissible, need))
    if len(targets) < need:
        raise InternalInvariantViolation("no admissible integer poles for the normal form")
    t1, t4 = targets[:2]
    B1, B3, C4 = B_w.submatrix(b1, g1), B_w.submatrix(b3, g3), C.submatrix(y4, b4)
    F_blocks, K_blocks = [], []
    try:
        if charpoly(blocks[0]) != poly_from_roots([t1] * d.n1):
            F1 = pole_place(blocks[0], B1, [t1] * d.n1)
            F_blocks.append((g1, b1, F1))
            blocks[0] = blocks[0] + B1 * F1
        if place3:
            F3 = pole_place(A3, B3, [targets[2]] * d.n3)
            F_blocks.append((g3, b3, F3))
            blocks[2] = A3 + B3 * F3
        if charpoly(blocks[3]) != poly_from_roots([t4] * d.n4):
            K4 = pole_place(blocks[3].T, C4.T, [t4] * d.n4).T
            K_blocks.append((b4, y4, K4))
            blocks[3] = blocks[3] + K4 * C4
    except NotControllable as exc:
        raise InternalInvariantViolation(
            "triangular form lost block controllability/observability"
        ) from exc
    return _feedback_stage(o, F_blocks, K_blocks), blocks, chi2, t1, t4


def _taylor_left(G: RatMatrix, N: RatMatrix, P0: RatMatrix, n_dyn: int, t: int) -> RatMatrix:
    """The X with X P(t) = N X J - G for a nilpotent N, where P(s) = P0 - s J
    and J is the identity on the first ``n_dyn`` coordinates and zero after.
    For A = t I + N this is A X J - X P0 = G.

    With R = P(t)^-1 the equation reads X = (N X J - G) R; substituting it
    into itself gives X = -sum_j N^j G (R J)^j R, which ends at j = N.rows
    because N is nilpotent.  The terms are Y_0 = G R and Y_{j+1} = N Y_j J R,
    so one inverse serves them all.  A singular P(t) or a failed check raises
    InternalInvariantViolation."""
    if N.rows == 0:
        return RatMatrix.zeros(0, P0.rows)
    dyn = range(n_dyn)
    J = place(P0.rows, P0.rows, [(dyn, dyn, RatMatrix.identity(n_dyn))])
    Pt = P0 - J.scale(qq(t))
    R = _inverse_or_violation(Pt, "pencil is singular at s = %d" % t)
    R_dyn = R.take_rows(dyn)
    Y = X = G * R
    for _ in range(N.rows - 1):
        Y = N * Y.take_cols(dyn) * R_dyn
        X = X + Y
    X = -X
    if X * Pt != N * X * J - G:
        raise InternalInvariantViolation("coupling solution failed to verify")
    return X


def _decoupling_stage(o: Odecs2, d: BlockDims, g3: List[int], t1: int, t4: int) -> EmTransform:
    """Output injection K1 into block 1, feedback F3 from block 4 and a
    unipotent state similarity S that together zero every coupling block,
    given blocks 1 and 4 at the single eigenvalues t1 and t4.

    Row block 1 and column block 4 each solve one equation in the pencil
    P(s) = P0 - s J with P0 = diag(A2, [[A3, B3], [C3, D3]]):

        A1 [T1 T2 K1] J - [T1 T2 K1] P0 = [A12 A13 B13],
        P0 [T4; T5; -F3] - J [T4; T5; -F3] A4 = [A24; A34; C34],

    the second by :func:`_taylor_left` on its transpose.  Their blocks are
    six of the seven coupling identities, such as A1 T1 - T1 A2 = A12 and
    T2 B3 + K1 D3 = -B13.  P(t1) and P(t4) are invertible, because t1 and t4
    are no roots of chi_2 and block 3 is prime (its pencil is unimodular),
    so both solutions are unique.  The seventh is the corner's,
    A1 T3 - T3 A4 = A14 + [T1 T2 K1] [A24; A34; C34]: its right-hand side is
    block (1, 4) after the corrections and the other similarity blocks,
    whose terms in F3 add up to (B13 + T2 B3 + K1 D3) F3 = 0.  Applying the
    corrections before S gives the certificate (S, I, I, F3, S K1), and
    S K1 = K1 because S's first block column is the identity's."""
    if d.m3 != d.p3:
        raise InternalInvariantViolation("prime block has unequal input/output counts")
    A, B_w, C, D_w = o.merged()
    b1, b2, b3, b4 = _state_blocks(d)
    b23, y3, eye = b2 + b3, list(range(d.p3)), RatMatrix.identity
    prime = vstack(
        [
            hstack([A.submatrix(b3, b3), B_w.submatrix(b3, g3)]),
            hstack([C.submatrix(y3, b3), D_w.submatrix(y3, g3)]),
        ]
    )
    P0 = block_diag([A.submatrix(b2, b2), prime])
    A1, A4 = A.submatrix(b1, b1), A.submatrix(b4, b4)
    N1 = A1 - eye(d.n1).scale(qq(t1))
    N4 = A4 - eye(d.n4).scale(qq(t4))
    G4 = vstack([A.submatrix(b23, b4), C.submatrix(y3, b4)])
    X = _taylor_left(hstack([A.submatrix(b1, b23), B_w.submatrix(b1, g3)]), N1, P0, len(b23), t1)
    Z = _taylor_left(-G4.T, N4.T, P0.T, len(b23), t4).T
    T3 = _taylor_left(A.submatrix(b1, b4) + X * G4, N1, A4, d.n4, t1)
    dyn, ctl = range(len(b23)), range(len(b23), P0.rows)
    S = place(
        o.n,
        o.n,
        [(b1, b23, X.take_cols(dyn)), (b1, b4, T3), (b23, b4, Z.take_rows(dyn))],
        base=eye(o.n),
    )
    w = o.m + o.s
    F = place(w, o.n, [(g3, b4, -Z.take_rows(ctl))])
    return EmTransform(S, eye(w), eye(o.p), F, place(o.n, o.p, [(b1, y3, X.take_cols(ctl))]), o.m)


def _assert_diagonal(o: Odecs2, d: BlockDims, m1u: int, s1: int, blocks: List[RatMatrix]) -> None:
    _assert_triangular(o, d, m1u, s1, normalized=False)
    A, B_w, C, _ = o.merged()
    b1, b2, b3, b4 = _state_blocks(d)
    _, g3 = _input_groups(o.m, o.s, m1u, s1)
    y3 = list(range(d.p3))
    for rows, cols in [(b1, b2), (b1, b3), (b1, b4), (b2, b4), (b3, b4)]:
        if not A.submatrix(rows, cols).is_zero():
            raise InternalInvariantViolation("coupling block survived decoupling")
    if not B_w.submatrix(b1, g3).is_zero():
        raise InternalInvariantViolation("group-3 inputs still act on block 1")
    if not C.submatrix(y3, b4).is_zero():
        raise InternalInvariantViolation("reachable outputs still see block 4")
    if [A.submatrix(b, b) for b in (b1, b2, b3, b4)] != blocks:
        raise InternalInvariantViolation("diagonal blocks left the proven-coprime ones")


def mnf(m: MtfSystem) -> MnfSystem:
    """Block-diagonal normal form of a single-input-kind triangular form:
    :func:`emnf` on a system with s = 0."""
    _require_single_kind(m.system, "mnf")
    return emnf(m)


def emnf(m: MtfSystem) -> MnfSystem:
    """Two-input-kind normal form; the composed certificate maps
    ``m.source``, the system the triangular form was computed from.  The
    extra stages use no input transform at all, so the certificate stays
    lower-block-triangular."""
    o, d = m.system, m.dims
    m1u, s1 = m.groups
    try:
        _assert_triangular(o, d, m1u, s1, normalized=False)
    except InternalInvariantViolation as exc:
        raise ValueError("input system is not in triangular form") from exc
    g1, g3 = _input_groups(o.m, o.s, m1u, s1)
    t_spec, blocks, chi2, t1, t4 = _disjoint_spectra_stage(o, d, g1, g3)
    o_bar = apply_em(o, t_spec)
    t_dec = _decoupling_stage(o_bar, d, g3, t1, t4)
    o_mnf = apply_em(o_bar, t_dec)
    _assert_diagonal(o_mnf, d, m1u, s1, blocks)
    total = em_compose(m.transform, em_compose(t_spec, t_dec))
    if not verify_em(m.source, o_mnf, total):
        raise InternalInvariantViolation("normal-form certificate failed to verify")
    return MnfSystem(system=o_mnf, dims=d, transform=total, groups=m.groups, chi2=chi2)
