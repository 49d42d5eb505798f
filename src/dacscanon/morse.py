"""Triangular and block-diagonal forms for linear systems with two input
kinds, plus the exact Sylvester machinery used to decouple them.

The triangular form splits the state into four parts along the invariant
subspaces (the compatible part V* ∩ W*, the rest of V*, the rest of W*, and
a completion), the inputs into the part that can act inside V* and the rest,
and the outputs into the reachable image and a completion.  In the adapted
coordinates a feedback stage and an output-injection stage, each a single
exact linear solve, zero out every block below the diagonal staircase.  The
normal form then removes the remaining coupling blocks with a state-space
similarity assembled from Sylvester solutions, each unique because the four
diagonal blocks' characteristic polynomials are proven pairwise coprime once
beforehand.  Only block 2's spectrum is an invariant, so exact pole placement
first puts block 1 and block 4 each at a single small integer eigenvalue
(block 3 too when it shares a root with block 2); the Sylvester solutions'
denominators divide resultants of the block polynomials, which stay small.

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


def _pencil_taylor(P0: RatMatrix, n_dyn: int, t: int, terms: int) -> List[RatMatrix]:
    """The first ``terms`` coefficients R_j of P(s)^-1 = sum_j (s - t)^j R_j,
    where P(s) = P0 - s J and J is the identity on the first ``n_dyn``
    coordinates and zero after.  P(s) = P(t) - (s - t) J, so the geometric
    series gives R_j = (P(t)^-1 J)^j P(t)^-1.  A singular P(t) raises
    InternalInvariantViolation: a prime block's pencil is unimodular."""
    if terms == 0:
        return []
    dyn = range(n_dyn)
    J = place(P0.rows, P0.rows, [(dyn, dyn, RatMatrix.identity(n_dyn))])
    R = [_inverse_or_violation(P0 - J.scale(qq(t)), "prime pencil is singular at s = %d" % t)]
    Pd = R[0].take_cols(dyn)
    while len(R) < terms:
        R.append(Pd * R[-1].take_rows(dyn))
    return R


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


def _coupling_corrections(
    o: Odecs2, d: BlockDims, g3: List[int], t1: int, t4: int
) -> Tuple[EmTransform, RatMatrix, RatMatrix]:
    """Output injection into block 1 and feedback from block 4 that make the
    later similarity stage able to zero B's block-(1,3) columns and C's
    block-(3,4) rows.

    Solves the two joint linear systems

        A1 T2 - T2 A3 - K1 C3 = A13,   T2 B3 + K1 D3 = -B13,
        A3 T5 - T5 A4 - B3 F3 = A34,   C3 T5 - D3 F3 = C34,

    both driven by the prime pencil P(s) = [[A3 - s I, B3], [C3, D3]].
    Blocks 1 and 4 sit at the single eigenvalues t1 and t4, so the first
    system is uniquely solvable when P(t1) is invertible and the second when
    P(t4) is, which holds because the middle block is prime (its pencil is
    unimodular); each solution needs only n1, respectively n4, Taylor terms
    of P(s)^-1 at t1, respectively t4.  Returns the (K, F) stage plus the T2,
    T5 blocks for the similarity."""
    A, B_w, C, D_w = o.merged()
    b1, _, b3, b4 = _state_blocks(d)
    y3 = list(range(d.p3))
    n1, n3, n4, p3 = d.n1, d.n3, d.n4, d.p3
    A1 = A.submatrix(b1, b1)
    A3 = A.submatrix(b3, b3)
    A4 = A.submatrix(b4, b4)
    B3 = B_w.submatrix(b3, g3)
    C3 = C.submatrix(y3, b3)
    D3 = D_w.submatrix(y3, g3)
    if d.m3 != p3:
        raise InternalInvariantViolation("prime block has unequal input/output counts")
    m3 = len(g3)
    P0 = vstack([hstack([A3, B3]), hstack([C3, D3])])

    # The first system says [T2 K1] P(s) = [(A1 - s I) T2 - A13, -B13] for
    # every s.  Expanding P(s)^-1 = sum_j (s - t1)^j R_j(t1) and evaluating
    # at s = A1 from the left kills the unknown-bearing term, and
    # (A1 - t1 I)^n1 = 0 ends the sum:
    #     [T2 K1] = -sum_{j<n1} (A1 - t1 I)^j [A13 B13] R_j(t1).
    A13 = A.submatrix(b1, b3)
    B13 = B_w.submatrix(b1, g3)
    N1 = A1 - RatMatrix.identity(n1).scale(qq(t1))
    acc1 = RatMatrix.zeros(n1, n3 + m3)
    pow1 = hstack([A13, B13])
    for j, R in enumerate(_pencil_taylor(P0, n3, t1, n1)):
        acc1 = acc1 + pow1 * R
        if j + 1 < n1:
            pow1 = N1 * pow1
    T2 = acc1.take_cols(range(n3)).scale(qq(-1))
    K1 = acc1.take_cols(range(n3, n3 + m3)).scale(qq(-1))
    if A1 * T2 - T2 * A3 - K1 * C3 != A13 or T2 * B3 + K1 * D3 != -B13:
        raise InternalInvariantViolation("block-(1,3) correction failed")

    # The second system says P(s) [[T5], [-F3]] = [[A34], [C34]] +
    # [[T5], [0]] (A4 - s I) for every s; evaluating at s = A4 from the
    # right in the same way:
    #     [[T5], [-F3]] = sum_{j<n4} R_j(t4) [[A34], [C34]] (A4 - t4 I)^j.
    A34 = A.submatrix(b3, b4)
    C34 = C.submatrix(y3, b4)
    N4 = A4 - RatMatrix.identity(n4).scale(qq(t4))
    acc2 = RatMatrix.zeros(n3 + m3, n4)
    pow2 = vstack([A34, C34])
    for j, R in enumerate(_pencil_taylor(P0, n3, t4, n4)):
        acc2 = acc2 + R * pow2
        if j + 1 < n4:
            pow2 = pow2 * N4
    T5 = acc2.take_rows(range(n3))
    F3 = -acc2.take_rows(range(n3, n3 + m3))
    if A3 * T5 - T5 * A4 - B3 * F3 != A34 or C3 * T5 - D3 * F3 != C34:
        raise InternalInvariantViolation("block-(3,4) correction failed")

    return _feedback_stage(o, [(g3, b4, F3)], [(b1, y3, K1)]), T2, T5


def _similarity_stage(
    o: Odecs2, d: BlockDims, T2: RatMatrix, T5: RatMatrix, q2: List, q4: List
) -> EmTransform:
    """Unipotent state similarity removing the remaining coupling blocks,
    given the characteristic polynomials q2 = chi_2 of block 2 and
    q4 = (s - t4)^n4 of block 4.  Blocks 1 and 4 sit at t1 != t4, neither a
    root of chi_2, so the Sylvester solutions' denominators divide small
    resultants."""
    A = o.A
    b1, b2, b3, b4 = _state_blocks(d)
    A1, A2, A4 = (A.submatrix(b, b) for b in (b1, b2, b4))
    T1 = _sylvester_closed_form(A1, A2, A.submatrix(b1, b2), q2)
    T4 = _sylvester_closed_form(A2, A4, A.submatrix(b2, b4), q4)
    A14 = A.submatrix(b1, b4) + T1 * A.submatrix(b2, b4) + T2 * A.submatrix(b3, b4)
    T3 = _sylvester_closed_form(A1, A4, A14, q4)
    S = place(
        o.n,
        o.n,
        [(b1, b2, T1), (b1, b3, T2), (b1, b4, T3), (b2, b4, T4), (b3, b4, T5)],
        base=RatMatrix.identity(o.n),
    )
    eye = RatMatrix.identity
    return EmTransform.coordinates(S, eye(o.m + o.s), eye(o.p), o.m)


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
    t_corr, T2, T5 = _coupling_corrections(o_bar, d, g3, t1, t4)
    o_corr = apply_em(o_bar, t_corr)
    t_sim = _similarity_stage(o_corr, d, T2, T5, chi2, poly_from_roots([t4] * d.n4))
    o_mnf = apply_em(o_corr, t_sim)
    _assert_diagonal(o_mnf, d, m1u, s1, blocks)
    total = em_compose(m.transform, em_compose(em_compose(t_spec, t_corr), t_sim))
    if not verify_em(m.source, o_mnf, total):
        raise InternalInvariantViolation("normal-form certificate failed to verify")
    return MnfSystem(system=o_mnf, dims=d, transform=total, groups=m.groups, chi2=chi2)
