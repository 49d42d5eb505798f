"""Canonical forms under explicit-side and implicit-side feedback equivalence.

The block-diagonal normal form produced by :mod:`dacscanon.morse` still
contains arbitrary matrices inside its four diagonal blocks.  This module
finishes the classification:

* block 1 (controllable, no outputs, both input kinds) goes to a two-kind
  Brunovsky form: integrator chains terminated by a first-kind input
  (lengths ``eps``) or a second-kind input (lengths ``eps_bar``),
* block 2 (no inputs, no outputs) is replaced by the rational canonical
  (Frobenius) representative of its similarity class,
* block 3 (prime) becomes chains terminated by inputs and observed at their
  heads, plus a static identity between the last ``delta`` inputs and
  outputs (indices ``sigma``, ``delta``, ``sigma_bar``),
* block 4 (observable, no inputs) becomes output chains with observability
  indices ``eta``.

The resulting explicit canonical form is a complete invariant; translating
its indices and freeing the second-kind inputs back into states yields the
implicit-side feedback canonical form, a differential-algebraic system made
of six kinds of elementary blocks.  :func:`fbcf` runs the whole pipeline on
a Dacs and converts the accumulated explicit certificate into an implicit
one, which is verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ._chains import (
    NotControllable,
    NotObservable,
    _chain_diag,
    _frobenius,
    _head_selectors,
    _reversed_chains,
    _tail_selectors,
    brunovsky_single,
    functional_chains,
)
from .geometry import _v_sequence, invariant_subspaces
from .morse import (
    MnfSystem,
    MtfSystem,
    _feedback_stage,
    _input_groups,
    _state_blocks,
    _static_normalizer,
    emnf,
    emtf,
)
from .ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    Subspace,
    block_diag,
    complement,
    hstack,
    image,
    inverse,
    is_invertible,
    place,
    solve_left,
    subspace_intersect,
    vstack,
)
from .systems import (
    Dacs,
    EmTransform,
    ExFbTransform,
    ExplicitationRecord,
    Odecs2,
    apply_em,
    em_compose,
    explicitate,
    verify_em,
    verify_exfb,
)

__all__ = [
    "NotPrime",
    "NotControllable",
    "NotObservable",
    "EmcfIndices",
    "FbcfIndices",
    "brunovsky_two_inputs",
    "prime_canonical",
    "observable_dual_canonical",
    "emcf",
    "EmcfRun",
    "emcf_run",
    "translate_indices",
    "build_fbcf",
    "FbcfRun",
    "fbcf_run",
    "fbcf",
]


class NotPrime(ValueError):
    """The 4-tuple fails one of the prime-system criteria."""


# ---------------------------------------------------------------------------
# index records
# ---------------------------------------------------------------------------


def _check_index_list(name: str, lst: Tuple[int, ...]) -> None:
    if any(k < 1 for k in lst):
        raise ValueError("%s entries must be >= 1" % name)
    if list(lst) != sorted(lst, reverse=True):
        raise ValueError("%s must be nonincreasing" % name)


@dataclass(frozen=True)
class EmcfIndices:
    """Complete invariant of a two-input-kind system under equivalence.

    ``eps``/``eps_bar`` are the chain lengths of the controllable
    unobserved part (first/second kind), ``A_nn`` the Frobenius
    representative of the uncontrollable unobserved dynamics, ``sigma``/
    ``delta``/``sigma_bar`` the prime-part data (``delta`` = rank of the
    static coupling), and ``eta`` the observability indices of the
    unactuated observable part.  ``dead_u``/``dead_v``/``dead_y`` count
    inputs and outputs that touch nothing; they carry no dynamics but are
    needed to reassemble systems of the original width.
    """

    eps: Tuple[int, ...]
    eps_bar: Tuple[int, ...]
    A_nn: RatMatrix
    sigma: Tuple[int, ...]
    delta: int
    sigma_bar: Tuple[int, ...]
    eta: Tuple[int, ...]
    dead_u: int = 0
    dead_v: int = 0
    dead_y: int = 0

    def __post_init__(self):
        for name in ("eps", "eps_bar", "sigma", "sigma_bar", "eta"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            _check_index_list(name, getattr(self, name))
        if self.A_nn.rows != self.A_nn.cols:
            raise ValueError("A_nn must be square")
        if min(self.delta, self.dead_u, self.dead_v, self.dead_y) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def n(self) -> int:
        return (
            sum(self.eps)
            + sum(self.eps_bar)
            + self.A_nn.rows
            + sum(self.sigma)
            + sum(self.sigma_bar)
            + sum(self.eta)
        )

    @property
    def m(self) -> int:
        return len(self.eps) + len(self.sigma) + self.delta + self.dead_u

    @property
    def s(self) -> int:
        return len(self.eps_bar) + len(self.sigma_bar) + self.dead_v

    @property
    def p(self) -> int:
        return len(self.sigma) + self.delta + len(self.sigma_bar) + len(self.eta) + self.dead_y


@dataclass(frozen=True)
class FbcfIndices:
    """Block data of the implicit-side feedback canonical form."""

    eps_p: Tuple[int, ...]
    eps_bar_p: Tuple[int, ...]
    sigma_p: Tuple[int, ...]
    sigma_bar_p: Tuple[int, ...]
    eta_p: Tuple[int, ...]
    n_rho: int
    A_rho: RatMatrix
    dead_u: int = 0

    def __post_init__(self):
        for name in ("eps_p", "eps_bar_p", "sigma_p", "sigma_bar_p", "eta_p"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            _check_index_list(name, getattr(self, name))
        if self.A_rho.rows != self.A_rho.cols or self.A_rho.rows != self.n_rho:
            raise ValueError("A_rho must be square of size n_rho")
        if self.dead_u < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def l(self) -> int:
        return (
            sum(self.eps_p)
            + sum(k - 1 for k in self.eps_bar_p)
            + self.n_rho
            + sum(self.sigma_p)
            + sum(self.sigma_bar_p)
            + sum(self.eta_p)
        )

    @property
    def n(self) -> int:
        return (
            sum(self.eps_p)
            + sum(self.eps_bar_p)
            + self.n_rho
            + sum(k - 1 for k in self.sigma_p)
            + sum(self.sigma_bar_p)
            + sum(k - 1 for k in self.eta_p)
        )

    @property
    def m(self) -> int:
        return len(self.eps_p) + len(self.sigma_p) + self.dead_u


# ---------------------------------------------------------------------------
# the two-kind chain engine
# ---------------------------------------------------------------------------


def _two_kind_chains(
    A: RatMatrix, B_u: RatMatrix, B_v: RatMatrix
) -> Tuple[List[int], List[int], RatMatrix, RatMatrix, RatMatrix]:
    """Chain decomposition of (A, [B_u B_v]) with second-kind priority.

    Each chain is the tower [tau, tau A, ..., tau A^k] of a row functional
    tau with tau A^l [B_u B_v] = 0 for l <= k-2 (see functional_chains);
    its drive row gamma = tau A^{k-1} [B_u B_v] decides the kind.  Chains
    are processed longest first and every new drive row is reduced against
    the already-fixed ones: subtracting lam times the shifted functional
    tau_i A^{k_i - k}, which stays inside the same annihilator filtration,
    subtracts lam * tower_i[k_i - k + j] from row j of the tower.  So the
    surviving entries of gamma are intrinsic: a nonzero second-kind entry
    makes the chain second-kind, with the smallest such column as pivot.

    Returns (eps, eps_bar, T_x, T_w, TF_w): the chain lengths of each kind,
    T_x the stacked towers without their tails (first-kind chains first,
    lengths nonincreasing within each kind), T_w the merged input transform
    whose rows are [u-chain drive rows, u-completions, v-chain drive rows,
    v-completions], and TF_w = T_w F_w the merged feedback killing the
    tails, in the new input coordinates.  T_w is block lower triangular:
    first-kind rows never involve second-kind columns.
    """
    n, m, s = A.rows, B_u.cols, B_v.cols
    B_w = hstack([B_u, B_v])
    reduced: List[Tuple[List[RatMatrix], int, RatMatrix]] = []  # (tower, pivot, gamma)
    for tower in functional_chains(A, B_w):  # longest first; may raise NotControllable
        k = len(tower) - 1
        gamma = tower[k - 1] * B_w
        for tower_i, piv_i, g_i in reduced:
            lam = gamma[0, piv_i] / g_i[0, piv_i]
            if lam != 0:
                d = len(tower_i) - 1 - k
                tower = [r - tower_i[d + j].scale(lam) for j, r in enumerate(tower)]
                gamma = gamma - g_i.scale(lam)
        # second kind takes priority; the smallest such column is the pivot
        hits = [j for j in range(m, m + s) if gamma[0, j]] or [j for j in range(m) if gamma[0, j]]
        if not hits:
            raise InternalInvariantViolation("chain tail row vanished during reduction")
        reduced.append((tower, hits[0], gamma))

    u_chains = [c for c in reduced if c[1] < m]
    v_chains = [c for c in reduced if c[1] >= m]
    for _, _, g in u_chains:
        if any(g[0, j] != 0 for j in range(m, m + s)):
            raise InternalInvariantViolation("first-kind tail row touches second-kind columns")

    ordered = u_chains + v_chains
    states = [r for t, _, _ in ordered for r in t[:-1]]
    T_x = vstack(states) if states else RatMatrix.zeros(0, n)
    if T_x.rows != n or not is_invertible(T_x):
        raise InternalInvariantViolation("chain towers do not form a basis")

    pivots = {c[1] for c in reduced}
    eye = RatMatrix.identity(m + s)
    w_rows = (
        [g for _, _, g in u_chains]
        + [eye.take_rows([j]) for j in range(m) if j not in pivots]
        + [g for _, _, g in v_chains]
        + [eye.take_rows([j]) for j in range(m, m + s) if j not in pivots]
    )
    T_w = vstack(w_rows) if w_rows else RatMatrix.identity(0)
    if not is_invertible(T_w):
        raise InternalInvariantViolation("chain tails do not extend to an input basis")

    # tail-killing feedback: row r_j of M is the tail tau_j A^{k_j}, zero elsewhere
    tail_rows = list(range(len(u_chains))) + list(range(m, m + len(v_chains)))
    M = place(m + s, n, [([r], range(n), t[-1]) for r, (t, _, _) in zip(tail_rows, ordered)])

    eps = [len(t) - 1 for t, _, _ in u_chains]
    eps_bar = [len(t) - 1 for t, _, _ in v_chains]
    return eps, eps_bar, T_x, T_w, -M


def brunovsky_two_inputs(
    A: RatMatrix, B_u: RatMatrix, B_v: RatMatrix
) -> Tuple[EmTransform, List[int], List[int]]:
    """Chain form of a controllable system with two input kinds.

    The certificate brings (A, B_u, B_v) to integrator chains, each
    terminated by a fresh first-kind input (lengths ``eps``) or second-kind
    input (lengths ``eps_bar``); second kind takes priority when a chain
    tail can be fed by both.  Surplus inputs of either kind end up feeding
    nothing and are sorted last within their kind.  Raises NotControllable
    when (A, [B_u B_v]) is not controllable.
    """
    n, m, s = A.rows, B_u.cols, B_v.cols
    if B_u.rows != n or B_v.rows != n:
        raise ValueError("input matrices must have n rows")
    eps, eps_bar, T_x, T_w, TF_w = _two_kind_chains(A, B_u, B_v)
    t = EmTransform(T_x, T_w, RatMatrix.identity(0), TF_w, RatMatrix.zeros(n, 0), m)

    src = Odecs2(A, B_u, B_v, RatMatrix.zeros(0, n), RatMatrix.zeros(0, m))
    want = EmcfIndices(
        eps, eps_bar, RatMatrix.zeros(0, 0), (), 0, (), (), m - len(eps), s - len(eps_bar)
    )
    if not verify_em(src, emcf_system(want), t):
        raise InternalInvariantViolation("two-kind chain normalization has a wrong pattern")
    return t, eps, eps_bar


# ---------------------------------------------------------------------------
# prime systems
# ---------------------------------------------------------------------------


def _output_chains(A: RatMatrix, B_w: RatMatrix, C_live: RatMatrix) -> List[List[RatMatrix]]:
    """Chain decomposition of a prime core rooted at the outputs, as towers.

    The input-side chain engine cannot be used here: which chains feed from
    which input kind is not decided by (A, B_u, B_v) alone, because output
    injection can reroute a chain's drive through the output matrix.  The
    towers therefore grow downward from output combinations, correcting each
    derivative by rows of C (the injection) so it stays input-free until the
    last level.

    Heads of depth-k towers form the spaces H_k = rowspace(C) `intersect`
    P_k with P_1 everything and P_{k+1} = {tau : tau B = 0, tau A in
    P_k + rowspace(C)}: the V sequence of the core's dual (its D is 0),
    run by ``_v_sequence`` up to its first fixed point, which holds for
    every larger k.  For a prime core the H_k dimension jumps count the
    chains of each length, any prolongation choice keeps the towers jointly
    independent, and every tower ends in a nonzero drive.

    A chain of length k is its tower [tau_1, ..., tau_k] of 1 x n rows: tau_1
    a combination of the outputs, tau_{i+1} = tau_i A modulo rows of C, and
    tau_i B = 0 at every level but the last.  The towers grow together,
    one depth at a time: at depth j the last rows R of the towers still j
    rows short of their length become R A - kappa C, with kappa the C part
    of the first solution of [X kappa] [P_j; C] = R A, so each P_j is
    eliminated once; at depth 1 they become R A.  Longest first.
    """
    n = A.rows
    S1 = image(C_live.T)
    if S1.dim != C_live.rows:
        raise InternalInvariantViolation("prime core outputs are dependent")
    injection = vstack([C_live.T, RatMatrix.zeros(B_w.cols, C_live.rows)])
    P = [Subspace.full(n)] + _v_sequence(vstack([A.T, B_w.T]), injection, Subspace.full(n))
    P += [P[-1]] * (n + 1 - len(P))
    lengths: List[int] = []
    towers: List[List[RatMatrix]] = []
    chosen = RatMatrix.zeros(n, 0)
    for k in range(n, 0, -1):
        new = complement(Subspace.from_columns(chosen), subspace_intersect(S1, P[k]))
        lengths += [k] * new.cols
        towers += [[RatMatrix([new.col(j)], cols=n)] for j in range(new.cols)]
        if new.cols:
            chosen = hstack([chosen, new])
    if sum(lengths) != n:
        raise InternalInvariantViolation("prime output chains do not span the states")

    for j in range(max(lengths, default=0) - 1, 0, -1):
        growing = [t for t, k in zip(towers, lengths) if k > j]
        RA = vstack([t[-1] for t in growing]) * A
        if j > 1:
            sol = solve_left(vstack([P[j].basis.T, C_live]), RA)
            if sol is None:
                raise InternalInvariantViolation("prime tower prolongation failed")
            RA = RA - sol.take_cols(range(P[j].dim, sol.cols)) * C_live
        for i, t in enumerate(growing):
            t.append(RA.take_rows([i]))
    return towers


def _prime_kind_split(
    towers: List[List[RatMatrix]], B_w: RatMatrix, m3: int
) -> Tuple[List[Tuple[List[RatMatrix], RatMatrix]], List[Tuple[List[RatMatrix], RatMatrix]]]:
    """Assign each tower to an input kind and clean the first-kind drives.

    Each tower is paired with its drive row tau_k B_w, the input combination
    that the chain's last state differentiates onto.  Shortest chains
    first, each drive is reduced against the second-kind pivots found so
    far: a multiple of the pivot's tower is subtracted aligned at the tails,
    where its head enters as an output-injection correction (always free),
    and the same multiple of its drive.  A chain whose second-kind
    coefficients all cancel feeds from the first kind; a surviving
    coefficient makes the chain second-kind and a new pivot.  The
    second-kind orders collected this way are the rank jumps of the drive
    rows' second-kind parts along the length filtration, hence invariants.
    Returns the (tower, drive) pairs of each kind, longest first.
    """
    u_chains: List[Tuple[List[RatMatrix], RatMatrix]] = []
    v_chains: List[Tuple[List[RatMatrix], RatMatrix]] = []
    pivots: List[Tuple[int, List[RatMatrix], RatMatrix]] = []
    for tower in sorted(towers, key=len):
        rho = tower[-1] * B_w
        for col, piv, piv_rho in pivots:
            coef = rho[0, col] / piv_rho[0, col]
            if coef != 0:
                d = len(tower) - len(piv)
                if d < 0:
                    raise InternalInvariantViolation("absorbed chain is longer than its target")
                tower[d:] = [r - p.scale(coef) for r, p in zip(tower[d:], piv)]
                rho = rho - piv_rho.scale(coef)
        vcol = next((j for j in range(m3, B_w.cols) if rho[0, j] != 0), None)
        if vcol is None:
            u_chains.append((tower, rho))
        else:
            v_chains.append((tower, rho))
            pivots.append((vcol, tower, rho))
    key = lambda c: -len(c[0])
    return sorted(u_chains, key=key), sorted(v_chains, key=key)


def prime_canonical(
    A: RatMatrix, B_u: RatMatrix, B_v: RatMatrix, C: RatMatrix, D_u: RatMatrix
) -> Tuple[EmTransform, List[int], int, List[int]]:
    """Canonical form of a prime system.

    A system is prime when its four limiting subspaces are trivial in the
    strong sense: no output-nulling states (V* = 0), every state reachable
    through the output-nulling dynamics (W* = everything), no input
    directions that never show up (U* = 0), and every output direction
    excited (Y* = everything).  Primeness forces the total input count
    m + s to equal the output count p.

    The certificate produces chains observed exactly at their heads: chains
    fed by first-kind inputs (lengths ``sigma``), a static identity block
    of size ``delta`` = rank D_u between the last inputs and the middle
    outputs, and chains fed by second-kind inputs (lengths ``sigma_bar``).
    Raises NotPrime otherwise.

    :func:`emcf` calls the construction directly, without this test: the
    triangular stage cut its prime block out along the full system's V*,
    W*, U* and Y*, and the construction proves primeness after the fact:
    ``verify_em(o2, o_can, t_chain)`` certifies the block Morse-equivalent
    to a chain form of prime-type blocks, whose pencil [[A - s I, B], [C,
    D]] is unimodular, and Morse transformations multiply a pencil by
    constant invertible factors, so they keep it unimodular.  A block that
    is not prime fails an earlier check (its output chains must span the
    states), or the normal form finds its pencil singular at t1 or t4.
    """
    o = Odecs2(A=A, B_u=B_u, B_v=B_v, C=C, D_u=D_u)
    inv = invariant_subspaces(o)
    failures = []
    if inv.V_star.dim != 0:
        failures.append("V* is nonzero")
    if inv.W_star.dim != o.n:
        failures.append("W* is not the whole state space")
    if inv.U_star.dim != 0:
        failures.append("U* is nonzero")
    if inv.Y_star.dim != o.p:
        failures.append("Y* is not the whole output space")
    if failures:
        raise NotPrime("; ".join(failures))
    return _prime_canonical(o)


def _prime_canonical(o: Odecs2) -> Tuple[EmTransform, List[int], int, List[int]]:
    """The construction of :func:`prime_canonical` on a system known to be
    prime."""
    n, m, s, p = o.n, o.m, o.s, o.p
    if m + s != p:
        raise InternalInvariantViolation("prime system with m + s != p")

    # 1) rotate the static part of D into the last inputs and outputs
    T_y0, T_u0, delta = _static_normalizer(o.D_u)
    t_d = EmTransform.coordinates(
        RatMatrix.identity(n), block_diag([T_u0, RatMatrix.identity(s)]), T_y0, m
    )
    o1 = apply_em(o, t_d)

    # 2) absorb the static columns of B and rows of C
    u_st, y_st = range(m - delta, m), range(p - delta, p)
    t_kill = _feedback_stage(
        o1, [(u_st, range(n), -o1.C.take_rows(y_st))], [(range(n), y_st, -o1.B_u.take_cols(u_st))]
    )
    o2 = apply_em(o1, t_kill)
    if not o2.B_u.take_cols(u_st).is_zero():
        raise InternalInvariantViolation("static input columns survived the kill")
    if not o2.C.take_rows(y_st).is_zero():
        raise InternalInvariantViolation("static output rows survived the kill")

    # 3) output-rooted chain decomposition of the destaticized part.  The
    #   input-side engine is useless here: output injection can reroute a
    #   chain's drive through C, so the u/v split is not decided by the
    #   input matrices alone.
    m3 = m - delta
    C_live = o2.C.take_rows(range(p - delta))
    B_w = hstack([o2.B_u.take_cols(range(m3)), o2.B_v])
    u_chains, v_chains = _prime_kind_split(_output_chains(o2.A, B_w, C_live), B_w, m3)
    sigma = [len(t) for t, _ in u_chains]
    sigma_bar = [len(t) for t, _ in v_chains]
    if len(sigma) != m3 or len(sigma_bar) != s:
        raise InternalInvariantViolation("prime chain counts do not exhaust the inputs")
    ordered = u_chains + v_chains

    # 4) assemble the certificate: towers stack into T_x, drives into T_w,
    #   the heads' output coefficients into T_y, the tails' derivatives (in
    #   the new input coordinates) into TF_w, and TK soaks up every
    #   correction the towers borrowed from the outputs.
    T_x = vstack([RatMatrix.zeros(0, n)] + [r for t, _ in ordered for r in t])
    T_w_core = vstack([RatMatrix.zeros(0, m3 + s)] + [rho for _, rho in ordered])
    if not is_invertible(T_w_core):
        raise InternalInvariantViolation("prime drive rows are dependent")
    N = vstack([RatMatrix.zeros(0, n)] + [t[-1] for t, _ in ordered]) * o2.A

    # widen by the static inputs, which sit in the last u slots untouched;
    # the outputs follow the same order [sigma heads, statics, sigma_bar heads]
    live = list(range(m3)) + list(range(m, m + s))
    T_w = place(m + s, m + s, [(live, live, T_w_core), (u_st, u_st, RatMatrix.identity(delta))])
    TF_w = place(m + s, n, [(live, range(n), -N)])
    heads = solve_left(C_live, vstack([RatMatrix.zeros(0, n)] + [t[0] for t, _ in ordered]))
    if heads is None:
        raise InternalInvariantViolation("prime chain head is not an output")
    T_y1 = place(p, p, [(live, range(p - delta), heads), (u_st, y_st, RatMatrix.identity(delta))])

    # TK C = A_can T_x - T_x A - B_w,can TF_w: the first identity of
    # verify_em with the canonical system on the left
    want = EmcfIndices((), (), RatMatrix.zeros(0, 0), sigma, delta, sigma_bar, ())
    o_can = emcf_system(want)
    M = o_can.A * T_x - T_x * o2.A - hstack([o_can.B_u, o_can.B_v]) * TF_w
    TK = solve_left(o2.C, M)
    if TK is None:
        raise InternalInvariantViolation("prime corrections are not output injections")
    t_chain = EmTransform(T_x, T_w, T_y1, TF_w, TK, m)
    if not verify_em(o2, o_can, t_chain):
        raise InternalInvariantViolation("prime normalization has a wrong pattern")
    return em_compose(em_compose(t_d, t_kill), t_chain), sigma, delta, sigma_bar


# ---------------------------------------------------------------------------
# observable part
# ---------------------------------------------------------------------------


def observable_dual_canonical(C4: RatMatrix, A4: RatMatrix) -> Tuple[EmTransform, List[int]]:
    """Chain form of an observable pair via its dual.

    Runs the single-kind chain construction on (A4^T, C4^T) and transposes
    the certificate back: the dual feedback becomes output injection, the
    dual input transform an output transform.  Each chain is then reversed
    so the dynamics run down the chain and the output reads its head.
    Surplus outputs read nothing and are sorted last.  Raises NotObservable.
    """
    n, p = A4.rows, C4.rows
    if C4.cols != n:
        raise ValueError("C4 must have as many columns as A4")
    try:
        _, T_xd_inv, _, T_ud_inv, Fd, kappa = brunovsky_single(A4.T, C4.T)
    except NotControllable as exc:
        raise NotObservable("the pair (C4, A4) is not observable") from exc
    T_x = RatMatrix.identity(n).take_rows(_reversed_chains(kappa)) * T_xd_inv.T
    t = EmTransform(T_x, RatMatrix.identity(0), T_ud_inv.T, RatMatrix.zeros(0, n), T_x * Fd.T, 0)
    src = Odecs2(A4, RatMatrix.zeros(n, 0), RatMatrix.zeros(n, 0), C4, RatMatrix.zeros(p, 0))
    want = EmcfIndices((), (), RatMatrix.zeros(0, 0), (), 0, (), kappa, dead_y=p - len(kappa))
    if not verify_em(src, emcf_system(want), t):
        raise InternalInvariantViolation("dual chain normalization has a wrong pattern")
    return t, list(kappa)


# ---------------------------------------------------------------------------
# the assembled explicit canonical form
# ---------------------------------------------------------------------------


def emcf_system(idx: EmcfIndices) -> Odecs2:
    """The canonical system carrying the given indices."""
    eps, eps_bar = idx.eps, idx.eps_bar
    sigma, delta, sigma_bar, eta = idx.sigma, idx.delta, idx.sigma_bar, idx.eta
    a, b, c, d, e = len(eps), len(eps_bar), len(sigma), len(sigma_bar), len(eta)
    n, m, s, p = idx.n, idx.m, idx.s, idx.p

    A = block_diag([_chain_diag(eps + eps_bar), idx.A_nn, _chain_diag(sigma + sigma_bar + eta)])

    # states [eps, eps_bar | A_nn | sigma, sigma_bar, eta], merged inputs
    # w = (u, v) with u = [eps, sigma, statics, dead] and v = [eps_bar,
    # sigma_bar, dead], outputs [sigma, statics, sigma_bar, eta, dead]
    n_c, n_p = sum(eps) + sum(eps_bar), sum(sigma) + sum(sigma_bar)
    p0 = n_c + idx.A_nn.rows
    w_c = [*range(a), *range(m, m + b)]
    w_p = [*range(a, a + c), *range(m + b, m + b + d)]
    B_w = place(
        n,
        m + s,
        [
            (range(n_c), w_c, _tail_selectors(eps + eps_bar, n_c, a + b)),
            (range(p0, p0 + n_p), w_p, _tail_selectors(sigma + sigma_bar, n_p, c + d)),
        ],
    )
    heads = [*range(c), *range(c + delta, c + delta + d + e)]
    C = place(p, n, [(heads, range(p0, n), _head_selectors(sigma + sigma_bar + eta))])
    D = place(p, m, [(range(c, c + delta), range(a + c, a + c + delta), RatMatrix.identity(delta))])
    return Odecs2(A, B_w.take_cols(range(m)), B_w.take_cols(range(m, m + s)), C, D)


def emcf(m: MnfSystem) -> Tuple[EmTransform, EmcfIndices, Odecs2]:
    """Finish a block-diagonal normal form into the canonical form.

    Dispatches the four diagonal blocks to the chain constructions above,
    embeds the per-block certificates into one system-wide transformation,
    and appends the input permutation that sorts dead inputs last.  The
    returned transform maps ``m.system`` to the returned canonical system;
    the indices are the complete invariant.
    """
    o, dims = m.system, m.dims
    m1u, s1 = m.groups
    b1, b2, b3, b4 = _state_blocks(dims)
    n, mu, s, p = o.n, o.m, o.s, o.p
    w = mu + s
    g1, g3 = _input_groups(mu, s, m1u, s1)
    u1, u3 = list(range(m1u)), list(range(m1u, mu))
    v1, v3 = list(range(s1)), list(range(s1, s))
    y3, y4 = list(range(dims.p3)), list(range(dims.p3, p))

    t1, eps, eps_bar = brunovsky_two_inputs(
        o.A.submatrix(b1, b1), o.B_u.submatrix(b1, u1), o.B_v.submatrix(b1, v1)
    )
    T2f, A_nn, _ = _frobenius(o.A.submatrix(b2, b2), m.chi2)
    t3, sigma, delta, sigma_bar = _prime_canonical(
        Odecs2(
            o.A.submatrix(b3, b3),
            o.B_u.submatrix(b3, u3),
            o.B_v.submatrix(b3, v3),
            o.C.submatrix(y3, b3),
            o.D_u.submatrix(y3, u3),
        )
    )
    t4, eta = observable_dual_canonical(o.C.submatrix(y4, b4), o.A.submatrix(b4, b4))

    # block 1's inputs are the merged group g1 = (u1, v1) and block 3's
    # g3 = (u3, v3), each in its certificate's own (u, v) order
    t_blk = EmTransform(
        T_x=block_diag([t1.T_x, T2f, t3.T_x, t4.T_x]),
        T_w=place(w, w, [(g1, g1, t1.T_w), (g3, g3, t3.T_w)]),
        T_y=block_diag([t3.T_y, t4.T_y]),
        TF_w=place(w, n, [(g1, b1, t1.TF_w), (g3, b3, t3.TF_w)]),
        TK=place(n, p, [(b3, y3, t3.TK), (b4, y4, t4.TK)]),
        m=mu,
    )

    # sort the dead inputs, block 1's surplus, last within their kind
    a, b, e = len(eps), len(eps_bar), len(eta)
    dead_u, dead_v, dead_y = m1u - a, s1 - b, dims.p4 - e
    dead = set(range(a, m1u)) | set(range(mu + b, mu + s1))
    wperm = sorted(range(w), key=lambda j: (j >= mu, j in dead))
    t_perm = EmTransform.coordinates(
        RatMatrix.identity(n), RatMatrix.identity(w).take_rows(wperm), RatMatrix.identity(p), mu
    )

    total = em_compose(t_blk, t_perm)
    idx = EmcfIndices(
        eps=tuple(eps),
        eps_bar=tuple(eps_bar),
        A_nn=A_nn,
        sigma=tuple(sigma),
        delta=delta,
        sigma_bar=tuple(sigma_bar),
        eta=tuple(eta),
        dead_u=dead_u,
        dead_v=dead_v,
        dead_y=dead_y,
    )
    if (idx.n, idx.m, idx.s, idx.p) != (n, mu, s, p):
        raise InternalInvariantViolation("index bookkeeping does not match the system size")
    result = emcf_system(idx)
    if not verify_em(o, result, total):
        raise InternalInvariantViolation("assembled canonical form has a wrong pattern")
    return total, idx, result


# ---------------------------------------------------------------------------
# index translation and the implicit-side canonical form
# ---------------------------------------------------------------------------


def translate_indices(e: EmcfIndices) -> FbcfIndices:
    """Explicit-side indices to implicit-side block data.

    Chains fed by first-kind inputs keep their lengths; freeing the
    second-kind inputs keeps their chains' state counts; prime first-kind
    chains and observable chains each gain one row (the output equation),
    and purely static or dead outputs become size-1 blocks.  Dead
    second-kind inputs have no implicit counterpart (a kernel-basis column
    of E is never zero), so they are rejected.
    """
    if e.dead_v:
        raise ValueError("dead second-kind inputs cannot come from an implicit system")
    sigma_p = sorted([k + 1 for k in e.sigma] + [1] * e.delta, reverse=True)
    eta_p = sorted([k + 1 for k in e.eta] + [1] * e.dead_y, reverse=True)
    return FbcfIndices(
        eps_p=e.eps,
        eps_bar_p=e.eps_bar,
        sigma_p=tuple(sigma_p),
        sigma_bar_p=e.sigma_bar,
        eta_p=tuple(eta_p),
        n_rho=e.A_nn.rows,
        A_rho=e.A_nn,
        dead_u=e.dead_u,
    )


def _implicit_order(idx: EmcfIndices) -> Tuple[List[int], List[int], List[int]]:
    """Where the explicit canonical form's equations go in the implicit one.

    Walks the elementary blocks once, in state order: eps, eps_bar, A_nn,
    sigma, statics, sigma_bar, eta, dead outputs.  ``kept``: the states
    that keep an equation (all but the tails of second-kind chains, which
    are freed); ``rows``: the equation order, as indices into [kept state
    equations; outputs], a prime block's output first and an observable
    block's output last, under its reversed equations; ``rev``: the state
    order that reverses each observable chain.
    """
    # (states, tail freed, output: 0 none, 1 first, -1 last and chain reversed)
    blocks = (
        [(k, False, 0) for k in idx.eps]
        + [(k, True, 0) for k in idx.eps_bar]
        + [(idx.A_nn.rows, False, 0)]
        + [(k, False, 1) for k in idx.sigma]
        + [(0, False, 1)] * idx.delta
        + [(k, True, 1) for k in idx.sigma_bar]
        + [(k, False, -1) for k in idx.eta]
        + [(0, False, -1)] * idx.dead_y
    )
    q = idx.n - len(idx.eps_bar) - len(idx.sigma_bar)
    kept: List[int] = []
    rows: List[int] = []
    rev: List[int] = []
    x = y = 0
    for k, freed, out in blocks:
        eqs = list(range(len(kept), len(kept) + k - freed))
        states = list(range(x, x + k))
        kept.extend(states[: k - freed])
        if out < 0:
            eqs, states = eqs[::-1], states[::-1]
        rev.extend(states)
        head = [q + y] if out else []
        rows.extend(head + eqs if out > 0 else eqs + head)
        x, y = x + k, y + len(head)
    return kept, rows, rev


def build_fbcf(f: FbcfIndices) -> Dacs:
    """Assemble the implicit-side canonical system from its block data.

    Six diagonal groups of elementary blocks: for each ``eps_p`` entry an
    integrator chain driven by an input; for each ``eps_bar_p`` entry a
    chain with one equation fewer than states (one state stays free); the
    regular block (E = I, H = A_rho); for each ``sigma_p`` entry a chain
    with one equation more than states, driven and constrained (entry 1:
    the pure constraint 0 = u); for each ``sigma_bar_p`` entry a square
    constrained chain; for each ``eta_p`` entry an undriven chain with one
    equation more than states (entry 1: the zero row).  ``dead_u`` zero
    input columns close the input count.

    It is the implicitation of :func:`emcf_system` (``sigma_p``/``eta_p``
    entries of 1 are statics and dead outputs): E = [I; 0], H = [A; C] and
    L = [B_u; D_u] without the freed equations, in :func:`_implicit_order`.
    """
    idx = EmcfIndices(
        eps=f.eps_p,
        eps_bar=f.eps_bar_p,
        A_nn=f.A_rho,
        sigma=[k - 1 for k in f.sigma_p if k > 1],
        delta=f.sigma_p.count(1),
        sigma_bar=f.sigma_bar_p,
        eta=[k - 1 for k in f.eta_p if k > 1],
        dead_u=f.dead_u,
        dead_y=f.eta_p.count(1),
    )
    o = emcf_system(idx)
    kept, rows, rev = _implicit_order(idx)

    def implicit(state_rows: RatMatrix, output_rows: RatMatrix) -> RatMatrix:
        return vstack([state_rows.take_rows(kept), output_rows]).take_rows(rows)

    E = implicit(RatMatrix.identity(o.n), RatMatrix.zeros(o.p, o.n)).take_cols(rev)
    d = Dacs(E=E, H=implicit(o.A, o.C).take_cols(rev), L=implicit(o.B_u, o.D_u))
    if (d.l, d.n, d.m) != (f.l, f.n, f.m):
        raise InternalInvariantViolation("block bookkeeping mismatch")
    return d


# ---------------------------------------------------------------------------
# the full implicit-side pipeline
# ---------------------------------------------------------------------------


def _exfb_from_em(
    d: Dacs, rec, t: EmTransform, idx: EmcfIndices
) -> ExFbTransform:
    """Convert the explicit certificate d-explicitation -> canonical into an
    implicit certificate d -> build_fbcf(translate_indices(idx)).

    With Q0 E = [E1; 0] the explicitation's row normalization and
    (T_x, ..., TK) the explicit certificate, the rows of the target system
    are a permutation of [E1~ T_x E1^+ | E1~ TK; 0 | T_y] Q0 applied to
    (E, H + L F_u, L T_u^{-1}), with F_u = T_u^{-1} TF_u, where E1~ keeps
    exactly the states that are not freed (not chain tails of the second
    kind); :func:`_implicit_order` gives both, as it does for
    :func:`build_fbcf`.  The identity
    E1~ T_x B_v = E1~ B_v~ T_v = 0 makes every appearance of the unknown
    second-kind feedback drop out.
    """
    n, q, p = d.n, rec.q, d.l - rec.q
    kept, rows, rev = _implicit_order(idx)
    if len(kept) != q:
        raise InternalInvariantViolation("freed state count does not match rank E")
    E1t = RatMatrix.identity(n).take_rows(kept)
    M = vstack(
        [
            hstack([E1t * t.T_x * rec.E1_dagger, E1t * t.TK]),
            hstack([RatMatrix.zeros(p, q), t.T_y]),
        ]
    )
    P = RatMatrix.identity(n).take_rows(rev) * t.T_x
    G = inverse(t.T_u)
    return ExFbTransform(Q=(M * rec.Q).take_rows(rows), P=P, F=G * t.TF_u, G=G)


@dataclass(frozen=True)
class EmcfRun:
    """Every stage of one explicit-side run: ``source`` -> triangular form
    ``tri`` -> normal form ``nf`` -> canonical system ``o_can``.

    ``t_can`` maps ``nf.system`` to ``o_can`` and ``total`` maps ``source``
    to ``o_can``.
    """

    source: Odecs2
    tri: MtfSystem
    nf: MnfSystem
    t_can: EmTransform
    idx: EmcfIndices
    o_can: Odecs2
    total: EmTransform


def emcf_run(o: Odecs2) -> EmcfRun:
    """Triangularize, block-diagonalize and canonicalize ``o`` once; the
    composed certificate is verified before being returned."""
    tri = emtf(o)
    nf = emnf(tri)
    t_can, idx, o_can = emcf(nf)
    total = em_compose(nf.transform, t_can)
    if not verify_em(o, o_can, total):
        raise InternalInvariantViolation("explicit certificate failed to verify")
    return EmcfRun(o, tri, nf, t_can, idx, o_can, total)


@dataclass(frozen=True)
class FbcfRun:
    """Every stage of one :func:`fbcf` run: the explicitation record, the
    explicit-side run on the explicitation ``explicit.source``, and the
    verified implicit certificate ``cert`` mapping the input to ``d_can``."""

    rec: ExplicitationRecord
    explicit: EmcfRun
    cert: ExFbTransform
    fidx: FbcfIndices
    d_can: Dacs


def fbcf_run(d: Dacs) -> FbcfRun:
    """:func:`fbcf` with every intermediate stage kept."""
    o, rec = explicitate(d)
    run = emcf_run(o)
    fidx = translate_indices(run.idx)
    d_can = build_fbcf(fidx)
    cert = _exfb_from_em(d, rec, run.total, run.idx)
    if not verify_exfb(d, d_can, cert):
        raise InternalInvariantViolation("implicit certificate failed to verify")
    return FbcfRun(rec, run, cert, fidx, d_can)


def fbcf(d: Dacs) -> Tuple[ExFbTransform, FbcfIndices, Dacs]:
    """Feedback canonical form of a differential-algebraic system.

    Explicitates, triangularizes, block-diagonalizes and canonicalizes on
    the explicit side, then translates the indices and rebuilds the
    canonical implicit system.  The returned certificate maps ``d`` to the
    canonical system and is verified before being returned; every input
    admits a canonical form.  :func:`fbcf_run` keeps the stages.
    """
    run = fbcf_run(d)
    return run.cert, run.fidx, run.d_can
