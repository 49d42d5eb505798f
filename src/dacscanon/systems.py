"""System types, explicitation, certificates and their verification.

The two protagonists:

* ``Dacs`` — an implicit system E x' = H x + L u with E possibly singular
  or rectangular (l equations, n states, m controls).
* ``Odecs2`` — an explicit system x' = Ax + B_u u + B_v v, y = Cx + D_u u
  with *two kinds* of inputs: the original controls u and the driving
  variables v that parameterize ker E after explicitation.

Explicitation attaches an Odecs2 to a Dacs; the attachment is canonical
here (deterministic Q from the echelon certificate, pivot-column right
inverse, echelon kernel basis) and is recorded so that it can be undone
or compared.  Two certificate types realize the two equivalences:
``ExFbTransform`` (Q, P, F, G) acts on implicit systems, ``EmTransform``
(T_x, T_w, T_y, TF_w, TK) on explicit ones.  An EmTransform is a Morse
transformation of the merged system (A, B_w, C, D_w) with w = (u, v)
whose input transform T_w never mixes v into u (v may be fed back with x
and u, u only with x); the paper's eight per-kind blocks are views of it.
All explicit-side algebra is the plain single-kind Morse algebra on the
merged systems.  Feedback and output injection are written in the new
coordinates (TF_w = T_w F_w, TK = T_x K), so composing two certificates
and checking one are plain matrix products; only applying or inverting
one computes inverses, on the spot.  verify_* re-check the defining
matrix identities exactly, so any pipeline output can be audited
independently of how it was produced.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import List, Optional, Sequence, Tuple

from .ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    Subspace,
    _kron,
    _unvec,
    _vec,
    complement,
    hstack,
    image,
    inverse,
    is_invertible,
    pivot_columns,
    place,
    products,
    qq,
    rank_rref,
    right_inverse,
    solve,
    solve_left,
    vstack,
)


class SingularTransform(ValueError):
    """A transformation block that must be invertible is not."""


class NotAProlongation(ValueError):
    """v_reduce input does not have the prolongation structure z2' = v."""


# ---------------------------------------------------------------------------
# system types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dacs:
    """Implicit system E x' = H x + L u."""

    E: RatMatrix
    H: RatMatrix
    L: RatMatrix

    def __post_init__(self):
        if self.E.shape != self.H.shape:
            raise ValueError("E and H must share shape, got %s vs %s" % (self.E.shape, self.H.shape))
        if self.L.rows != self.E.rows:
            raise ValueError("L row count %d != l = %d" % (self.L.rows, self.E.rows))

    @property
    def l(self) -> int:
        return self.E.rows

    @property
    def n(self) -> int:
        return self.E.cols

    @property
    def m(self) -> int:
        return self.L.cols


@dataclass(frozen=True)
class Odecs2:
    """Explicit system x' = Ax + B_u u + B_v v, y = Cx + D_u u."""

    A: RatMatrix
    B_u: RatMatrix
    B_v: RatMatrix
    C: RatMatrix
    D_u: RatMatrix

    def __post_init__(self):
        n = self.A.rows
        if self.A.cols != n:
            raise ValueError("A must be square")
        if self.B_u.rows != n or self.B_v.rows != n:
            raise ValueError("B blocks must have n rows")
        if self.C.cols != n:
            raise ValueError("C must have n columns")
        if self.D_u.shape != (self.C.rows, self.B_u.cols):
            raise ValueError("D_u shape %s != (p, m)" % (self.D_u.shape,))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B_u.cols

    @property
    def s(self) -> int:
        return self.B_v.cols

    @property
    def p(self) -> int:
        return self.C.rows

    def merged(self) -> Tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix]:
        """The single-input-kind view (A, B_w, C, D_w) with w = (u, v)."""
        B_w = hstack([self.B_u, self.B_v])
        D_w = hstack([self.D_u, RatMatrix.zeros(self.p, self.s)])
        return self.A, B_w, self.C, D_w


@dataclass(frozen=True)
class ExplicitationRecord:
    """The choices (Q, E1^+, B_v) made when explicitating a Dacs."""

    Q: RatMatrix
    E1_dagger: RatMatrix
    B_v: RatMatrix
    q: int


@dataclass(frozen=True)
class ExFbTransform:
    """Certificate for implicit-side equivalence: E -> QEP^-1 etc."""

    Q: RatMatrix
    P: RatMatrix
    F: RatMatrix
    G: RatMatrix

    @staticmethod
    def identity(l: int, n: int, m: int) -> "ExFbTransform":
        return ExFbTransform(
            RatMatrix.identity(l), RatMatrix.identity(n), RatMatrix.zeros(m, n), RatMatrix.identity(m)
        )


@dataclass(frozen=True, eq=False)
class EmTransform:
    """Certificate for explicit-side equivalence: a Morse transformation of
    the merged input w = (u, v) whose input transform T_w = [[T_u, 0],
    [-TR, T_v]] never mixes v into u; its first ``m`` rows and columns are
    the first kind's.

    Feedback and output injection are carried in the new coordinates,
    TF_w = T_w F_w = [TF_u; TF_v] and TK = T_x K, so checking and composing
    certificates takes products only.  The paper's blocks T_u, T_v,
    TR = T_v R, TF_u = T_u F_u and TF_v = T_v F_v are read-only views.
    ``m`` is init-only, so code walking the dataclass fields sees only the
    five matrices; equality and hashing include it.  Raises ValueError for
    a non-square T_w, an ``m`` outside [0, w] or a nonzero upper-right
    m x s block of T_w.
    """

    T_x: RatMatrix
    T_w: RatMatrix
    T_y: RatMatrix
    TF_w: RatMatrix
    TK: RatMatrix
    m: InitVar[int]

    def __post_init__(self, m: int):
        w = self.T_w.rows
        if self.T_w.cols != w:
            raise ValueError("T_w must be square, got %dx%d" % self.T_w.shape)
        if not 0 <= m <= w:
            raise ValueError("m = %d is outside [0, %d]" % (m, w))
        if not self.T_w.submatrix(range(m), range(m, w)).is_zero():
            raise ValueError("T_w mixes second-kind inputs into the first kind")
        object.__setattr__(self, "m", m)

    def _key(self) -> tuple:
        return (self.m, self.T_x, self.T_w, self.T_y, self.TF_w, self.TK)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmTransform) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def T_u(self) -> RatMatrix:
        return self.T_w.submatrix(range(self.m), range(self.m))

    @property
    def T_v(self) -> RatMatrix:
        v = range(self.m, self.T_w.rows)
        return self.T_w.submatrix(v, v)

    @property
    def TR(self) -> RatMatrix:
        return -self.T_w.submatrix(range(self.m, self.T_w.rows), range(self.m))

    @property
    def TF_u(self) -> RatMatrix:
        return self.TF_w.take_rows(range(self.m))

    @property
    def TF_v(self) -> RatMatrix:
        return self.TF_w.take_rows(range(self.m, self.T_w.rows))

    @staticmethod
    def from_blocks(T_x, T_u, T_v, T_y, TF_u, TF_v, TR, TK) -> "EmTransform":
        """The certificate with the per-kind blocks: T_w = [[T_u, 0],
        [-TR, T_v]] and TF_w = [TF_u; TF_v]."""
        m, s = T_u.rows, T_v.rows
        T_w = vstack([hstack([T_u, RatMatrix.zeros(m, s)]), hstack([-TR, T_v])])
        return EmTransform(T_x, T_w, T_y, vstack([TF_u, TF_v]), TK, m)

    @staticmethod
    def coordinates(T_x: RatMatrix, T_w: RatMatrix, T_y: RatMatrix, m: int) -> "EmTransform":
        """The pure change of coordinates: no feedback, no output injection."""
        n, w, p = T_x.rows, T_w.rows, T_y.rows
        return EmTransform(T_x, T_w, T_y, RatMatrix.zeros(w, n), RatMatrix.zeros(n, p), m)

    @staticmethod
    def identity(n: int, m: int, s: int, p: int) -> "EmTransform":
        eye = RatMatrix.identity
        return EmTransform.coordinates(eye(n), eye(m + s), eye(p), m)


# ---------------------------------------------------------------------------
# explicitation
# ---------------------------------------------------------------------------


def explicitate(d: Dacs) -> Tuple[Odecs2, ExplicitationRecord]:
    """Attach the canonical explicit two-input-kind system to a Dacs.

    Deterministic choices: Q is the row-operation certificate of the
    echelon form of E (nonzero rows first), E1^+ the pivot-column right
    inverse, B_v the echelon kernel basis of E, canonicalized from the
    kernel vectors that the free columns of the same echelon form give.
    """
    q, R, Q = rank_rref(d.E)
    E1 = R.take_rows(range(q))
    pivs = pivot_columns(R, q)
    free = [j for j in range(d.n) if j not in pivs]
    k, eye = range(len(free)), RatMatrix.identity(len(free))
    B_v = image(place(d.n, len(free), [(pivs, k, -E1.take_cols(free)), (free, k, eye)])).basis
    QH = Q * d.H
    QL = Q * d.L
    H1, H2 = QH.take_rows(range(q)), QH.take_rows(range(q, d.l))
    L1, L2 = QL.take_rows(range(q)), QL.take_rows(range(q, d.l))
    E1d = right_inverse(E1)
    o = Odecs2(A=E1d * H1, B_u=E1d * L1, B_v=B_v, C=H2, D_u=L2)
    rec = ExplicitationRecord(Q=Q, E1_dagger=E1d, B_v=B_v, q=q)
    if E1 * o.A != H1 or E1 * o.B_u != L1:
        raise InternalInvariantViolation("explicitation identities failed")
    return o, rec


# ---------------------------------------------------------------------------
# applying and verifying transformations
# ---------------------------------------------------------------------------


def _require_invertible(M: RatMatrix, name: str) -> None:
    if not is_invertible(M):
        raise SingularTransform(name + " is singular")


def _inverse_of(M: RatMatrix, name: str) -> RatMatrix:
    """inverse(M), or SingularTransform naming the block."""
    try:
        return inverse(M)
    except ValueError:
        raise SingularTransform(name + " is singular") from None


def apply_exfb(d: Dacs, t: ExFbTransform) -> Dacs:
    _require_invertible(t.Q, "Q")
    Pinv = _inverse_of(t.P, "P")
    _require_invertible(t.G, "G")
    return Dacs(
        E=t.Q * d.E * Pinv,
        H=t.Q * (d.H + d.L * t.F) * Pinv,
        L=t.Q * d.L * t.G,
    )


def apply_em(o: Odecs2, t: EmTransform) -> Odecs2:
    """The image of o under t: the Morse action on the merged system,
    B_w2 = (T_x B_w + TK D_w) T_w^-1, D_w2 = T_y D_w T_w^-1,
    A2 = (T_x A + TK C + B_w2 TF_w) T_x^-1, C2 = (T_y C + D_w2 TF_w) T_x^-1.
    The inverses of T_x and T_w are computed here.  Raises SingularTransform
    naming a singular block, and ValueError when t splits w elsewhere."""
    if t.m != o.m:
        raise ValueError("certificate has m = %d, system m = %d" % (t.m, o.m))
    Txi = _inverse_of(t.T_x, "T_x")
    Twi = _inverse_of(t.T_w, "T_w")
    _require_invertible(t.T_y, "T_y")
    A, B_w, C, D_w = o.merged()
    B_w = (t.T_x * B_w + t.TK * D_w) * Twi
    D_w = t.T_y * D_w * Twi
    u, v = range(o.m), range(o.m, B_w.cols)
    return Odecs2(
        A=(t.T_x * A + t.TK * C + B_w * t.TF_w) * Txi,
        B_u=B_w.take_cols(u),
        B_v=B_w.take_cols(v),
        C=(t.T_y * C + D_w * t.TF_w) * Txi,
        D_u=D_w.take_cols(u),
    )


def verify_exfb(d1: Dacs, d2: Dacs, t: ExFbTransform) -> bool:
    """Exact check that t maps d1 to d2.

    With Q, P and G invertible, E2 = Q E1 P^-1 etc. hold exactly when

        E2 P = Q E1,   H2 P = Q (H1 + L1 F),   L2 = Q L1 G,

    which are checked with Q E1, Q H1 and Q L1 formed by one call of
    :func:`products` (one packed copy of Q), so no inverse is computed.
    """
    l, n, m = d1.l, d1.n, d1.m
    if (d2.l, d2.n, d2.m) != (l, n, m):
        return False
    if [M.shape for M in (t.Q, t.P, t.F, t.G)] != [(l, l), (n, n), (m, n), (m, m)]:
        return False
    if not (is_invertible(t.Q) and is_invertible(t.P) and is_invertible(t.G)):
        return False
    QE, QH, QL = products(t.Q, [d1.E, d1.H, d1.L])
    return d2.E * t.P == QE and d2.H * t.P == QH + QL * t.F and d2.L == QL * t.G


def verify_em(o1: Odecs2, o2: Odecs2, t: EmTransform) -> bool:
    """Exact check that t maps o1 to o2 (the action of :func:`apply_em`).

    With T_x, T_w and T_y invertible, o2 == apply_em(o1, t) holds exactly
    when the merged systems satisfy

        A2 T_x   = T_x A + TK C + B_w2 TF_w
        B_w2 T_w = T_x B_w + TK D_w
        C2 T_x   = T_y C + D_w2 TF_w
        D_w2 T_w = T_y D_w

    which are checked as written, so no inverse is computed.  Their block
    rows over w = (u, v) are the paper's five per-kind identities.
    """
    n, m, s, p = o1.n, o1.m, o1.s, o1.p
    if (o2.n, o2.m, o2.s, o2.p) != (n, m, s, p) or t.m != m:
        return False
    w = m + s
    shapes = [(n, n), (w, w), (p, p), (w, n), (n, p)]
    if [M.shape for M in (t.T_x, t.T_w, t.T_y, t.TF_w, t.TK)] != shapes:
        return False
    if not all(is_invertible(M) for M in (t.T_x, t.T_w, t.T_y)):
        return False
    A1, B1, C1, D1 = o1.merged()
    A2, B2, C2, D2 = o2.merged()
    return (
        B2 * t.T_w == t.T_x * B1 + t.TK * D1
        and D2 * t.T_w == t.T_y * D1
        and C2 * t.T_x == t.T_y * C1 + D2 * t.TF_w
        and A2 * t.T_x == t.T_x * A1 + t.TK * C1 + B2 * t.TF_w
    )


def exfb_compose(t1: ExFbTransform, t2: ExFbTransform) -> ExFbTransform:
    """Certificate for applying t1 first, then t2."""
    return ExFbTransform(
        Q=t2.Q * t1.Q,
        P=t2.P * t1.P,
        F=t1.F + t1.G * t2.F * t1.P,
        G=t1.G * t2.G,
    )


def exfb_inverse(t: ExFbTransform) -> ExFbTransform:
    Qi, Pi, Gi = inverse(t.Q), inverse(t.P), inverse(t.G)
    return ExFbTransform(Q=Qi, P=Pi, F=-(Gi * t.F * Pi), G=Gi)


def em_compose(t1: EmTransform, t2: EmTransform) -> EmTransform:
    """Certificate for applying t1 first, then t2: products only."""
    if t1.m != t2.m:
        raise ValueError("certificates split w at m = %d and m = %d" % (t1.m, t2.m))
    return EmTransform(
        T_x=t2.T_x * t1.T_x,
        T_w=t2.T_w * t1.T_w,
        T_y=t2.T_y * t1.T_y,
        TF_w=t2.T_w * t1.TF_w + t2.TF_w * t1.T_x,
        TK=t2.T_x * t1.TK + t2.TK * t1.T_y,
        m=t1.m,
    )


def em_inverse(t: EmTransform) -> EmTransform:
    """The certificate undoing t; the inverses of its three coordinate
    changes are computed here."""
    Txi = _inverse_of(t.T_x, "T_x")
    Twi = _inverse_of(t.T_w, "T_w")
    Tyi = _inverse_of(t.T_y, "T_y")
    return EmTransform(Txi, Twi, Tyi, -(Twi * t.TF_w * Txi), -(Txi * t.TK * Tyi), t.m)


# ---------------------------------------------------------------------------
# explicitation-class membership
# ---------------------------------------------------------------------------


def expl_membership(
    o: Odecs2, d: Dacs
) -> Optional[Tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix, RatMatrix]]:
    """Witness (F_v, R, K, T_v, T_y) relating o to the canonical
    explicitation of d, or None when o is not an explicitation of d.

    The defining relations (with (A, B_u, B_v, C, D_u) the canonical
    explicitation) are

        o.A   = A + K C + B_v F_v
        o.B_u = B_u + B_v R + K D_u
        o.B_v = B_v T_v^{-1}
        o.C   = T_y C
        o.D_u = T_y D_u

    which is a finite exact linear-solvability problem in the unknowns.
    """
    o0 = explicitate(d)[0]
    if (o.n, o.m, o.s, o.p) != (o0.n, o0.m, o0.s, o0.p):
        return None
    n, m, s, p = o0.n, o0.m, o0.s, o0.p

    # T_v from B_v T_v^{-1} = o.B_v (B_v has full column rank)
    X = solve(o0.B_v, o.B_v)
    if X is None:
        return None
    try:
        T_v = inverse(X)
    except ValueError:
        return None

    # joint linear system K C + B_v F_v = o.A - A, K D_u + B_v R = o.B_u - B_u
    # in the unknowns (K, F_v, R), vectorized column-major
    I_n, I_m = RatMatrix.identity(n), RatMatrix.identity(m)
    coeff = vstack(
        [
            hstack([_kron(o0.C.T, I_n), _kron(I_n, o0.B_v), RatMatrix.zeros(n * n, s * m)]),
            hstack([_kron(o0.D_u.T, I_n), RatMatrix.zeros(n * m, s * n), _kron(I_m, o0.B_v)]),
        ]
    )
    sol = solve(coeff, vstack([_vec(o.A - o0.A), _vec(o.B_u - o0.B_u)]))
    if sol is None:
        return None
    nK, nF = n * p, s * n
    K = _unvec(sol.take_rows(range(nK)), n, p)
    F_v = _unvec(sol.take_rows(range(nK, nK + nF)), s, n)
    R = _unvec(sol.take_rows(range(nK + nF, sol.rows)), s, m)

    # invertible T_y with T_y [C D_u] = [o.C o.D_u]
    G = hstack([o0.C, o0.D_u])
    Gt = hstack([o.C, o.D_u])
    r, RG, TG = rank_rref(G)
    Rr = RG.take_rows(range(r))
    S = solve_left(Rr, Gt)
    if S is None:
        return None
    rt, _, _ = rank_rref(Gt)
    if rt != r:
        return None  # no invertible output transform can exist
    S_c = complement(image(S), Subspace.full(p)) if r < p else RatMatrix.zeros(p, 0)
    T_y = hstack([S, S_c]) * TG if p else RatMatrix.identity(0)
    if not is_invertible(T_y):
        return None

    # final audit of all five identities
    ok = (
        o.A == o0.A + K * o0.C + o0.B_v * F_v
        and o.B_u == o0.B_u + o0.B_v * R + K * o0.D_u
        and o.B_v == o0.B_v * X
        and o.C == T_y * o0.C
        and o.D_u == T_y * o0.D_u
    )
    return (F_v, R, K, T_v, T_y) if ok else None


# ---------------------------------------------------------------------------
# prolongation / v-reduction / implicitation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSystem:
    """x1' = A1 x1 + A2 z2 + B_u u,  y = C1 x1 + C2 z2 + D_u u.

    The free variables z2 enter statically (they are the reduced form of
    driving variables after dropping the prolongation rows z2' = v).
    """

    A1: RatMatrix
    A2: RatMatrix
    B_u: RatMatrix
    C1: RatMatrix
    C2: RatMatrix
    D_u: RatMatrix

    @property
    def n1(self) -> int:
        return self.A1.rows

    @property
    def s(self) -> int:
        return self.A2.cols

    @property
    def m(self) -> int:
        return self.B_u.cols

    @property
    def p(self) -> int:
        return self.C1.rows


def prolong(lz: SplitSystem) -> Odecs2:
    """Append the dynamics z2' = v, making z2 part of the state."""
    n1, s, m = lz.n1, lz.s, lz.m
    A = vstack(
        [
            hstack([lz.A1, lz.A2]),
            RatMatrix.zeros(s, n1 + s),
        ]
    )
    B_u = vstack([lz.B_u, RatMatrix.zeros(s, m)])
    B_v = vstack([RatMatrix.zeros(n1, s), RatMatrix.identity(s)])
    C = hstack([lz.C1, lz.C2])
    return Odecs2(A=A, B_u=B_u, B_v=B_v, C=C, D_u=lz.D_u)


def v_reduce(o: Odecs2) -> Tuple[SplitSystem, RatMatrix]:
    """Undo a prolongation: drop the z2' = v rows and free the z2 states.

    Requires each column of B_v to be a distinct standard basis vector
    whose state row in [A B_u] is zero (up to the state permutation that
    is computed here and returned as a permutation matrix P_x mapping
    original state coordinates to (kept..., prolonged...) order).
    """
    n, s = o.n, o.s
    prolonged: List[int] = []
    for j in range(s):
        col = o.B_v.col(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if len(nz) != 1 or col[nz[0]] != 1:
            raise NotAProlongation("B_v column %d is not a standard basis vector" % j)
        k = nz[0]
        if k in prolonged:
            raise NotAProlongation("B_v columns are not distinct")
        if any(x != 0 for x in o.A.row(k)) or any(x != 0 for x in o.B_u.row(k)):
            raise NotAProlongation("state %d has dynamics beyond z2' = v" % k)
        prolonged.append(k)
    kept = [i for i in range(n) if i not in set(prolonged)]
    # stable: kept states keep their relative order
    P_x = RatMatrix.identity(n).take_rows(kept + prolonged)
    A1 = o.A.submatrix(kept, kept)
    A2 = o.A.submatrix(kept, prolonged)
    B_u = o.B_u.take_rows(kept)
    C1 = o.C.take_cols(kept)
    C2 = o.C.take_cols(prolonged)
    return SplitSystem(A1=A1, A2=A2, B_u=B_u, C1=C1, C2=C2, D_u=o.D_u), P_x


def implicitate(lz: SplitSystem) -> Dacs:
    """Set y = 0: the split system becomes a Dacs in states (x1, z2)."""
    n1, s, p = lz.n1, lz.s, lz.p
    E = vstack(
        [
            hstack([RatMatrix.identity(n1), RatMatrix.zeros(n1, s)]),
            RatMatrix.zeros(p, n1 + s),
        ]
    )
    H = vstack([hstack([lz.A1, lz.A2]), hstack([lz.C1, lz.C2])])
    L = vstack([lz.B_u, lz.D_u])
    return Dacs(E=E, H=H, L=L)


# ---------------------------------------------------------------------------
# desk-scale simulation (solution-correspondence checks)
# ---------------------------------------------------------------------------


def simulate_odecs(
    o: Odecs2,
    x0: Sequence,
    u_seq: Sequence[Sequence],
    v_seq: Sequence[Sequence],
    h,
    steps: int,
) -> Tuple[List[RatMatrix], List[RatMatrix]]:
    """Explicit Euler with exact rational step h; piecewise-constant inputs.

    Returns (states x_0..x_N, outputs y_0..y_{N-1}).
    """
    h = qq(h)
    if h <= 0:
        raise ValueError("step must be positive")
    x = RatMatrix.from_column(x0)
    xs = [x]
    ys = []
    for k in range(steps):
        u = RatMatrix.from_column(u_seq[k]) if o.m else RatMatrix.zeros(0, 1)
        v = RatMatrix.from_column(v_seq[k]) if o.s else RatMatrix.zeros(0, 1)
        ys.append(o.C * x + o.D_u * u)
        dx = o.A * x + o.B_u * u + o.B_v * v
        x = x + dx.scale(h)
        xs.append(x)
    return xs, ys


def dacs_residuals(d: Dacs, xs: Sequence[RatMatrix], u_seq: Sequence[Sequence], h) -> List[RatMatrix]:
    """Exact residuals E (x_{k+1}-x_k)/h - H x_k - L u_k along a trajectory."""
    h = qq(h)
    res = []
    for k in range(len(xs) - 1):
        u = RatMatrix.from_column(u_seq[k]) if d.m else RatMatrix.zeros(0, 1)
        r = (d.E * (xs[k + 1] - xs[k])).scale(1 / h) - d.H * xs[k] - d.L * u
        res.append(r)
    return res
