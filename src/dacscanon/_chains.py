"""Exact polynomial and chain machinery: characteristic/minimal polynomials,
controllability indices, Brunovsky normalization, pole placement, Frobenius
(rational canonical) form.

Polynomials are coefficient lists low-to-high degree over the exact scalar
type.  The Brunovsky construction is dual: chain heads are row functionals
drawn from the annihilator filtration

    K_i = { tau : tau [B, AB, ..., A^{i-1}B] = 0 },

which decreases from everything (K_0) to zero (controllable pairs).  A head
tau of length k satisfies tau A^l B = 0 for l < k-1, so the tower
(tau, tau A, ..., tau A^{k-1}) turns into a pure integrator chain in the new
coordinates — no cleanup pass needed afterwards.  A chain is held as that
tower, together with its tail tau A^k.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

from .ratmat import (
    InternalInvariantViolation,
    RatMatrix,
    Subspace,
    _inverse_or_violation,
    _vec,
    block_diag,
    complement,
    hstack,
    image,
    kernel_basis,
    place,
    qq,
    rank,
    solve,
    vstack,
)


class NotControllable(ValueError):
    """The pair (A, B) is not controllable."""


class NotObservable(ValueError):
    """The pair (C, A) is not observable."""


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(p: List) -> List:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def poly_mul(p: List, q: List) -> List:
    if not p or not q:
        return []
    out = [qq(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p: List, q: List) -> Tuple[List, List]:
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [qq(0)] * max(0, len(r) - len(q) + 1)
    lead = q[-1]
    while len(poly_trim(r)) >= len(q):
        r = poly_trim(r)
        shift = len(r) - len(q)
        c = r[-1] / lead
        quo[shift] = c
        for i, b in enumerate(q):
            r[shift + i] -= c * b
    return poly_trim(quo), poly_trim(r)


def poly_gcd(p: List, q: List) -> List:
    """Monic greatest common divisor over the rationals."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    return [c / a[-1] for c in a]


def poly_from_roots(roots: Sequence) -> List:
    p = [qq(1)]
    for r in roots:
        p = poly_mul(p, [-qq(r), qq(1)])
    return p


def charpoly(A: RatMatrix) -> List:
    """Characteristic polynomial det(lambda I - A), computed by the
    Faddeev-LeVerrier trace recursion (division-safe over the rationals)."""
    n = A.rows
    coeffs = [qq(0)] * (n + 1)
    coeffs[n] = qq(1)
    M = RatMatrix.identity(n)
    for k in range(1, n + 1):
        AM = A * M
        tr = sum((AM[i, i] for i in range(n)), qq(0))
        c = -tr / qq(k)
        coeffs[n - k] = c
        M = AM + RatMatrix.identity(n).scale(c)
    return coeffs


def minimal_polynomial(A: RatMatrix) -> List:
    """Monic minimal polynomial via the first linear dependence among powers."""
    n = A.rows
    if n == 0:
        return [qq(1)]
    powers = [RatMatrix.identity(n)]
    while True:
        k = len(powers)
        nxt = A * powers[-1]
        c = solve(hstack([_vec(P) for P in powers]), _vec(nxt))
        if c is not None:
            return poly_trim([-x for x in c.col(0)] + [qq(1)])
        powers.append(nxt)
        if k > n:
            raise InternalInvariantViolation("minimal polynomial degree exceeded n")


# ---------------------------------------------------------------------------
# controllability and chain construction
# ---------------------------------------------------------------------------


def controllability_indices(A: RatMatrix, B: RatMatrix) -> List[int]:
    """Classical indices from the rank increments of [B, AB, A^2 B, ...].

    Returns the positive indices sorted nonincreasing; their sum is n iff
    the pair is controllable (no exception raised here — this is the
    independent cross-check oracle, not the construction).
    """
    n = A.rows
    blocks = []
    cur = B
    ranks = [0]
    for _ in range(n):
        blocks.append(cur)
        ranks.append(rank(hstack(blocks)))
        cur = A * cur
    increments = [ranks[i + 1] - ranks[i] for i in range(n)]
    # increments[k-1] counts the chains of length >= k, so exact-length-k
    # chains number increments[k-1] - increments[k]
    out: List[int] = []
    for k in range(n, 0, -1):
        longer = increments[k] if k < n else 0
        out.extend([k] * (increments[k - 1] - longer))
    return sorted(out, reverse=True)


def functional_chains(A: RatMatrix, B: RatMatrix) -> List[List[RatMatrix]]:
    """The chains of a controllable pair as towers, longest first.

    A chain of length k is its tower [tau, tau A, ..., tau A^k] of 1 x n
    rows, from a head tau drawn at level k of the annihilator filtration:
    rows 0..k-1 are its states, row k-1 times B its drive row and row k its
    tail.  Each level i spans K_i with the current rows (tau A^{k-i}) of
    the longer chains, which lie in K_{i-1}, and takes the new heads as the
    complement in K_{i-1}; then every tower grows by one row, one product
    with A.  Raises NotControllable otherwise.
    """
    n = A.rows
    K: List[Subspace] = [Subspace.full(n)]
    ctrb = B
    while K[-1].dim > 0 and len(K) <= n + 1:
        if len(K) > 1:
            ctrb = hstack([ctrb, A * (ctrb.take_cols(range(ctrb.cols - B.cols, ctrb.cols)))])
        K.append(kernel_basis(ctrb.T))
    if K[-1].dim != 0:
        raise NotControllable("annihilator filtration did not reach zero")
    towers: List[List[RatMatrix]] = []
    for i in range(len(K) - 1, 0, -1):
        inner = image(hstack([K[i].basis] + [t[-1].T for t in towers]))
        new_heads = complement(inner, K[i - 1])
        towers += [[RatMatrix([new_heads.col(j)], cols=n)] for j in range(new_heads.cols)]
        for t in towers:
            t.append(t[-1] * A)
    total = sum(len(t) - 1 for t in towers)
    if total != n:
        raise InternalInvariantViolation("chain lengths sum to %d, not n=%d" % (total, n))
    return towers


def brunovsky_single(
    A: RatMatrix, B: RatMatrix
) -> Tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix, RatMatrix, List[int]]:
    """(T_x, T_x^{-1}, T_u, T_u^{-1}, F, kappa) with T_x (A + B F) T_x^{-1}
    in chain form and T_x B T_u^{-1} the matching input selections.

    Everything is read off the towers of :func:`functional_chains`: T_x
    stacks each tower without its tail, T_u starts with the drive rows, and
    F kills the tails.  Chain j occupies a state block of size kappa[j]
    (ones on the superdiagonal) and is driven by new input j at its last
    row; surplus inputs (columns m > number of chains) drive nothing.
    """
    n, m = A.rows, B.cols
    towers = functional_chains(A, B)
    states = [r for t in towers for r in t[:-1]]
    T_x = vstack(states) if states else RatMatrix.zeros(0, n)
    T_x_inv = _inverse_or_violation(T_x, "chain tower is not a basis")
    gamma_rows = [t[-2] * B for t in towers]
    Gamma = vstack(gamma_rows) if gamma_rows else RatMatrix.zeros(0, m)
    extra = complement(image(Gamma.T), Subspace.full(m)).T
    T_u = vstack([Gamma, extra]) if m else RatMatrix.identity(0)
    T_u_inv = _inverse_or_violation(T_u, "chain tails do not extend to an input basis")
    tails = [t[-1] for t in towers]
    M = vstack(tails + [RatMatrix.zeros(m - len(towers), n)]) if m else RatMatrix.zeros(0, n)
    F = -(T_u_inv * M) if m else RatMatrix.zeros(0, n)
    kappa = [len(t) - 1 for t in towers]
    _assert_chain_form(T_x * (A + B * F) * T_x_inv, T_x * B * T_u_inv, kappa)
    return T_x, T_x_inv, T_u, T_u_inv, F, kappa


def _chain_starts(lengths: Sequence[int]) -> List[int]:
    """State offset of each chain when the chains are stacked in order."""
    return list(accumulate(lengths, initial=0))[:-1]


def _reversed_chains(lengths: Sequence[int]) -> List[int]:
    """Row order that reverses every chain in place."""
    return [o + k - 1 - i for o, k in zip(_chain_starts(lengths), lengths) for i in range(k)]


def _chain_diag(lengths: Sequence[int]) -> RatMatrix:
    """Block diagonal of shift blocks (ones on the superdiagonal)."""
    rows = [o + i for o, k in zip(_chain_starts(lengths), lengths) for i in range(k - 1)]
    n = sum(lengths)
    return place(n, n, [(rows, [r + 1 for r in rows], RatMatrix.identity(len(rows)))])


def _tail_selectors(lengths: Sequence[int], n: int, cols: int) -> RatMatrix:
    """n x cols matrix whose column j selects the tail of chain j."""
    tails = [o + k - 1 for o, k in zip(_chain_starts(lengths), lengths)]
    return place(n, cols, [(tails, range(len(tails)), RatMatrix.identity(len(tails)))])


def _head_selectors(lengths: Sequence[int]) -> RatMatrix:
    """Matrix whose row j selects the head of chain j (one column per state)."""
    heads = _chain_starts(lengths)
    c = len(heads)
    return place(c, sum(lengths), [(range(c), heads, RatMatrix.identity(c))])


def _assert_chain_form(A: RatMatrix, B: RatMatrix, kappa: Sequence[int]) -> None:
    if A != _chain_diag(kappa) or B != _tail_selectors(kappa, A.rows, B.cols):
        raise InternalInvariantViolation("Brunovsky normalization produced a wrong pattern")


def pole_place(A: RatMatrix, B: RatMatrix, targets: Sequence) -> RatMatrix:
    """F with charpoly(A + B F) = prod (lambda - t) over the targets.

    Exact coefficient matching per chain in Brunovsky coordinates; requires
    len(targets) = n and a controllable pair.
    """
    n = A.rows
    targets = [qq(t) for t in targets]
    if len(targets) != n:
        raise ValueError("need exactly n target poles")
    if n == 0:
        return RatMatrix.zeros(B.cols, 0)
    T_x, _, _, T_u_inv, F0, kappa = brunovsky_single(A, B)
    G = RatMatrix.zeros(B.cols, n).to_lists()
    off = 0
    for j, k in enumerate(kappa):
        coeffs = poly_from_roots(targets[off : off + k])
        for l in range(k):
            G[j][off + l] = -coeffs[l]
        off += k
    F = F0 + T_u_inv * RatMatrix(G, cols=n) * T_x
    if charpoly(A + B * F) != poly_from_roots(targets):
        raise InternalInvariantViolation("pole placement missed the target polynomial")
    return F


# ---------------------------------------------------------------------------
# Frobenius (rational canonical) form
# ---------------------------------------------------------------------------


def companion(p: List) -> RatMatrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, negated
    coefficients in the last column."""
    d = len(p) - 1
    last = RatMatrix.from_column([-c for c in p[:d]])
    return place(d, d, [(range(d), [d - 1], last)], base=_chain_diag([d]).T)


def _cyclic_vector(A: RatMatrix, degree: int) -> RatMatrix:
    """A column whose Krylov space has dimension d = deg(minimal polynomial).

    The unit vectors are tried first, then the moment-curve points
    (1, t, ..., t^(n-1)) for t = 1, ..., d(n-1) + 1, one of which is sure
    to work.  Write the minimal polynomial as a product of powers of
    distinct irreducibles, p_1^{e_1} ... p_r^{e_r} with r <= d.  A vector v
    is cyclic exactly when, for every i, (mp / p_i)(A) v != 0, so the
    non-cyclic vectors are the union of the r kernels of (mp / p_i)(A),
    each a proper subspace (it misses some vector, else mp / p_i would
    annihilate A).  A proper subspace lies in a hyperplane c x = 0, and a
    nonzero c vanishes at (1, t, ..., t^(n-1)) only where the polynomial
    sum c_k t^k does, at most n - 1 values of t.  So at most d(n-1) of the
    d(n-1) + 1 points are non-cyclic."""
    n = A.rows
    candidates = [[qq(1) if i == j else qq(0) for i in range(n)] for j in range(n)]
    candidates += [[qq(t) ** i for i in range(n)] for t in range(1, degree * (n - 1) + 2)]
    for entries in candidates:
        cols = [RatMatrix.from_column(entries)]
        for _ in range(degree - 1):
            cols.append(A * cols[-1])
        if rank(hstack(cols)) == degree:
            return cols[0]
    raise InternalInvariantViolation("no cyclic vector found for the minimal polynomial")


def frobenius_form(A: RatMatrix) -> Tuple[RatMatrix, RatMatrix, List[List]]:
    """(T, Fr, factors) with T A T^{-1} = Fr = diag of companion blocks.

    factors is the invariant-factor list, degree nonincreasing, each
    dividing the previous; their product is the characteristic polynomial.
    """
    return _frobenius(A, charpoly(A))


def _frobenius(A: RatMatrix, chi: List) -> Tuple[RatMatrix, RatMatrix, List[List]]:
    """:func:`frobenius_form` given chi = charpoly(A), which the invariant
    factors must multiply to."""
    T, blocks, factors = _frobenius_rec(A)
    Fr = block_diag(blocks)
    if T * A != Fr * T:
        raise InternalInvariantViolation("Frobenius transformation mismatch")
    prod = [qq(1)]
    for f in factors:
        prod = poly_mul(prod, f)
    if prod != chi:
        raise InternalInvariantViolation("invariant factors do not multiply to the charpoly")
    for f1, f2 in zip(factors, factors[1:]):
        if poly_divmod(f1, f2)[1]:
            raise InternalInvariantViolation("invariant factor divisibility chain broken")
    return T, Fr, factors


def _frobenius_rec(A: RatMatrix) -> Tuple[RatMatrix, List[RatMatrix], List[List]]:
    """(T, companion blocks, invariant factors), one cyclic subspace per
    level: T = diag(I, T_sub) P^{-1}."""
    n = A.rows
    if n == 0:
        return RatMatrix.identity(0), [], []
    mp = minimal_polynomial(A)
    d = len(mp) - 1
    v = _cyclic_vector(A, d)
    cols = [v]
    for _ in range(d - 1):
        cols.append(A * cols[-1])
    V = hstack(cols)
    e_last = RatMatrix.from_column([qq(0)] * (d - 1) + [qq(1)])
    phi_t = solve(V.T, e_last)
    if phi_t is None:
        raise InternalInvariantViolation("dual cyclic functional does not exist")
    phi = phi_t.T
    tower = [phi]
    for _ in range(d - 1):
        tower.append(tower[-1] * A)
    Phi = vstack(tower)
    W = kernel_basis(Phi).basis
    P = hstack([V, W])
    P_inv = _inverse_or_violation(P, "cyclic split is not a direct sum")
    Ap = P_inv * A * P
    sub = Ap.submatrix(range(d, n), range(d, n))
    if not (
        Ap.submatrix(range(d), range(d, n)).is_zero()
        and Ap.submatrix(range(d, n), range(d)).is_zero()
    ):
        raise InternalInvariantViolation("cyclic complement is not invariant")
    T_sub, blocks_sub, factors_sub = _frobenius_rec(sub)
    T = block_diag([RatMatrix.identity(d), T_sub]) * P_inv
    return T, [companion(mp)] + blocks_sub, [mp] + factors_sub

