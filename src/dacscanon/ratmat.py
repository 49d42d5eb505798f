"""Exact rational dense matrices and the subspace lattice.

Everything downstream (explicitation, Wong sequences, Morse forms, the
feedback canonical form) is built on the operations in this module.  All
arithmetic is exact: entries are arbitrary-precision rationals, kept in
lowest terms with positive denominator by the scalar type itself.  Ranks,
kernels and the lattice operations (sum, intersection, preimage,
complement) are therefore decidable, and subspaces get a *canonical*
basis — column-reduced echelon form — so subspace equality is plain
matrix equality.

Determinism rules (fixed so that certificates and canonical forms are
reproducible):
  * pivoting: leftmost column, first nonzero row;
  * complement: greedily extend the inner basis by the outer basis
    columns in index order;
  * right inverse: inverse of the pivot-column submatrix placed in the
    pivot rows, zeros elsewhere;
  * invertibility: elimination modulo the fixed prime 2^61 - 1 first; a
    nonzero determinant mod p proves invertibility, and otherwise (a zero
    determinant mod p, or a denominator divisible by p) the exact rank
    decides.  The answer is exact and never depends on chance.

Matrices made of blocks are assembled by ``place``: each block is a (row
indices, column indices, matrix) triple scattered into a zero (or a
given) matrix.  ``block_diag``, the Kronecker product and every stage
certificate of the pipeline are built this way.

gmpy2.mpq is used when available (it is markedly faster than
fractions.Fraction on the dense eliminations done here); the stdlib
Fraction is a drop-in fallback.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - exercised implicitly by the import
    from gmpy2 import mpq as QQ
    from gmpy2 import gcd as _int_gcd
    from gmpy2 import lcm as _int_lcm
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ
    from math import gcd as _int_gcd
    from math import lcm as _int_lcm

Rat = Union[int, str, "QQ"]

_ZERO = QQ(0)
_ONE = QQ(1)


def qq(x: Rat, den: int = None) -> "QQ":
    """Coerce an int, 'p/q' string or rational scalar to the scalar type.

    qq(p, q) builds the fraction p/q directly.
    """
    if den is None:
        if type(x) is QQ:
            return x
        if isinstance(x, float):
            raise TypeError("floats are not allowed in exact matrices: %r" % (x,))
        return QQ(x)
    return QQ(x, den)


def _int_row(row: Sequence["QQ"]) -> Tuple[List, "int"]:
    """(numerators, d): the row scaled by its common denominator d."""
    d = 1
    for x in row:
        xd = x.denominator
        if xd != 1:
            d = _int_lcm(d, xd)
    return [x.numerator * (d // x.denominator) for x in row], d


class NotNested(ValueError):
    """complement(inner, outer) called with inner not contained in outer."""


class NotFullRowRank(ValueError):
    """right_inverse called on a matrix without full row rank."""


class InternalInvariantViolation(AssertionError):
    """A mathematical fact the algorithms rely on failed to hold at runtime.

    This is never a user error: it means a proof obligation (solvability of
    a linear system, invertibility of a constructed block, a canonical zero
    pattern) was violated, i.e. a bug.
    """


class RatMatrix:
    """Immutable dense matrix over the rationals, row-major.

    Zero-row and zero-column matrices are representable (pass explicit
    ``cols`` when there are no rows).  Instances are never mutated after
    construction; all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, data: Sequence[Sequence[Rat]], cols: Optional[int] = None):
        d = [[qq(x) for x in row] for row in data]
        self.rows = len(d)
        if d:
            self.cols = len(d[0])
            if any(len(r) != self.cols for r in d):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            self.cols = cols
        self._d = d

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(d: List[List["QQ"]], cols: int) -> "RatMatrix":
        """Take rows already holding scalar-type entries as they are.

        The operations below build their results from scalar-type entries,
        so they skip the per-entry coercion and the shape checks of
        ``__init__``.
        """
        m = RatMatrix.__new__(RatMatrix)
        m.rows, m.cols, m._d = len(d), cols, d
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix._wrap([[_ZERO] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        m = [[_ZERO] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = _ONE
        return RatMatrix._wrap(m, n)

    @staticmethod
    def from_column(v: Sequence[Rat]) -> "RatMatrix":
        return RatMatrix([[x] for x in v], cols=1)

    # -- basic access ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: Tuple[int, int]) -> "QQ":
        i, j = ij
        return self._d[i][j]

    def row(self, i: int) -> List["QQ"]:
        return list(self._d[i])

    def col(self, j: int) -> List["QQ"]:
        return [r[j] for r in self._d]

    def to_lists(self) -> List[List["QQ"]]:
        return [list(r) for r in self._d]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self._d)))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return "RatMatrix(%dx%d)" % (self.rows, self.cols)
        body = "\n".join("[" + "  ".join(str(x) for x in r) + "]" for r in self._d)
        return "RatMatrix(%dx%d)\n%s" % (self.rows, self.cols, body)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._d for x in r)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch %s + %s" % (self.shape, other.shape))
        return RatMatrix._wrap(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)],
            self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch %s - %s" % (self.shape, other.shape))
        return RatMatrix._wrap(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._d, other._d)],
            self.cols,
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._wrap([[-x for x in r] for r in self._d], self.cols)

    def scale(self, c: Rat) -> "RatMatrix":
        c = qq(c)
        return RatMatrix._wrap([[c * x for x in r] for r in self._d], self.cols)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dims %s * %s" % (self.shape, other.shape))
        # Scale both factors to integers (one common denominator per row)
        # and do the inner products in plain integer arithmetic; rational
        # normalization then happens once per output entry instead of once
        # per multiply-add.
        ocols = other.cols
        L = 1
        bint = []
        for rb in other._d:
            ints, d = _int_row(rb)
            bint.append((ints, d))
            if d != 1:
                L = _int_lcm(L, d)
        if L != 1:
            bint = [
                (ints if d == L else [x * (L // d) for x in ints], L)
                for ints, d in bint
            ]
        brows = [ints for ints, _ in bint]
        out = []
        for ra in self._d:
            ia, da = _int_row(ra)
            D = da * L
            acc = [0] * ocols
            for k, a in enumerate(ia):
                if a:
                    rb = brows[k]
                    for j in range(ocols):
                        b = rb[j]
                        if b:
                            acc[j] += a * b
            out.append([qq(x, D) if x else _ZERO for x in acc])
        return RatMatrix._wrap(out, ocols)

    @property
    def T(self) -> "RatMatrix":
        return RatMatrix._wrap(
            [[self._d[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    # -- slicing / stacking -------------------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return RatMatrix._wrap([[self._d[i][j] for j in ci] for i in ri], len(ci))

    def take_rows(self, row_idx: Iterable[int]) -> "RatMatrix":
        return self.submatrix(row_idx, range(self.cols))

    def take_cols(self, col_idx: Iterable[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    cols = sum(m.cols for m in mats)
    out = [[] for _ in range(rows)]
    for m in mats:
        for i in range(rows):
            out[i].extend(m._d[i])
    return RatMatrix._wrap(out, cols)


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack col mismatch")
    return RatMatrix._wrap([list(r) for m in mats for r in m._d], cols)


def place(
    rows: int,
    cols: int,
    blocks: Iterable[Tuple[Sequence[int], Sequence[int], RatMatrix]],
    base: Optional[RatMatrix] = None,
) -> RatMatrix:
    """rows x cols matrix assembled from blocks.

    Each block is a (row_idx, col_idx, M) triple: entry (a, b) of M goes to
    (row_idx[a], col_idx[b]).  Entries no block covers are zero, or those
    of ``base``; a later block overwrites an earlier one.  Raises
    ValueError when M's shape does not fit its index lists.
    """
    if base is None:
        out = [[_ZERO] * cols for _ in range(rows)]
    elif base.shape != (rows, cols):
        raise ValueError("base has shape %s, expected %s" % (base.shape, (rows, cols)))
    else:
        out = base.to_lists()
    for row_idx, col_idx, M in blocks:
        if M.shape != (len(row_idx), len(col_idx)):
            raise ValueError(
                "block of shape %s does not fit %d x %d indices"
                % (M.shape, len(row_idx), len(col_idx))
            )
        for i, mrow in zip(row_idx, M._d):
            row = out[i]
            for j, x in zip(col_idx, mrow):
                row[j] = x
    return RatMatrix._wrap(out, cols)


def _kron(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Kronecker product of A and B."""
    br, bc = B.rows, B.cols
    return place(
        A.rows * br,
        A.cols * bc,
        [
            (range(i * br, (i + 1) * br), range(j * bc, (j + 1) * bc), B.scale(a))
            for i, row in enumerate(A._d)
            for j, a in enumerate(row)
            if a != 0
        ],
    )


def _vec(M: RatMatrix) -> RatMatrix:
    """Column-major vectorization."""
    return RatMatrix._wrap([[M._d[i][j]] for j in range(M.cols) for i in range(M.rows)], 1)


def _unvec(v: RatMatrix, rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix whose column-major vectorization is v."""
    return RatMatrix._wrap(
        [[v._d[j * rows + i][0] for j in range(cols)] for i in range(rows)], cols
    )


def block_diag(mats: Sequence[RatMatrix]) -> RatMatrix:
    blocks = []
    r0 = c0 = 0
    for m in mats:
        blocks.append((range(r0, r0 + m.rows), range(c0, c0 + m.cols), m))
        r0 += m.rows
        c0 += m.cols
    return place(r0, c0, blocks)


def mat(data: Sequence[Sequence[Rat]], cols: Optional[int] = None) -> RatMatrix:
    """Shorthand constructor used pervasively in tests and fixtures."""
    return RatMatrix(data, cols=cols)


# -- elimination -------------------------------------------------------------------


def _eliminate(M: RatMatrix, certify: bool) -> Tuple[int, List[List], List]:
    """Gauss-Jordan elimination of M as integer rows over row denominators.

    Returns (rank, num, den): row i of the reduced form is num[i][:cols] /
    den[i].  With ``certify`` each row is augmented by the identity, and
    num[i][cols:] / den[i] is row i of the row-operation certificate.  Row
    i's values do not depend on the augmentation (only the common scaling
    of num[i] and den[i] does), so both modes give the same reduced form.
    """
    rows, cols = M.rows, M.cols
    # Each working row is an integer vector over a single positive
    # denominator.  Normalizing a pivot to 1 is then just a denominator
    # change, and eliminations are pure integer cross-multiplications
    # followed by one gcd sweep, which is markedly cheaper than per-entry
    # rational arithmetic.  The produced values are identical to the naive
    # rational elimination.
    num: List[List] = []
    den: List = []
    for i in range(rows):
        ints, d = _int_row(M._d[i])
        if certify:
            ints.extend([0] * rows)
            ints[cols + i] = d
        num.append(ints)
        den.append(d)
    piv_r = 0
    for pc in range(cols):
        pr = None
        for i in range(piv_r, rows):
            if num[i][pc]:
                pr = i
                break
        if pr is None:
            continue
        if pr != piv_r:
            num[piv_r], num[pr] = num[pr], num[piv_r]
            den[piv_r], den[pr] = den[pr], den[piv_r]
        prow = num[piv_r]
        if prow[pc] < 0:
            prow = num[piv_r] = [-x for x in prow]
        e = den[piv_r] = prow[pc]
        for i in range(rows):
            if i == piv_r:
                continue
            f = num[i][pc]
            if not f:
                continue
            ri = num[i]
            nv = [e * a - f * b for a, b in zip(ri, prow)]
            nd = den[i] * e
            g = nd
            for x in nv:
                if x:
                    g = _int_gcd(g, x)
                    if g == 1:
                        break
            if g != 1:
                nv = [x // g for x in nv]
                nd //= g
            num[i] = nv
            den[i] = nd
        piv_r += 1
        if piv_r == rows:
            break
    return piv_r, num, den


def _rat_block(num: List[List], den: List, lo: int, hi: int) -> RatMatrix:
    """Columns lo..hi-1 of the integer rows, divided by their denominators."""
    return RatMatrix._wrap(
        [[qq(r[j], d) if r[j] else _ZERO for j in range(lo, hi)] for r, d in zip(num, den)],
        hi - lo,
    )


def _rref(M: RatMatrix) -> Tuple[int, RatMatrix]:
    """(rank, R) of rank_rref without building the certificate."""
    rk, num, den = _eliminate(M, certify=False)
    return rk, _rat_block(num, den, 0, M.cols)


def rank_rref(M: RatMatrix) -> Tuple[int, RatMatrix, RatMatrix]:
    """Reduced row echelon form with a row-operation certificate.

    Returns (rank, R, T) with T invertible and T*M = R exactly.  Pivoting
    is deterministic: leftmost column, first nonzero row at or below the
    current pivot row, so R's nonzero rows come first.
    """
    rk, num, den = _eliminate(M, certify=True)
    cols = M.cols
    return rk, _rat_block(num, den, 0, cols), _rat_block(num, den, cols, cols + M.rows)


def rank(M: RatMatrix) -> int:
    return _eliminate(M, certify=False)[0]


def pivot_columns(R: RatMatrix, rk: int) -> List[int]:
    """Pivot column indices of a matrix already in RREF with given rank."""
    pivs = []
    j = 0
    for i in range(rk):
        while R[i, j] == 0:
            j += 1
        pivs.append(j)
        j += 1
    return pivs


def inverse(M: RatMatrix) -> RatMatrix:
    """Exact inverse of a square invertible matrix (the RREF certificate)."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square %s" % (M.shape,))
    rk, _, T = rank_rref(M)
    if rk != M.rows:
        raise ValueError("matrix is singular")
    return T


# The fixed prime of the modular invertibility test.
_PRIME = (1 << 61) - 1


def _det_nonzero_mod_p(M: RatMatrix) -> bool:
    """True when det M is nonzero modulo _PRIME (M square).

    False means "undecided": det M may vanish mod p only, or an entry's
    denominator is divisible by p, so the entry has no image mod p.
    """
    p = _PRIME
    rows = []
    for r in M._d:
        row = []
        for x in r:
            d = x.denominator
            if d == 1:
                row.append(x.numerator % p)
            else:
                d %= p
                if not d:
                    return False
                row.append(x.numerator * pow(d, -1, p) % p)
        rows.append(row)
    # Eliminate the leading column, then drop it; the pivot order does not
    # matter for whether the determinant vanishes.
    while rows:
        pr = next((i for i, r in enumerate(rows) if r[0]), None)
        if pr is None:
            return False
        prow = rows.pop(pr)
        inv = pow(prow[0], -1, p)
        tail = prow[1:]
        for i, r in enumerate(rows):
            f = r[0] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(r[1:], tail)] if f else r[1:]
    return True


def is_invertible(M: RatMatrix) -> bool:
    """Exact invertibility test.

    A nonzero determinant modulo a prime proves det M != 0; only when the
    modular test is undecided does the exact rank decide.
    """
    if M.rows != M.cols:
        return False
    return _det_nonzero_mod_p(M) or rank(M) == M.rows


def solve(M: RatMatrix, B: RatMatrix) -> Optional[RatMatrix]:
    """First echelon solution X of M*X = B, or None if inconsistent.

    Free variables are set to zero, which makes the result deterministic.
    """
    if M.rows != B.rows:
        raise ValueError("solve row mismatch")
    rk, R, T = rank_rref(M)
    TB = T * B
    for i in range(rk, M.rows):
        if any(x != 0 for x in TB._d[i]):
            return None
    return place(M.cols, B.cols, [(pivot_columns(R, rk), range(B.cols), TB.take_rows(range(rk)))])


def solve_left(M: RatMatrix, B: RatMatrix) -> Optional[RatMatrix]:
    """First echelon solution X of X*M = B, or None."""
    Xt = solve(M.T, B.T)
    return None if Xt is None else Xt.T


def right_inverse(M: RatMatrix) -> RatMatrix:
    """Right inverse with the inverse pivot-column submatrix in pivot rows."""
    rk, R = _rref(M)
    if rk != M.rows:
        raise NotFullRowRank("matrix %dx%d has rank %d" % (M.rows, M.cols, rk))
    pivs = pivot_columns(R, rk)
    return place(M.cols, M.rows, [(pivs, range(M.rows), inverse(M.take_cols(pivs)))])


# -- subspaces ---------------------------------------------------------------------


class Subspace:
    """A subspace of Q^k held as a canonical full-column-rank basis.

    The basis is the column-reduced echelon form of any spanning set (the
    transpose of the RREF of the transposed columns), which is unique for
    the subspace, so ``==`` on Subspace is decidable subspace equality.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RatMatrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis ambient mismatch")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @staticmethod
    def from_columns(M: RatMatrix) -> "Subspace":
        """Span of the columns of M, canonicalized."""
        rk, R = _rref(M.T)
        return Subspace(M.rows, R.take_rows(range(rk)).T)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)

    def contains_matrix(self, M: RatMatrix) -> bool:
        """Do all columns of M lie in this subspace?"""
        if M.cols == 0:
            return True
        return solve(self.basis, M) is not None

    def is_subspace_of(self, other: "Subspace") -> bool:
        return other.contains_matrix(self.basis)


def image(M: RatMatrix) -> Subspace:
    return Subspace.from_columns(M)


def kernel_basis(M: RatMatrix) -> Subspace:
    """Exact kernel {x : M x = 0} with dim = cols - rank."""
    rk, R = _rref(M)
    pivs = pivot_columns(R, rk)
    free = [j for j in range(M.cols) if j not in pivs]
    f = range(len(free))
    B = place(
        M.cols,
        len(free),
        [(free, f, RatMatrix.identity(len(free))), (pivs, f, -R.submatrix(range(rk), free))],
    )
    return Subspace.from_columns(B)


def preimage(M: RatMatrix, S: Subspace) -> Subspace:
    """{x : M x in S}, computed exactly."""
    if S.ambient_dim != M.rows:
        raise ValueError("preimage ambient mismatch")
    if S.dim == 0:
        return kernel_basis(M)
    K = kernel_basis(hstack([M, -S.basis]))
    return Subspace.from_columns(K.basis.take_rows(range(M.cols)))


def subspace_sum(S1: Subspace, S2: Subspace) -> Subspace:
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("ambient mismatch")
    return Subspace.from_columns(hstack([S1.basis, S2.basis]))


def subspace_intersect(S1: Subspace, S2: Subspace) -> Subspace:
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("ambient mismatch")
    if S1.dim == 0 or S2.dim == 0:
        return Subspace.zero(S1.ambient_dim)
    K = kernel_basis(hstack([S1.basis, S2.basis]))
    coeff = K.basis.take_rows(range(S1.dim))
    return Subspace.from_columns(S1.basis * coeff)


def orthogonal_complement(S: Subspace) -> Subspace:
    return kernel_basis(S.basis.T)


def complement(inner: Subspace, outer: Subspace) -> RatMatrix:
    """Columns extending inner to a direct-sum decomposition of outer.

    The choice is canonical: outer's echelon basis columns are added
    greedily in index order whenever they enlarge the span.  Raises
    NotNested if inner is not contained in outer.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient mismatch")
    if not inner.is_subspace_of(outer):
        raise NotNested("inner subspace not contained in outer")
    n = inner.ambient_dim
    # incremental row-echelon of the chosen vectors (as rows)
    reduced: List[Tuple[int, List["QQ"]]] = []  # (pivot index, reduced row)

    def try_add(v: List["QQ"]) -> bool:
        w = list(v)
        for p, r in reduced:
            f = w[p]
            if f != 0:
                for j in range(n):
                    if r[j] != 0:
                        w[j] = w[j] - f * r[j]
        for p in range(n):
            if w[p] != 0:
                inv = _ONE / w[p]
                w = [x * inv for x in w]
                reduced.append((p, w))
                return True
        return False

    for j in range(inner.dim):
        if not try_add(inner.basis.col(j)):
            raise InternalInvariantViolation("inner basis not independent")
    chosen = []
    for j in range(outer.dim):
        v = outer.basis.col(j)
        if try_add(v):
            chosen.append(v)
    if len(chosen) != outer.dim - inner.dim:
        raise InternalInvariantViolation("complement dimension bookkeeping failed")
    if not chosen:
        return RatMatrix.zeros(n, 0)
    return RatMatrix(chosen, cols=n).T
