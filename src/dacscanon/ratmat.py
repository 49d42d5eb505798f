"""Exact rational dense matrices and the subspace lattice.

Everything downstream (explicitation, Wong sequences, Morse forms, the
feedback canonical form) is built on the operations in this module.  All
arithmetic is exact.  Ranks, kernels and the lattice operations (sum,
intersection, preimage, complement) are therefore decidable, and subspaces
get a *canonical* basis — column-reduced echelon form — so subspace
equality is plain matrix equality.

A matrix stores each row as a list of integers over one positive
denominator, in primitive form: the gcd of the integers and the
denominator is 1.  That form is unique for a row of rationals, because its
denominator is then the lcm of the entries' reduced denominators; so
``==`` and ``hash`` compare the stored integers.  Products, sums, slices,
stacks, ``place`` and the eliminations all work on the integers and bring
a result row back to that form with one gcd, where it can have a common
factor.  Entries become scalars (rationals of the scalar type below) only
at the boundary: the constructor's coercion, indexing, ``row``, ``col``,
``to_lists`` and ``repr``.

Trivial operands cost nothing.  A product with an identity factor returns
the other factor, and one with a zero factor returns ``zeros``; a zero row
of the left factor gives a zero row, and a left row +-e_j gives +-(row j
of the right factor) as stored.  A sum or difference with a zero operand
returns the other operand (negated when it is subtracted), and the
inverse of the identity is the identity, found with no elimination.  Such
results may share an operand's rows (matrices are immutable), and since
the primitive form is unique their values and stored form are those the
general path computes.

One large left factor times several small ones (the re-check of an
implicit certificate forms Q E1, Q H1 and Q L1) is ``products(M, Bs)``:
the same stored rows as ``[M * B for B in Bs]``, from one packed copy of
M's columns (Kronecker substitution).  Each column of M becomes one
integer with one slot per row, of bits(row of M) + bits(B) + bits(k) + 2
bits rounded up to whole bytes (B over one denominator, k = M.cols), so
a column of M B is one integer combination of M's packed columns and no
slot carries into the next.  Each slot is read back through a bias of
half its range, which makes it nonnegative, and one ``to_bytes`` per
column of M B.  The packed path is taken only for Python-int numerators
and an M of at least 14 rows that is neither zero nor the identity;
otherwise, and in ``__mul__`` everywhere, products are plain (packing
the pipeline's own products was measured slower).

Determinism rules (fixed so that certificates and canonical forms are
reproducible):
  * pivoting: leftmost column, first nonzero row;
  * kernel: pivoting from the rightmost column instead, so the kernel
    vectors built on the free columns already form the canonical basis
    and need no second elimination;
  * annihilator: the rows e_j - sum_c K[j, c] e_{q_c}, for the rows j of
    a canonical basis K that are not leading rows q_c, are read off K
    with no elimination; preimage, intersection and containment are
    kernels and products of these;
  * complement: greedily extend the inner basis by the outer basis
    columns in index order;
  * right inverse: inverse of the pivot-column submatrix placed in the
    pivot rows, zeros elsewhere;
  * invertibility: elimination modulo the fixed prime p = 2^30 - 35 (the
    largest below 2^30, so residues are single CPython digits) first, on
    rows packed into one integer each with one slot of 2 bits(p) + bits(n)
    + 1 bits per column, so a row update is one big-integer multiply-add
    and no slot ever carries into the next; a nonzero determinant mod p
    proves invertibility, and otherwise (a zero determinant mod p, or a
    denominator divisible by p) the exact rank decides.  The answer is
    exact and never depends on chance.

Matrices made of blocks are assembled by ``place``: each block is a (row
indices, column indices, matrix) triple scattered into a zero (or a
given) matrix.  ``block_diag``, the Kronecker product and every stage
certificate of the pipeline are built this way.

With gmpy2 available the stored integers are gmpy2.mpz and the boundary
scalars gmpy2.mpq (markedly faster than Python ints on the large
eliminations done here); Python ints with the stdlib Fraction are the
drop-in fallback.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - exercised implicitly by the import
    from gmpy2 import mpq as QQ
    from gmpy2 import gcd as _int_gcd
    from gmpy2 import lcm as _int_lcm

    _INT_NUMERATORS = False
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ
    from math import gcd as _int_gcd
    from math import lcm as _int_lcm

    _INT_NUMERATORS = True

Rat = Union[int, str, "QQ"]


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


def _prim(ints: List, d) -> Tuple[List, "int"]:
    """The row ints / d (d > 0) in primitive form: both divided by their gcd."""
    g = _int_gcd(d, *ints) if d != 1 else 1
    return (ints, d) if g == 1 else ([x // g for x in ints], d // g)


def _join(parts: Sequence[Tuple[List, "int"]]) -> Tuple[List, "int"]:
    """The primitive rows ``parts`` laid side by side, as one primitive row.

    Each part is scaled to the lcm of the parts' denominators, which is the
    lcm of all the entries' reduced denominators, so no gcd sweep is needed.
    """
    L = _int_lcm(1, *[d for _, d in parts])
    row: List = []
    for n, d in parts:
        row.extend(n if d == L else [x * (L // d) for x in n])
    return row, L


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
    construction; all operations return new matrices, which may share
    row lists with their operands.
    """

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, data: Sequence[Sequence[Rat]], cols: Optional[int] = None):
        r = []
        for row in data:
            q = [qq(x) for x in row]
            L = _int_lcm(1, *[x.denominator for x in q])
            r.append(([x.numerator * (L // x.denominator) for x in q], L))
        self.rows = len(r)
        if r:
            self.cols = len(r[0][0])
            if any(len(n) != self.cols for n, _ in r):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            self.cols = cols
        self._r = r

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(r: List[Tuple[List, "int"]], cols: int) -> "RatMatrix":
        """Take rows already in primitive (ints, denominator) form as they are.

        The operations below build their results in that form, so they skip
        the coercion and the shape checks of ``__init__``.
        """
        m = RatMatrix.__new__(RatMatrix)
        m.rows, m.cols, m._r = len(r), cols, r
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix._wrap([([0] * cols, 1)] * rows, cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._wrap([([int(i == j) for j in range(n)], 1) for i in range(n)], n)

    @staticmethod
    def from_column(v: Sequence[Rat]) -> "RatMatrix":
        return RatMatrix([[x] for x in v], cols=1)

    # -- basic access ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: Tuple[int, int]) -> "QQ":
        i, j = ij
        n, d = self._r[i]
        return QQ(n[j], d)

    def row(self, i: int) -> List["QQ"]:
        n, d = self._r[i]
        return [QQ(x, d) for x in n]

    def col(self, j: int) -> List["QQ"]:
        return [QQ(n[j], d) for n, d in self._r]

    def to_lists(self) -> List[List["QQ"]]:
        return [[QQ(x, d) for x in n] for n, d in self._r]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple((tuple(n), d) for n, d in self._r)))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return "RatMatrix(%dx%d)" % (self.rows, self.cols)
        body = "\n".join("[" + "  ".join(str(x) for x in r) + "]" for r in self.to_lists())
        return "RatMatrix(%dx%d)\n%s" % (self.rows, self.cols, body)

    def is_zero(self) -> bool:
        return not any(any(n) for n, _ in self._r)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            d == 1 and n[i] == 1 and n.count(0) == self.cols - 1
            for i, (n, d) in enumerate(self._r)
        )

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch %s + %s" % (self.shape, other.shape))
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        out = []
        for (a, da), (b, db) in zip(self._r, other._r):
            if da != db:
                L = _int_lcm(da, db)
                fa, fb, da = L // da, L // db, L
                a, b = [x * fa for x in a], [y * fb for y in b]
            out.append(_prim([x + y for x, y in zip(a, b)], da))
        return RatMatrix._wrap(out, self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch %s - %s" % (self.shape, other.shape))
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._wrap([([-x for x in n], d) for n, d in self._r], self.cols)

    def scale(self, c: Rat) -> "RatMatrix":
        c = qq(c)
        cn, cd = c.numerator, c.denominator
        return RatMatrix._wrap([_prim([x * cn for x in n], d * cd) for n, d in self._r], self.cols)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dims %s * %s" % (self.shape, other.shape))
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        if self.is_zero() or other.is_zero():
            return RatMatrix.zeros(self.rows, other.cols)
        zero = ([0] * other.cols, 1)
        brows = bcols = None
        out = []
        for a, d in self._r:
            nnz = len(a) - a.count(0)
            if not nnz:
                out.append(zero)
                continue
            if nnz == 1:
                j, x = next((j, x) for j, x in enumerate(a) if x)
                if abs(x) == d:  # the row is primitive, so it is +-e_j
                    b, db = other._r[j]
                    out.append((b, db) if x > 0 else ([-y for y in b], db))
                    continue
            if brows is None:
                # Scale the right factor's rows to one denominator L; then
                # row i of the product is an integer combination of them
                # over d_i * L.
                L = _int_lcm(1, *[db for _, db in other._r])
                brows = [b if db == L else [y * (L // db) for y in b] for b, db in other._r]
            if 3 * nnz <= len(a):  # sparse row: add up the rows it picks
                acc = [0] * other.cols
                for x, b in zip(a, brows):
                    if x:
                        acc = [s + x * y for s, y in zip(acc, b)]
            else:
                if bcols is None:
                    bcols = list(zip(*brows))
                acc = [sum(map(mul, a, c)) for c in bcols]
            out.append(_prim(acc, d * L))
        return RatMatrix._wrap(out, other.cols)

    @property
    def T(self) -> "RatMatrix":
        L = _int_lcm(1, *[d for _, d in self._r])
        f = [L // d for _, d in self._r]
        cols = list(zip(*(n for n, _ in self._r))) or [()] * self.cols
        return RatMatrix._wrap([_prim(list(map(mul, c, f)), L) for c in cols], self.rows)

    # -- slicing / stacking -------------------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        ci = list(col_idx)
        return RatMatrix._wrap(
            [_prim([n[j] for j in ci], d) for n, d in (self._r[i] for i in row_idx)], len(ci)
        )

    def take_rows(self, row_idx: Iterable[int]) -> "RatMatrix":
        return RatMatrix._wrap([self._r[i] for i in row_idx], self.cols)

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
    return RatMatrix._wrap([_join(parts) for parts in zip(*(m._r for m in mats))], cols)


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack col mismatch")
    return RatMatrix._wrap([r for m in mats for r in m._r], cols)


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
        nums, dens = [[0] * cols for _ in range(rows)], [1] * rows
    elif base.shape != (rows, cols):
        raise ValueError("base has shape %s, expected %s" % (base.shape, (rows, cols)))
    else:
        nums, dens = [list(n) for n, _ in base._r], [d for _, d in base._r]
    for row_idx, col_idx, M in blocks:
        if M.shape != (len(row_idx), len(col_idx)):
            raise ValueError(
                "block of shape %s does not fit %d x %d indices"
                % (M.shape, len(row_idx), len(col_idx))
            )
        for i, (m, dm) in zip(row_idx, M._r):
            d = dens[i]
            if d != dm:
                L = dens[i] = _int_lcm(d, dm)
                if L != d:
                    nums[i] = [x * (L // d) for x in nums[i]]
                m = [x * (L // dm) for x in m]
            row = nums[i]
            for j, x in zip(col_idx, m):
                row[j] = x
    # an overwritten entry may have needed a factor of the denominator
    return RatMatrix._wrap([_prim(n, d) for n, d in zip(nums, dens)], cols)


# The left factor's row count from which packed products beat plain ones.
_PACK_MIN_ROWS = 14


def products(M: RatMatrix, Bs: Sequence[RatMatrix]) -> List[RatMatrix]:
    """[M * B for B in Bs], with the same stored rows, from one packed copy
    of M's columns (Kronecker substitution).

    Column c of M becomes the integer sum_i M[i][c] 2^(o_i): row i has a
    slot of s_i = bits(row i of M) + bits(B) + bits(k) + 2 bits, rounded up
    to whole bytes (B over one denominator, k = M.cols), starting at bit
    o_i = s_0 + ... + s_(i-1).  Column j of M B, over B's rows scaled to one
    denominator L_B, is then sum_c B[c][j] col_c: one big-integer multiply
    per entry of B instead of one per entry of M B.  Entry i of that column
    lies strictly within 2^(s_i - 2) of zero, so adding the bias W = sum_i
    2^(o_i + s_i - 1) makes every slot hold entry + 2^(s_i - 1) in [0,
    2^s_i), with no borrow from or carry into the next slot.  XOR with W
    then turns each slot into its entry's two's complement, and one
    ``to_bytes`` unpacks the column.  Row i is then brought to primitive
    form over d_i L_B, as in ``__mul__``.  The columns of M are packed the
    same way backwards: the entries' two's complements, XOR W, minus W.

    Packing was measured to pay only for a left factor of at least
    _PACK_MIN_ROWS rows with Python-int numerators; otherwise (gmpy2
    numerators, a smaller M, or a zero or identity M) the plain products
    are returned.
    """
    for B in Bs:
        if M.cols != B.rows:
            raise ValueError("inner dims %s * %s" % (M.shape, B.shape))
    if not _INT_NUMERATORS or M.rows < _PACK_MIN_ROWS or M.is_identity() or M.is_zero():
        return [M * B for B in Bs]
    return _packed_products(M, Bs)


def _max_bits(rows: Iterable[List]) -> int:
    """The bit length of the largest absolute value in the integer rows."""
    return max((max(max(r), -min(r)) for r in rows if r), default=0).bit_length()


def _packed_products(M: RatMatrix, Bs: Sequence[RatMatrix]) -> List[RatMatrix]:
    """The packed path of :func:`products` (M has columns)."""
    l, k = M.rows, M.cols
    scaled = []
    for B in Bs:
        L = _int_lcm(1, *[d for _, d in B._r])
        scaled.append((L, [b if d == L else [y * (L // d) for y in b] for b, d in B._r]))
    bits_B = max((_max_bits(brows) for _, brows in scaled), default=0)
    extra = bits_B + k.bit_length() + 2
    widths = [(_max_bits([a]) + extra + 7) // 8 for a, _ in M._r]  # in bytes
    W = int.from_bytes(b"".join([b"\x80".rjust(nb, b"\0") for nb in widths]), "little")
    offsets = list(accumulate(widths, initial=0))
    slots = list(zip(offsets, offsets[1:]))
    cols = []
    for c in zip(*(a for a, _ in M._r)):
        twos = b"".join([x.to_bytes(nb, "little", signed=True) for x, nb in zip(c, widths)])
        cols.append((int.from_bytes(twos, "little") ^ W) - W)
    out = []
    for (L, brows), B in zip(scaled, Bs):
        if not B.cols:
            out.append(RatMatrix.zeros(l, 0))
            continue
        packed = []
        for bc in zip(*brows):
            data = ((sum(map(mul, bc, cols)) + W) ^ W).to_bytes(offsets[-1], "little")
            packed.append([int.from_bytes(data[i:j], "little", signed=True) for i, j in slots])
        rows = [_prim(list(v), d * L) for v, (_, d) in zip(zip(*packed), M._r)]
        out.append(RatMatrix._wrap(rows, B.cols))
    return out


def _kron(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Kronecker product of A and B."""
    zero = [0] * B.cols
    out = []
    for ra, da in A._r:
        for rb, db in B._r:
            row: List = []
            for a in ra:
                row.extend([a * b for b in rb] if a else zero)
            out.append(_prim(row, da * db))
    return RatMatrix._wrap(out, A.cols * B.cols)


def _vec(M: RatMatrix) -> RatMatrix:
    """Column-major vectorization."""
    return RatMatrix._wrap([_prim([n[j]], d) for j in range(M.cols) for n, d in M._r], 1)


def _unvec(v: RatMatrix, rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix whose column-major vectorization is v."""
    return RatMatrix._wrap(
        [_join([v._r[j * rows + i] for j in range(cols)]) for i in range(rows)], cols
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


def _eliminate(
    M: RatMatrix, certify: bool, from_right: bool = False
) -> Tuple[int, List[List], List]:
    """Gauss-Jordan elimination of M's integer rows over their denominators.

    Returns (rank, num, den): row i of the reduced form is num[i][:cols] /
    den[i].  With ``certify`` each row is augmented by the identity, and
    num[i][cols:] / den[i] is row i of the row-operation certificate.  Row
    i's values do not depend on the augmentation (only the common scaling
    of num[i] and den[i] does), so both modes give the same reduced form.
    With ``from_right`` the pivot columns are sought from the last column
    leftwards (the reduced form of M with its columns reversed).
    """
    rows, cols = M.rows, M.cols
    # Normalizing a pivot to 1 is just a denominator change, and
    # eliminations are integer cross-multiplications followed by one gcd
    # sweep, which is markedly cheaper than per-entry rational arithmetic.
    # The produced values are identical to the naive rational elimination.
    num: List[List] = [n for n, _ in M._r]
    den: List = [d for _, d in M._r]
    if certify:
        for i in range(rows):
            e = [0] * rows
            e[i] = den[i]
            num[i] = num[i] + e
    piv_r = 0
    for pc in range(cols - 1, -1, -1) if from_right else range(cols):
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
            if f:
                num[i], den[i] = _prim([e * a - f * b for a, b in zip(num[i], prow)], den[i] * e)
        piv_r += 1
        if piv_r == rows:
            break
    return piv_r, num, den


def _rat_block(num: List[List], den: List, lo: int, hi: int) -> RatMatrix:
    """Columns lo..hi-1 of the integer rows over their denominators."""
    return RatMatrix._wrap([_prim(r[lo:hi], d) for r, d in zip(num, den)], hi - lo)


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
        while not R._r[i][0][j]:
            j += 1
        pivs.append(j)
        j += 1
    return pivs


def inverse(M: RatMatrix) -> RatMatrix:
    """Exact inverse of a square invertible matrix (the RREF certificate)."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square %s" % (M.shape,))
    if M.is_identity():
        return M
    rk, _, T = rank_rref(M)
    if rk != M.rows:
        raise ValueError("matrix is singular")
    return T


def _inverse_or_violation(M: RatMatrix, message: str) -> RatMatrix:
    """inverse(M) where the algorithm has proven M invertible: a singular or
    non-square M raises InternalInvariantViolation(message)."""
    try:
        return inverse(M)
    except ValueError:
        raise InternalInvariantViolation(message) from None


# The fixed prime of the modular invertibility test, the largest below
# 2^30: its residues are single CPython digits.
_PRIME = (1 << 30) - 35


def _det_nonzero_mod_p(M: RatMatrix) -> bool:
    """True when det M is nonzero modulo _PRIME (M square).

    False means "undecided": det M may vanish mod p only, or a row's
    denominator (and so an entry's) is divisible by p, so the row has no
    image mod p.  Each row's denominator is inverted once.

    Each row's residues are packed into one integer, one ``slot``-bit slot
    per column with column 0 in the lowest slot, so eliminating a row's
    leading column is one big-integer multiply-add: the row becomes
    ``(r >> slot) + (p - f) * tail``, where f is its leading residue and
    tail holds the pivot row's residues after its lead, scaled so that the
    lead is 1.  Only the pivot row is unpacked and reduced mod p, and only
    nonzero entries and slots get a residue computed.  Every term is
    nonnegative, a row starts below p in each slot and gets at most
    n - 1 updates, each adding less than p^2 to a slot; so a slot stays
    below n * p^2 < 2^(2 bits(p) + bits(n)) and never carries into the
    next one.  The elimination order does not matter for whether the
    determinant vanishes.
    """
    p = _PRIME
    n = M.rows
    slot = 2 * p.bit_length() + n.bit_length() + 1
    mask = (1 << slot) - 1
    rows = []
    for nums, d in M._r:
        d %= p
        if not d:
            return False
        inv = pow(int(d), -1, p)
        r = 0
        for x in reversed(nums):
            r = (r << slot) | (int(x % p) * inv % p) if x else r << slot
        rows.append(r)
    for k in range(n - 1, -1, -1):  # k: the columns after the leading one
        leads = [(r & mask) % p for r in rows]
        pr = next((i for i, f in enumerate(leads) if f), None)
        if pr is None:
            return False
        prow = rows.pop(pr)
        inv = pow(leads.pop(pr), -1, p)
        tail = 0
        for j in range(k, 0, -1):
            v = (prow >> (slot * j)) & mask
            tail = (tail << slot) | (v * inv % p) if v else tail << slot
        rows = [(r >> slot) + (p - f) * tail if f else r >> slot for r, f in zip(rows, leads)]
    return True


def is_invertible(M: RatMatrix) -> bool:
    """Exact invertibility test.

    A nonzero determinant modulo a prime proves det M != 0; only when the
    modular test is undecided does the exact rank decide.
    """
    if M.rows != M.cols:
        return False
    return M.is_identity() or _det_nonzero_mod_p(M) or rank(M) == M.rows


def solve(M: RatMatrix, B: RatMatrix) -> Optional[RatMatrix]:
    """First echelon solution X of M*X = B, or None if inconsistent.

    Free variables are set to zero, which makes the result deterministic.
    """
    if M.rows != B.rows:
        raise ValueError("solve row mismatch")
    rk, R, T = rank_rref(M)
    TB = T * B
    if any(any(n) for n, _ in TB._r[rk:]):
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
        return (_annihilator(self) * M).is_zero()

    def is_subspace_of(self, other: "Subspace") -> bool:
        return other.contains_matrix(self.basis)


def image(M: RatMatrix) -> Subspace:
    return Subspace.from_columns(M)


def kernel_basis(M: RatMatrix) -> Subspace:
    """Exact kernel {x : M x = 0} with dim = cols - rank.

    The elimination seeks its pivots from the right, so each free column f
    is a combination of the pivot columns after it.  The kernel vector with
    x_f = 1 and zeros at the other free columns is then zero before f, and
    these vectors are the canonical basis as they stand.
    """
    rk, num, den = _eliminate(M, certify=False, from_right=True)
    cols = M.cols
    # the pivot of a row reduced from the right is its last nonzero entry
    pivs = [max(j for j, x in enumerate(r) if x) for r in num[:rk]]
    free = sorted(set(range(cols)).difference(pivs))
    rows: List = [None] * cols
    for k, f in enumerate(free):
        unit = [0] * len(free)
        unit[k] = 1
        rows[f] = (unit, 1)
    for r, d, p in zip(num, den, pivs):
        rows[p] = _prim([-r[f] for f in free], d)
    return Subspace(cols, RatMatrix._wrap(rows, len(free)))


def _annihilator(S: Subspace) -> RatMatrix:
    """A matrix N with ker N = S, read off S's canonical basis K.

    Column c of K has its leading 1 in row q_c, and the other columns are
    zero in that row.  For every other row j, N has the row e_j - sum_c
    K[j, c] e_{q_c}, which vanishes on each column of K; these rows are
    independent (N is the identity on the non-leading coordinates), so
    their kernel has dimension dim S.  No elimination is needed.
    """
    K = S.basis
    pivs: List[int] = []
    out = []
    for j, (n, d) in enumerate(K._r):
        if len(pivs) < K.cols and n[len(pivs)]:
            pivs.append(j)
            continue
        # n is zero past the columns whose leading row is above j, and
        # (d, n) is primitive, so the row below is too
        row = [0] * K.rows
        row[j] = d
        for q, x in zip(pivs, n):
            row[q] = -x
        out.append((row, d))
    return RatMatrix._wrap(out, K.rows)


def preimage(M: RatMatrix, S: Subspace) -> Subspace:
    """{x : M x in S}, the kernel of N_S M for an annihilator N_S of S."""
    if S.ambient_dim != M.rows:
        raise ValueError("preimage ambient mismatch")
    if S.dim == 0:
        return kernel_basis(M)
    return kernel_basis(_annihilator(S) * M)


def subspace_sum(S1: Subspace, S2: Subspace) -> Subspace:
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("ambient mismatch")
    return Subspace.from_columns(hstack([S1.basis, S2.basis]))


def subspace_intersect(S1: Subspace, S2: Subspace) -> Subspace:
    if S1.ambient_dim != S2.ambient_dim:
        raise ValueError("ambient mismatch")
    if S1.dim == 0 or S2.dim == 0:
        return Subspace.zero(S1.ambient_dim)
    return kernel_basis(vstack([_annihilator(S1), _annihilator(S2)]))


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
    # a column enlarges the span of the columns before it exactly when it
    # is a pivot column of their echelon form
    k = inner.dim
    rk, R = _rref(hstack([inner.basis, outer.basis]))
    pivs = pivot_columns(R, rk)
    if pivs[:k] != list(range(k)):
        raise InternalInvariantViolation("inner basis not independent")
    if rk != outer.dim:
        raise InternalInvariantViolation("complement dimension bookkeeping failed")
    return outer.basis.take_cols([j - k for j in pivs[k:]])
