import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dacscanon import ratmat
from dacscanon.ratmat import (
    InternalInvariantViolation,
    NotFullRowRank,
    NotNested,
    RatMatrix,
    _PRIME,
    _det_nonzero_mod_p,
    _inverse_or_violation,
    _kron,
    _rref,
    _unvec,
    _vec,
    Subspace,
    block_diag,
    complement,
    hstack,
    image,
    inverse,
    is_invertible,
    kernel_basis,
    mat,
    pivot_columns,
    place,
    preimage,
    products,
    qq,
    rank,
    rank_rref,
    right_inverse,
    solve,
    subspace_intersect,
    subspace_sum,
    vstack,
)


def random_matrix(rng, rows, cols, bound=4):
    return mat(
        [[qq(rng.randint(-bound, bound)) / rng.randint(1, 2) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def det_laplace(M):
    """Independent exact determinant (Laplace expansion), for small oracles."""
    n = M.rows
    if n == 0:
        return qq(1)
    if n == 1:
        return M[0, 0]
    total = qq(0)
    cols = list(range(1, n))
    for i in range(n):
        if M[i, 0] == 0:
            continue
        minor = M.submatrix([r for r in range(n) if r != i], cols)
        sign = 1 if i % 2 == 0 else -1
        total += sign * M[i, 0] * det_laplace(minor)
    return total


def rank_by_minors(M):
    """Oracle: rank = largest k with a nonvanishing k x k minor."""
    for k in range(min(M.rows, M.cols), 0, -1):
        for ri in combinations(range(M.rows), k):
            for ci in combinations(range(M.cols), k):
                if det_laplace(M.submatrix(ri, ci)) != 0:
                    return k
    return 0


def test_rank_rref_single_pivot():
    rk, R, T = rank_rref(mat([[1, 0], [0, 0]]))
    assert rk == 1
    assert R == mat([[1, 0], [0, 0]])
    assert T * mat([[1, 0], [0, 0]]) == R


def test_rank_rref_certificate_and_minor_oracle():
    rng = random.Random(7)
    for _ in range(25):
        M = random_matrix(rng, 4, 6, bound=3)
        rk, R, T = rank_rref(M)
        assert T * M == R
        assert is_invertible(T)
        assert rk == rank_by_minors(M)
        # RREF shape: nonzero rows first, each with a leading 1
        for i in range(rk):
            row = R.row(i)
            lead = next(j for j, x in enumerate(row) if x != 0)
            assert row[lead] == 1
        for i in range(rk, R.rows):
            assert all(x == 0 for x in R.row(i))


def test_kernel_trivial_cases():
    assert kernel_basis(RatMatrix.identity(3)).dim == 0
    k = kernel_basis(mat([[1, 0], [0, 0]]))
    assert k.basis == mat([[0], [1]])


def test_kernel_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        K = kernel_basis(M)
        assert K.dim == M.cols - rank(M)
        if K.dim:
            assert (M * K.basis).is_zero()


def test_preimage_identity_zero_and_forced():
    S = Subspace.from_columns(mat([[1], [0]]))
    assert preimage(RatMatrix.identity(2), S) == S
    assert preimage(RatMatrix.zeros(2, 3), S) == Subspace.full(3)
    # Mx in span{e1} forces x2 = 0 for M = [[1,1],[0,1]]
    P = preimage(mat([[1, 1], [0, 1]]), S)
    assert P == Subspace.from_columns(mat([[1], [0]]))


def test_preimage_of_image_is_full_and_of_zero_is_kernel():
    rng = random.Random(13)
    for _ in range(20):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert preimage(M, image(M)) == Subspace.full(M.cols)
        assert preimage(M, Subspace.zero(M.rows)) == kernel_basis(M)


def test_sum_intersect_trivial():
    e1 = Subspace.from_columns(mat([[1], [0]]))
    e2 = Subspace.from_columns(mat([[0], [1]]))
    assert subspace_sum(e1, e2) == Subspace.full(2)
    assert subspace_intersect(e1, e1) == e1


def test_grassmann_identity():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 6)
        S1 = image(random_matrix(rng, n, rng.randint(0, n) or 1))
        S2 = image(random_matrix(rng, n, rng.randint(0, n) or 1))
        tot = subspace_sum(S1, S2)
        cut = subspace_intersect(S1, S2)
        assert S1.dim + S2.dim == tot.dim + cut.dim
        assert cut.is_subspace_of(S1) and cut.is_subspace_of(S2)
        assert S1.is_subspace_of(tot) and S2.is_subspace_of(tot)


def test_canonical_form_idempotent():
    rng = random.Random(19)
    for _ in range(20):
        M = random_matrix(rng, 5, 3)
        S = Subspace.from_columns(M)
        assert Subspace.from_columns(S.basis) == S


def test_complement_canonical_choices():
    assert complement(Subspace.zero(2), Subspace.full(2)) == RatMatrix.identity(2)
    full = Subspace.full(3)
    assert complement(full, full).cols == 0


def test_complement_direct_sum():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        outer = image(random_matrix(rng, n, n))
        inner_cols = rng.randint(0, outer.dim)
        inner = image(outer.basis.take_cols(range(inner_cols))) if inner_cols else Subspace.zero(n)
        C = complement(inner, outer)
        assert C.cols == outer.dim - inner.dim
        if inner.dim + C.cols:
            assert rank(hstack([inner.basis, C])) == outer.dim
        # complement columns lie in outer, and sum reconstructs outer
        assert outer.contains_matrix(C)
        assert subspace_sum(inner, image(C)) == outer


def test_complement_not_nested():
    with pytest.raises(NotNested):
        complement(Subspace.from_columns(mat([[1], [1]])), Subspace.from_columns(mat([[1], [0]])))


def test_right_inverse():
    assert right_inverse(mat([[1, 0]])) == mat([[1], [0]])
    assert right_inverse(RatMatrix.identity(4)) == RatMatrix.identity(4)
    rng = random.Random(29)
    done = 0
    while done < 15:
        M = random_matrix(rng, 2, 4)
        if rank(M) < 2:
            continue
        N = right_inverse(M)
        assert M * N == RatMatrix.identity(2)
        done += 1
    with pytest.raises(NotFullRowRank):
        right_inverse(mat([[1, 1], [1, 1]]))


def test_solve_consistency():
    rng = random.Random(31)
    for _ in range(25):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        X0 = random_matrix(rng, M.cols, 2)
        B = M * X0
        X = solve(M, B)
        assert X is not None
        assert M * X == B
    assert solve(mat([[0]]), mat([[1]])) is None


def test_inverse_round_trip():
    rng = random.Random(37)
    done = 0
    while done < 10:
        M = random_matrix(rng, 4, 4)
        if not is_invertible(M):
            continue
        assert M * inverse(M) == RatMatrix.identity(4)
        done += 1


def test_inverse_or_violation_names_the_broken_obligation():
    M = mat([[1, 2], [3, 4]])
    assert _inverse_or_violation(M, "blocks are dependent") == inverse(M)
    for bad in (mat([[1, 2], [2, 4]]), RatMatrix.zeros(2, 3)):
        with pytest.raises(InternalInvariantViolation, match="^blocks are dependent$"):
            _inverse_or_violation(bad, "blocks are dependent")


def test_zero_dimension_matrices():
    z = RatMatrix.zeros(0, 3)
    assert z.shape == (0, 3)
    assert rank(z) == 0
    assert kernel_basis(z) == Subspace.full(3)
    z2 = RatMatrix.zeros(3, 0)
    assert kernel_basis(z2).dim == 0
    assert (z2.T * z2).shape == (0, 0)


def _elimination_cases():
    rng = random.Random(43)
    cases = [RatMatrix.zeros(r, c) for r, c in [(0, 0), (0, 3), (3, 0), (2, 4)]]
    for rows, cols in [(1, 1), (3, 5), (5, 3), (4, 4), (6, 6)]:
        cases.append(random_matrix(rng, rows, cols))
        cases.append(random_matrix(rng, rows, cols, bound=300))
        k = rng.randint(0, min(rows, cols) - 1)  # rank deficient
        cases.append(random_matrix(rng, rows, k) * random_matrix(rng, k, cols))
    return cases


def test_certificate_free_elimination_matches_rank_rref():
    # rank, Subspace.from_columns and kernel_basis skip the row-operation
    # certificate; what they compute must be what rank_rref's full result
    # gives
    for M in _elimination_cases():
        rk, R, T = rank_rref(M)
        assert T * M == R
        assert _rref(M) == (rk, R)
        assert rank(M) == rk
        rk_t, R_t, _ = rank_rref(M.T)
        assert Subspace.from_columns(M).basis == R_t.take_rows(range(rk_t)).T
        pivs = pivot_columns(R, rk)
        null = []
        for f in (j for j in range(M.cols) if j not in pivs):
            v = [qq(0)] * M.cols
            v[f] = qq(1)
            for i, p in enumerate(pivs):
                v[p] = -R[i, f]
            null.append(v)
        expected = (
            Subspace.from_columns(mat(null, cols=M.cols).T) if null else Subspace.zero(M.cols)
        )
        assert kernel_basis(M) == expected
        assert kernel_basis(M).dim == M.cols - rk


def _invertibility_cases():
    rng = random.Random(61)
    p = _PRIME
    cases = [RatMatrix.zeros(r, c) for r, c in [(0, 0), (0, 3), (3, 0), (2, 3)]]
    cases += [random_matrix(rng, 3, 4), random_matrix(rng, 5, 2, bound=10**30)]
    # invertible over Q but singular mod p, and entries with denominator p
    cases += [
        mat([[p, 0], [0, 1]]),
        mat([[p + 1, 1], [1, 1]]),
        mat([[qq(1, p), 0], [0, 1]]),
        mat([[qq(1, p), qq(2, p)], [1, 2]]),
        mat([[qq(3, p), 1], [p, qq(1, p)]]),
    ]
    for n in (1, 2, 3, 5, 8):
        for bound in (1, 4, 10**30):
            cases.append(random_matrix(rng, n, n, bound=bound))
            k = rng.randint(0, n - 1)  # rank deficient
            low_rank = random_matrix(rng, n, k, bound=bound) * random_matrix(rng, k, n, bound=bound)
            cases.append(low_rank)
    return cases


def test_is_invertible_matches_exact_rank():
    seen = set()
    for M in _invertibility_cases():
        expected = M.rows == M.cols and rank(M) == M.rows
        assert is_invertible(M) == expected, M
        seen.add(expected)
    assert seen == {True, False}
    # the modular test alone is undecided here; the exact rank decides
    p = _PRIME
    for M in (mat([[p, 0], [0, 1]]), mat([[qq(1, p), 0], [0, 1]])):
        assert not _det_nonzero_mod_p(M)
        assert is_invertible(M)


def _sparse_square(rng, n, p_row):
    """n x n, at most 30% of the entries nonzero: often a signed permutation
    plus scattered entries; with ``p_row`` one row gets a denominator
    divisible by _PRIME, so the modular test cannot read it."""
    p = _PRIME
    rows = [[0] * n for _ in range(n)]
    if rng.random() < 0.7:
        for i, j in enumerate(rng.sample(range(n), n)):
            rows[i][j] = rng.choice([1, -1, 2, qq(1, 3)])
    for _ in range(rng.randint(0, 3 * n * n // 10 - n)):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(
            [rng.randint(-3, 3), qq(rng.randint(-(10**20), 10**20), rng.randint(1, 9)), p]
        )
    nonzero = [(i, j) for i in range(n) for j in range(n) if rows[i][j]]
    if p_row and nonzero:
        i, j = rng.choice(nonzero)
        rows[i][j] = qq(rng.choice([1, -7, 10**12]), rng.choice([1, 2, 3]) * p)
    return mat(rows, cols=n)


def test_is_invertible_matches_exact_rank_on_sparse_matrices():
    rng = random.Random(67)
    seen = set()
    for case in range(150):
        n = rng.randint(4, 12)
        M = _sparse_square(rng, n, p_row=case % 3 == 0)
        entries = M.to_lists()
        assert 10 * sum(x != 0 for r in entries for x in r) <= 3 * n * n
        expected = rank(M) == n
        assert is_invertible(M) == expected, M
        modular = _det_nonzero_mod_p(M)
        if all(x.denominator % _PRIME for r in entries for x in r):
            assert modular == (ref_det(entries, n).numerator % _PRIME != 0), M
        seen.add((expected, modular))
    # both verdicts, and invertible cases the modular test could not decide
    assert seen >= {(True, True), (True, False), (False, False)}


def test_place_scatters_blocks():
    M = mat([[1, 2], [3, 4]])
    # entry (a, b) goes to (row_idx[a], col_idx[b]); index lists need not be sorted
    got = place(3, 4, [([2, 0], [1, 3], M), ([1], range(1), mat([[5]]))])
    assert got == mat([[0, 3, 0, 4], [5, 0, 0, 0], [0, 1, 0, 2]])
    # with a base, uncovered entries come from it and later blocks win
    base = RatMatrix.identity(2)
    got = place(2, 2, [([0], [0, 1], mat([[7, 8]])), ([0], [1], mat([[9]]))], base=base)
    assert got == mat([[7, 9], [0, 1]])
    assert base == RatMatrix.identity(2)  # the base is not modified
    # zero-size results and blocks
    assert place(0, 3, []) == RatMatrix.zeros(0, 3)
    assert place(2, 0, [(range(2), [], RatMatrix.zeros(2, 0))]) == RatMatrix.zeros(2, 0)
    empty_blocks = [([], [], RatMatrix.zeros(0, 0)), ([], [1], RatMatrix.zeros(0, 1))]
    assert place(2, 2, empty_blocks) == RatMatrix.zeros(2, 2)
    assert place(0, 0, [], base=RatMatrix.identity(0)) == RatMatrix.identity(0)
    # a block whose shape does not fit its index lists, or a misfit base
    with pytest.raises(ValueError):
        place(2, 2, [([0], [0, 1], mat([[1]]))])
    with pytest.raises(ValueError):
        place(2, 2, [([0, 1], [0], mat([[1, 2]]))])
    with pytest.raises(ValueError):
        place(2, 2, [], base=RatMatrix.identity(3))


def test_block_diag_kron_and_vec_match_definitions():
    rng = random.Random(17)
    for shapes in [((2, 3), (2, 2)), ((0, 2), (3, 1)), ((2, 2), (0, 3)), ((1, 1), (1, 1))]:
        A, B = (random_matrix(rng, r, c) for r, c in shapes)
        K = _kron(A, B)
        assert K.shape == (A.rows * B.rows, A.cols * B.cols)
        for i in range(A.rows):
            for j in range(A.cols):
                for k in range(B.rows):
                    for l in range(B.cols):
                        assert K[i * B.rows + k, j * B.cols + l] == A[i, j] * B[k, l]
        D = block_diag([A, B])
        assert D.shape == (A.rows + B.rows, A.cols + B.cols)
        assert D.submatrix(range(A.rows), range(A.cols)) == A
        assert D.submatrix(range(A.rows, D.rows), range(A.cols, D.cols)) == B
        assert D.submatrix(range(A.rows), range(A.cols, D.cols)).is_zero()
        assert D.submatrix(range(A.rows, D.rows), range(A.cols)).is_zero()
        v = _vec(A)
        assert v.shape == (A.rows * A.cols, 1)
        assert [v[j * A.rows + i, 0] for i in range(A.rows) for j in range(A.cols)] == [
            A[i, j] for i in range(A.rows) for j in range(A.cols)
        ]
        assert _unvec(v, A.rows, A.cols) == A


# ---------------------------------------------------------------------------
# differential test against a plain list-of-Fraction reference
# ---------------------------------------------------------------------------

F = Fraction
SETTINGS = settings(
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the modular test's prime, multiples of it, and a product of two large primes
BIG_DENOMINATORS = [
    _PRIME,
    _PRIME * (2**31 - 1),
    1000000007 * 998244353,
    (10**9 + 7) * (10**9 + 9) * _PRIME,
]
ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 6)),
    st.builds(F, st.integers(-(10**30), 10**30), st.sampled_from(BIG_DENOMINATORS)),
)
DIMS = st.integers(0, 4)


@st.composite
def fraction_rows(draw, rows, cols):
    """rows x cols Fraction lists; some rows are drawn all zero."""
    zero = draw(st.sets(st.integers(0, max(rows - 1, 0)))) if rows else set()
    return [
        [F(0)] * cols if i in zero else draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
        for i in range(rows)
    ]


def ref_mul(a, b, k, cols):
    return [[sum((r[t] * b[t][j] for t in range(k)), F(0)) for j in range(cols)] for r in a]


def ref_T(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def ref_rref(a, rows, cols):
    """Gauss-Jordan with the library's pivoting: (rank, R, T) with T a = R."""
    R = [list(r) for r in a]
    T = [[F(int(i == j)) for j in range(rows)] for i in range(rows)]
    piv = 0
    for pc in range(cols):
        pr = next((i for i in range(piv, rows) if R[i][pc]), None)
        if pr is None:
            continue
        R[piv], R[pr], T[piv], T[pr] = R[pr], R[piv], T[pr], T[piv]
        inv = 1 / R[piv][pc]
        R[piv], T[piv] = [x * inv for x in R[piv]], [x * inv for x in T[piv]]
        for i in range(rows):
            f = R[i][pc]
            if i != piv and f:
                R[i] = [x - f * y for x, y in zip(R[i], R[piv])]
                T[i] = [x - f * y for x, y in zip(T[i], T[piv])]
        piv += 1
    return piv, R, T


def ref_pivots(R, rk):
    return [next(j for j, x in enumerate(R[i]) if x) for i in range(rk)]


def ref_span(vectors, n):
    """Canonical basis (column echelon form) of the span, as n x k lists."""
    rk, R, _ = ref_rref(vectors, len(vectors), n)
    return ref_T(R[:rk], rk, n)


def ref_det(a, n):
    d, M = F(1), [list(r) for r in a]
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            M[c], M[p], d = M[p], M[c], -d
        d *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return d


def same(M, ref, cols):
    """M holds exactly the values ref, and is equal (and hash equal) to the
    matrix built afresh from them, so its stored form is the canonical one."""
    assert M.shape == (len(ref), cols)
    assert M.to_lists() == ref
    assert [M.row(i) for i in range(M.rows)] == ref
    assert [M.col(j) for j in range(cols)] == ref_T(ref, len(ref), cols)
    assert all(M[i, j] == ref[i][j] for i in range(M.rows) for j in range(cols))
    fresh = RatMatrix(ref, cols=cols)
    assert M == fresh and hash(M) == hash(fresh)
    assert repr(M) == repr(fresh)


@SETTINGS
@given(st.data(), DIMS, DIMS, DIMS)
def test_arithmetic_matches_fraction_reference(data, r, k, c):
    a = data.draw(fraction_rows(r, k))
    b = data.draw(fraction_rows(r, k))
    e = data.draw(fraction_rows(k, c))
    s = data.draw(ENTRIES)
    A, B, E = RatMatrix(a, cols=k), RatMatrix(b, cols=k), RatMatrix(e, cols=c)
    same(A, a, k)
    same(A + B, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)], k)
    same(A - B, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)], k)
    same(-A, [[-x for x in p] for p in a], k)
    same(A.scale(s), [[s * x for x in p] for p in a], k)
    same(A * E, ref_mul(a, e, k, c), c)
    same(A.T, ref_T(a, r, k), r)
    assert A.is_zero() == all(x == 0 for p in a for x in p)


@SETTINGS
@given(st.data(), DIMS, DIMS, DIMS)
def test_slicing_and_stacking_match_fraction_reference(data, r, k, c):
    a = data.draw(fraction_rows(r, k))
    b = data.draw(fraction_rows(r, c))
    e = data.draw(fraction_rows(c, k))
    A, B, E = RatMatrix(a, cols=k), RatMatrix(b, cols=c), RatMatrix(e, cols=k)
    ri = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
    ci = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if k else []
    same(A.submatrix(ri, ci), [[a[i][j] for j in ci] for i in ri], len(ci))
    same(A.take_rows(ri), [a[i] for i in ri], k)
    same(A.take_cols(ci), [[p[j] for j in ci] for p in a], len(ci))
    same(hstack([A, B, A]), [p + q + p for p, q in zip(a, b)], 2 * k + c)
    same(vstack([A, E, A]), a + e + a, k)
    same(block_diag([A, B]), [p + [F(0)] * c for p in a] + [[F(0)] * k + q for q in b], k + c)
    same(_kron(A, B), [[x * y for x in p for y in q] for p in a for q in b], k * c)
    same(_vec(A), [[a[i][j]] for j in range(k) for i in range(r)], 1)
    same(_unvec(_vec(A), r, k), a, k)
    # overlapping blocks over a base: a later block overwrites an earlier one
    out = [list(p) for p in a]
    blocks = []
    for _ in range(data.draw(st.integers(0, 3))):
        bi = data.draw(st.lists(st.integers(0, r - 1), max_size=3, unique=True)) if r else []
        bj = data.draw(st.lists(st.integers(0, k - 1), max_size=3, unique=True)) if k else []
        m = data.draw(fraction_rows(len(bi), len(bj)))
        blocks.append((bi, bj, RatMatrix(m, cols=len(bj))))
        for i, row in zip(bi, m):
            for j, x in zip(bj, row):
                out[i][j] = x
    same(place(r, k, blocks, base=A), out, k)
    covered = {(i, j) for bi, bj, _ in blocks for i in bi for j in bj}
    fresh = [[out[i][j] if (i, j) in covered else F(0) for j in range(k)] for i in range(r)]
    same(place(r, k, blocks), fresh, k)


@SETTINGS
@given(st.data(), DIMS, DIMS, DIMS)
def test_eliminations_match_fraction_reference(data, r, k, c):
    a = data.draw(fraction_rows(r, k))
    b = data.draw(fraction_rows(r, c))
    A, B = RatMatrix(a, cols=k), RatMatrix(b, cols=c)
    rk, R, T = ref_rref(a, r, k)
    got = rank_rref(A)
    assert got[0] == rk == rank(A)
    same(got[1], R, k)
    same(got[2], T, r)
    # first echelon solution of A X = B: free variables zero
    TB = ref_mul(T, b, r, c)
    X = None
    if all(x == 0 for p in TB[rk:] for x in p):
        X = [[F(0)] * c for _ in range(k)]
        for i, j in enumerate(ref_pivots(R, rk)):
            X[j] = TB[i]
    sol = solve(A, B)
    assert (sol is None) == (X is None)
    if X is not None:
        same(sol, X, c)
    pivs = ref_pivots(R, rk)
    free = [j for j in range(k) if j not in pivs]
    null = []
    for f in free:
        v = [F(int(j == f)) for j in range(k)]
        for i, j in enumerate(pivs):
            v[j] = -R[i][f]
        null.append(v)
    same(kernel_basis(A).basis, ref_span(null, k), len(free))
    # square: invertibility, inverse and the modular determinant test
    n = min(r, k)
    S = A.submatrix(range(n), range(n))
    s = [p[:n] for p in a[:n]]
    det = ref_det(s, n)
    assert is_invertible(S) == (det != 0)
    if det != 0:
        same(inverse(S), ref_rref(s, n, n)[2], n)
    else:
        with pytest.raises(ValueError):
            inverse(S)
    p = _PRIME
    if any(x.denominator % p == 0 for row in s for x in row):
        assert not _det_nonzero_mod_p(S)
    else:
        assert _det_nonzero_mod_p(S) == (det.numerator % p != 0)


@SETTINGS
@given(st.data(), DIMS, DIMS, DIMS)
def test_complement_matches_greedy_fraction_reference(data, n, k, j):
    spanning = RatMatrix(data.draw(fraction_rows(n, k)), cols=k)
    outer = image(spanning)
    inner = image(spanning * RatMatrix(data.draw(fraction_rows(k, j)), cols=j))

    def ref_rank(vectors):
        return ref_rref(vectors, len(vectors), n)[0]

    chosen = []
    for v in ref_T(outer.basis.to_lists(), n, outer.dim):
        span = ref_T(inner.basis.to_lists(), n, inner.dim) + chosen
        if ref_rank(span + [v]) > ref_rank(span):
            chosen.append(v)
    same(complement(inner, outer), ref_T(chosen, len(chosen), n), len(chosen))


@st.composite
def structured_square(draw, n):
    """n x n Fraction lists: identity, zero, a signed permutation, or
    block_diag([I, M]) with M drawn."""
    kind = draw(st.sampled_from(["identity", "zero", "permutation", "block"]))
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    if kind == "identity":
        return eye
    if kind == "zero":
        return [[F(0)] * n for _ in range(n)]
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        return [[F(sg * int(j == p)) for j in range(n)] for p, sg in zip(perm, signs)]
    k = draw(st.integers(0, n))
    m = draw(fraction_rows(n - k, n - k))
    return [r[:k] + [F(0)] * (n - k) for r in eye[:k]] + [[F(0)] * k + r for r in m]


@st.composite
def unit_rows(draw, rows, cols):
    """rows x cols Fraction lists whose rows are e_j, -e_j, 2 e_j, e_j / 2,
    zero or drawn; only the first two are unit rows."""
    out = []
    for _ in range(rows):
        c = draw(st.sampled_from([1, -1, 2, F(1, 2), 0, None])) if cols else 0
        if c is None:
            out.append(draw(st.lists(ENTRIES, min_size=cols, max_size=cols)))
        else:
            j = draw(st.integers(0, cols - 1)) if cols else 0
            out.append([F(c) if i == j else F(0) for i in range(cols)])
    return out


@SETTINGS
@given(st.data(), DIMS, DIMS)
def test_structured_operands_match_fraction_reference(data, r, n):
    s, s2 = data.draw(structured_square(n)), data.draw(structured_square(n))
    u, g = data.draw(unit_rows(r, n)), data.draw(fraction_rows(r, n))
    h = data.draw(fraction_rows(n, r))
    S, S2 = RatMatrix(s, cols=n), RatMatrix(s2, cols=n)
    U, G, H = RatMatrix(u, cols=n), RatMatrix(g, cols=n), RatMatrix(h, cols=r)
    for X, x in ((S, s), (S2, s2)):
        same(X * S, ref_mul(x, s, n, n), n)
        same(X * H, ref_mul(x, h, n, r), r)
        same(G * X, ref_mul(g, x, n, n), n)
        same(U * X, ref_mul(u, x, n, n), n)
    same(U * H, ref_mul(u, h, n, r), r)
    same(H * U, ref_mul(h, u, r, n), n)
    same(S + S2, [[x + y for x, y in zip(p, q)] for p, q in zip(s, s2)], n)
    same(S - S2, [[x - y for x, y in zip(p, q)] for p, q in zip(s, s2)], n)
    zero = [[F(0)] * n for _ in range(r)]
    for X, x in ((U, u), (G, g), (RatMatrix.zeros(r, n), zero)):
        same(X + U, [[a + b for a, b in zip(p, q)] for p, q in zip(x, u)], n)
        same(X - G, [[a - b for a, b in zip(p, q)] for p, q in zip(x, g)], n)
        same(G - X, [[a - b for a, b in zip(p, q)] for p, q in zip(g, x)], n)
    det = ref_det(s, n)
    assert is_invertible(S) == (det != 0)
    if det != 0:
        same(inverse(S), ref_rref(s, n, n)[2], n)
    else:
        with pytest.raises(ValueError):
            inverse(S)


def test_trivial_operands_do_no_arithmetic(monkeypatch):
    # products with an identity or zero factor or unit rows, sums with a
    # zero, and the identity's inverse and invertibility take no gcd sweep,
    # no elimination and no modular determinant
    calls = []
    for name in ("_prim", "_eliminate", "_det_nonzero_mod_p"):
        real = getattr(ratmat, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(ratmat, name, counting)
    M = mat([[1, "1/2", 0], ["-3/7", 4, "2/3"], [0, 5, 7]])
    I, Z = RatMatrix.identity(3), RatMatrix.zeros(3, 3)
    P = mat([[0, -1, 0], [0, 0, 0], [1, 0, 0]])
    Z32, Z23 = RatMatrix.zeros(3, 2), RatMatrix.zeros(2, 3)
    got = [I * M, M * I, Z * M, M * Z, M * Z32, Z23 * M, M + Z, Z + M, M - Z, P * M]
    got += [inverse(I), is_invertible(I)]
    assert not calls
    PM = mat([[F(3, 7), -4, F(-2, 3)], [0, 0, 0], [1, F(1, 2), 0]])
    assert got == [M, M, Z, Z, Z32, Z23, M, M, M, PM, I, True]


# numerators of 1 to 2000 bits, over denominators shared or not
WIDE_ENTRIES = st.one_of(
    ENTRIES,
    st.builds(
        F,
        st.integers(1, 2000).flatmap(lambda b: st.integers(-(1 << b), 1 << b)),
        st.sampled_from([1, 2, 3, 10**20 + 39, _PRIME]),
    ),
)


@st.composite
def product_factor(draw, rows, cols):
    """A rows x cols matrix: drawn (some rows zero), of unit rows, zero, or
    the identity."""
    kind = draw(st.sampled_from(["drawn", "units", "zero", "identity"]))
    if kind == "identity" and rows == cols:
        return RatMatrix.identity(rows)
    if kind == "zero":
        return RatMatrix.zeros(rows, cols)
    if kind == "units":
        return RatMatrix(draw(unit_rows(rows, cols)), cols=cols)
    zero = draw(st.sets(st.integers(0, max(rows - 1, 0)))) if rows else set()
    drawn = st.lists(WIDE_ENTRIES, min_size=cols, max_size=cols)
    return RatMatrix([[F(0)] * cols if i in zero else draw(drawn) for i in range(rows)], cols=cols)


@SETTINGS
@given(st.data(), st.integers(0, 16), DIMS, st.lists(DIMS, max_size=3))
def test_packed_products_match_plain_products(data, r, k, widths):
    # Kronecker-substituted products have the stored rows of M * B: signed
    # slots that borrow from no neighbour, several B's over their own
    # denominators, and empty, zero, identity and unit-row factors
    M = data.draw(product_factor(r, k))
    Bs = [data.draw(product_factor(k, c)) for c in widths]
    want = [M * B for B in Bs]
    assert products(M, Bs) == want
    if k:  # products never packs a factor with no columns, which is zero
        assert ratmat._packed_products(M, Bs) == want


def test_packed_products_at_the_slot_bound():
    # every product term has its row's largest size and one sign, so each
    # sum is within a factor k of its slot's half-width; rows alternate in
    # sign and every third one is narrow, so neighbouring slots differ in
    # sign and width
    for k in (1, 2, 3, 4, 7, 8, 15, 16):
        for bm, bb in ((1, 1), (7, 9), (64, 3), (300, 300)):
            tops = [(-1) ** i * ((1 << (1 if i % 3 == 2 else bm)) - 1) for i in range(17)]
            M = mat([[top] * k for top in tops])
            bot = (1 << bb) - 1
            for B in (mat([[bot] * 3] * k), mat([[-bot, bot, "1/%d" % bot]] * k)):
                assert ratmat._packed_products(M, [B]) == [M * B]
    empty = RatMatrix.zeros(0, 2)
    assert ratmat._packed_products(empty, [mat([[1], [2]])]) == [RatMatrix.zeros(0, 1)]
    with pytest.raises(ValueError, match="inner dims"):
        products(mat([[1, 2]]), [mat([[1]])])


def test_equal_values_spelled_differently_are_equal_and_hash_equal():
    p = _PRIME
    spellings = [
        mat([["1/2", 3, 0], [0, -2, "1/%d" % p]]),
        mat([["2/4", "6/2", "0/7"], [F(0), F(-4, 2), F(3, 3 * p)]]),
        mat([[F(1, 2), F(3), 0], ["0", "-2", F(1, p)]]),
        mat([["1/4", 1, "1/3"], [1, -1, "1/%d" % (2 * p)]])
        + mat([["1/4", 2, "-1/3"], [-1, -1, "1/%d" % (2 * p)]]),
        mat([[1, 6, 0], [0, -4, "2/%d" % p]]).scale("1/2"),
    ]
    for M in spellings[1:]:
        assert M == spellings[0] and hash(M) == hash(spellings[0])
    zero = RatMatrix.zeros(2, 3)
    for M in spellings:
        assert M - M == zero and hash(M - M) == hash(zero)
        assert M.scale(0) == zero and (M * RatMatrix.zeros(3, 0)).shape == (2, 0)


# ---------------------------------------------------------------------------
# subspace operations against the elimination formulas they replace
# ---------------------------------------------------------------------------


def elim_kernel(M):
    """Kernel by a left-to-right RREF, canonicalized by a second one."""
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


def elim_preimage(M, S):
    """{x : M x in S} as the top block of the kernel of [M | -S]."""
    if S.dim == 0:
        return elim_kernel(M)
    K = elim_kernel(hstack([M, -S.basis]))
    return Subspace.from_columns(K.basis.take_rows(range(M.cols)))


def elim_intersect(S1, S2):
    """S1 ∩ S2 from the kernel of [S1 | S2]."""
    if S1.dim == 0 or S2.dim == 0:
        return Subspace.zero(S1.ambient_dim)
    K = elim_kernel(hstack([S1.basis, S2.basis]))
    return Subspace.from_columns(S1.basis * K.basis.take_rows(range(S1.dim)))


def elim_contains(S, M):
    return M.cols == 0 or solve(S.basis, M) is not None


def elim_complement(inner, outer):
    if not elim_contains(outer, inner.basis):
        return None
    rk, R = _rref(hstack([inner.basis, outer.basis]))
    return outer.basis.take_cols([j - inner.dim for j in pivot_columns(R, rk)[inner.dim :]])


@st.composite
def drawn_matrices(draw, rows, cols):
    """rows x cols, of full or deficient rank (a product through a thinner
    inner dimension)."""
    inner = draw(st.integers(0, max(rows, cols)))
    if inner >= min(rows, cols):
        return RatMatrix(draw(fraction_rows(rows, cols)), cols=cols)
    left = RatMatrix(draw(fraction_rows(rows, inner)), cols=inner)
    return left * RatMatrix(draw(fraction_rows(inner, cols)), cols=cols)


@st.composite
def drawn_subspaces(draw, n):
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    return image(draw(drawn_matrices(n, draw(DIMS))))


@SETTINGS
@given(st.data(), DIMS, DIMS)
def test_subspace_operations_match_elimination_formulas(data, r, n):
    M = data.draw(drawn_matrices(r, n))
    K = kernel_basis(M)
    assert K == elim_kernel(M) and hash(K) == hash(elim_kernel(M))
    assert K.dim == n - rank(M) and (M * K.basis).is_zero()
    S = data.draw(drawn_subspaces(r))
    assert preimage(M, S) == elim_preimage(M, S)
    S1, S2 = data.draw(drawn_subspaces(n)), data.draw(drawn_subspaces(n))
    both = subspace_intersect(S1, S2)
    assert both == elim_intersect(S1, S2) == subspace_intersect(S2, S1)
    inside = S1.basis * data.draw(drawn_matrices(S1.dim, data.draw(DIMS)))
    anywhere = data.draw(drawn_matrices(n, data.draw(DIMS)))
    for X in (inside, anywhere, S2.basis):
        assert S1.contains_matrix(X) == elim_contains(S1, X)
    assert S1.contains_matrix(inside)
    for inner in (both, S2):
        want = elim_complement(inner, S1)
        if want is None:
            with pytest.raises(NotNested):
                complement(inner, S1)
        else:
            assert complement(inner, S1) == want


# ---------------------------------------------------------------------------
# the packed modular determinant test against the list-based elimination
# ---------------------------------------------------------------------------


def ref_det_nonzero_mod_p(a, p=_PRIME):
    """The list-based mod-p elimination the packed kernel replaces, on
    Fraction rows: undecided (False) when an entry's denominator is
    divisible by p."""
    if any(x.denominator % p == 0 for row in a for x in row):
        return False
    rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in a]
    while rows:
        pr = next((i for i, r in enumerate(rows) if r[0]), None)
        if pr is None:
            return False
        prow = rows.pop(pr)
        inv = pow(prow[0], -1, p)
        tail = prow[1:]
        for i, r in enumerate(rows):
            f = r[0] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(r[1:], tail)] if f else r[1:]
    return True


def test_modular_prime_is_a_single_digit_prime():
    p = _PRIME
    assert p < 2**30 and p % 2
    assert all(p % q for q in range(3, isqrt(p) + 1, 2))


@settings(SETTINGS, max_examples=60)
@given(st.data(), st.integers(0, 12))
def test_packed_modular_test_matches_list_elimination(data, n):
    # entries with a denominator p divides make the test undecided at once,
    # so half the draws have none and run the whole elimination
    entries = ENTRIES.filter(lambda x: x.denominator % _PRIME) if data.draw(st.booleans()) else ENTRIES
    a = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    assert _det_nonzero_mod_p(RatMatrix(a, cols=n)) == ref_det_nonzero_mod_p(a)


def test_packed_modular_test_on_edge_cases(monkeypatch):
    p = _PRIME
    rng = random.Random(30)
    # residues drawn across [0, p), so each row update adds up to p^2 to a
    # slot and a slot narrower than 2 bits(p) + bits(n) would carry into the
    # next one; a carry spoils the elimination, which then misses the
    # singular matrix (its last row is a combination of the three before,
    # so it is reduced to zero only at the end, after 78 updates)
    a = [[F(rng.randrange(p)) for _ in range(80)] for _ in range(80)]
    singular = a[:79] + [[x + y - z for x, y, z in zip(*a[76:79])]]
    assert ref_det_nonzero_mod_p(a) and not ref_det_nonzero_mod_p(singular)
    assert _det_nonzero_mod_p(RatMatrix(a, cols=80))
    assert not _det_nonzero_mod_p(RatMatrix(singular, cols=80))
    undecided = []
    # det = +-p k: invertible over Q, singular mod p
    for sign in (1, -1):
        a = [[F(0)] * 5 for _ in range(5)]
        for i, x in enumerate((sign * p, 7, 1, 3, 1)):
            a[i][i] = F(x)
        for _ in range(30):  # unimodular row and column operations
            i, j = rng.sample(range(5), 2)
            f = rng.randint(-3, 3)
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
            for r in a:
                r[i] += f * r[j]
        assert ref_det(a, 5) == sign * 21 * p
        undecided.append(a)
    # a row whose denominator p divides
    undecided.append([[F(1, 2), F(3, 2 * p), F(1)], [F(0), F(1), F(2)], [F(5), F(0), F(1)]])
    for a in undecided:
        M = RatMatrix(a, cols=len(a))
        assert not ref_det_nonzero_mod_p(a) and not _det_nonzero_mod_p(M)
        ranks = []
        monkeypatch.setattr(ratmat, "rank", lambda M: ranks.append(1) or rank(M))
        assert is_invertible(M) and ranks == [1]
    # a zero leading column: singular, found without a pivot in column 0
    a = [[F(0), F(1), F(2)], [F(0), F(3, 4), F(-1)], [F(0), F(5), F(1, 7)]]
    assert not ref_det_nonzero_mod_p(a)
    assert not _det_nonzero_mod_p(RatMatrix(a, cols=3))
    assert not is_invertible(RatMatrix(a, cols=3))
