"""Polynomial utilities, Brunovsky chains, pole placement, Frobenius form."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacscanon.canonical import brunovsky_two_inputs
from dacscanon.ratmat import (
    RatMatrix,
    Subspace,
    complement,
    hstack,
    image,
    inverse,
    is_invertible,
    kernel_basis,
    place,
    qq,
    rank,
    subspace_sum,
    vstack,
)
from dacscanon._chains import (
    NotControllable,
    _assert_chain_form,
    _cyclic_vector,
    brunovsky_single,
    charpoly,
    companion,
    controllability_indices,
    frobenius_form,
    functional_chains,
    minimal_polynomial,
    pole_place,
    poly_divmod,
    poly_from_roots,
    poly_gcd,
    poly_mul,
)
from test_systems import random_invertible, random_matrix


def mat(rows):
    return RatMatrix([[qq(x) for x in r] for r in rows], cols=len(rows[0]) if rows else 0)


# -- polynomial arithmetic ---------------------------------------------------


def test_poly_mul_and_divmod():
    p = [qq(2), qq(-3), qq(1)]  # (x-1)(x-2)
    q = [qq(-1), qq(1)]  # x - 1
    assert poly_mul(q, [qq(-2), qq(1)]) == p
    quo, rem = poly_divmod(p, q)
    assert quo == [qq(-2), qq(1)] and rem == []
    quo, rem = poly_divmod([qq(1), qq(0), qq(1)], [qq(1), qq(1)])
    assert quo == [qq(-1), qq(1)] and rem == [qq(2)]


def test_poly_gcd_is_monic_common_factor():
    a = poly_from_roots([1, 2])
    b = poly_from_roots([2, 3])
    assert poly_gcd(a, b) == [qq(-2), qq(1)]
    assert poly_gcd(a, poly_from_roots([5, 7])) == [qq(1)]
    assert poly_gcd([], a) == [qq(1) * c / a[-1] for c in a]


def test_poly_from_roots():
    assert poly_from_roots([1, 2]) == [qq(2), qq(-3), qq(1)]
    assert poly_from_roots([]) == [qq(1)]


# -- characteristic / minimal polynomials ------------------------------------


def test_charpoly_formulas():
    assert charpoly(mat([[0, 1], [0, 0]])) == [qq(0), qq(0), qq(1)]
    A = mat([[1, 2], [3, 4]])
    # lambda^2 - tr lambda + det
    assert charpoly(A) == [qq(-2), qq(-5), qq(1)]
    assert charpoly(RatMatrix.identity(0)) == [qq(1)]


def test_charpoly_of_companion_recovers_polynomial():
    p = [qq(2), qq(-3), qq(0), qq(1)]
    assert charpoly(companion(p)) == p


def test_minimal_polynomial():
    assert minimal_polynomial(RatMatrix.identity(2)) == [qq(-1), qq(1)]
    N = mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert minimal_polynomial(N) == [qq(0), qq(0), qq(1)]
    A = mat([[2, 0], [0, 3]])
    assert minimal_polynomial(A) == poly_from_roots([2, 3])


# -- chains and Brunovsky -----------------------------------------------------


def chain_pair(kappa, m):
    """Canonical chain pair with the given lengths and m inputs."""
    n = sum(kappa)
    A = RatMatrix.zeros(n, n).to_lists()
    B = RatMatrix.zeros(n, m).to_lists()
    off = 0
    for j, k in enumerate(kappa):
        for l in range(k - 1):
            A[off + l][off + l + 1] = qq(1)
        B[off + k - 1][j] = qq(1)
        off += k
    return RatMatrix(A, cols=n), RatMatrix(B, cols=m)


def scrambled_pair(rng, kappa, m):
    A0, B0 = chain_pair(kappa, m)
    n = sum(kappa)
    S = random_invertible(rng, n)
    U = random_invertible(rng, m)
    F = random_matrix(rng, m, n)
    return S * (A0 + B0 * F) * inverse(S), S * B0 * U


def test_controllability_indices_chain_patterns():
    A, B = chain_pair([2], 1)
    assert controllability_indices(A, B) == [2]
    A, B = chain_pair([3, 1], 2)
    assert controllability_indices(A, B) == [3, 1]
    A, B = chain_pair([2, 2, 1], 4)
    assert controllability_indices(A, B) == [2, 2, 1]


def test_functional_chains_match_rank_increments():
    rng = random.Random(41)
    for kappa, m in [([2], 1), ([3, 1], 2), ([2, 2], 2), ([1, 1, 1], 3), ([4, 2, 1], 3)]:
        A, B = scrambled_pair(rng, kappa, m)
        towers = functional_chains(A, B)
        assert sorted((len(t) - 1 for t in towers), reverse=True) == kappa
        assert controllability_indices(A, B) == kappa


def test_functional_chains_rejects_uncontrollable():
    A = RatMatrix.identity(2)
    B = RatMatrix.from_column([qq(1), qq(0)])
    with pytest.raises(NotControllable):
        functional_chains(A, B)


# The construction before chains were towers: functional_chains returned
# (tau, k) pairs and every caller rebuilt tau A^j from powers of A.  The
# towers must reproduce it exactly, stored integers included.


def _power(A, k):
    M = RatMatrix.identity(A.rows)
    for _ in range(k):
        M = M * A
    return M


def _power_chains(A, B):
    n = A.rows
    if n == 0:
        return []
    K = [Subspace.full(n)]
    ctrb = B
    while K[-1].dim > 0:
        K.append(kernel_basis(ctrb.T))
        ctrb = hstack([ctrb, A * (ctrb.take_cols(range(ctrb.cols - B.cols, ctrb.cols)))])
    chains = []
    for i in range(len(K) - 1, 0, -1):
        inner = K[i]
        for tau, k in chains:
            if k > i:
                inner = subspace_sum(inner, image((tau * _power(A, k - i)).T))
        heads = complement(inner, K[i - 1])
        chains += [(RatMatrix([heads.col(j)], cols=n), i) for j in range(heads.cols)]
    return chains


def _power_towers(chains, A):
    rows = [tau * _power(A, j) for tau, k in chains for j in range(k)]
    return vstack(rows) if rows else RatMatrix.zeros(0, A.rows)


def _power_brunovsky_single(A, B):
    n, m = A.rows, B.cols
    chains = _power_chains(A, B)
    T_x = _power_towers(chains, A)
    T_x_inv = inverse(T_x)
    gamma = [tau * _power(A, k - 1) * B for tau, k in chains]
    Gamma = vstack(gamma) if gamma else RatMatrix.zeros(0, m)
    extra = complement(image(Gamma.T), Subspace.full(m)).T
    T_u = vstack([Gamma, extra]) if m else RatMatrix.identity(0)
    T_u_inv = inverse(T_u)
    tails = [tau * _power(A, k) for tau, k in chains]
    M = vstack(tails + [RatMatrix.zeros(m - len(chains), n)]) if m else RatMatrix.zeros(0, n)
    F = -(T_u_inv * M) if m else RatMatrix.zeros(0, n)
    kappa = [k for _, k in chains]
    _assert_chain_form(T_x * (A + B * F) * T_x_inv, T_x * B * T_u_inv, kappa)
    return T_x, T_x_inv, T_u, T_u_inv, F, kappa


def _power_two_kind(A, B_u, B_v):
    """(T_x, T_w, TF_w, eps, eps_bar) of the two-kind chain engine."""
    n, m, s = A.rows, B_u.cols, B_v.cols
    B_w = hstack([B_u, B_v])
    reduced = []
    for tau, k in _power_chains(A, B_w):
        gamma = tau * _power(A, k - 1) * B_w
        for tau_i, k_i, piv_i, g_i in reduced:
            lam = gamma[0, piv_i] / g_i[0, piv_i]
            if lam != 0:
                tau = tau - (tau_i * _power(A, k_i - k)).scale(lam)
                gamma = gamma - g_i.scale(lam)
        v_hits = [j for j in range(m, m + s) if gamma[0, j] != 0]
        piv = v_hits[0] if v_hits else next(j for j in range(m) if gamma[0, j] != 0)
        reduced.append((tau, k, piv, gamma))
    u_chains = [c for c in reduced if c[2] < m]
    v_chains = [c for c in reduced if c[2] >= m]
    ordered = u_chains + v_chains
    T_x = _power_towers([(tau, k) for tau, k, _, _ in ordered], A)
    eye = RatMatrix.identity(m + s)
    used = {c[2] for c in reduced}
    w_rows = (
        [g for _, _, _, g in u_chains]
        + [eye.take_rows([j]) for j in range(m) if j not in used]
        + [g for _, _, _, g in v_chains]
        + [eye.take_rows([j]) for j in range(m, m + s) if j not in used]
    )
    T_w = vstack(w_rows) if w_rows else RatMatrix.identity(0)
    tail_rows = list(range(len(u_chains))) + list(range(m, m + len(v_chains)))
    tails = [tau * _power(A, k) for tau, k, _, _ in ordered]
    M = place(m + s, n, [([r], range(n), t) for r, t in zip(tail_rows, tails)])
    return T_x, T_w, -M, [c[1] for c in u_chains], [c[1] for c in v_chains]


def _drawn_pairs():
    """Controllable pairs: scrambled chains with surplus inputs, m = 1, n = 0."""
    rng = random.Random(46)
    pairs = [chain_pair([], 0), chain_pair([], 2)]
    for kappa, m in [([1], 1), ([3], 1), ([4], 1), ([2, 1], 3), ([3, 3, 1], 3), ([3, 2], 4)]:
        pairs += [scrambled_pair(rng, kappa, m) for _ in range(2)]
    return pairs


def test_each_tower_row_is_the_row_above_times_A():
    for A, B in _drawn_pairs():
        towers = functional_chains(A, B)
        for t in towers:
            assert all(t[j + 1] == t[j] * A for j in range(len(t) - 1))
            assert all((t[j] * B).is_zero() for j in range(len(t) - 2))
            assert not (t[-2] * B).is_zero()
        lengths = [len(t) - 1 for t in towers]
        assert lengths == sorted(lengths, reverse=True)
        assert sum(lengths) == A.rows


def fed_back_towers(towers, B, F):
    """The towers of (A + B F, B) from those of (A, B): tau A^j B = 0 for
    j <= k-2 keeps every state row, and the tail gains (tau A^{k-1} B) F."""
    return [t[:-1] + [t[-1] + (t[-2] * B) * F] for t in towers]


@settings(max_examples=40, deadline=None, database=None)
@given(
    kappa=st.lists(st.integers(1, 4), max_size=3),
    surplus=st.integers(0, 2),
    seed=st.integers(0, 10**6),
)
def test_feedback_moves_only_the_chain_tails(kappa, surplus, seed):
    rng = random.Random(seed)
    m = len(kappa) + surplus
    A, B = scrambled_pair(rng, sorted(kappa, reverse=True), m)
    F = random_matrix(rng, m, A.rows)
    assert functional_chains(A + B * F, B) == fed_back_towers(functional_chains(A, B), B, F)


def test_towers_and_certificates_match_the_power_construction():
    for A, B in _drawn_pairs():
        chains = _power_chains(A, B)
        towers = functional_chains(A, B)
        assert [[tau * _power(A, j) for j in range(k + 1)] for tau, k in chains] == towers
        assert brunovsky_single(A, B) == _power_brunovsky_single(A, B)
        for m_u in range(B.cols + 1):
            B_u, B_v = B.take_cols(range(m_u)), B.take_cols(range(m_u, B.cols))
            t, eps, eps_bar = brunovsky_two_inputs(A, B_u, B_v)
            T_x, T_w, TF_w, want_eps, want_eps_bar = _power_two_kind(A, B_u, B_v)
            assert (t.T_x, t.T_w, t.TF_w) == (T_x, T_w, TF_w)
            assert (eps, eps_bar) == (want_eps, want_eps_bar)
            assert is_invertible(T_x) and is_invertible(T_w)


def test_functional_chains_makes_one_product_per_tower_row_level_and_check(monkeypatch):
    # n products grow the towers, each of the mu filtration levels costs
    # one product for the containment check inside complement, and [B, AB,
    # ...] gains one block per level but the first (K_1 needs only B)
    counted = []
    product = RatMatrix.__mul__

    def counting(self, other):
        counted.append(1)
        return product(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting)
    for A, B in _drawn_pairs():
        counted.clear()
        towers = functional_chains(A, B)
        mu = len(towers[0]) - 1 if towers else 0
        assert len(counted) == (A.rows + 2 * mu - 1 if mu else 0)


def test_brunovsky_single_recovers_indices():
    rng = random.Random(42)
    for kappa, m in [([2], 1), ([2, 1], 2), ([3, 2], 2), ([2, 2, 1], 3)]:
        for _ in range(3):
            A, B = scrambled_pair(rng, kappa, m)
            T_x, _, T_u, _, F, got = brunovsky_single(A, B)
            assert got == kappa
            # the canonical pattern itself is asserted inside brunovsky_single;
            # double-check one block boundary by hand
            Atil = T_x * (A + B * F) * inverse(T_x)
            assert Atil[kappa[0] - 1, kappa[0] - 1] == 0


def test_brunovsky_single_with_surplus_inputs():
    rng = random.Random(43)
    A, B = scrambled_pair(rng, [2, 1], 3)
    T_x, _, T_u, _, F, kappa = brunovsky_single(A, B)
    assert kappa == [2, 1]
    Btil = T_x * B * inverse(T_u)
    assert Btil.col(2) == [qq(0), qq(0), qq(0)]


# -- pole placement -----------------------------------------------------------


def test_pole_place_hits_target_polynomial():
    rng = random.Random(44)
    for kappa, m in [([2], 1), ([3, 1], 2), ([2, 2], 3)]:
        n = sum(kappa)
        A, B = scrambled_pair(rng, kappa, m)
        targets = [qq(i + 1) for i in range(n)]
        F = pole_place(A, B, targets)
        assert charpoly(A + B * F) == poly_from_roots(targets)


def test_pole_place_scalar():
    A = mat([[5]])
    B = mat([[2]])
    F = pole_place(A, B, [qq(-1)])
    assert (A + B * F)[0, 0] == qq(-1)


# -- Frobenius form -----------------------------------------------------------


def test_frobenius_cyclic_matrix_single_block():
    A = mat([[2, 0], [0, 3]])
    T, Fr, factors = frobenius_form(A)
    assert len(factors) == 1
    assert factors[0] == poly_from_roots([2, 3])
    assert T * A == Fr * T


def test_frobenius_identity_splits_into_linear_factors():
    A = RatMatrix.identity(3)
    T, Fr, factors = frobenius_form(A)
    assert factors == [[qq(-1), qq(1)]] * 3
    assert Fr == A


def test_frobenius_mixed_blocks():
    # J_2(0) + J_1(0): minimal polynomial x^2, second factor x
    A = mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    T, Fr, factors = frobenius_form(A)
    assert [len(f) - 1 for f in factors] == [2, 1]
    assert factors[0] == [qq(0), qq(0), qq(1)]


def test_cyclic_vector_of_a_diagonal_with_distinct_entries():
    # diag(1, ..., 40) is cyclic, but no unit vector is: a cyclic vector
    # needs all 40 entries nonzero, which the moment-curve points have
    n = 40
    A = RatMatrix([[qq(i + 1) if i == j else qq(0) for j in range(n)] for i in range(n)], cols=n)
    cols = [_cyclic_vector(A, n)]
    for _ in range(n - 1):
        cols.append(A * cols[-1])
    assert rank(hstack(cols)) == n


def test_frobenius_random_similarity_invariance():
    rng = random.Random(45)
    for n in [2, 3, 4]:
        A = random_matrix(rng, n, n)
        S = random_invertible(rng, n)
        _, _, f1 = frobenius_form(A)
        _, _, f2 = frobenius_form(S * A * inverse(S))
        assert f1 == f2
        assert f1[0] == minimal_polynomial(A)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
