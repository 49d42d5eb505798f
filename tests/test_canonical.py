"""Canonical form construction and index translation tests."""

from __future__ import annotations

import random
import sys

import pytest

from dacscanon import ratmat
from dacscanon.ratmat import (
    RatMatrix,
    Subspace,
    block_diag,
    complement,
    hstack,
    image,
    kernel_basis,
    mat,
    place,
    preimage,
    qq,
    solve,
    solve_left,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from dacscanon.systems import (
    Dacs,
    EmTransform,
    Odecs2,
    apply_em,
    apply_exfb,
    em_compose,
    explicitate,
    verify_em,
    verify_exfb,
)
from dacscanon import _chains, canonical
from dacscanon._chains import controllability_indices, frobenius_form
from dacscanon.geometry import invariant_subspaces
from dacscanon.morse import emnf, emtf
from dacscanon.canonical import (
    EmcfIndices,
    FbcfIndices,
    NotControllable,
    NotObservable,
    NotPrime,
    brunovsky_two_inputs,
    build_fbcf,
    emcf,
    emcf_system,
    fbcf,
    fbcf_run,
    observable_dual_canonical,
    prime_canonical,
    translate_indices,
)
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf
from test_systems import random_dacs, random_em, random_exfb, random_matrix


def circuit_dacs(Lv=1, Ca=1, R=1, R_G=1, R_F=1) -> Dacs:
    """An RLC network with an op-amp stage: 13 equations, 14 signals,
    2 controls, nonzero scalar parameters."""
    E = RatMatrix.zeros(13, 14).to_lists()
    E[0][4] = qq(Lv)
    E[1][2] = -qq(Ca)
    E[1][3] = qq(Ca)
    H = RatMatrix.zeros(13, 14).to_lists()
    for i, j, v in [
        (0, 0, 1), (1, 12, 1),
        (2, 1, -1), (2, 7, R_G),
        (3, 1, 1), (3, 2, -1), (3, 8, R_F),
        (4, 3, -1), (4, 9, R),
        (5, 5, 1), (6, 6, 1),
        (7, 0, 1), (7, 1, -1),
        (8, 4, -1), (8, 5, -1),
        (9, 6, 1), (9, 7, 1), (9, 8, -1),
        (10, 8, -1), (10, 10, 1), (10, 11, -1), (10, 12, 1),
        (11, 9, 1), (11, 12, 1), (11, 13, 1),
        (12, 2, -1),
    ]:
        H[i][j] = qq(v)
    L = RatMatrix.zeros(13, 2).to_lists()
    L[8][0] = qq(1)
    L[12][1] = qq(1)
    return Dacs(E=RatMatrix(E, cols=14), H=RatMatrix(H, cols=14), L=RatMatrix(L, cols=2))


def circuit_fbcf_expected() -> Dacs:
    """The canonical system of the circuit, independent of its parameters."""
    E = RatMatrix.zeros(13, 14).to_lists()
    E[0][0] = qq(1)
    E[1][2] = qq(1)
    H = RatMatrix.zeros(13, 14).to_lists()
    H[0][1] = qq(1)
    H[1][3] = qq(1)
    for r in range(9):
        H[4 + r][5 + r] = qq(1)
    L = RatMatrix.zeros(13, 2).to_lists()
    L[2][0] = qq(1)
    L[3][1] = qq(1)
    return Dacs(E=RatMatrix(E, cols=14), H=RatMatrix(H, cols=14), L=RatMatrix(L, cols=2))


# -- two-kind chain form --------------------------------------------------------


def test_brunovsky_two_inputs_single_chain():
    A = mat([[0, 1], [0, 0]])
    t, eps, eps_bar = brunovsky_two_inputs(A, mat([[0], [1]]), RatMatrix.zeros(2, 0))
    assert eps == [2] and eps_bar == []
    o = Odecs2(A, mat([[0], [1]]), RatMatrix.zeros(2, 0), RatMatrix.zeros(0, 2), RatMatrix.zeros(0, 1))
    assert verify_em(o, apply_em(o, t), t)


def test_brunovsky_second_kind_priority():
    # the chain tail can be fed by either input kind; the second kind wins
    A = mat([[0, 1], [0, 0]])
    B = mat([[0], [1]])
    t, eps, eps_bar = brunovsky_two_inputs(A, B, B)
    assert eps == [] and eps_bar == [2]


def test_brunovsky_not_controllable():
    with pytest.raises(NotControllable):
        brunovsky_two_inputs(mat([[1, 0], [0, 2]]), mat([[1], [0]]), RatMatrix.zeros(2, 0))


def test_brunovsky_surplus_inputs_are_dead():
    # one chain, three first-kind inputs: two columns end up feeding nothing
    A = RatMatrix.zeros(1, 1)
    B_u = mat([[1, 2, 3]])
    t, eps, eps_bar = brunovsky_two_inputs(A, B_u, RatMatrix.zeros(1, 0))
    assert eps == [1] and eps_bar == []
    o = Odecs2(A, B_u, RatMatrix.zeros(1, 0), RatMatrix.zeros(0, 1), RatMatrix.zeros(0, 3))
    res = apply_em(o, t)
    assert res.B_u.col(1) == [qq(0)] and res.B_u.col(2) == [qq(0)]


@pytest.mark.parametrize("seed", range(8))
def test_brunovsky_matches_classical_indices(seed):
    # chain lengths agree with the rank-increment controllability indices of
    # the merged pair
    rng = random.Random(100 + seed)
    n, m, s = rng.randint(1, 5), rng.randint(0, 2), rng.randint(0, 2)
    A = random_matrix(rng, n, n)
    B_u = random_matrix(rng, n, m)
    B_v = random_matrix(rng, n, s)
    try:
        _, eps, eps_bar = brunovsky_two_inputs(A, B_u, B_v)
    except NotControllable:
        return
    merged = controllability_indices(A, hstack([B_u, B_v]))
    assert sorted(eps + eps_bar, reverse=True) == merged


@pytest.mark.parametrize("seed", range(6))
def test_brunovsky_scramble_invariance(seed):
    rng = random.Random(200 + seed)
    eps = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True)
    eps_bar = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True)
    idx = EmcfIndices(eps=tuple(eps), eps_bar=tuple(eps_bar), A_nn=RatMatrix.zeros(0, 0),
                      sigma=(), delta=0, sigma_bar=(), eta=())
    o = emcf_system(idx)
    t = random_em(rng, o.n, o.m, o.s, o.p)
    o2 = apply_em(o, t)
    _, eps2, eps_bar2 = brunovsky_two_inputs(o2.A, o2.B_u, o2.B_v)
    assert tuple(eps2) == idx.eps and tuple(eps_bar2) == idx.eps_bar


# -- prime systems ---------------------------------------------------------------


def test_prime_pure_static():
    t, sigma, delta, sigma_bar = prime_canonical(
        RatMatrix.zeros(0, 0),
        RatMatrix.zeros(0, 3),
        RatMatrix.zeros(0, 0),
        RatMatrix.zeros(3, 0),
        RatMatrix.identity(3),
    )
    assert (sigma, delta, sigma_bar) == ([], 3, [])


def test_prime_rejects_unobserved_state():
    # a state that never reaches the output: V* is nonzero
    with pytest.raises(NotPrime):
        prime_canonical(
            mat([[0]]), mat([[1]]), RatMatrix.zeros(1, 0), RatMatrix.zeros(1, 1), mat([[1]])
        )


def test_prime_single_chain():
    # x' = u, y = x: one first-kind chain of length 1
    t, sigma, delta, sigma_bar = prime_canonical(
        mat([[0]]), mat([[1]]), RatMatrix.zeros(1, 0), mat([[1]]), RatMatrix.zeros(1, 1)
    )
    assert (sigma, delta, sigma_bar) == ([1], 0, [])


@pytest.mark.parametrize("seed", range(8))
def test_prime_scrambled_round_trip(seed):
    rng = random.Random(300 + seed)
    sigma = tuple(sorted((rng.randint(1, 2) for _ in range(rng.randint(0, 2))), reverse=True))
    sigma_bar = tuple(sorted((rng.randint(1, 2) for _ in range(rng.randint(0, 2))), reverse=True))
    delta = rng.randint(0, 2)
    idx = EmcfIndices(eps=(), eps_bar=(), A_nn=RatMatrix.zeros(0, 0),
                      sigma=sigma, delta=delta, sigma_bar=sigma_bar, eta=())
    o = emcf_system(idx)
    t = random_em(rng, o.n, o.m, o.s, o.p)
    o2 = apply_em(o, t)
    t2, sigma2, delta2, sigma_bar2 = prime_canonical(o2.A, o2.B_u, o2.B_v, o2.C, o2.D_u)
    assert (tuple(sigma2), delta2, tuple(sigma_bar2)) == (sigma, delta, sigma_bar)
    assert verify_em(o2, apply_em(o2, t2), t2)


# -- prime chains against the per-chain construction -----------------------------


class _RefChain:
    """The former mutable prime chain: column towers, head coefficients t and
    drive row rho, kept as the reference for the towers of _output_chains."""

    def __init__(self, tower, t, rho):
        self.tower, self.t, self.rho = tower, t, rho

    def absorb(self, other, coef):
        d = len(self.tower) - len(other.tower)
        assert d >= 0
        for l in range(len(other.tower)):
            self.tower[d + l] = self.tower[d + l] - other.tower[l].scale(coef)
        self.rho = self.rho - other.rho.scale(coef)
        if d == 0:
            self.t = self.t - other.t.scale(coef)


def _ref_output_chains(A, B_w, C_live):
    """Per-chain towers: one solve per tower level and one per head."""
    n = A.rows
    S1 = image(C_live.T)
    annB = kernel_basis(B_w.T)
    At, Ct = A.T, C_live.T
    P = [Subspace.full(n), Subspace.full(n)]
    while len(P) <= n:
        nxt = subspace_intersect(annB, preimage(At, subspace_sum(P[-1], S1)))
        if nxt == P[-1]:
            break
        P.append(nxt)
    P += [P[-1]] * (n + 1 - len(P))
    heads = []
    chosen = RatMatrix.zeros(n, 0)
    for k in range(n, 0, -1):
        new = complement(Subspace.from_columns(chosen), subspace_intersect(S1, P[k]))
        heads += [(k, new.take_cols([j])) for j in range(new.cols)]
        if new.cols:
            chosen = hstack([chosen, new])
    chains = []
    for k, head in heads:
        tower = [head]
        for level in range(2, k + 1):
            rhs = At * tower[-1]
            if level == k:
                tower.append(rhs)
                continue
            sol = solve(hstack([P[k - level + 1].basis, Ct]), rhs)
            kappa = sol.take_rows(range(P[k - level + 1].dim, sol.rows))
            tower.append(rhs - Ct * kappa)
        chains.append(_RefChain(tower, solve(Ct, head).T, tower[-1].T * B_w))
    return chains


def _ref_prime_canonical(o):
    """The prime stage built on _ref_output_chains and _RefChain.absorb."""
    n, m, s, p = o.n, o.m, o.s, o.p
    T_y0, T_u0, delta = canonical._static_normalizer(o.D_u)
    t_d = EmTransform.coordinates(
        RatMatrix.identity(n), block_diag([T_u0, RatMatrix.identity(s)]), T_y0, m
    )
    o1 = apply_em(o, t_d)
    u_st, y_st = range(m - delta, m), range(p - delta, p)
    t_kill = canonical._feedback_stage(
        o1, [(u_st, range(n), -o1.C.take_rows(y_st))], [(range(n), y_st, -o1.B_u.take_cols(u_st))]
    )
    o2 = apply_em(o1, t_kill)
    m3 = m - delta
    C_live = o2.C.take_rows(range(p - delta))
    B_w = hstack([o2.B_u.take_cols(range(m3)), o2.B_v])
    u_chains, v_chains, pivots = [], [], []
    for ch in sorted(_ref_output_chains(o2.A, B_w, C_live), key=lambda c: len(c.tower)):
        for col, piv in pivots:
            coef = ch.rho[0, col] / piv.rho[0, col]
            if coef != 0:
                ch.absorb(piv, coef)
        vcol = next((j for j in range(m3, m3 + s) if ch.rho[0, j] != 0), None)
        (u_chains if vcol is None else v_chains).append(ch)
        if vcol is not None:
            pivots.append((vcol, ch))
    u_chains.sort(key=lambda c: -len(c.tower))
    v_chains.sort(key=lambda c: -len(c.tower))
    sigma = [len(ch.tower) for ch in u_chains]
    sigma_bar = [len(ch.tower) for ch in v_chains]
    ordered = u_chains + v_chains
    T_x = vstack([RatMatrix.zeros(0, n)] + [col.T for ch in ordered for col in ch.tower])
    T_w_core = vstack([RatMatrix.zeros(0, m3 + s)] + [ch.rho for ch in ordered])
    N = vstack([RatMatrix.zeros(0, n)] + [ch.tower[-1].T * o2.A for ch in ordered])
    live = list(range(m3)) + list(range(m, m + s))
    T_w = place(m + s, m + s, [(live, live, T_w_core), (u_st, u_st, RatMatrix.identity(delta))])
    TF_w = place(m + s, n, [(live, range(n), -N)])
    heads = vstack([RatMatrix.zeros(0, p - delta)] + [ch.t for ch in ordered])
    T_y1 = place(p, p, [(live, range(p - delta), heads), (u_st, y_st, RatMatrix.identity(delta))])
    o_can = emcf_system(EmcfIndices((), (), RatMatrix.zeros(0, 0), sigma, delta, sigma_bar, ()))
    M = o_can.A * T_x - T_x * o2.A - hstack([o_can.B_u, o_can.B_v]) * TF_w
    t_chain = EmTransform(T_x, T_w, T_y1, TF_w, solve_left(o2.C, M), m)
    return em_compose(em_compose(t_d, t_kill), t_chain), sigma, delta, sigma_bar


def _scrambled_prime(rng, sigma, delta, sigma_bar):
    """The canonical prime system with these indices under a drawn equivalence."""
    idx = EmcfIndices(eps=(), eps_bar=(), A_nn=RatMatrix.zeros(0, 0),
                      sigma=sigma, delta=delta, sigma_bar=sigma_bar, eta=())
    o = emcf_system(idx)
    return apply_em(o, random_em(rng, o.n, o.m, o.s, o.p))


def _drawn_prime_systems():
    """Scrambled prime systems with repeated chain lengths up to 4 of both
    kinds and delta 0-2."""
    rng = random.Random(310)
    kinds = [((4, 4), 0, (4, 4)), ((3, 3, 1), 1, (2, 2)), ((4, 2, 2), 2, ()),
             ((), 1, (3, 3, 3)), ((1, 1), 0, (1, 1)), ((), 0, ())]
    for _ in range(6):
        draw = lambda: tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
                                    reverse=True))
        kinds.append((draw(), rng.randint(0, 2), draw()))
    return [_scrambled_prime(rng, *k) for k in kinds]


def _fbcf_prime_inputs(monkeypatch):
    """Every _prime_canonical input fbcf_run meets on criterion 2's cases 0-9."""
    seen, real = [], canonical._prime_canonical
    monkeypatch.setattr(canonical, "_prime_canonical", lambda o: seen.append(o) or real(o))
    for case in range(10):
        base = 900001 + 2 * case
        d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
        fbcf_run(random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0])
    monkeypatch.undo()
    return seen


def test_prime_towers_match_the_per_chain_construction(monkeypatch):
    systems = _drawn_prime_systems() + _fbcf_prime_inputs(monkeypatch)
    assert len(systems) == 22
    for o in systems:
        assert canonical._prime_canonical(o) == _ref_prime_canonical(o)


def test_output_chains_eliminate_once_per_depth_and_solve_the_heads_once(monkeypatch):
    # chains (4, 3) of the first kind and (3, 3) of the second: depths 3
    # and 2 each cost one elimination (one per tower level and head, 9, in
    # the per-chain construction), and one more solves all four heads
    o = _scrambled_prime(random.Random(320), (4, 3), 1, (3, 3))
    args, inside, live = [], [False], []
    real_rank_rref, real_chains = ratmat.rank_rref, canonical._output_chains

    def counting(M):
        args.append((inside[0], M))
        return real_rank_rref(M)

    def chains(A, B_w, C_live):
        live.append(C_live)
        inside[0] = True
        try:
            return real_chains(A, B_w, C_live)
        finally:
            inside[0] = False

    monkeypatch.setattr(ratmat, "rank_rref", counting)
    monkeypatch.setattr(canonical, "_output_chains", chains)
    _, sigma, delta, sigma_bar = canonical._prime_canonical(o)
    assert (sigma, delta, sigma_bar) == ([4, 3], 1, [3, 3])
    assert sum(1 for within, _ in args if within) == max(0, max(sigma + sigma_bar) - 2) == 2
    assert sum(1 for _, M in args if M == live[0].T) == 1


# -- observable part --------------------------------------------------------------


def test_observable_single_chain():
    t, eta = observable_dual_canonical(mat([[1, 0]]), mat([[0, 1], [0, 0]]))
    assert eta == [2]


def test_observable_rejects_unobservable():
    with pytest.raises(NotObservable):
        observable_dual_canonical(mat([[1, 0]]), mat([[1, 0], [0, 2]]))


@pytest.mark.parametrize("seed", range(8))
def test_observable_duality(seed):
    # observability indices equal the controllability indices of the
    # transposed pair
    rng = random.Random(400 + seed)
    n, p = rng.randint(1, 5), rng.randint(1, 3)
    A = random_matrix(rng, n, n)
    C = random_matrix(rng, p, n)
    try:
        _, eta = observable_dual_canonical(C, A)
    except NotObservable:
        with pytest.raises(NotControllable):
            controllability_indices(A.T, C.T)
        return
    assert eta == controllability_indices(A.T, C.T)


def test_observable_dead_outputs_sorted_last():
    A = mat([[0, 1], [0, 0]])
    C = mat([[0, 0], [1, 0]])
    t, eta = observable_dual_canonical(C, A)
    assert eta == [2]
    o = Odecs2(A, RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 0), C, RatMatrix.zeros(2, 0))
    res = apply_em(o, t)
    assert res.C.row(0) == [qq(1), qq(0)]
    assert res.C.row(1) == [qq(0), qq(0)]


# -- index records ----------------------------------------------------------------


def test_indices_reject_increasing_lists():
    with pytest.raises(ValueError):
        EmcfIndices(eps=(1, 2), eps_bar=(), A_nn=RatMatrix.zeros(0, 0),
                    sigma=(), delta=0, sigma_bar=(), eta=())
    with pytest.raises(ValueError):
        FbcfIndices(eps_p=(), eps_bar_p=(), sigma_p=(0,), sigma_bar_p=(),
                    eta_p=(), n_rho=0, A_rho=RatMatrix.zeros(0, 0))


def test_indices_size_bookkeeping():
    idx = EmcfIndices(eps=(2,), eps_bar=(1,), A_nn=mat([[3]]), sigma=(1,),
                      delta=1, sigma_bar=(2,), eta=(1,), dead_u=1, dead_v=2, dead_y=1)
    assert idx.n == 2 + 1 + 1 + 1 + 2 + 1
    assert idx.m == 1 + 1 + 1 + 1
    assert idx.s == 1 + 1 + 2
    assert idx.p == 1 + 1 + 1 + 1 + 1


# -- assembled canonical form -------------------------------------------------------


def random_emcf_indices(rng, allow_dead_v=True) -> EmcfIndices:
    def chains(max_count, max_len):
        return tuple(sorted((rng.randint(1, max_len) for _ in range(rng.randint(0, max_count))), reverse=True))

    n2 = rng.randint(0, 2)
    A_nn = frobenius_form(random_matrix(rng, n2, n2))[1]
    return EmcfIndices(
        eps=chains(2, 3),
        eps_bar=chains(2, 3),
        A_nn=A_nn,
        sigma=chains(2, 2),
        delta=rng.randint(0, 2),
        sigma_bar=chains(2, 2),
        eta=chains(2, 2),
        dead_u=rng.randint(0, 1),
        dead_v=rng.randint(0, 1) if allow_dead_v else 0,
        dead_y=rng.randint(0, 1),
    )


def test_emcf_empty_system():
    o = Odecs2(RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0),
               RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0))
    t, idx, o_can = emcf(emnf(emtf(o)))
    assert idx.eps == () and idx.eps_bar == () and idx.sigma == ()
    assert idx.sigma_bar == () and idx.eta == () and idx.delta == 0
    assert idx.A_nn.rows == 0


@pytest.mark.parametrize("seed", range(10))
def test_emcf_round_trip_from_known_indices(seed):
    # build a canonical system, scramble it, and recover identical indices
    rng = random.Random(500 + seed)
    idx = random_emcf_indices(rng)
    o = emcf_system(idx)
    t = random_em(rng, o.n, o.m, o.s, o.p)
    o2 = apply_em(o, t)
    t2, idx2, o_can = emcf(emnf(emtf(o2)))
    assert idx2 == idx
    assert o_can == o


def test_emcf_certificate_is_sound():
    rng = random.Random(77)
    idx = random_emcf_indices(rng)
    o2 = apply_em(emcf_system(idx), random_em(rng, idx.n, idx.m, idx.s, idx.p))
    nf = emnf(emtf(o2))
    t, _, o_can = emcf(nf)
    assert verify_em(nf.system, o_can, t)


def test_emcf_circuit():
    o, _ = explicitate(circuit_dacs())
    t, idx, o_can = emcf(emnf(emtf(o)))
    assert idx.eps == () and idx.eps_bar == (2, 2, 1)
    assert idx.sigma == () and idx.delta == 2 and idx.sigma_bar == (1,) * 9
    assert idx.eta == () and idx.A_nn.rows == 0
    assert (idx.dead_u, idx.dead_v, idx.dead_y) == (0, 0, 0)


# -- index translation ----------------------------------------------------------


def test_translate_shifts_and_identities():
    idx = EmcfIndices(eps=(3, 1), eps_bar=(2,), A_nn=mat([[7]]), sigma=(1,),
                      delta=0, sigma_bar=(2, 1), eta=(2,), dead_u=1, dead_y=1)
    f = translate_indices(idx)
    assert f.eps_p == (3, 1)          # unchanged
    assert f.eps_bar_p == (2,)        # state counts carry over unchanged
    assert f.sigma_p == (2,)          # one output equation appended
    assert f.sigma_bar_p == (2, 1)    # unchanged
    assert f.eta_p == (3, 1)          # one appended + a dead output as a 1
    assert f.n_rho == 1 and f.A_rho == mat([[7]])
    assert f.dead_u == 1


def test_translate_merges_statics_into_sigma():
    idx = EmcfIndices(eps=(), eps_bar=(), A_nn=RatMatrix.zeros(0, 0), sigma=(1,),
                      delta=2, sigma_bar=(), eta=())
    f = translate_indices(idx)
    assert f.sigma_p == (2, 1, 1)


def test_translate_rejects_dead_second_kind():
    idx = EmcfIndices(eps=(), eps_bar=(), A_nn=RatMatrix.zeros(0, 0), sigma=(),
                      delta=0, sigma_bar=(), eta=(), dead_v=1)
    with pytest.raises(ValueError):
        translate_indices(idx)


# -- implicit-side assembly -------------------------------------------------------


def test_build_fbcf_regular_block():
    f = FbcfIndices(eps_p=(), eps_bar_p=(), sigma_p=(), sigma_bar_p=(), eta_p=(),
                    n_rho=1, A_rho=mat([[5]]))
    d = build_fbcf(f)
    assert d.E == mat([[1]]) and d.H == mat([[5]]) and d.L.shape == (1, 0)


def test_build_fbcf_block_shapes():
    f = FbcfIndices(eps_p=(2,), eps_bar_p=(2,), sigma_p=(2,), sigma_bar_p=(1,),
                    eta_p=(2,), n_rho=1, A_rho=mat([[0]]), dead_u=1)
    d = build_fbcf(f)
    assert d.l == 2 + 1 + 1 + 2 + 1 + 2
    assert d.n == 2 + 2 + 1 + 1 + 1 + 1
    assert d.m == 1 + 1 + 1
    assert (d.l, d.n, d.m) == (f.l, f.n, f.m)
    # the dead input column is zero
    assert all(d.L[i, 2] == 0 for i in range(d.l))


def test_build_fbcf_every_block_kind():
    # one block of each kind with k >= 2, the size-1 eps_bar, sigma and eta
    # blocks, and a dead input, written out from the block definitions
    f = FbcfIndices(eps_p=(2,), eps_bar_p=(2, 1), sigma_p=(3, 1), sigma_bar_p=(2,),
                    eta_p=(2, 1), n_rho=2, A_rho=mat([[1, 2], [3, 4]]), dead_u=1)
    E = RatMatrix.zeros(14, 12).to_lists()
    H = RatMatrix.zeros(14, 12).to_lists()
    L = RatMatrix.zeros(14, 4).to_lists()
    for i, j in [
        (0, 0), (1, 1),  # eps_p 2: rows 0-1, states 0-1
        (2, 2),  # eps_bar_p 2: row 2, states 2-3; eps_bar_p 1: state 4
        (3, 5), (4, 6),  # regular block: rows 3-4, states 5-6
        (6, 7), (7, 8),  # sigma_p 3: rows 5-7, states 7-8; sigma_p 1: row 8
        (10, 9),  # sigma_bar_p 2: rows 9-10, states 9-10
        (11, 11),  # eta_p 2: rows 11-12, state 11; eta_p 1: row 13
    ]:
        E[i][j] = qq(1)
    for i, j, v in [
        (0, 1, 1), (2, 3, 1),
        (3, 5, 1), (3, 6, 2), (4, 5, 3), (4, 6, 4),
        (5, 7, 1), (6, 8, 1),
        (9, 9, 1), (10, 10, 1),
        (12, 11, 1),
    ]:
        H[i][j] = qq(v)
    for i, j in [(1, 0), (7, 1), (8, 2)]:  # input 3 is dead
        L[i][j] = qq(1)
    want = Dacs(E=RatMatrix(E, cols=12), H=RatMatrix(H, cols=12), L=RatMatrix(L, cols=4))
    assert build_fbcf(f) == want


def test_build_fbcf_circuit_matrix():
    f = FbcfIndices(eps_p=(), eps_bar_p=(2, 2, 1), sigma_p=(1, 1),
                    sigma_bar_p=(1,) * 9, eta_p=(), n_rho=0,
                    A_rho=RatMatrix.zeros(0, 0))
    assert build_fbcf(f) == circuit_fbcf_expected()


# -- the full pipeline -------------------------------------------------------------


@pytest.mark.parametrize("params", [(1, 1, 1, 1, 1), (2, 3, 5, 7, 11)])
def test_fbcf_circuit(params):
    d = circuit_dacs(*params)
    cert, fidx, d_can = fbcf(d)
    assert fidx.eps_p == () and fidx.eps_bar_p == (2, 2, 1)
    assert fidx.sigma_p == (1, 1) and fidx.sigma_bar_p == (1,) * 9
    assert fidx.eta_p == () and fidx.n_rho == 0 and fidx.dead_u == 0
    assert d_can == circuit_fbcf_expected()
    assert verify_exfb(d, d_can, cert)
    # row/state/input bookkeeping of the canonical system
    assert (d_can.l, d_can.n, d_can.m) == (13, 14, 2)


def test_fbcf_circuit_subspace_dimensions():
    o, rec = explicitate(circuit_dacs())
    assert rec.q == 2
    assert (o.n, o.m, o.s, o.p) == (14, 2, 12, 11)
    inv = invariant_subspaces(o)
    assert inv.V_star.dim == 5
    assert inv.W_star.dim == 14
    assert inv.U_star.dim == 3
    assert inv.Y_star.dim == 11


def test_fbcf_fixed_point_on_elementary_blocks():
    cases = [
        Dacs(E=mat([[1]]), H=mat([[5]]), L=RatMatrix.zeros(1, 0)),
        Dacs(E=RatMatrix.identity(2), H=mat([[0, 1], [0, 0]]), L=mat([[0], [1]])),
        Dacs(E=mat([[1, 0]]), H=mat([[0, 1]]), L=RatMatrix.zeros(1, 0)),
        Dacs(E=mat([[0]]), H=mat([[1]]), L=RatMatrix.zeros(1, 0)),
        Dacs(E=mat([[0]]), H=mat([[0]]), L=mat([[1]])),
        Dacs(E=RatMatrix.zeros(1, 0), H=RatMatrix.zeros(1, 0), L=RatMatrix.zeros(1, 0)),
        Dacs(E=mat([[1], [0]]), H=mat([[0], [1]]), L=RatMatrix.zeros(2, 0)),
        Dacs(E=mat([[1], [0]]), H=mat([[0], [1]]), L=mat([[1], [0]])),
    ]
    for d in cases:
        _, fidx, d_can = fbcf(d)
        _, fidx2, d_can2 = fbcf(d_can)
        assert d_can2 == d_can
        assert fidx2 == fidx


@pytest.mark.parametrize("seed", range(12))
def test_fbcf_total_and_scramble_invariant(seed):
    # any input has a canonical form; equivalent inputs share it exactly
    rng = random.Random(600 + seed)
    l, n, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
    d = random_dacs(rng, l, n, m)
    cert, fidx, d_can = fbcf(d)
    assert verify_exfb(d, d_can, cert)
    d2 = apply_exfb(d, random_exfb(rng, l, n, m))
    cert2, fidx2, d_can2 = fbcf(d2)
    assert fidx2 == fidx
    assert d_can2 == d_can


@pytest.mark.parametrize("seed", range(8))
def test_fbcf_from_known_indices(seed):
    # build a canonical system from indices, scramble, and recover both the
    # indices and the very same canonical matrices
    rng = random.Random(700 + seed)
    idx = random_emcf_indices(rng, allow_dead_v=False)
    f = translate_indices(idx)
    d = build_fbcf(f)
    cert, f2, d_can = fbcf(d)
    assert f2 == f
    assert d_can == d
    d_scr = apply_exfb(d, random_exfb(rng, d.l, d.n, d.m))
    cert3, f3, d_can3 = fbcf(d_scr)
    assert f3 == f
    assert d_can3 == d


def test_fbcf_reuses_the_proven_block_2_polynomial(monkeypatch):
    # emnf proves block 2's characteristic polynomial and emcf hands it to
    # the Frobenius form, which computes none of its own
    callers, real = [], _chains.charpoly

    def counting(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(A)

    monkeypatch.setattr(_chains, "charpoly", counting)
    for case in range(10):
        base = 900001 + 2 * case
        d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
        fbcf(random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0])
    assert "pole_place" in callers
    assert "_frobenius" not in callers


@pytest.mark.parametrize("case", [None, 1])
def test_prime_filtration_stops_at_its_fixed_point(monkeypatch, case):
    # the filtration P_k of the prime stage's output chains reaches its
    # fixed point one step after the longest chain; no later step is run
    # (the circuit's 9-state prime block: 2 terms after P_1, not 9)
    lengths, real = [], canonical._v_sequence

    def recorded(*args):
        P = real(*args)
        lengths.append(len(P))
        return P

    monkeypatch.setattr(canonical, "_v_sequence", recorded)
    if case is None:
        d = circuit_dacs()
    else:
        base = 900001 + 2 * case
        d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
        d = random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0]
    run = fbcf_run(d)
    idx = run.explicit.idx
    n3 = run.explicit.tri.dims.n3
    assert lengths == [max(idx.sigma + idx.sigma_bar) + 1] and lengths[0] < n3
    assert (case, n3) in [(None, 9), (1, 10)]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
