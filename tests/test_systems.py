"""Explicitation, certificate actions, and solution correspondence."""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from pathlib import Path

import pytest

from dacscanon import canonical, ratmat, systems
from dacscanon.canonical import fbcf, fbcf_run
from dacscanon.cli import parse_system
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf
from dacscanon.ratmat import (
    RatMatrix,
    _kron,
    _vec,
    image,
    inverse,
    is_invertible,
    kernel_basis,
    mat,
    qq,
    rank,
    rank_rref,
)
from dacscanon.systems import (
    Dacs,
    EmTransform,
    ExFbTransform,
    NotAProlongation,
    Odecs2,
    SingularTransform,
    SplitSystem,
    apply_em,
    apply_exfb,
    dacs_residuals,
    em_compose,
    em_inverse,
    exfb_compose,
    exfb_inverse,
    expl_membership,
    explicitate,
    implicitate,
    prolong,
    simulate_odecs,
    v_reduce,
    verify_em,
    verify_exfb,
)
from dacscanon.ratmat import hstack, vstack


def random_matrix(rng, rows, cols, bound=3):
    return RatMatrix(
        [[qq(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_invertible(rng, n, bound=3):
    while True:
        M = random_matrix(rng, n, n, bound)
        if is_invertible(M):
            return M


def random_dacs(rng, l, n, m):
    return Dacs(E=random_matrix(rng, l, n), H=random_matrix(rng, l, n), L=random_matrix(rng, l, m))


def random_odecs(rng, n, m, s, p):
    # B_v must have full column rank to be a legitimate explicitation shape;
    # for generic transformation tests any B_v works, so keep it random.
    return Odecs2(
        A=random_matrix(rng, n, n),
        B_u=random_matrix(rng, n, m),
        B_v=random_matrix(rng, n, s),
        C=random_matrix(rng, p, n),
        D_u=random_matrix(rng, p, m),
    )


def random_exfb(rng, l, n, m):
    return ExFbTransform(
        Q=random_invertible(rng, l),
        P=random_invertible(rng, n),
        F=random_matrix(rng, m, n),
        G=random_invertible(rng, m),
    )


def random_em_blocks(rng, n, m, s, p):
    """Drawn per-kind blocks of an em certificate."""
    return dict(
        T_x=random_invertible(rng, n),
        T_u=random_invertible(rng, m),
        T_v=random_invertible(rng, s),
        T_y=random_invertible(rng, p),
        TF_u=random_matrix(rng, m, n),
        TF_v=random_matrix(rng, s, n),
        TR=random_matrix(rng, s, m),
        TK=random_matrix(rng, n, p),
    )


def random_em(rng, n, m, s, p):
    return EmTransform.from_blocks(**random_em_blocks(rng, n, m, s, p))


def left_divide(T, X):
    """T^-1 X for an invertible T: one elimination of [T | X], whose reduced
    form is [I | T^-1 X], with no row-operation certificate."""
    rk, num, den = ratmat._eliminate(hstack([T, X]), certify=False)
    assert rk == T.rows == T.cols
    return ratmat._rat_block(num, den, T.cols, T.cols + X.cols)


def paper_blocks(t):
    """The paper's (F_u, F_v, R, K) of t, recovered from the blocks in the
    new coordinates: F_u = T_u^-1 TF_u, F_v = T_v^-1 TF_v, R = T_v^-1 TR,
    K = T_x^-1 TK."""
    T_v = t.T_v
    return (
        left_divide(t.T_u, t.TF_u),
        left_divide(T_v, t.TF_v),
        left_divide(T_v, t.TR),
        left_divide(t.T_x, t.TK),
    )


def from_paper(T_x, T_u, T_v, T_y, F_u, F_v, R, K):
    """The certificate with the paper's blocks (F_u, F_v, R, K)."""
    return EmTransform.from_blocks(T_x, T_u, T_v, T_y, T_u * F_u, T_v * F_v, T_v * R, T_x * K)


EM_BLOCKS = ("T_x", "T_u", "T_v", "T_y", "TF_u", "TF_v", "TR", "TK")


def em_with(t, **blocks):
    """t with some of its per-kind blocks replaced."""
    return EmTransform.from_blocks(**dict({k: getattr(t, k) for k in EM_BLOCKS}, **blocks))


def paper_merged(t):
    """(T_w, F_w, K) of t in the paper's blocks, merged over w = (u, v):
    T_w = [[T_u, 0], [-T_v R, T_v]] and F_w = [F_u; F_v + R F_u]."""
    F_u, F_v, R, K = paper_blocks(t)
    m, s = t.T_u.rows, t.T_v.rows
    T_w = vstack([hstack([t.T_u, RatMatrix.zeros(m, s)]), hstack([-(t.T_v * R), t.T_v])])
    return T_w, vstack([F_u, F_v + R * F_u]), K


# ---------------------------------------------------------------------------
# explicitation
# ---------------------------------------------------------------------------


def test_explicitate_forced_values():
    d = Dacs(E=mat([[1, 0], [0, 0]]), H=mat([[0, 1], [1, 0]]), L=mat([[0], [1]]))
    o, rec = explicitate(d)
    assert rec.q == 1 and o.s == 1 and o.p == 1
    assert rec.Q == RatMatrix.identity(2)
    assert o.A == mat([[0, 1], [0, 0]])
    assert o.B_u == mat([[0], [0]])
    assert o.B_v == mat([[0], [1]])
    assert o.C == mat([[1, 0]])
    assert o.D_u == mat([[1]])


def test_explicitate_invertible_E():
    E = mat([[2, 1], [1, 1]])
    H = mat([[1, 0], [0, 1]])
    L = mat([[1], [2]])
    o, rec = explicitate(Dacs(E=E, H=H, L=L))
    assert o.s == 0 and o.p == 0 and rec.q == 2
    assert o.A == inverse(E) * H
    assert o.B_u == inverse(E) * L


@pytest.mark.parametrize("seed", range(8))
def test_explicitation_structural_invariants(seed):
    rng = random.Random(seed)
    l, n, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 3)
    d = random_dacs(rng, l, n, m)
    o, rec = explicitate(d)
    q = rec.q
    assert (o.n, o.m, o.s, o.p) == (n, m, n - q, l - q)
    assert is_invertible(rec.Q)
    QE = rec.Q * d.E
    assert QE.take_rows(range(q, l)).is_zero()
    E1 = QE.take_rows(range(q))
    assert E1 * rec.E1_dagger == RatMatrix.identity(q)
    assert image(o.B_v) == kernel_basis(d.E)
    # defining identities of the attached explicit system
    QH, QL = rec.Q * d.H, rec.Q * d.L
    assert E1 * o.A == QH.take_rows(range(q))
    assert E1 * o.B_u == QL.take_rows(range(q))
    assert o.C == QH.take_rows(range(q, l))
    assert o.D_u == QL.take_rows(range(q, l))
    assert (d.E * o.B_v).is_zero()


# ---------------------------------------------------------------------------
# implicit-side certificates
# ---------------------------------------------------------------------------


def test_exfb_identity_is_neutral():
    rng = random.Random(1)
    d = random_dacs(rng, 3, 4, 2)
    t = ExFbTransform.identity(3, 4, 2)
    assert apply_exfb(d, t) == d
    assert verify_exfb(d, d, t)


@pytest.mark.parametrize("seed", range(6))
def test_exfb_compose_and_inverse(seed):
    rng = random.Random(100 + seed)
    l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
    d = random_dacs(rng, l, n, m)
    t1 = random_exfb(rng, l, n, m)
    t2 = random_exfb(rng, l, n, m)
    d1 = apply_exfb(d, t1)
    assert verify_exfb(d, d1, t1)
    d2 = apply_exfb(d1, t2)
    assert apply_exfb(d, exfb_compose(t1, t2)) == d2
    assert apply_exfb(d1, exfb_inverse(t1)) == d
    assert verify_exfb(d1, d, exfb_inverse(t1))


def test_exfb_rejects_singular():
    d = random_dacs(random.Random(2), 2, 2, 1)
    t = ExFbTransform(Q=mat([[1, 1], [1, 1]]), P=RatMatrix.identity(2), F=mat([[0, 0]]), G=mat([[1]]))
    with pytest.raises(SingularTransform):
        apply_exfb(d, t)
    assert not verify_exfb(d, d, t)


@pytest.mark.parametrize("block", ["Q", "P", "G"])
def test_apply_exfb_names_the_singular_block(block):
    rng = random.Random(5)
    d = random_dacs(rng, 2, 3, 2)
    t = random_exfb(rng, 2, 3, 2)
    t = dataclasses.replace(t, **{block: _singular(getattr(t, block))})
    with pytest.raises(SingularTransform, match="^%s is singular$" % block):
        apply_exfb(d, t)


@pytest.mark.parametrize("block", ["T_x", "T_w", "T_y"])
def test_apply_em_names_the_singular_block(block):
    # a singular T_u or T_v makes T_w singular; both inverting operations
    # name the stored block
    rng = random.Random(6)
    o = random_odecs(rng, 3, 2, 2, 2)
    t = random_em(rng, 3, 2, 2, 2)
    t = dataclasses.replace(t, m=t.m, **{block: _singular(getattr(t, block))})
    for operation in (partial(apply_em, o), em_inverse):
        with pytest.raises(SingularTransform, match="^%s is singular$" % block):
            operation(t)
    if block == "T_w":
        for kind in ("T_u", "T_v"):
            with pytest.raises(SingularTransform, match="^T_w is singular$"):
                apply_em(o, em_with(t, **{kind: _singular(getattr(t, kind))}))


# ---------------------------------------------------------------------------
# explicit-side certificates
# ---------------------------------------------------------------------------


def merged_action_oracle(o: Odecs2, t: EmTransform) -> Odecs2:
    """Transform via the single block identity on [[A, B_w], [C, D_w]],
    written with the paper's blocks:

        [[T_x, T_x K], [0, T_y]] [[A, B_w], [C, D_w]] [[T_x^-1, 0], [F_w T_x^-1, T_w^-1]]

    with T_w = [[T_u, 0], [-T_v R, T_v]] and F_w = [F_u; F_v + R F_u]."""
    n, m, s, p = o.n, o.m, o.s, o.p
    A, B_w, C, D_w = o.merged()
    P = vstack([hstack([A, B_w]), hstack([C, D_w])])
    T_w, F_w, K = paper_merged(t)
    U = vstack(
        [
            hstack([t.T_x, t.T_x * K]),
            hstack([RatMatrix.zeros(p, n), t.T_y]),
        ]
    )
    Txi = inverse(t.T_x)
    V = vstack(
        [
            hstack([Txi, RatMatrix.zeros(n, m + s)]),
            hstack([F_w * Txi, inverse(T_w)]),
        ]
    )
    Pt = U * P * V
    sr = list(range(n))
    A2 = Pt.submatrix(sr, sr)
    B_w2 = Pt.submatrix(sr, range(n, n + m + s))
    C2 = Pt.submatrix(range(n, n + p), sr)
    D_w2 = Pt.submatrix(range(n, n + p), range(n, n + m + s))
    assert D_w2.submatrix(range(p), range(m, m + s)).is_zero()
    return Odecs2(
        A=A2,
        B_u=B_w2.take_cols(range(m)),
        B_v=B_w2.take_cols(range(m, m + s)),
        C=C2,
        D_u=D_w2.take_cols(range(m)),
    )


def written_out_action(o: Odecs2, t: EmTransform) -> Odecs2:
    """The action with the paper's blocks, term by term."""
    F_u, F_v, R, K = paper_blocks(t)
    Txi, Tui, Tvi = inverse(t.T_x), inverse(t.T_u), inverse(t.T_v)
    C_fb = o.C + o.D_u * F_u
    A_fb = o.A + o.B_u * F_u + o.B_v * (F_v + R * F_u) + K * C_fb
    return Odecs2(
        A=t.T_x * A_fb * Txi,
        B_u=t.T_x * (o.B_u + o.B_v * R + K * o.D_u) * Tui,
        B_v=t.T_x * o.B_v * Tvi,
        C=t.T_y * C_fb * Txi,
        D_u=t.T_y * o.D_u * Tui,
    )


def paper_compose(t1: EmTransform, t2: EmTransform) -> EmTransform:
    """Composition in the paper's coordinates (merged form): T_w = T_w2
    T_w1, F_w = F_w1 + T_w1^-1 F_w2 T_x1, K = K1 + T_x1^-1 K2 T_y1."""
    m, s = t1.T_u.rows, t1.T_v.rows
    u, v = range(m), range(m, m + s)
    (T_w1, F_w1, K1), (T_w2, F_w2, K2) = paper_merged(t1), paper_merged(t2)
    T_w = T_w2 * T_w1
    F_w = F_w1 + inverse(T_w1) * F_w2 * t1.T_x
    T_u, T_v = T_w.submatrix(u, u), T_w.submatrix(v, v)
    R = -(inverse(T_v) * T_w.submatrix(v, u))
    F_u = F_w.take_rows(u)
    return from_paper(
        t2.T_x * t1.T_x,
        T_u,
        T_v,
        t2.T_y * t1.T_y,
        F_u,
        F_w.take_rows(v) - R * F_u,
        R,
        K1 + inverse(t1.T_x) * K2 * t1.T_y,
    )


@pytest.mark.parametrize("seed", range(8))
def test_apply_em_matches_merged_block_identity(seed):
    rng = random.Random(200 + seed)
    n, m, s, p = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    o = random_odecs(rng, n, m, s, p)
    t = random_em(rng, n, m, s, p)
    assert apply_em(o, t) == merged_action_oracle(o, t)


@pytest.mark.parametrize("seed", range(6))
def test_em_compose_and_inverse(seed):
    rng = random.Random(300 + seed)
    n, m, s, p = rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
    o = random_odecs(rng, n, m, s, p)
    t1 = random_em(rng, n, m, s, p)
    t2 = random_em(rng, n, m, s, p)
    o1 = apply_em(o, t1)
    assert verify_em(o, o1, t1)
    o2 = apply_em(o1, t2)
    assert apply_em(o, em_compose(t1, t2)) == o2
    assert apply_em(o1, em_inverse(t1)) == o
    t_id = em_compose(t1, em_inverse(t1))
    assert apply_em(o, t_id) == o


@pytest.mark.parametrize("seed", range(8))
def test_paper_coordinates_oracle_agrees_with_every_operation(seed):
    # certificates drawn in the paper's blocks (F_u, F_v, R, K); the
    # library's operations in the new coordinates must match the oracle
    rng = random.Random(700 + seed)
    n, m, s, p = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    o = random_odecs(rng, n, m, s, p)

    def draw():
        return from_paper(
            random_invertible(rng, n),
            random_invertible(rng, m),
            random_invertible(rng, s),
            random_invertible(rng, p),
            random_matrix(rng, m, n),
            random_matrix(rng, s, n),
            random_matrix(rng, s, m),
            random_matrix(rng, n, p),
        )

    t1, t2 = draw(), draw()
    o1 = merged_action_oracle(o, t1)
    assert apply_em(o, t1) == o1 == written_out_action(o, t1)
    assert verify_em(o, o1, t1)
    assert not verify_em(o, dataclasses.replace(o1, A=o1.A + RatMatrix.identity(n)), t1)
    o2 = merged_action_oracle(o1, t2)
    assert em_compose(t1, t2) == paper_compose(t1, t2)
    assert merged_action_oracle(o, em_compose(t1, t2)) == o2
    assert verify_em(o, o2, em_compose(t1, t2))
    back = em_inverse(t1)
    assert merged_action_oracle(o1, back) == o
    assert paper_compose(t1, back) == EmTransform.identity(n, m, s, p)
    assert em_inverse(back) == t1


def test_em_identity_is_neutral():
    rng = random.Random(3)
    o = random_odecs(rng, 3, 2, 1, 2)
    t = EmTransform.identity(3, 2, 1, 2)
    assert apply_em(o, t) == o
    assert verify_em(o, o, t)


def test_morse_transform_round_trip():
    # an EmTransform with empty v-blocks acts as a classical Morse transformation
    rng = random.Random(4)
    o = random_odecs(rng, 3, 2, 0, 2)
    T_x, T_u, T_y = random_invertible(rng, 3), random_invertible(rng, 2), random_invertible(rng, 2)
    F_u, K = random_matrix(rng, 2, 3), random_matrix(rng, 3, 2)
    empty = RatMatrix.identity(0)
    t = from_paper(T_x, T_u, empty, T_y, F_u, RatMatrix.zeros(0, 3), RatMatrix.zeros(0, 2), K)
    # classical Morse action, written out directly
    Txi, Tui = inverse(T_x), inverse(T_u)
    o2 = apply_em(o, t)
    assert o2.A == T_x * (o.A + o.B_u * F_u + K * (o.C + o.D_u * F_u)) * Txi
    assert o2.B_u == T_x * (o.B_u + K * o.D_u) * Tui
    assert o2.C == T_y * (o.C + o.D_u * F_u) * Txi
    assert o2.D_u == T_y * o.D_u * Tui


def test_em_transform_is_triangular_and_round_trips_its_blocks():
    rng = random.Random(5)
    for n, m, s, p in [(3, 2, 2, 1), (2, 0, 2, 1), (2, 2, 0, 0), (4, 1, 3, 2), (1, 0, 0, 1)]:
        blocks = random_em_blocks(rng, n, m, s, p)
        t = EmTransform.from_blocks(**blocks)
        assert (t.m, t.T_w.rows) == (m, m + s)
        assert {k: getattr(t, k) for k in EM_BLOCKS} == blocks
        assert t.T_w.submatrix(range(m), range(m, m + s)).is_zero()
        assert t.TF_w == vstack([blocks["TF_u"], blocks["TF_v"]])
        assert t == EmTransform(t.T_x, t.T_w, t.T_y, t.TF_w, t.TK, m)
        assert hash(t) == hash(EmTransform(t.T_x, t.T_w, t.T_y, t.TF_w, t.TK, m))
    # the split is part of the certificate
    t = EmTransform.identity(2, 1, 1, 1)
    assert t != EmTransform.identity(2, 2, 0, 1) and t != EmTransform.identity(2, 0, 2, 1)
    args = (t.T_x, t.T_w, t.T_y, t.TF_w, t.TK)
    with pytest.raises(ValueError, match="mixes second-kind"):  # u-coordinates involve v
        EmTransform(t.T_x, mat([[1, 1], [0, 1]]), t.T_y, t.TF_w, t.TK, 1)
    with pytest.raises(ValueError, match="must be square"):
        EmTransform(t.T_x, mat([[1, 0]]), t.T_y, t.TF_w, t.TK, 1)
    for m in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            EmTransform(*args, m)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "circuit.json"


def verify_exfb_by_inverse(d1, d2, t):
    """The definition: E2 = Q E1 P^-1, H2 = Q (H1 + L1 F) P^-1, L2 = Q L1 G."""
    if (d1.l, d1.n, d1.m) != (d2.l, d2.n, d2.m):
        return False
    if any(rank(M) != M.rows for M in (t.Q, t.P, t.G)):
        return False
    Pinv = inverse(t.P)
    return (
        d2.E == t.Q * d1.E * Pinv
        and d2.H == t.Q * (d1.H + d1.L * t.F) * Pinv
        and d2.L == t.Q * d1.L * t.G
    )


def verify_em_by_action(o1, o2, t):
    """The definition: o2 is the image of o1 under apply_em."""
    if (o1.n, o1.m, o1.s, o1.p) != (o2.n, o2.m, o2.s, o2.p):
        return False
    if t.m != o1.m or any(rank(M) != M.rows for M in (t.T_x, t.T_w, t.T_y)):
        return False
    return o2 == apply_em(o1, t)


def _changed_entry(M, rng):
    rows = M.to_lists()
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    rows[i][j] += 1
    return RatMatrix(rows, cols=M.cols)


def _singular(M):
    rows = M.to_lists()
    rows[0] = [qq(0)] * M.cols
    return RatMatrix(rows, cols=M.cols)


def _variants(t, changed, singular, rng):
    """t, t with one entry of each nonempty block in ``changed`` moved by 1,
    and t with block ``singular`` made singular.  An em certificate's
    blocks are its per-kind views."""
    new = em_with if isinstance(t, EmTransform) else dataclasses.replace
    out = [t]
    for name in changed:
        M = getattr(t, name)
        if M.rows and M.cols:
            out.append(new(t, **{name: _changed_entry(M, rng)}))
    out.append(new(t, **{singular: _singular(getattr(t, singular))}))
    return out


def _verification_input(name):
    """A Dacs for fbcf_run, plus known exfb certificates (d1, d2, t)."""
    if name == "fixture":
        return parse_system(str(FIXTURE)), []
    base = 900001 + 2 * int(name[len("case"):])
    d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
    scrambled, t = random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))
    return scrambled, [(d, scrambled, t)]


@pytest.mark.parametrize("name", ["fixture", "case0", "case3"])
def test_inverse_free_verification_matches_definitions(name):
    rng = random.Random(name)
    d, exfb_cases = _verification_input(name)
    run = fbcf_run(d)
    ex = run.explicit
    em_cases = [
        (ex.source, ex.tri.system, ex.tri.transform, ("T_x", "TR", "TK")),
        (ex.source, ex.nf.system, ex.nf.transform, ("T_x", "TR", "TK")),
        (ex.nf.system, ex.o_can, ex.t_can, ("T_x", "TR", "TK")),
        (ex.source, ex.o_can, ex.total, EM_BLOCKS),
    ]
    rejected = 0
    for o1, o2, t, changed in em_cases:
        assert verify_em(o1, o2, t)
        for tv in _variants(t, changed, "T_x", rng) + _variants(t, (), "T_v", rng)[1:]:
            want = verify_em_by_action(o1, o2, tv)
            assert verify_em(o1, o2, tv) == want
            rejected += not want
    for d1, d2, t in exfb_cases + [(d, run.d_can, run.cert)]:
        assert verify_exfb(d1, d2, t)
        for tv in _variants(t, ("Q", "P", "F", "G"), "P", rng):
            want = verify_exfb_by_inverse(d1, d2, tv)
            assert verify_exfb(d1, d2, tv) == want
            rejected += not want
    assert rejected >= 10


def _counting_packed_products(monkeypatch):
    """The left factors verify_exfb multiplies on packed columns from now on."""
    packed = []
    real = ratmat._packed_products
    monkeypatch.setattr(ratmat, "_packed_products", lambda M, Bs: packed.append(M) or real(M, Bs))
    return packed


@pytest.mark.parametrize("case", [2, 3, 4])
def test_packed_verification_matches_definition(case, monkeypatch):
    # criterion-2 cases 2-4 at entry bound 3 (the benchmark's big-entry
    # round trips): Q has 14 to 23 rows, so Q E1, Q H1 and Q L1 are formed
    # on packed columns, and every single-entry change of the certificate
    # gets the verdict of the definition
    rng = random.Random(case)
    base = 900001 + 2 * case
    d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
    d1, _ = random_exfb_scramble(d, Seeded(base + 1, entry_bound=3))
    t, _, d2 = fbcf(d1)
    assert t.Q.rows >= ratmat._PACK_MIN_ROWS
    packed = _counting_packed_products(monkeypatch)
    variants = _variants(t, ("Q", "P", "F", "G") * 3, "Q", rng)
    verdicts = [verify_exfb(d1, d2, tv) for tv in variants]
    assert verdicts == [verify_exfb_by_inverse(d1, d2, tv) for tv in variants]
    assert verdicts[0] and verdicts.count(False) >= 10  # F can move along a dead input
    # only the singular Q is refused before any product
    assert [M.rows for M in packed] == [t.Q.rows] * (len(variants) - 1)


def test_small_certificates_are_verified_on_plain_products(monkeypatch):
    d = parse_system(str(FIXTURE))
    t, _, d_can = fbcf(d)
    assert t.Q.rows < ratmat._PACK_MIN_ROWS
    packed = _counting_packed_products(monkeypatch)
    assert verify_exfb(d, d_can, t)
    changed = dataclasses.replace(t, Q=_changed_entry(t.Q, random.Random(1)))
    assert not verify_exfb(d, d_can, changed)
    assert not packed


@pytest.mark.parametrize("name", ["fixture", "case0", "case1", "case2"])
def test_tampered_certificates_are_rejected(name):
    rng = random.Random(name)
    d, _ = _verification_input(name)
    t, _, d_can = fbcf(d)
    assert verify_exfb(d, d_can, t)
    tampered = []
    for field in ("Q", "P", "F", "G"):
        M = getattr(t, field)
        tampered += [{field: _changed_entry(M, rng)} for _ in range(3)]
        tampered.append({field: vstack([M, RatMatrix.zeros(1, M.cols)])})
    tampered += [{field: _singular(getattr(t, field))} for field in ("Q", "P")]
    for change in tampered:
        assert not verify_exfb(d, d_can, dataclasses.replace(t, **change)), change
    assert not verify_exfb(d, d, t)


@pytest.mark.parametrize("name", ["fixture"] + ["case%d" % k for k in range(5)])
def test_invertibility_is_decided_modulo_p(name, monkeypatch):
    # the modular test settles every invertibility question of fbcf whose
    # answer is yes, and of the re-check, and the re-check eliminates
    # nothing.  A nonzero determinant mod p proves invertibility, but only
    # the exact rank proves a matrix singular: the normal form asks that of
    # A3 - t I at an eigenvalue t of the prime block (A3 = 0 and t = 0 on the
    # fixture) and of chi_2(A3) when block 3 shares a root with block 2
    d, _ = _verification_input(name)
    ranks, eliminations = [], []
    monkeypatch.setattr(ratmat, "rank", lambda M: ranks.append(M) or rank(M))
    t, _, d_can = fbcf(d)
    assert all(rank(M) < M.rows for M in ranks)
    assert len(ranks) == (name == "fixture")
    ranks.clear()
    real = ratmat._eliminate
    monkeypatch.setattr(
        ratmat, "_eliminate", lambda *args, **kw: eliminations.append(1) or real(*args, **kw)
    )
    assert verify_exfb(d, d_can, t)
    assert not ranks and not eliminations


def test_misshaped_certificates_are_rejected():
    d = parse_system(str(FIXTURE))
    t = ExFbTransform.identity(d.l, d.n, d.m)
    assert verify_exfb(d, d, t)
    for name in ("Q", "P", "F", "G"):
        assert not verify_exfb(d, d, dataclasses.replace(t, **{name: RatMatrix.identity(3)}))
    o, _ = explicitate(d)
    t = EmTransform.identity(o.n, o.m, o.s, o.p)
    assert verify_em(o, o, t)
    for name in ("T_x", "T_w", "T_y", "TF_w", "TK"):
        assert not verify_em(o, o, dataclasses.replace(t, m=t.m, **{name: RatMatrix.identity(3)}))
    assert not verify_em(o, o, dataclasses.replace(t, m=t.m, TK=RatMatrix.identity(1)))
    # the same matrices with w split elsewhere
    assert not verify_em(o, o, dataclasses.replace(t, m=t.m - 1))
    # per-kind blocks that do not fit together build no certificate at all
    for name in ("T_u", "T_v", "TF_u", "TF_v", "TR"):
        with pytest.raises(ValueError):
            em_with(t, **{name: RatMatrix.identity(3)})


# ---------------------------------------------------------------------------
# explicitation-class membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_expl_membership_finds_witness(seed):
    rng = random.Random(400 + seed)
    l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2)
    d = random_dacs(rng, l, n, m)
    o0, rec = explicitate(d)
    s, p = o0.s, o0.p
    # scramble inside the explicitation class
    F_v = random_matrix(rng, s, n)
    R = random_matrix(rng, s, m)
    K = random_matrix(rng, n, p)
    T_v = random_invertible(rng, s)
    T_y = random_invertible(rng, p)
    o = Odecs2(
        A=o0.A + K * o0.C + o0.B_v * F_v,
        B_u=o0.B_u + o0.B_v * R + K * o0.D_u,
        B_v=o0.B_v * inverse(T_v),
        C=T_y * o0.C,
        D_u=T_y * o0.D_u,
    )
    wit = expl_membership(o, d)
    assert wit is not None
    F_v2, R2, K2, T_v2, T_y2 = wit
    assert o.A == o0.A + K2 * o0.C + o0.B_v * F_v2
    assert o.B_u == o0.B_u + o0.B_v * R2 + K2 * o0.D_u
    assert o.B_v == o0.B_v * inverse(T_v2)
    assert o.C == T_y2 * o0.C
    assert o.D_u == T_y2 * o0.D_u


def test_expl_membership_rejects_wrong_kernel():
    d = Dacs(E=mat([[1, 0], [0, 0]]), H=mat([[0, 1], [1, 0]]), L=mat([[0], [1]]))
    o0, _ = explicitate(d)
    bad = Odecs2(A=o0.A, B_u=o0.B_u, B_v=mat([[1], [0]]), C=o0.C, D_u=o0.D_u)
    assert expl_membership(bad, d) is None


def test_expl_membership_rejects_wrong_dims():
    d = Dacs(E=mat([[1, 0], [0, 0]]), H=mat([[0, 1], [1, 0]]), L=mat([[0], [1]]))
    o = random_odecs(random.Random(5), 3, 1, 1, 1)
    assert expl_membership(o, d) is None


def test_expl_membership_rejects_perturbed_A():
    d = Dacs(E=mat([[1, 0], [0, 0]]), H=mat([[0, 1], [1, 0]]), L=mat([[0], [1]]))
    o0, _ = explicitate(d)
    # A + e1 e1^T cannot be reached: K C + B_v F_v has zero (1,1) entry here
    bad = Odecs2(
        A=o0.A + mat([[1, 0], [0, 0]]), B_u=o0.B_u, B_v=o0.B_v, C=o0.C, D_u=o0.D_u
    )
    wit = expl_membership(bad, d)
    if wit is not None:  # reachable after all -> witness must check out exactly
        F_v2, R2, K2, _, _ = wit
        assert bad.A == o0.A + K2 * o0.C + o0.B_v * F_v2
    else:
        assert wit is None


def _kronecker_membership(o, d):
    """The vectorized membership decision: K C + B_v F_v = o.A - A and
    K D_u + B_v R = o.B_u - B_u as one Kronecker system in (K, F_v, R),
    column-major, with the same T_v and T_y parts as expl_membership."""
    o0 = explicitate(d)[0]
    if (o.n, o.m, o.s, o.p) != (o0.n, o0.m, o0.s, o0.p):
        return False
    n, m, s, p = o0.n, o0.m, o0.s, o0.p
    X = ratmat.solve(o0.B_v, o.B_v)
    if X is None or not is_invertible(X):
        return False
    I_n, I_m = RatMatrix.identity(n), RatMatrix.identity(m)
    coeff = vstack(
        [
            hstack([_kron(o0.C.T, I_n), _kron(I_n, o0.B_v), RatMatrix.zeros(n * n, s * m)]),
            hstack([_kron(o0.D_u.T, I_n), RatMatrix.zeros(n * m, s * n), _kron(I_m, o0.B_v)]),
        ]
    )
    if ratmat.solve(coeff, vstack([_vec(o.A - o0.A), _vec(o.B_u - o0.B_u)])) is None:
        return False
    # T_y [C D_u] = [o.C o.D_u] with T_y invertible: equal row spaces
    G, Gt = hstack([o0.C, o0.D_u]), hstack([o.C, o.D_u])
    return image(G.T) == image(Gt.T)


def _sparse_matrix(rng, rows, cols, density, bound=3):
    return RatMatrix(
        [
            [qq(rng.randint(-bound, bound)) if rng.random() < density else qq(0) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols=cols,
    )


def _scrambled_in_class(rng, o0, bound=3):
    """o0 moved by random (F_v, R, K, T_v, T_y) inside its explicitation class."""
    n, m, s, p = o0.n, o0.m, o0.s, o0.p
    F_v, R, K = (random_matrix(rng, r, c, bound) for r, c in ((s, n), (s, m), (n, p)))
    T_v, T_y = random_invertible(rng, s, bound), random_invertible(rng, p, bound)
    return Odecs2(
        A=o0.A + K * o0.C + o0.B_v * F_v,
        B_u=o0.B_u + o0.B_v * R + K * o0.D_u,
        B_v=o0.B_v * inverse(T_v),
        C=T_y * o0.C,
        D_u=T_y * o0.D_u,
    )


def _assert_witness(o, d, wit):
    o0 = explicitate(d)[0]
    F_v, R, K, T_v, T_y = wit
    assert o.A == o0.A + K * o0.C + o0.B_v * F_v
    assert o.B_u == o0.B_u + o0.B_v * R + K * o0.D_u
    assert o.B_v == o0.B_v * inverse(T_v)
    assert o.C == T_y * o0.C
    assert o.D_u == T_y * o0.D_u


def test_expl_membership_agrees_with_the_kronecker_system():
    # 300 random DACS with l, n, m in 0..5, dense and sparse; even cases are
    # scrambled inside the class, odd ones have one matrix perturbed (which
    # may or may not leave the class)
    rng = random.Random(2028)
    verdicts = []
    for case in range(300):
        l, n, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        density = 1.0 if case % 4 < 2 else rng.choice([0.2, 0.4])
        d = Dacs(*(_sparse_matrix(rng, l, c, density) for c in (n, n, m)))
        o = _scrambled_in_class(rng, explicitate(d)[0])
        if case % 2:
            name = rng.choice(["A", "B_u", "B_v", "C", "D_u"])
            M = getattr(o, name)
            o = dataclasses.replace(o, **{name: M + _sparse_matrix(rng, M.rows, M.cols, 0.3, 1)})
        wit = expl_membership(o, d)
        assert (wit is not None) == _kronecker_membership(o, d), "case %d" % case
        if wit is not None:
            _assert_witness(o, d, wit)
        verdicts.append(wit is not None)
    assert all(verdicts[::2])
    assert 0 < verdicts[1::2].count(False) < 150


@pytest.mark.parametrize("case", range(5))
def test_expl_membership_on_criterion_2_explicitations(case):
    # up to n = 26, where the Kronecker reference takes seconds per call;
    # only the witness identities are checked
    base = 900001 + 2 * case
    d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
    d = random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0]
    rng = random.Random(case)
    for o in (explicitate(d)[0], _scrambled_in_class(rng, explicitate(d)[0], 1)):
        wit = expl_membership(o, d)
        assert wit is not None
        _assert_witness(o, d, wit)


# ---------------------------------------------------------------------------
# prolongation / v-reduction / implicitation
# ---------------------------------------------------------------------------


def random_split(rng, n1, s, m, p):
    return SplitSystem(
        A1=random_matrix(rng, n1, n1),
        A2=random_matrix(rng, n1, s),
        B_u=random_matrix(rng, n1, m),
        C1=random_matrix(rng, p, n1),
        C2=random_matrix(rng, p, s),
        D_u=random_matrix(rng, p, m),
    )


def test_prolong_then_v_reduce_is_identity():
    rng = random.Random(6)
    lz = random_split(rng, 3, 2, 2, 1)
    o = prolong(lz)
    lz2, P_x = v_reduce(o)
    assert lz2 == lz
    assert P_x == RatMatrix.identity(5)


def test_v_reduce_handles_interleaved_states():
    rng = random.Random(7)
    lz = random_split(rng, 2, 1, 1, 1)
    o = prolong(lz)
    # permute states so the prolonged one sits in the middle
    perm = mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    o_shuffled = Odecs2(
        A=perm * o.A * inverse(perm),
        B_u=perm * o.B_u,
        B_v=perm * o.B_v,
        C=o.C * inverse(perm),
        D_u=o.D_u,
    )
    lz2, P_x = v_reduce(o_shuffled)
    assert lz2 == lz
    # P_x maps shuffled coordinates back to (kept..., prolonged...) order
    assert P_x * o_shuffled.B_v == o.B_v


def test_v_reduce_rejects_non_prolongations():
    rng = random.Random(8)
    lz = random_split(rng, 2, 1, 1, 1)
    o = prolong(lz)
    with pytest.raises(NotAProlongation):
        v_reduce(Odecs2(A=o.A, B_u=o.B_u, B_v=mat([[0], [0], [2]]), C=o.C, D_u=o.D_u))
    A_bad = o.A + mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(NotAProlongation):
        v_reduce(Odecs2(A=A_bad, B_u=o.B_u, B_v=o.B_v, C=o.C, D_u=o.D_u))
    B_v_dup = hstack([o.B_v, o.B_v])
    with pytest.raises(NotAProlongation):
        v_reduce(Odecs2(A=o.A, B_u=o.B_u, B_v=B_v_dup, C=o.C, D_u=o.D_u))


@pytest.mark.parametrize("seed", range(4))
def test_prolongation_explicitates_the_implicitation(seed):
    rng = random.Random(500 + seed)
    lz = random_split(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
    d = implicitate(lz)
    n1, s, p = lz.n1, lz.s, lz.p
    assert d.E.take_rows(range(n1)) == hstack([RatMatrix.identity(n1), RatMatrix.zeros(n1, s)])
    assert d.E.take_rows(range(n1, n1 + p)).is_zero()
    o, rec = explicitate(d)
    assert rec.q == n1
    assert o == prolong(lz)


# ---------------------------------------------------------------------------
# simulation and solution correspondence
# ---------------------------------------------------------------------------


def test_simulate_pure_integrator_is_exact():
    o = Odecs2(
        A=mat([[0]]),
        B_u=mat([[1]]),
        B_v=RatMatrix.zeros(1, 0),
        C=RatMatrix.zeros(0, 1),
        D_u=RatMatrix.zeros(0, 1),
    )
    xs, _ = simulate_odecs(o, [0], [[1]] * 10, [[]] * 10, qq(1, 10), 10)
    assert xs[-1] == mat([[1]])
    assert xs[5] == mat([[qq(1, 2)]])


@pytest.mark.parametrize("seed", range(5))
def test_dacs_residual_is_minus_output(seed):
    rng = random.Random(600 + seed)
    l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2)
    d = random_dacs(rng, l, n, m)
    o, rec = explicitate(d)
    q, steps, h = rec.q, 6, qq(1, 7)
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    us = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(steps)]
    vs = [[rng.randint(-2, 2) for _ in range(o.s)] for _ in range(steps)]
    xs, ys = simulate_odecs(o, x0, us, vs, h, steps)
    residuals = dacs_residuals(d, xs, us, h)
    for k in range(steps):
        lhs = rec.Q * residuals[k]
        assert lhs.take_rows(range(q)).is_zero()
        assert lhs.take_rows(range(q, l)) == -ys[k]


def test_full_row_rank_E_gives_zero_residuals():
    rng = random.Random(9)
    E = mat([[1, 2, 0], [0, 1, 1]])
    d = Dacs(E=E, H=random_matrix(rng, 2, 3), L=random_matrix(rng, 2, 1))
    o, _ = explicitate(d)
    assert o.p == 0
    xs, _ = simulate_odecs(o, [1, 0, -1], [[2]] * 4, [[1]] * 4, qq(1, 3), 4)
    for r in dacs_residuals(d, xs, [[2]] * 4, qq(1, 3)):
        assert r.is_zero()


# ---------------------------------------------------------------------------
# where explicit-side certificates invert
# ---------------------------------------------------------------------------


def _count_inverses(monkeypatch, modules, record):
    """Wrap each module's ``inverse`` binding so every call is recorded."""
    real = ratmat.inverse

    def counting(M):
        record(M)
        return real(M)

    for module in modules:
        monkeypatch.setattr(module, "inverse", counting)


@pytest.mark.parametrize("name", ["fixture", "case1", "random"])
def test_em_compose_and_verify_em_compute_no_inverse(name, monkeypatch):
    if name == "random":
        rng = random.Random(11)
        o = random_odecs(rng, 5, 2, 2, 2)
        ts = [random_em(rng, 5, 2, 2, 2) for _ in range(3)]
        pairs = [(o, apply_em(o, ts[0]), ts[0])]
    else:
        run = fbcf_run(_verification_input(name)[0]).explicit
        ts = [run.tri.transform, run.nf.transform, run.t_can, run.total]
        pairs = [
            (run.source, run.tri.system, run.tri.transform),
            (run.source, run.nf.system, run.nf.transform),
            (run.nf.system, run.o_can, run.t_can),
            (run.source, run.o_can, run.total),
        ]
    calls = []
    _count_inverses(monkeypatch, [ratmat, systems], calls.append)
    composed = [em_compose(a, b) for a in ts for b in ts]
    assert all(verify_em(o1, o2, t) for o1, o2, t in pairs)
    assert not calls
    # em_inverse does invert, once per coordinate change, and undoes itself
    for t in ts + composed[:2]:
        assert em_inverse(em_inverse(t)) == t
    assert len(calls) == 6 * len(ts + composed[:2])


@pytest.mark.parametrize("name", ["fixture"] + ["case%d" % k for k in range(5)])
def test_fbcf_inverts_no_prime_sized_matrix(name, monkeypatch):
    # inside the prime block's canonical stage no matrix of the block's
    # size is inverted (the identity, which inverts for free, aside): the
    # tower matrix T_x is never inverted
    d, _ = _verification_input(name)
    prime_n, sizes, inverted = [None], [], []
    real = canonical._prime_canonical

    def tracked(o):
        prime_n[0] = o.n
        sizes.append(o.n)
        try:
            return real(o)
        finally:
            prime_n[0] = None

    def record(M):
        if prime_n[0] is not None and not M.is_identity():
            inverted.append(M.rows)

    monkeypatch.setattr(canonical, "_prime_canonical", tracked)
    _count_inverses(monkeypatch, [ratmat, systems, canonical], record)
    fbcf(d)
    assert len(sizes) == 1
    assert sizes[0] not in inverted, inverted


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
