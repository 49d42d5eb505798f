"""Bit-identity gate for the whole pipeline.

Each full digest is the sha256 of the CLI's JSON serialization of
everything ``fbcf_run`` returns: the stage systems, every certificate and
both index records.  A change that alters any entry of any of them, by
value or by spelling, changes the digest.  A speed-up must keep them all;
a change that means to alter an output must say why and record the new
digests.

Explicit-side certificates enter both digests in the paper's blocks
(F_u, F_v, R, K) under their original keys, recovered from the blocks in
the new coordinates by :func:`paper_cert`, so the digests are independent
of how the library stores a certificate.

Each ends digest covers only what the normal form's free choices cannot
reach: the input, the explicitation record, the triangular stage and its
certificate, the block dimensions, both index records and the two
canonical systems.  A change to the normal form or to the certificates
composed after it keeps these digests and re-records only the full ones.
"""

import dataclasses
import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from dacscanon.canonical import fbcf_run
from dacscanon.cli import (
    _emcf_stages,
    _indices_json,
    _mat_to_json,
    _serialize_cert,
    _serialize_record,
    _stage_entry,
    parse_system,
    serialize_system,
)
from dacscanon.geometry import dualize, invariant_subspaces
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf
from dacscanon.systems import explicitate
from test_geometry import sparse_odecs
from test_systems import paper_blocks

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "circuit.json"

# sha256 per input: the circuit fixture, criterion 2's cases 0-9, case 182,
# whose block 3 has the eigenvalue 0 and block 2 the eigenvalue 1, so the
# normal form's pole targets skip both first candidates (t1 = -1, t4 = 2),
# and the (57, 51, 11) ladder input, whose blocks (16, 2, 24, 9) put both
# coupling corrections and both block-3 spectrum tests at n3 = 24
GOLDEN = {
    "fixture": "b5a1261c7f42bfc734d386916e7a8f65096564377d036e195353d3ef130d5c93",
    "case0": "910927efd90870f081b5cd52843dcd3f2f815a07016f08017220c2d46abff016",
    "case1": "b3af4b7975af2de54f3b2baf74e3dfb9a8682353e291fffb26006c6402a9ca50",
    "case2": "a7094aa9aecee8803f68f64cc96b1e84a715830bb5e53ee7b4cb0db8037e8d05",
    "case3": "b79fda416a6bc04201352c5899e7d2c646846e281c20f9ee3133391d223c2ca5",
    "case4": "cf8a1f9f3fb6f96956466c8a1244017851b93d65ca832e65817244bad5cba24c",
    "case5": "2444baf572b244cee718689e38a8104c33c5a735f85262c55c752846e87e858e",
    "case6": "60689c5456e64dbc118c29cd32881fe8480cb0380d7fe3a00b9239fcd2115174",
    "case7": "ae906f86ca416db9e9478158bbda042b98fc27f837e204b9d5d721c1daca6e50",
    "case8": "fd12c443788a38c2d760f6b151f3dfab09ed31746a9451d49f4e6b204ac81c95",
    "case9": "2d3c6f7aaba96f6168d8d33ee80b498780d11ebfcb757e8cc28e8e249d74968a",
    "case182": "f7fa95a4e96d72a80066c81cad8eb56d06b88783359fac7a390350019d4d66db",
    "ladder51": "04470c6cb8a4f3c95bbeddec6f5917f550fed43eff7cd33aa657733668484ac4",
}

# the same inputs' ends digests: outputs that no choice of the normal form's
# free spectra may move
GOLDEN_ENDS = {
    "fixture": "e373a83b7b4ba6f1522f2d77790104ca2fd52947c85553dec640b5e54c5e1c7c",
    "case0": "bdeb99be204be983e757399f1cd0c4a2db85877f281b48c2a009b2652d9b7771",
    "case1": "c6eb160aacc796980b78aef0e442b6cecaca81a19a7c511a351f9cd4416aafab",
    "case2": "e9771117b1a4366ef431896d966d52da3b67e7568ae13e798190b0bab07140cf",
    "case3": "1403a9417b991f23a73d0a75cac392a634309e40a39b23e2f4356c14c8476fcb",
    "case4": "a474811ad8ab5b5a629137ab1f4d0eadff44eaf9339d894c71efbd782b97274e",
    "case5": "0877d808a80665120b4336875e5d0dab2aef6716aa5361fffefd149332f84f87",
    "case6": "a696f34ae1b2f7462eeae50efab6f17920752789750d36899263c6e83b8a29ff",
    "case7": "c1781f06a27cdef48089aef11d55da1e2fcb3becf392a45fa56203b93b82ffdf",
    "case8": "e1e38eb8653a63a530c3e4fde0c2c59fed8f7c405fc87b6920c5e111c220dd9e",
    "case9": "2cc4c295b350a022c5255875e6a1459b770d94639d38974b85fe3d0dcbc1d806",
    "case182": "84cdf9aa4b41500300516018811143bc19430ce9f39cdde0a5e3cafc328a36b6",
    "ladder51": "13ce024f4d0f72a9b51c1c7243ab03067429e009e3c13ff26dd73285014be016",
}


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def paper_cert(t, stage):
    """An explicit certificate as JSON in the paper's blocks: F_u =
    T_u^-1 TF_u, F_v = T_v^-1 TF_v, R = T_v^-1 TR and K = T_x^-1 TK."""
    blocks = dict(zip(("T_x", "T_u", "T_v", "T_y"), (t.T_x, t.T_u, t.T_v, t.T_y)))
    blocks.update(zip(("F_u", "F_v", "R", "K"), paper_blocks(t)))
    dims = {"n": t.T_x.rows, "m": t.T_u.rows, "s": t.T_v.rows, "p": t.T_y.rows}
    out = {"stage": stage, "kind": "em", "dims": dims}
    out.update((key, _mat_to_json(M)) for key, M in blocks.items())
    return out


def fbcf_run_digest(run):
    ex = run.explicit
    doc = {
        "stages": [serialize_system(ex.source)]
        + _emcf_stages(ex)
        + [serialize_system(run.d_can)],
        "block_dims": [dict(ex.tri.dims._asdict()), list(ex.tri.groups)],
        "certificates": [
            _serialize_record(run.rec),
            paper_cert(ex.tri.transform, "triangular"),
            paper_cert(ex.nf.transform, "normal_form"),
            paper_cert(ex.t_can, "canonical"),
            paper_cert(ex.total, "total_explicit"),
            _serialize_cert(run.cert, "total"),
        ],
        "indices": [_indices_json(ex.idx), _indices_json(run.fidx)],
    }
    return _digest(doc)


def ends_digest(run):
    """The digest of the outputs the normal form's free choices cannot reach."""
    ex = run.explicit
    doc = {
        "stages": [
            serialize_system(ex.source),
            _stage_entry("triangular", ex.tri.system),
            _stage_entry("canonical", ex.o_can),
            serialize_system(run.d_can),
        ],
        "block_dims": [dict(ex.tri.dims._asdict()), list(ex.tri.groups)],
        "certificates": [
            _serialize_record(run.rec),
            paper_cert(ex.tri.transform, "triangular"),
        ],
        "indices": [_indices_json(ex.idx), _indices_json(run.fidx)],
    }
    return _digest(doc)


def golden_input(name, entry_bound=1):
    """The fixture, the ladder input, or criterion 2's scrambled round-trip
    case."""
    if name == "fixture":
        return parse_system(str(FIXTURE))
    if name == "ladder51":
        base, bounds = 800001, (5, 6)
    else:
        base, bounds = 900001 + 2 * int(name[len("case"):]), (3, 4)
    d, _ = random_fbcf(Seeded(base), bounds=bounds)
    return random_exfb_scramble(d, Seeded(base + 1, entry_bound=entry_bound))[0]


@lru_cache(maxsize=None)
def golden_run(name, entry_bound):
    """One ``fbcf_run`` per input, shared by the tests below."""
    return fbcf_run(golden_input(name, entry_bound))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fbcf_run_outputs_are_bit_identical(name):
    assert fbcf_run_digest(golden_run(name, 1)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_ENDS))
def test_fbcf_run_ends_are_bit_identical(name):
    assert ends_digest(golden_run(name, 1)) == GOLDEN_ENDS[name]


def _largest_entry_bits(cert):
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for M in (cert.Q, cert.P, cert.F, cert.G)
        for row in M.to_lists()
        for x in row
    )


# Largest implicit-certificate entry over criterion 2's cases 0-9: 498 bits
# at entry bound 1 and 1933 at entry bound 3 while the normal form decoupled
# against the spectra the triangular form left; 268 and 999 once blocks 1
# and 4 sit at single small integer eigenvalues.
@pytest.mark.parametrize("entry_bound, limit", [(1, 300), (3, 1200)])
def test_implicit_certificate_entries_stay_small(entry_bound, limit):
    bits = [_largest_entry_bits(golden_run("case%d" % k, entry_bound).cert) for k in range(10)]
    assert max(bits) <= limit


# sha256 of every invariant_subspaces field (each term of V, W and What,
# U*, Y*, V* ∩ W*, V* + W* and the block counts) for the explicitations of
# the fixture and of the (57, 51, 11) ladder input, for a general system
# (B_v without kernel structure, D_u nonzero, blocks (0, 4, 3, 0)), and
# for the dual of each
SEQUENCE_GOLDEN = {
    "fixture": "b7a22ba02a4afc841b3be327832f1a87ca4a6a4e7a27eccc73874a01d475e932",
    "fixture_dual": "30597f2958044a32e93c7390e540dd6a3a8659ec3ae91ed4ff26349e353a98bf",
    "general": "65cec6a6ca79ef587e450c186f40dd523099f7520ac644f314998c307c096e59",
    "general_dual": "5b9ab91ad01958422b6dd6bc0ce5f5911ff374cc3790f4f96c150b4b633bf74a",
    "ladder51": "3921367894424dc2f6400d15c498108937a96516b62b1d0f9de07811be52cbef",
    "ladder51_dual": "d8d149571095a459252c1c42343a2cee6d653d24105e8de8a3a6e94e2c36027e",
}


def invariant_digest(inv):
    def encode(x):
        if isinstance(x, int):
            return x
        if isinstance(x, list):
            return [encode(S) for S in x]
        return [x.ambient_dim, _mat_to_json(x.basis)]

    return _digest({f.name: encode(getattr(inv, f.name)) for f in dataclasses.fields(inv)})


@pytest.mark.parametrize("name", sorted(SEQUENCE_GOLDEN))
def test_invariant_subspaces_are_bit_identical(name):
    base = name[: -len("_dual")] if name.endswith("_dual") else name
    if base == "general":
        o = sparse_odecs(random.Random(20), 7, 1, 1, 2)
    else:
        o = explicitate(golden_input(base))[0]
    if base != name:
        o = dualize(o)
    assert invariant_digest(invariant_subspaces(o)) == SEQUENCE_GOLDEN[name]
