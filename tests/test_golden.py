"""Bit-identity gate for the whole pipeline.

Each digest is the sha256 of the CLI's JSON serialization of everything
``fbcf_run`` returns: the stage systems, every certificate and both index
records.  A change that alters any entry of any of them, by value or by
spelling, changes the digest.  A speed-up must keep them all; a change
that means to alter an output must say why and record the new digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dacscanon.canonical import fbcf_run
from dacscanon.cli import (
    _emcf_certs,
    _emcf_stages,
    _indices_json,
    _serialize_cert,
    _serialize_record,
    parse_system,
    serialize_system,
)
from dacscanon.harness import Seeded, random_exfb_scramble, random_fbcf

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "circuit.json"

# sha256 per input: the circuit fixture, criterion 2's cases 0-9, and case
# 182, the first whose normal form places poles past the first window (k = 1)
GOLDEN = {
    "fixture": "2a8f3f97e0053223315ed9d3e38198ede63c9c5bbbe34edd8540b47fbcb75696",
    "case0": "132e154f471c06a74c01c47a16db7aec30d9755256db7c077caa526d557167f6",
    "case1": "cf6887f3443fa1a2bdc84ca275ebd187b0b3013e14176d5868c8550fd46ab994",
    "case2": "1a9abe5d2b6bc2c19f1e8632aab2238008ca8772a8b56a0c607046b92def6e18",
    "case3": "dfe4a88708190d983fb9b89348eb49b20a7bdb9be7c09f97a389601100e81308",
    "case4": "4fd4c8418dcd9ed71b79e86a4d51aea76d63c7314c5cd70074ac51180ac64620",
    "case5": "9fba1deccf39ccb03d3fe93d9b96933805d3876b497a15e62a385649d797cb7d",
    "case6": "5bf52ce921c81ad3e667680de28eace21f8911e56c21af204e2ea2feec3cabb1",
    "case7": "c73bb1de954d64fa9c48b7fe665aec92944b7fee1998b4a7e8389777a690e0ea",
    "case8": "6bec1d602adae1145ee69a3389acb76c78564e9e6e07d09f512dfa3f070bc275",
    "case9": "2d3c6f7aaba96f6168d8d33ee80b498780d11ebfcb757e8cc28e8e249d74968a",
    "case182": "da445b17b34764c1c76715717b2a2336ed4a389bafab385656c73041356ffe80",
}


def fbcf_run_digest(d):
    run = fbcf_run(d)
    ex = run.explicit
    doc = {
        "stages": [serialize_system(ex.source)]
        + _emcf_stages(ex)
        + [serialize_system(run.d_can)],
        "block_dims": [dict(ex.tri.dims._asdict()), list(ex.tri.groups)],
        "certificates": [_serialize_record(run.rec)]
        + _emcf_certs(ex, "total_explicit")
        + [_serialize_cert(run.cert, "total")],
        "indices": [_indices_json(ex.idx), _indices_json(run.fidx)],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def golden_input(name):
    """The fixture, or criterion 2's scrambled round-trip case."""
    if name == "fixture":
        return parse_system(str(FIXTURE))
    base = 900001 + 2 * int(name[len("case"):])
    d, _ = random_fbcf(Seeded(base), bounds=(3, 4))
    return random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))[0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fbcf_run_outputs_are_bit_identical(name):
    assert fbcf_run_digest(golden_input(name)) == GOLDEN[name]
