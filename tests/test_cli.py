"""Tests for the file format and the command-line pipeline.

The format tests pin bit-exact round-tripping of rationals; the command
tests drive ``main`` directly with argument lists and check reports and
exit codes, including the golden circuit run and the certificate
re-verification loop.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacscanon
from dacscanon import canonical, cli, morse
from dacscanon.cli import (
    DimensionError,
    ParseError,
    ZeroDenominator,
    _SCHEMA,
    _parse_cert_obj,
    _serialize_cert,
    main,
    parse_system,
    parse_system_obj,
    serialize_system,
)
from dacscanon.geometry import invariant_subspaces
from dacscanon.ratmat import RatMatrix, mat, qq
from dacscanon.systems import (
    Dacs,
    EmTransform,
    ExFbTransform,
    Odecs2,
    explicitate,
    verify_em,
    verify_exfb,
)
from test_systems import random_dacs, random_odecs
import random

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "circuit.json"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_minimal_dacs_file(tmp_path):
    p = write(tmp_path, "min.json", {"kind": "dacs", "E": [["1"]], "H": [["0"]], "L": [[]]})
    d = parse_system(p)
    assert isinstance(d, Dacs)
    assert (d.l, d.n, d.m) == (1, 1, 0)
    assert d.E[0, 0] == 1


def test_zero_denominator_rejected(tmp_path):
    p = write(tmp_path, "z.json", {"kind": "dacs", "E": [["1/0"]], "H": [["0"]], "L": [[]]})
    with pytest.raises(ZeroDenominator):
        parse_system(p)


def test_shipped_circuit_fixture_shape():
    d = parse_system(str(FIXTURE))
    assert d.E.shape == (13, 14)
    assert d.L.shape == (13, 2)
    assert d.H.shape == (13, 14)


def test_malformed_json_is_parse_error(tmp_path):
    p = write(tmp_path, "bad.json", "{not json")
    with pytest.raises(ParseError):
        parse_system(p)


def test_malformed_rational_is_parse_error(tmp_path, capsys):
    # the grammar is a sign, ASCII digits, one '/' or '.', and spaces; Fraction
    # alone would read "1_0" as 10 and Arabic-Indic "12/3" as 4
    entries = ["1/x", "1_0", "1/1_0", "0._5", "\u0661\u0662/\u0663", "\uff11", "1\u00a0"]
    for i, entry in enumerate(entries):
        obj = {"kind": "dacs", "E": [[entry]], "H": [["0"]], "L": [[]]}
        p = write(tmp_path, "r%d.json" % i, obj)
        with pytest.raises(ParseError):
            parse_system(p)
        assert main(["explicitate", p]) == 2
        assert capsys.readouterr().err == "error: E: entry %r is not a rational\n" % entry


def test_float_entry_rejected(tmp_path):
    p = write(tmp_path, "f.json", {"kind": "dacs", "E": [[0.5]], "H": [["0"]], "L": [[]]})
    with pytest.raises(ParseError):
        parse_system(p)


def test_ragged_rows_rejected(tmp_path):
    p = write(
        tmp_path,
        "rag.json",
        {"kind": "dacs", "E": [["1", "0"], ["1"]], "H": [["0", "0"], ["0", "0"]], "L": [[], []]},
    )
    with pytest.raises(DimensionError):
        parse_system(p)


def test_shape_mismatch_rejected(tmp_path):
    p = write(
        tmp_path,
        "mis.json",
        {"kind": "dacs", "E": [["1", "0"]], "H": [["0"]], "L": [[]]},
    )
    with pytest.raises(DimensionError):
        parse_system(p)


def test_unknown_kind_rejected(tmp_path):
    p = write(tmp_path, "k.json", {"kind": "weird", "E": [["1"]]})
    with pytest.raises(ParseError):
        parse_system(p)


def test_dims_contradicting_a_matrix_exit_2(tmp_path, capsys):
    # "p" names the rows of C and Du; this C has one row
    obj = {"kind": "odecs2", "dims": {"n": 1, "m": 0, "s": 0, "p": 3},
           "A": [["1"]], "Bu": [[]], "Bv": [[]], "C": [["1"]], "Du": [[]]}
    assert main(["wong", write(tmp_path, "p3.json", obj)]) == 2
    assert capsys.readouterr().err == "error: C has 1 rows, dims say p=3\n"


def test_width_from_an_earlier_matrix_is_named_when_rows_contradict_it(tmp_path, capsys):
    # no dims block: Du's width m comes from Bu, and Du's rows are wider
    obj = {"kind": "odecs2", "A": [["1"]], "Bu": [["2"]], "Bv": [[]], "C": [["1"]],
           "Du": [["0", "0"]]}
    assert main(["wong", write(tmp_path, "du.json", obj)]) == 2
    assert capsys.readouterr().err == "error: Du: rows have 2 entries, Bu's rows have 1\n"


def test_width_left_out_of_dims_comes_from_an_earlier_matrix(tmp_path):
    # C and Du have no rows: C takes A's width n, Du takes Bu's width m
    obj = {"kind": "odecs2", "dims": {"s": 0},
           "A": [["1"]], "Bu": [["2", "3"]], "Bv": [[]], "C": [], "Du": []}
    o = parse_system(write(tmp_path, "partial.json", obj))
    assert (o.n, o.m, o.s, o.p) == (1, 2, 0, 0)


def test_dims_larger_than_their_object_exit_2(tmp_path, capsys):
    # zero-row matrices take their width from dims alone, and the wong
    # report of this 65-byte file would grow as n^2
    text = '{"kind":"dacs","dims":{"l":0,"n":150,"m":0},"E":[],"H":[],"L":[]}'
    assert len(text) == 65
    assert main(["wong", write(tmp_path, "big.json", text)]) == 2
    err = capsys.readouterr().err
    assert err == "error: dims.n = 150 exceeds the 65 characters of its object\n"


def test_zero_row_systems_with_dims_still_parse(tmp_path):
    obj = {"kind": "dacs", "dims": {"l": 0, "n": 3, "m": 1}, "E": [], "H": [], "L": []}
    d = parse_system(write(tmp_path, "zero.json", obj))
    assert (d.l, d.n, d.m) == (0, 3, 1)
    z = RatMatrix.zeros
    for i, system in enumerate([
        Dacs(E=z(0, 4), H=z(0, 4), L=z(0, 2)),
        Odecs2(A=z(4, 4), B_u=z(4, 0), B_v=z(4, 1), C=z(0, 4), D_u=z(0, 0)),
    ]):
        assert parse_system(write(tmp_path, "z%d.json" % i, serialize_system(system))) == system


def test_exponent_entry_exits_2_at_once(tmp_path, capsys):
    # Fraction would expand "1e1000000000" into a billion-digit integer
    obj = {"kind": "dacs", "E": [["1e1000000000"]], "H": [["0"]], "L": [[]]}
    p = write(tmp_path, "exp.json", obj)
    start = time.perf_counter()
    assert main(["wong", p]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: E: entry '1e1000000000' has an exponent part\n"


@pytest.mark.parametrize(
    "t",
    [ExFbTransform.identity(2, 3, 1), EmTransform.identity(2, 1, 1, 3), EmTransform.identity(0, 0, 0, 0)],
)
def test_certificates_roundtrip_through_json(t):
    obj = json.loads(json.dumps(_serialize_cert(t, "total")))
    assert obj["stage"] == "total"
    assert _parse_cert_obj(obj) == t


@pytest.mark.parametrize("with_dims", [True, False])
@pytest.mark.parametrize(
    "t", [ExFbTransform.identity(0, 2, 1), EmTransform.identity(0, 1, 1, 0)], ids=["exfb", "em"]
)
def test_empty_square_block_parses_without_dims(t, with_dims):
    # the first block (Q or T_x) has no rows, so, being square, no columns
    obj = json.loads(json.dumps(_serialize_cert(t, "total")))
    if not with_dims:
        del obj["dims"]
    assert _parse_cert_obj(obj) == t


def test_em_certificate_with_the_paper_keys_exits_2(tmp_path, capsys):
    # an em certificate stores TF_u, TF_v, TR and TK; a file written with
    # the paper's F_u, F_v, R and K is refused, naming the first missing key
    expl = str(tmp_path / "expl.json")
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    o = parse_system(expl)
    obj = _serialize_cert(EmTransform.identity(o.n, o.m, o.s, o.p), "total")
    for new, old in (("TF_u", "F_u"), ("TF_v", "F_v"), ("TR", "R"), ("TK", "K")):
        obj[old] = obj.pop(new)
    cert = write(tmp_path, "old.json", obj)
    capsys.readouterr()
    assert main(["verify", "--left", expl, "--right", expl, "--cert", cert]) == 2
    assert capsys.readouterr().err == "error: em certificate is missing 'TF_u'\n"
    obj["TF_u"], obj["TF_v"], obj["TR"], obj["TK"] = obj["F_u"], obj["F_v"], obj["R"], obj["K"]
    cert = write(tmp_path, "new.json", obj)
    assert main(["verify", "--left", expl, "--right", expl, "--cert", cert]) == 0


_GOOD_ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from(["1", "-2/3", " 4 ", "0.5"]))
_ENTRIES = st.one_of(
    _GOOD_ENTRIES,
    st.sampled_from(["1/0", "1e1000000000", "2E-9", "x", ""]),
    st.floats(),
    st.none(),
    st.booleans(),
    st.just({}),
)
_MATRICES = st.one_of(st.lists(st.lists(_ENTRIES, max_size=3), max_size=3), _ENTRIES)
_DIMS = st.one_of(
    st.dictionaries(
        st.sampled_from("lnmsp"),
        st.one_of(st.integers(-1, 3), st.booleans(), st.text(max_size=2), st.none()),
    ),
    st.integers(-1, 3),
    st.lists(st.integers(0, 2), max_size=2),
    st.none(),
)
_KINDS = st.one_of(
    st.sampled_from(sorted(_SCHEMA)), st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=1)
)
_MATRIX_KEYS = sorted({key for _, _, mats in _SCHEMA.values() for key, _, _, _ in mats})


@st.composite
def _schema_documents(draw):
    """A document of a known kind.  Its matrices either fit one size per
    dims entry or have drawn shapes; its entries are either all rationals
    or drawn from junk too; its dims block is right, partial, junk or absent;
    a matrix key may be missing."""
    kind = draw(st.sampled_from(sorted(_SCHEMA)))
    size = {d: draw(st.integers(0, 2)) for d in "lnmsp"}
    fits = draw(st.booleans())
    entries = draw(st.sampled_from([_GOOD_ENTRIES, _ENTRIES]))
    doc = {"kind": kind}
    for key, _, rows, cols in _SCHEMA[kind][2]:
        r, c = (size[x] if fits else draw(st.integers(0, 2)) for x in (rows, cols))
        doc[key] = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    dims = draw(st.sampled_from(["full", "partial", "junk", "absent"]))
    if dims == "full":
        doc["dims"] = size
    elif dims == "partial":
        doc["dims"] = {d: v for d, v in size.items() if draw(st.booleans())}
    elif dims == "junk":
        doc["dims"] = draw(_DIMS)
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(k for k in doc if k != "kind")))]
    return doc


_DOCUMENTS = st.one_of(
    _schema_documents(),
    st.fixed_dictionaries(
        {"kind": _KINDS}, optional=dict({"dims": _DIMS}, **{k: _MATRICES for k in _MATRIX_KEYS})
    ),
    _MATRICES,
)


@settings(max_examples=500, deadline=None, database=None)
@given(_DOCUMENTS)
def test_parsers_return_or_raise_an_input_error(doc):
    # the one parse path either builds a value or names what is wrong with
    # the document: never another exception, so the CLI exits 2, not with
    # a traceback
    for parse in (parse_system_obj, _parse_cert_obj):
        try:
            parse(doc)
        except (ParseError, DimensionError, ZeroDenominator):
            pass


def test_parse_serialize_identity_dacs(tmp_path):
    rng = random.Random(5)
    for i in range(6):
        d = random_dacs(rng, rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 3))
        p = write(tmp_path, "rt%d.json" % i, serialize_system(d))
        assert parse_system(p) == d


def test_parse_serialize_identity_odecs(tmp_path):
    rng = random.Random(6)
    for i in range(6):
        o = random_odecs(rng, rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3))
        p = write(tmp_path, "ro%d.json" % i, serialize_system(o))
        assert parse_system(p) == o


def test_parse_serialize_bit_exact_entries(tmp_path):
    d = Dacs(
        E=mat([[qq(22, 7), qq(-3, 9)]]),
        H=mat([[0, qq(10, 4)]]),
        L=mat([[qq(-1, 3)]]),
    )
    obj = serialize_system(d)
    assert obj["E"][0] == ["22/7", "-1/3"]
    assert obj["H"][0] == ["0", "5/2"]
    p = write(tmp_path, "exact.json", obj)
    assert parse_system(p) == d


def test_metadata_is_optional_and_preserved(tmp_path):
    d = parse_system(str(FIXTURE))
    obj = serialize_system(d, name="x", description="y")
    assert obj["name"] == "x" and obj["description"] == "y"
    p = write(tmp_path, "meta.json", obj)
    assert parse_system(p) == d


def test_report_files_parse_as_their_result(tmp_path):
    out = str(tmp_path / "rep.json")
    assert main(["explicitate", str(FIXTURE), "--out", out]) == 0
    o = parse_system(out)
    assert isinstance(o, Odecs2)
    assert (o.n, o.m, o.s, o.p) == (14, 2, 12, 11)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_fbcf_circuit_report(tmp_path):
    out = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["verified"] is True
    assert rep["indices"]["eps_bar_p"] == [2, 2, 1]
    assert rep["indices"]["sigma_p"] == [1, 1]
    assert rep["indices"]["sigma_bar_p"] == [1] * 9
    assert rep["indices"]["eps_p"] == []
    assert rep["indices"]["eta_p"] == []
    assert rep["indices"]["n_rho"] == 0
    stages = [c["stage"] for c in rep["certificates"]]
    assert stages == [
        "explicitation",
        "triangular",
        "normal_form",
        "canonical",
        "total_explicit",
        "total",
    ]


def test_wong_circuit_dimensions(tmp_path):
    out = str(tmp_path / "w.json")
    assert main(["wong", str(FIXTURE), "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    dims = {s["name"]: s["dim"] for s in rep["subspaces"]}
    assert dims == {"V_star": 5, "W_star": 14}


def test_invariants_circuit(tmp_path):
    out = str(tmp_path / "inv.json")
    assert main(["invariants", str(FIXTURE), "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["indices"]["eps_bar"] == [2, 2, 1]
    assert rep["indices"]["delta"] == 2
    assert rep["fbcf_indices"]["sigma_p"] == [1, 1]
    assert rep["subspace_dims"] == {"V_star": 5, "W_star": 14}


def test_explicit_side_commands_run(tmp_path):
    expl = str(tmp_path / "expl.json")
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    for cmd in ("emtf", "emnf", "emcf"):
        out = str(tmp_path / (cmd + ".json"))
        assert main([cmd, expl, "--out", out]) == 0
        rep = json.loads(Path(out).read_text())
        assert rep["verified"] is True


def test_stage_dump_includes_intermediate_systems(tmp_path):
    out = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", out, "--stage-dump"]) == 0
    rep = json.loads(Path(out).read_text())
    names = [s["stage"] for s in rep["stages"]]
    assert names == ["explicit", "triangular", "normal_form", "canonical"]


def test_verify_identity_certificate(tmp_path):
    cert = write(tmp_path, "id.json", _serialize_cert(ExFbTransform.identity(13, 14, 2), "total"))
    out = str(tmp_path / "v.json")
    rc = main(
        ["verify", "--left", str(FIXTURE), "--right", str(FIXTURE), "--cert", cert, "--out", out]
    )
    assert rc == 0
    assert json.loads(Path(out).read_text())["verified"] is True


def test_verify_rejects_wrong_certificate(tmp_path):
    rep = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", rep]) == 0
    cert = write(tmp_path, "id.json", _serialize_cert(ExFbTransform.identity(13, 14, 2), "total"))
    out = str(tmp_path / "v.json")
    rc = main(["verify", "--left", str(FIXTURE), "--right", rep, "--cert", cert, "--out", out])
    assert rc == 1
    assert json.loads(Path(out).read_text())["verified"] is False


def test_verify_misshaped_certificate_is_not_verified(tmp_path):
    # a 3 x 3 Q cannot act on the fixture's 13 equations
    t = ExFbTransform(
        Q=RatMatrix.identity(3),
        P=RatMatrix.identity(14),
        F=RatMatrix.zeros(2, 14),
        G=RatMatrix.identity(2),
    )
    cert = write(tmp_path, "bad.json", _serialize_cert(t, "total"))
    out = str(tmp_path / "v.json")
    rc = main(
        ["verify", "--left", str(FIXTURE), "--right", str(FIXTURE), "--cert", cert, "--out", out]
    )
    assert rc == 1
    assert json.loads(Path(out).read_text())["verified"] is False


@pytest.fixture(scope="module")
def report_certificates(tmp_path_factory):
    """(left, right, certificate) files for both certificate kinds: the
    fixture's fbcf report and the emcf report on its explicitation."""
    tmp = tmp_path_factory.mktemp("reports")
    fb, expl, em = (str(tmp / name) for name in ("fb.json", "expl.json", "em.json"))
    assert main(["fbcf", str(FIXTURE), "--out", fb]) == 0
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    assert main(["emcf", expl, "--out", em]) == 0

    def last(path, kind):
        certs = json.loads(Path(path).read_text())["certificates"]
        return [c for c in certs if c["kind"] == kind][-1]

    return {"exfb": (str(FIXTURE), fb, last(fb, "exfb")), "em": (expl, em, last(em, "em"))}


@pytest.mark.parametrize("with_dims", [True, False])
@pytest.mark.parametrize(
    "kind, key, dim, first",
    # the block that gets one row too many, the dims entry naming its rows,
    # and the first matrix that names that entry
    [("exfb", "F", "m", "G: rows have {want} entries, F has {rows} rows"),
     ("em", "TR", "s", "TR has {rows} rows, T_v's rows have {want}")],
    ids=["exfb", "em"],
)
def test_certificate_shape_verdict_does_not_depend_on_dims(
    report_certificates, tmp_path, capsys, kind, key, dim, first, with_dims
):
    # blocks that contradict each other are unusable input (exit 2); blocks
    # that fit each other but not the two systems fail to verify (exit 1)
    left, right, cert = report_certificates[kind]
    t = ExFbTransform.identity(3, 4, 1) if kind == "exfb" else EmTransform.identity(3, 1, 1, 2)
    misfit = _serialize_cert(t, "total")
    cert = json.loads(json.dumps(cert))
    if not with_dims:
        del cert["dims"], misfit["dims"]
    want = len(cert[key])
    cert[key].append(["0"] * len(cert[key][0]))
    rows = want + 1
    verify = ["verify", "--left", left, "--right", right, "--cert"]
    capsys.readouterr()
    assert main(verify + [write(tmp_path, "c.json", cert)]) == 2
    msg = "%s has %d rows, dims say %s=%d" % (key, rows, dim, want) if with_dims else first.format(
        rows=rows, want=want
    )
    assert capsys.readouterr().err == "error: %s\n" % msg
    out = str(tmp_path / "v.json")
    assert main(verify + [write(tmp_path, "misfit.json", misfit), "--out", out]) == 1
    assert json.loads(Path(out).read_text())["verified"] is False


def test_every_report_certificate_reverifies(tmp_path):
    # the report invariant: feed each report's own certificate back through
    # `verify` with the report as the right-hand system
    rep = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", rep]) == 0
    assert main(["verify", "--left", str(FIXTURE), "--right", rep, "--cert", rep]) == 0
    expl = str(tmp_path / "expl.json")
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    erep = str(tmp_path / "emcf.json")
    assert main(["emcf", expl, "--out", erep]) == 0
    assert main(["verify", "--left", expl, "--right", erep, "--cert", erep]) == 0


def test_roundtrip_command():
    # fifty seeded cases must all decode back to their generated indices
    import io, contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["roundtrip", "--seed", "7", "--cases", "50"])
    assert rc == 0
    rep = json.loads(buf.getvalue())
    assert rep["matches"] == 50
    assert rep["cases"] == 50
    assert rep["failures"] == []


def test_exit_codes_for_input_errors(tmp_path):
    assert main(["fbcf", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", "{")
    assert main(["fbcf", bad]) == 2
    zden = write(
        tmp_path, "z.json", {"kind": "dacs", "E": [["1/0"]], "H": [["0"]], "L": [[]]}
    )
    assert main(["fbcf", zden]) == 2
    assert main(["mtf", str(FIXTURE)]) == 2  # dacs fed to an explicit-side command


@pytest.mark.parametrize(
    "case",
    [
        "cert_missing_matrix",
        "certificates_not_objects",
        "input_is_directory",
        "json_nested_too_deeply",
        "dims_boolean",
        "dims_negative",
    ],
)
def test_exit_codes_for_malformed_input(tmp_path, case, capsys):
    # unusable input exits with 2 and a one-line error, never a traceback
    if case == "input_is_directory":
        argv = ["fbcf", str(tmp_path)]
    elif case == "json_nested_too_deeply":
        argv = ["fbcf", write(tmp_path, "deep.json", "[" * 50000)]
    elif case == "dims_boolean":
        # "l": true used to be read as 1, which fits this file's one row
        obj = {"kind": "dacs", "dims": {"l": True, "n": 1, "m": 0},
               "E": [["1"]], "H": [["0"]], "L": [[]]}
        argv = ["fbcf", write(tmp_path, "bool.json", obj)]
    elif case == "dims_negative":
        obj = {"kind": "odecs2", "dims": {"n": -1, "m": 0, "s": 0, "p": 0},
               "A": [], "Bu": [], "Bv": [], "C": [], "Du": []}
        argv = ["emcf", write(tmp_path, "neg.json", obj)]
    else:
        cert = _serialize_cert(ExFbTransform.identity(13, 14, 2), "total")
        if case == "cert_missing_matrix":
            del cert["Q"]
            obj = cert
        else:
            obj = {"certificates": [1, 2]}
        path = write(tmp_path, "cert.json", obj)
        argv = ["verify", "--left", str(FIXTURE), "--right", str(FIXTURE), "--cert", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case.startswith("dims_"):
        assert "dims." in err  # rejected while parsing, not deep in ratmat


def _src_env():
    src = str(Path(dacscanon.__file__).resolve().parent.parent)
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def test_fbcf_report_same_under_python_O(tmp_path):
    # every proof obligation raises InternalInvariantViolation, so -O (which
    # strips assert statements) must not change the run
    out = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", out]) == 0
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "dacscanon.cli", "fbcf", str(FIXTURE)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(Path(out).read_text())


def test_verify_under_python_O_rejects_a_changed_feedback_entry(tmp_path):
    rep = tmp_path / "fb.json"

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "dacscanon.cli", *argv],
            env=_src_env(),
            capture_output=True,
            text=True,
        )

    assert run("fbcf", str(FIXTURE), "--out", str(rep)).returncode == 0
    verify = ("verify", "--left", str(FIXTURE), "--right", str(rep), "--cert", str(rep))
    proc = run(*verify)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True
    report = json.loads(rep.read_text())
    F = [c for c in report["certificates"] if c["kind"] == "exfb"][-1]["F"]
    F[0][0] = str(qq(F[0][0]) + 1)
    rep.write_text(json.dumps(report))
    proc = run(*verify)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verified"] is False


def test_verify_reads_a_report_given_twice_once(tmp_path, monkeypatch):
    rep = str(tmp_path / "fb.json")
    assert main(["fbcf", str(FIXTURE), "--out", rep]) == 0
    loads = []
    real = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: loads.append(path) or real(path))
    out = str(tmp_path / "v.json")
    assert main(["verify", "--left", str(FIXTURE), "--right", rep, "--cert", rep, "--out", out]) == 0
    assert loads == [str(FIXTURE), rep]


def _count_calls(monkeypatch, func):
    """Record the caller of each call to ``func`` through every binding in
    the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dacscanon" or name.startswith("dacscanon."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("command", ["fbcf", "invariants", "emcf"])
def test_one_pipeline_run_per_command(tmp_path, monkeypatch, command):
    inp = str(FIXTURE)
    if command == "emcf":
        inp = str(tmp_path / "expl.json")
        assert main(["explicitate", str(FIXTURE), "--out", inp]) == 0
    emcf_calls = _count_calls(monkeypatch, canonical.emcf)
    emtf_calls = _count_calls(monkeypatch, morse.emtf)
    # each certificate is checked once, by the stage that emits it: emtf,
    # emnf and the composed explicit one, each block construction of emcf
    # and the assembled canonical one, plus the implicit one for fbcf
    em_checks = _count_calls(monkeypatch, verify_em)
    exfb_checks = _count_calls(monkeypatch, verify_exfb)
    # primeness is proven once, by the triangular stage's subspaces
    subspace_calls = _count_calls(monkeypatch, invariant_subspaces)
    assert main([command, inp, "--out", str(tmp_path / "rep.json")]) == 0
    assert (len(emcf_calls), len(emtf_calls)) == (1, 1)
    stages = ["emtf", "emnf", "brunovsky_two_inputs", "_prime_canonical"]
    stages += ["observable_dual_canonical", "emcf", "emcf_run"]
    assert sorted(em_checks) == sorted(stages)
    assert len(exfb_checks) == (1 if command == "fbcf" else 0)
    assert len(subspace_calls) == 1


def test_explicitate_command_explicitates_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, explicitate)
    out = tmp_path / "expl.json"
    assert main(["explicitate", str(FIXTURE), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert json.loads(out.read_text())["verified"] is True


def test_failed_pipeline_check_exits_1(tmp_path, monkeypatch, capsys):
    # the report verdict rests on the pipeline's own checks, so a failed one
    # must end the command with exit code 1, not with a report
    o = random_odecs(random.Random(8), 4, 2, 1, 2)
    p = write(tmp_path, "o.json", serialize_system(o))
    for name, mod in list(sys.modules.items()):
        if name == "dacscanon" or name.startswith("dacscanon."):
            if getattr(mod, "verify_em", None) is verify_em:
                monkeypatch.setattr(mod, "verify_em", lambda *args: False)
    assert main(["emtf", p]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure")


def test_invariants_subspace_dims_match_geometry(tmp_path):
    # the report takes V*, W*, U*, Y* dimensions from the triangular stage
    rng = random.Random(21)
    systems = [explicitate(parse_system(str(FIXTURE)))[0]]
    systems += [random_odecs(rng, 4, 2, s, 2) for s in (0, 1, 1, 2)]
    for i, o in enumerate(systems):
        p = write(tmp_path, "o%d.json" % i, serialize_system(o))
        out = str(tmp_path / ("inv%d.json" % i))
        assert main(["invariants", p, "--out", out]) == 0
        r = invariant_subspaces(o)
        want = {
            "V_star": r.V_star.dim,
            "W_star": r.W_star.dim,
            "U_star": r.U_star.dim,
            "Y_star": r.Y_star.dim,
        }
        got = json.loads(Path(out).read_text())["subspace_dims"]
        assert got == want
        if i == 0:
            assert list(got.values()) == [5, 14, 3, 11]


def test_mtf_requires_single_input_kind(tmp_path):
    expl = str(tmp_path / "expl.json")
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    assert main(["mtf", expl]) == 2  # circuit explicitation has s = 12


@pytest.mark.parametrize("cmd, dump", [("mtf", []), ("mnf", []), ("mnf", ["--stage-dump"])])
def test_single_kind_commands_refuse_by_their_own_name(tmp_path, capsys, cmd, dump):
    expl = str(tmp_path / "expl.json")
    assert main(["explicitate", str(FIXTURE), "--out", expl]) == 0
    capsys.readouterr()
    assert main([cmd, expl] + dump) == 2  # circuit explicitation has s = 12
    want = "error: %s expects no second-kind inputs; use em%s\n" % (cmd, cmd[1:])
    assert capsys.readouterr().err == want


def test_mtf_mnf_on_single_kind_system(tmp_path):
    rng = random.Random(3)
    o = random_odecs(rng, 4, 2, 0, 2)
    p = write(tmp_path, "o.json", serialize_system(o))
    for cmd in ("mtf", "mnf"):
        out = str(tmp_path / (cmd + ".json"))
        assert main([cmd, p, "--out", out]) == 0
        assert json.loads(Path(out).read_text())["verified"] is True


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    assert main(["wong", str(FIXTURE), "--out", out]) == 0
    assert capsys.readouterr().out == ""


def test_empty_system_file_roundtrip(tmp_path):
    d = Dacs(
        E=RatMatrix([], cols=0),
        H=RatMatrix([], cols=0),
        L=RatMatrix([], cols=0),
    )
    p = write(tmp_path, "empty.json", serialize_system(d))
    assert parse_system(p) == d
