"""Command-line interface: exact system files, pipeline commands, reports.

Systems and certificates travel as JSON with every rational written as a
string ("3/4", "-2"), so files round-trip bit-exactly through
parse/serialize.  An entry is an integer, or a string holding an integer,
a fraction "p/q" or a decimal; strings with an exponent part ("1e5") are
refused, since a long exponent expands to a huge integer.  ``_SCHEMA``
lists every kind with its matrices; the two system kinds are

    {"kind": "dacs",   "dims": {"l","n","m"},         "E","H","L": [[...]]}
    {"kind": "odecs2", "dims": {"n","m","s","p"},     "A","Bu","Bv","C","Du"}

and the two certificate kinds are

    {"kind": "exfb",   "dims": {"l","n","m"},         "Q","P","F","G"}
    {"kind": "em",     "dims": {"n","m","s","p"},
                       "T_x","T_u","T_v","T_y","TF_u","TF_v","TR","TK"}

where an em certificate carries the paper's feedback, input mixing and
output injection in the new coordinates (TF_u = T_u F_u, TF_v = T_v F_v,
TR = T_v R, TK = T_x K), so ``verify`` checks it with products only.  The
library stores an em certificate merged over w = (u, v) (see
:class:`EmTransform`); its file keeps the per-kind blocks.

The "dims" block is always written on serialize.  On parse it is optional
(it disambiguates matrices with zero rows): each entry it gives must fit
every matrix that names it and be no larger than the length of the
object's compact JSON text, and an entry it leaves out is read off the
first matrix that names it, as a width or a row count, and must fit every
later one.  "name" and "description" are free metadata.  A report produced
by any command is itself parseable as a system file: parse_system descends
into its "result" entry.

Every transforming command writes a report carrying the produced system,
the index lists, the full certificate chain (one entry per pipeline stage,
so a failure localizes), and a "verified" verdict.  The verdict comes from
the checks the pipeline itself makes on each certificate against the
defining matrix identities: every stage verifies what it emits and raises
InternalInvariantViolation when a check fails, so a report is only written
for a run whose certificates all verified.  ``verify`` re-checks a saved
certificate independently of how it was produced.  Exit status: 0 success,
1 a verification failed (a pipeline check, or ``verify`` returned false),
2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import partial
from typing import List, Optional, Tuple, Union

from .canonical import (
    EmcfIndices,
    EmcfRun,
    FbcfIndices,
    emcf_run,
    fbcf,
    fbcf_run,
    translate_indices,
)
from .geometry import invariant_subspaces, wong_sequences
from .harness import Seeded, random_exfb_scramble, random_fbcf
from .morse import _require_single_kind, emnf, emtf, mnf, mtf
from .ratmat import InternalInvariantViolation, RatMatrix, qq
from .systems import (
    Dacs,
    EmTransform,
    ExFbTransform,
    ExplicitationRecord,
    Odecs2,
    explicitate,
    verify_em,
    verify_exfb,
)

__all__ = [
    "ParseError",
    "DimensionError",
    "ZeroDenominator",
    "parse_system",
    "serialize_system",
    "main",
]


class ParseError(ValueError):
    """Malformed file: bad JSON, bad schema, or a malformed rational."""


class DimensionError(ValueError):
    """Matrices are individually fine but dimensionally inconsistent."""


class ZeroDenominator(ValueError):
    """A rational entry with denominator zero."""


# ---------------------------------------------------------------------------
# rationals and matrices <-> JSON
# ---------------------------------------------------------------------------


def _rat_from_json(x, where: str):
    if isinstance(x, bool) or isinstance(x, float):
        raise ParseError("%s: entry %r is not an exact rational" % (where, x))
    if isinstance(x, int):
        return qq(x)
    if not isinstance(x, str):
        raise ParseError("%s: entry %r is not a rational string" % (where, x))
    if "e" in x or "E" in x:
        raise ParseError("%s: entry %r has an exponent part" % (where, x))
    if "_" in x or not x.isascii():
        # Fraction also reads digit-group underscores and non-ASCII digits
        raise ParseError("%s: entry %r is not a rational" % (where, x))
    try:
        return qq(x.strip())
    except ZeroDivisionError:
        raise ZeroDenominator("%s: entry %r has denominator zero" % (where, x)) from None
    except (ValueError, TypeError):
        raise ParseError("%s: entry %r is not a rational" % (where, x)) from None


def _mat_from_json(obj, where: str, cols: Optional[int] = None, said_by: str = "") -> RatMatrix:
    """The matrix of a JSON array of rows; a given ``cols`` must match its
    rows, and ``said_by`` names where that width came from."""
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise ParseError("%s: expected an array of arrays" % where)
    data = [[_rat_from_json(x, where) for x in row] for row in obj]
    if not data and cols is None:
        raise DimensionError(
            "%s: matrix has no rows and no dims block gives its width" % where
        )
    widths = {len(r) for r in data}
    if len(widths) > 1:
        raise DimensionError("%s: rows have differing lengths" % where)
    if cols is not None and data and widths != {cols}:
        raise DimensionError(
            "%s: rows have %d entries, %s" % (where, widths.pop(), said_by)
        )
    return RatMatrix(data, cols=cols if cols is not None else widths.pop())


def _mat_to_json(M: RatMatrix) -> List[List[str]]:
    return [[str(x) for x in row] for row in M.to_lists()]


# ---------------------------------------------------------------------------
# systems and certificates <-> JSON
# ---------------------------------------------------------------------------


# Each JSON kind: whether it is a system or a certificate, its type, and its
# matrices as (JSON key, attribute, rows dims entry, columns dims entry).
_SCHEMA = {
    "dacs": ("system", Dacs, (
        ("E", "E", "l", "n"), ("H", "H", "l", "n"), ("L", "L", "l", "m"),
    )),
    "odecs2": ("system", Odecs2, (
        ("A", "A", "n", "n"), ("Bu", "B_u", "n", "m"), ("Bv", "B_v", "n", "s"),
        ("C", "C", "p", "n"), ("Du", "D_u", "p", "m"),
    )),
    "exfb": ("certificate", ExFbTransform, (
        ("Q", "Q", "l", "l"), ("P", "P", "n", "n"), ("F", "F", "m", "n"), ("G", "G", "m", "m"),
    )),
    "em": ("certificate", EmTransform, (
        ("T_x", "T_x", "n", "n"), ("T_u", "T_u", "m", "m"), ("T_v", "T_v", "s", "s"),
        ("T_y", "T_y", "p", "p"), ("TF_u", "TF_u", "m", "n"), ("TF_v", "TF_v", "s", "n"),
        ("TR", "TR", "s", "m"), ("TK", "TK", "n", "p"),
    )),
}
_KIND_OF = {cls: kind for kind, (_, cls, _) in _SCHEMA.items()}


def _dims_of(obj) -> dict:
    """The dims block of obj, in the order its matrices first name them."""
    dims = {}
    for _, attr, rows, cols in _SCHEMA[_KIND_OF[type(obj)]][2]:
        M = getattr(obj, attr)
        dims.setdefault(rows, M.rows)
        dims.setdefault(cols, M.cols)
    return dims


def _to_json(obj, role: str) -> dict:
    """obj's kind, dims and matrices, as the schema lists them."""
    kind = _KIND_OF.get(type(obj))
    if kind is None or _SCHEMA[kind][0] != role:
        raise TypeError("not a %s: %r" % (role, obj))
    out = {"kind": kind, "dims": _dims_of(obj)}
    out.update((key, _mat_to_json(getattr(obj, attr))) for key, attr, _, _ in _SCHEMA[kind][2])
    return out


def serialize_system(
    system: Union[Dacs, Odecs2],
    name: Optional[str] = None,
    description: Optional[str] = None,
) -> dict:
    """JSON-ready dict for a system; parse_system inverts it bit-exactly."""
    out = _to_json(system, "system")
    if name is not None:
        out["name"] = name
    if description is not None:
        out["description"] = description
    return out


def _serialize_cert(t: Union[ExFbTransform, EmTransform], stage: str) -> dict:
    return {"stage": stage, **_to_json(t, "certificate")}


def _dims_entry(dims, key: str, limit: int) -> Optional[int]:
    """dims[key], or None when the file does not give it.

    A matrix with rows spells out its width, so only zero-row matrices take
    a size from dims alone; ``limit``, the length of the object's text,
    keeps a tiny file from asking for a huge system."""
    if dims is None or (isinstance(dims, dict) and key not in dims):
        return None
    v = dims[key] if isinstance(dims, dict) else None
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ParseError("dims.%s must be a nonnegative integer" % key)
    if v > limit:
        raise ParseError(
            "dims.%s = %d exceeds the %d characters of its object" % (key, v, limit)
        )
    return v


def _from_json(obj: dict, role: str, noun: str):
    """The system or certificate an object describes, checked against the
    schema: every given dims entry must fit every matrix that names it and
    be no larger than the length of the object's compact JSON text, and a
    size the dims leave out is read off the first matrix that names it, as
    its width or its row count (a square block with no rows has width 0).
    So blocks that contradict each other are refused whether or not the
    object has a dims block."""
    kind = obj.get("kind")
    spec = _SCHEMA.get(kind) if isinstance(kind, str) else None
    if spec is None or spec[0] != role:
        raise ParseError("unknown %s kind %r" % (role, kind))
    _, cls, mats = spec
    for key, _, _, _ in mats:
        if key not in obj:
            raise ParseError("%s %s is missing %r" % (kind, noun, key))
    dims = obj.get("dims")
    try:
        limit = len(json.dumps(obj, separators=(",", ":"))) if isinstance(dims, dict) else 0
    except RecursionError:
        raise ParseError("%s %s is nested too deeply" % (kind, noun)) from None
    sizes, parsed = {}, {}  # dims entry -> (size, where it was read)
    for key, attr, rows, cols in mats:
        for entry in (cols, rows):
            v = None if entry in sizes else _dims_entry(dims, entry, limit)
            if v is not None:
                sizes[entry] = (v, "dims say %s=%d" % (entry, v))
        if rows == cols and obj[key] == []:  # a square block's width is its row count
            sizes.setdefault(cols, (0, "%s has 0 rows" % key))
        M = _mat_from_json(obj[key], key, *sizes.get(cols, (None,)))
        sizes.setdefault(cols, (M.cols, "%s's rows have %d" % (key, M.cols)))
        sizes.setdefault(rows, (M.rows, "%s has %d rows" % (key, M.rows)))
        parsed[attr] = M
    for key, attr, rows, _ in mats:
        want, said_by = sizes[rows]
        if parsed[attr].rows != want:
            raise DimensionError("%s has %d rows, %s" % (key, parsed[attr].rows, said_by))
    try:
        # an em certificate stores merged blocks and is built from the per-kind ones
        return getattr(cls, "from_blocks", cls)(**parsed)
    except ValueError as exc:
        raise DimensionError(str(exc)) from None


def parse_system_obj(obj) -> Union[Dacs, Odecs2]:
    """Parse an already-loaded JSON object (reports are unwrapped)."""
    while isinstance(obj, dict) and "result" in obj and "kind" not in obj:
        obj = obj["result"]
    if not isinstance(obj, dict):
        raise ParseError("system file must be a JSON object")
    return _from_json(obj, "system", "file")


def _parse_cert_obj(obj) -> Union[ExFbTransform, EmTransform]:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    return _from_json(obj, "certificate", "certificate")


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: invalid JSON (%s)" % (path, exc)) from None
    except RecursionError:
        raise ParseError("%s: JSON is nested too deeply" % path) from None


def parse_system(path: str) -> Union[Dacs, Odecs2]:
    """Read a system file (or a report: its "result" system is used)."""
    return parse_system_obj(_load_json(path))


def _cert_from_file(obj, path: str, wanted_kind: str) -> Union[ExFbTransform, EmTransform]:
    """The certificate in the loaded file ``path``; inside a report, the last
    one of the wanted kind (the total transformation comes last in every
    chain)."""
    if isinstance(obj, dict) and "certificates" in obj and "kind" not in obj:
        certs = obj["certificates"]
        if not isinstance(certs, list) or not all(isinstance(c, dict) for c in certs):
            raise ParseError("%s: \"certificates\" must be an array of objects" % path)
        matching = [c for c in certs if c.get("kind") == wanted_kind]
        if not matching:
            raise ParseError(
                "%s: report has no %r certificate" % (path, wanted_kind)
            )
        obj = matching[-1]
    cert = _parse_cert_obj(obj)
    have = _KIND_OF[type(cert)]
    if have != wanted_kind:
        raise ParseError(
            "certificate kind %r does not fit the given systems (%r needed)"
            % (have, wanted_kind)
        )
    return cert


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _indices_json(idx: Union[EmcfIndices, FbcfIndices]) -> dict:
    """One entry per field: index tuples as lists, matrices as JSON."""
    out = {}
    for f in fields(idx):
        v = getattr(idx, f.name)
        if isinstance(v, RatMatrix):
            v = _mat_to_json(v)
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def _subspace_json(name: str, S) -> dict:
    return {"name": name, "dim": S.dim, "basis": _mat_to_json(S.basis)}


def _stage_entry(name: str, system: Odecs2) -> dict:
    return {"stage": name, "system": serialize_system(system)}


def _serialize_record(rec: ExplicitationRecord) -> dict:
    return {
        "stage": "explicitation",
        "kind": "explicitation_record",
        "Q": _mat_to_json(rec.Q),
        "E1_dagger": _mat_to_json(rec.E1_dagger),
        "B_v": _mat_to_json(rec.B_v),
        "q": rec.q,
    }


def _emcf_certs(run: EmcfRun, total_stage: str) -> List[dict]:
    return [
        _serialize_cert(run.tri.transform, "triangular"),
        _serialize_cert(run.nf.transform, "normal_form"),
        _serialize_cert(run.t_can, "canonical"),
        _serialize_cert(run.total, total_stage),
    ]


def _emcf_stages(run: EmcfRun) -> List[dict]:
    return [
        _stage_entry("triangular", run.tri.system),
        _stage_entry("normal_form", run.nf.system),
        _stage_entry("canonical", run.o_can),
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require_dacs(system, command: str) -> Dacs:
    if not isinstance(system, Dacs):
        raise ParseError("%s needs a dacs input file" % command)
    return system


def _require_odecs(system, command: str) -> Odecs2:
    if not isinstance(system, Odecs2):
        raise ParseError("%s needs an odecs2 input file" % command)
    return system


def _cmd_explicitate(args) -> Tuple[dict, bool]:
    d = _require_dacs(parse_system(args.input), "explicitate")
    o, rec = explicitate(d)
    report = {
        "command": "explicitate",
        "input": serialize_system(d),
        "result": serialize_system(o),
        "certificates": [_serialize_record(rec)],
        "verified": True,
    }
    return report, True


def _cmd_wong(args) -> Tuple[dict, bool]:
    system = parse_system(args.input)
    if isinstance(system, Dacs):
        r, names, blocks = wong_sequences(system), ("V_star", "W_star"), ()
    else:
        r = invariant_subspaces(system)
        names = ("V_star", "W_star", "U_star", "Y_star")
        blocks = ("n1", "n2", "n3", "n4", "m1", "m3", "p3", "p4")
    seqs = {k + "_dims": [S.dim for S in getattr(r, k)] for k in ("V_seq", "W_seq", "What_seq")}
    if blocks:
        seqs["block_dims"] = {k: getattr(r, k) for k in blocks}
    report = {
        "command": "wong",
        "input": serialize_system(system),
        "subspaces": [_subspace_json(k, getattr(r, k)) for k in names],
        "sequences": seqs,
        "verified": True,
    }
    return report, True


def _cmd_triangular(tf, args) -> Tuple[dict, bool]:
    """mtf / emtf, with ``tf`` the matching stage function."""
    o = _require_odecs(parse_system(args.input), args.command)
    tri = tf(o)
    report = {
        "command": args.command,
        "input": serialize_system(o),
        "result": serialize_system(tri.system),
        "block_dims": dict(tri.dims._asdict()),
        "certificates": [_serialize_cert(tri.transform, "triangular")],
        "verified": True,
    }
    return report, True


def _cmd_normal_form(nf_fn, args) -> Tuple[dict, bool]:
    """mnf / emnf, with ``nf_fn`` the matching stage function.  Both start
    from emtf; mnf's check on the input kinds runs before it, so a refusal
    names the command that was run."""
    o = _require_odecs(parse_system(args.input), args.command)
    if nf_fn is mnf:
        _require_single_kind(o, "mnf")
    tri = emtf(o)
    nf = nf_fn(tri)
    report = {
        "command": args.command,
        "input": serialize_system(o),
        "result": serialize_system(nf.system),
        "block_dims": dict(nf.dims._asdict()),
        "certificates": [
            _serialize_cert(tri.transform, "triangular"),
            _serialize_cert(nf.transform, "total"),
        ],
        "verified": True,
    }
    if args.stage_dump:
        report["stages"] = [
            _stage_entry("triangular", tri.system),
            _stage_entry("normal_form", nf.system),
        ]
    return report, True


def _cmd_emcf(args) -> Tuple[dict, bool]:
    o = _require_odecs(parse_system(args.input), "emcf")
    run = emcf_run(o)
    report = {
        "command": "emcf",
        "input": serialize_system(o),
        "result": serialize_system(run.o_can),
        "indices": _indices_json(run.idx),
        "certificates": _emcf_certs(run, "total"),
        "verified": True,
    }
    if args.stage_dump:
        report["stages"] = _emcf_stages(run)
    return report, True


def _cmd_invariants(args) -> Tuple[dict, bool]:
    system = parse_system(args.input)
    is_dacs = isinstance(system, Dacs)
    run = emcf_run(explicitate(system)[0] if is_dacs else system)
    # the triangular stage's blocks: V* = n1+n2, W* = n1+n3, U* = m1, Y* = p3;
    # a dacs has the V* and W* of its explicitation
    bd = run.tri.dims
    subspace_dims = {"V_star": bd.n1 + bd.n2, "W_star": bd.n1 + bd.n3}
    if not is_dacs:
        subspace_dims.update(U_star=bd.m1, Y_star=bd.p3)
    report = {
        "command": "invariants",
        "input": serialize_system(system),
        "dims": _dims_of(system),
        "subspace_dims": subspace_dims,
        "indices": _indices_json(run.idx),
    }
    if is_dacs:
        report["fbcf_indices"] = _indices_json(translate_indices(run.idx))
    report["verified"] = True
    return report, True


def _cmd_fbcf(args) -> Tuple[dict, bool]:
    d = _require_dacs(parse_system(args.input), "fbcf")
    run = fbcf_run(d)
    ex = run.explicit
    report = {
        "command": "fbcf",
        "input": serialize_system(d),
        "result": serialize_system(run.d_can),
        "indices": _indices_json(run.fidx),
        "emcf_indices": _indices_json(ex.idx),
        "certificates": [_serialize_record(run.rec)]
        + _emcf_certs(ex, "total_explicit")
        + [_serialize_cert(run.cert, "total")],
        "verified": True,
    }
    if args.stage_dump:
        report["stages"] = [_stage_entry("explicit", ex.source)] + _emcf_stages(ex)
    return report, True


def _cmd_verify(args) -> Tuple[dict, bool]:
    loaded = {}  # path -> JSON: a report given as --right and --cert is read once

    def load(path):
        if path not in loaded:
            loaded[path] = _load_json(path)
        return loaded[path]

    left = parse_system_obj(load(args.left))
    right = parse_system_obj(load(args.right))
    if isinstance(left, Dacs) != isinstance(right, Dacs):
        raise ParseError("left and right systems have different kinds")
    wanted = "exfb" if isinstance(left, Dacs) else "em"
    cert = _cert_from_file(load(args.cert), args.cert, wanted)
    if wanted == "exfb":
        ok = verify_exfb(left, right, cert)
    else:
        ok = verify_em(left, right, cert)
    report = {
        "command": "verify",
        "left": serialize_system(left),
        "right": serialize_system(right),
        "certificate_kind": wanted,
        "verified": ok,
    }
    return report, ok


def _cmd_roundtrip(args) -> Tuple[dict, bool]:
    cases = args.cases
    if cases < 0:
        raise ParseError("--cases must be nonnegative")
    matches = 0
    failures = []
    for i in range(cases):
        base = args.seed * 1000003 + 2 * i
        d, idx = random_fbcf(Seeded(base))
        scrambled, _ = random_exfb_scramble(d, Seeded(base + 1, entry_bound=1))
        _, got, _ = fbcf(scrambled)
        if got == idx:
            matches += 1
        else:
            failures.append(
                {
                    "case": i,
                    "expected": _indices_json(idx),
                    "got": _indices_json(got),
                }
            )
    ok = matches == cases
    report = {
        "command": "roundtrip",
        "seed": args.seed,
        "cases": cases,
        "matches": matches,
        "failures": failures,
        "verified": ok,
    }
    return report, ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacscanon",
        description="Exact canonical forms for differential-algebraic "
        "control systems, with verifiable transformation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_input=True, stage_dump=False):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="system file (JSON)")
        p.add_argument("--out", help="write the report here instead of stdout")
        if stage_dump:
            p.add_argument(
                "--stage-dump",
                action="store_true",
                help="include every intermediate system in the report",
            )
        p.set_defaults(func=func)
        return p

    add("explicitate", _cmd_explicitate, "turn a dacs into an explicit system")
    add("wong", _cmd_wong, "augmented Wong sequences / invariant subspaces")
    add("invariants", _cmd_invariants, "complete canonical index datum")
    add("mtf", partial(_cmd_triangular, mtf), "triangular form (single input kind)")
    add(
        "mnf",
        partial(_cmd_normal_form, mnf),
        "block-diagonal normal form (single input kind)",
        stage_dump=True,
    )
    add("emtf", partial(_cmd_triangular, emtf), "triangular form (two input kinds)")
    add(
        "emnf",
        partial(_cmd_normal_form, emnf),
        "block-diagonal normal form (two input kinds)",
        stage_dump=True,
    )
    add("emcf", _cmd_emcf, "canonical form on the explicit side", stage_dump=True)
    add("fbcf", _cmd_fbcf, "feedback canonical form of a dacs", stage_dump=True)

    pv = sub.add_parser("verify", help="check a certificate against two systems")
    pv.add_argument("--left", required=True, help="source system file")
    pv.add_argument("--right", required=True, help="target system file")
    pv.add_argument("--cert", required=True, help="certificate file or report")
    pv.add_argument("--out", help="write the report here instead of stdout")
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser(
        "roundtrip", help="generate, scramble and re-decode random systems"
    )
    pr.add_argument("--seed", type=int, default=0, help="base seed")
    pr.add_argument("--cases", type=int, default=10, help="number of cases")
    pr.add_argument("--out", help="write the report here instead of stdout")
    pr.set_defaults(func=_cmd_roundtrip)
    return parser


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, ok = args.func(args)
        _emit(report, args.out)
    except InternalInvariantViolation as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
