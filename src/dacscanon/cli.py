"""Command-line interface: exact system files, pipeline commands, reports.

Systems travel as JSON with every rational written as a string ("3/4",
"-2"), so files round-trip bit-exactly through parse/serialize.  Two kinds
exist:

    {"kind": "dacs",   "dims": {"l","n","m"},         "E","H","L": [[...]]}
    {"kind": "odecs2", "dims": {"n","m","s","p"},     "A","Bu","Bv","C","Du"}

The "dims" block is optional on parse (it disambiguates matrices with zero
rows) and always written on serialize.  "name" and "description" are free
metadata.  A report produced by any command is itself parseable as a system
file: parse_system descends into its "result" entry.

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
    _expl_membership,
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
    try:
        return qq(x.strip())
    except ZeroDivisionError:
        raise ZeroDenominator("%s: entry %r has denominator zero" % (where, x)) from None
    except (ValueError, TypeError):
        raise ParseError("%s: entry %r is not a rational" % (where, x)) from None


def _mat_from_json(obj, where: str, cols: Optional[int] = None) -> RatMatrix:
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
            "%s: rows have %d entries, dims say %d" % (where, widths.pop(), cols)
        )
    return RatMatrix(data, cols=cols if cols is not None else widths.pop())


def _mat_to_json(M: RatMatrix) -> List[List[str]]:
    return [[str(x) for x in row] for row in M.to_lists()]


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


def serialize_system(
    system: Union[Dacs, Odecs2],
    name: Optional[str] = None,
    description: Optional[str] = None,
) -> dict:
    """JSON-ready dict for a system; parse_system inverts it bit-exactly."""
    if isinstance(system, Dacs):
        out = {
            "kind": "dacs",
            "dims": {"l": system.l, "n": system.n, "m": system.m},
            "E": _mat_to_json(system.E),
            "H": _mat_to_json(system.H),
            "L": _mat_to_json(system.L),
        }
    elif isinstance(system, Odecs2):
        out = {
            "kind": "odecs2",
            "dims": {"n": system.n, "m": system.m, "s": system.s, "p": system.p},
            "A": _mat_to_json(system.A),
            "Bu": _mat_to_json(system.B_u),
            "Bv": _mat_to_json(system.B_v),
            "C": _mat_to_json(system.C),
            "Du": _mat_to_json(system.D_u),
        }
    else:
        raise TypeError("not a system: %r" % (system,))
    if name is not None:
        out["name"] = name
    if description is not None:
        out["description"] = description
    return out


def _dims_entry(obj, key: str) -> Optional[int]:
    dims = obj.get("dims")
    if dims is None:
        return None
    v = dims.get(key) if isinstance(dims, dict) else None
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ParseError("dims.%s must be a nonnegative integer" % key)
    return v


def parse_system_obj(obj) -> Union[Dacs, Odecs2]:
    """Parse an already-loaded JSON object (reports are unwrapped)."""
    while isinstance(obj, dict) and "result" in obj and "kind" not in obj:
        obj = obj["result"]
    if not isinstance(obj, dict):
        raise ParseError("system file must be a JSON object")
    kind = obj.get("kind")
    if kind == "dacs":
        for key in ("E", "H", "L"):
            if key not in obj:
                raise ParseError("dacs file is missing %r" % key)
        E = _mat_from_json(obj["E"], "E", _dims_entry(obj, "n"))
        H = _mat_from_json(obj["H"], "H", _dims_entry(obj, "n"))
        L = _mat_from_json(obj["L"], "L", _dims_entry(obj, "m"))
        l = _dims_entry(obj, "l")
        if l is not None and E.rows != l:
            raise DimensionError("E has %d rows, dims say l=%d" % (E.rows, l))
        try:
            return Dacs(E, H, L)
        except ValueError as exc:
            raise DimensionError(str(exc)) from None
    if kind == "odecs2":
        for key in ("A", "Bu", "Bv", "C", "Du"):
            if key not in obj:
                raise ParseError("odecs2 file is missing %r" % key)
        n = _dims_entry(obj, "n")
        A = _mat_from_json(obj["A"], "A", n)
        Bu = _mat_from_json(obj["Bu"], "Bu", _dims_entry(obj, "m"))
        Bv = _mat_from_json(obj["Bv"], "Bv", _dims_entry(obj, "s"))
        C = _mat_from_json(obj["C"], "C", n if n is not None else A.cols)
        Du = _mat_from_json(obj["Du"], "Du", _dims_entry(obj, "m"))
        try:
            return Odecs2(A, Bu, Bv, C, Du)
        except ValueError as exc:
            raise DimensionError(str(exc)) from None
    raise ParseError("unknown system kind %r" % (kind,))


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


# ---------------------------------------------------------------------------
# certificates <-> JSON
# ---------------------------------------------------------------------------


def _serialize_exfb(t: ExFbTransform, stage: str) -> dict:
    return {
        "stage": stage,
        "kind": "exfb",
        "dims": {"l": t.Q.rows, "n": t.P.rows, "m": t.G.rows},
        "Q": _mat_to_json(t.Q),
        "P": _mat_to_json(t.P),
        "F": _mat_to_json(t.F),
        "G": _mat_to_json(t.G),
    }


def _serialize_em(t: EmTransform, stage: str) -> dict:
    return {
        "stage": stage,
        "kind": "em",
        "dims": {
            "n": t.T_x.rows,
            "m": t.T_u.rows,
            "s": t.T_v.rows,
            "p": t.T_y.rows,
        },
        "T_x": _mat_to_json(t.T_x),
        "T_u": _mat_to_json(t.T_u),
        "T_v": _mat_to_json(t.T_v),
        "T_y": _mat_to_json(t.T_y),
        "F_u": _mat_to_json(t.F_u),
        "F_v": _mat_to_json(t.F_v),
        "R": _mat_to_json(t.R),
        "K": _mat_to_json(t.K),
    }


# matrix keys of each certificate kind, with the dims entry giving the width
_CERT_KEYS = {
    "exfb": (("Q", "l"), ("P", "n"), ("F", "n"), ("G", "m")),
    "em": (
        ("T_x", "n"), ("T_u", "m"), ("T_v", "s"), ("T_y", "p"),
        ("F_u", "n"), ("F_v", "n"), ("R", "m"), ("K", "p"),
    ),
}


def _parse_cert_obj(obj) -> Union[ExFbTransform, EmTransform]:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("exfb", "em"):
        raise ParseError("unknown certificate kind %r" % (kind,))
    keys = _CERT_KEYS[kind]
    for key, _ in keys:
        if key not in obj:
            raise ParseError("%s certificate is missing %r" % (kind, key))
    mats = {key: _mat_from_json(obj[key], key, _dims_entry(obj, dim)) for key, dim in keys}
    return ExFbTransform(**mats) if kind == "exfb" else EmTransform(**mats)


def _load_cert(path: str, wanted_kind: str) -> Union[ExFbTransform, EmTransform]:
    """Load a certificate file; inside a report, pick the last one of the
    wanted kind (the total transformation comes last in every chain)."""
    obj = _load_json(path)
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
    have = "exfb" if isinstance(cert, ExFbTransform) else "em"
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
    if isinstance(idx, EmcfIndices):
        return {
            "eps": list(idx.eps),
            "eps_bar": list(idx.eps_bar),
            "A_nn": _mat_to_json(idx.A_nn),
            "sigma": list(idx.sigma),
            "delta": idx.delta,
            "sigma_bar": list(idx.sigma_bar),
            "eta": list(idx.eta),
            "dead_u": idx.dead_u,
            "dead_v": idx.dead_v,
            "dead_y": idx.dead_y,
        }
    return {
        "eps_p": list(idx.eps_p),
        "eps_bar_p": list(idx.eps_bar_p),
        "sigma_p": list(idx.sigma_p),
        "sigma_bar_p": list(idx.sigma_bar_p),
        "eta_p": list(idx.eta_p),
        "n_rho": idx.n_rho,
        "A_rho": _mat_to_json(idx.A_rho),
        "dead_u": idx.dead_u,
    }


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
        _serialize_em(run.tri.transform, "triangular"),
        _serialize_em(run.nf.transform, "normal_form"),
        _serialize_em(run.t_can, "canonical"),
        _serialize_em(run.total, total_stage),
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
    ok = _expl_membership(o, o) is not None
    report = {
        "command": "explicitate",
        "input": serialize_system(d),
        "result": serialize_system(o),
        "certificates": [_serialize_record(rec)],
        "verified": ok,
    }
    return report, ok


def _cmd_wong(args) -> Tuple[dict, bool]:
    system = parse_system(args.input)
    if isinstance(system, Dacs):
        w = wong_sequences(system)
        subspaces = [
            _subspace_json("V_star", w.V_star),
            _subspace_json("W_star", w.W_star),
        ]
        seqs = {
            "V_seq_dims": [S.dim for S in w.V_seq],
            "W_seq_dims": [S.dim for S in w.W_seq],
            "What_seq_dims": [S.dim for S in w.What_seq],
        }
    else:
        r = invariant_subspaces(system)
        subspaces = [
            _subspace_json("V_star", r.V_star),
            _subspace_json("W_star", r.W_star),
            _subspace_json("U_star", r.U_star),
            _subspace_json("Y_star", r.Y_star),
        ]
        seqs = {
            "V_seq_dims": [S.dim for S in r.V_seq],
            "W_seq_dims": [S.dim for S in r.W_seq],
            "What_seq_dims": [S.dim for S in r.What_seq],
            "block_dims": {
                "n1": r.n1, "n2": r.n2, "n3": r.n3, "n4": r.n4,
                "m1": r.m1, "m3": r.m3, "p3": r.p3, "p4": r.p4,
            },
        }
    report = {
        "command": "wong",
        "input": serialize_system(system),
        "subspaces": subspaces,
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
        "certificates": [_serialize_em(tri.transform, "triangular")],
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
            _serialize_em(tri.transform, "triangular"),
            _serialize_em(nf.transform, "total"),
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
    if isinstance(system, Dacs):
        w = wong_sequences(system)
        run = emcf_run(explicitate(system)[0])
        report = {
            "command": "invariants",
            "input": serialize_system(system),
            "dims": {"l": system.l, "n": system.n, "m": system.m},
            "subspace_dims": {
                "V_star": w.V_star.dim,
                "W_star": w.W_star.dim,
            },
            "indices": _indices_json(run.idx),
            "fbcf_indices": _indices_json(translate_indices(run.idx)),
            "verified": True,
        }
        return report, True
    run = emcf_run(system)
    # the triangular stage's blocks: V* = n1+n2, W* = n1+n3, U* = m1, Y* = p3
    bd = run.tri.dims
    report = {
        "command": "invariants",
        "input": serialize_system(system),
        "dims": {"n": system.n, "m": system.m, "s": system.s, "p": system.p},
        "subspace_dims": {
            "V_star": bd.n1 + bd.n2,
            "W_star": bd.n1 + bd.n3,
            "U_star": bd.m1,
            "Y_star": bd.p3,
        },
        "indices": _indices_json(run.idx),
        "verified": True,
    }
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
        + [_serialize_exfb(run.cert, "total")],
        "verified": True,
    }
    if args.stage_dump:
        report["stages"] = [_stage_entry("explicit", ex.source)] + _emcf_stages(ex)
    return report, True


def _cmd_verify(args) -> Tuple[dict, bool]:
    left = parse_system(args.left)
    right = parse_system(args.right)
    if isinstance(left, Dacs) != isinstance(right, Dacs):
        raise ParseError("left and right systems have different kinds")
    wanted = "exfb" if isinstance(left, Dacs) else "em"
    cert = _load_cert(args.cert, wanted)
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
