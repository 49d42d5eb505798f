"""Span recorder for the traced benchmark run.

``install(recorder)`` wraps the public functions of ``dacscanon`` in every
module binding that refers to them.  The package's modules import names
directly (``from .ratmat import rank_rref``), so patching only the defining
module would miss every call made through another module's binding.

Each wrapped call becomes one span ``[name, start, end, parent, op]``,
where ``parent`` is the index of the enclosing span (or -1) and ``op`` is the
operation id the caller set (one per system; ``None`` during set-up).  Some
layers also record a computed work count or an entry size, inside
operations only, so the counts cover the same calls as the span totals; that
bookkeeping is timed as "probe" time and taken out of every span it falls
in, so it does not show up as layer time.
"""

from __future__ import annotations

import dataclasses
import sys
import time

SPAN_GROUPS = {
    # span name: (module, attribute) of every function the span covers
    "ratmat.rank_rref": [("ratmat", "rank_rref")],
    "ratmat.subspace": [
        ("ratmat", f)
        for f in (
            "image",
            "kernel_basis",
            "preimage",
            "subspace_sum",
            "subspace_intersect",
            "orthogonal_complement",
            "complement",
        )
    ],
    "ratmat.solve": [
        ("ratmat", f)
        for f in ("solve", "solve_left", "inverse", "right_inverse", "is_invertible")
    ],
    "geometry.invariant_subspaces": [("geometry", "invariant_subspaces")],
    "systems.explicitate": [("systems", "explicitate")],
    "systems.verify": [("systems", "verify_exfb"), ("systems", "verify_em")],
    "systems.transform": [
        ("systems", f)
        for f in (
            "apply_exfb",
            "apply_em",
            "exfb_compose",
            "em_compose",
            "exfb_inverse",
            "em_inverse",
        )
    ],
    "morse.emtf": [("morse", "emtf")],
    "morse.emnf": [("morse", "emnf")],
    "morse.sylvester": [
        ("morse", "solve_sylvester"),
        ("morse", "solve_constrained_sylvester"),
    ],
    "canonical.emcf": [("canonical", "emcf")],
    "canonical.build_fbcf": [("canonical", "build_fbcf")],
    "canonical.fbcf": [("canonical", "fbcf")],
    "chains": [
        ("_chains", f)
        for f in (
            "frobenius_form",
            "charpoly",
            "minimal_polynomial",
            "controllability_indices",
            "functional_chains",
            "brunovsky_single",
            "pole_place",
        )
    ],
    "harness.random_fbcf": [("harness", "random_fbcf")],
    "harness.random_exfb_scramble": [("harness", "random_exfb_scramble")],
    "cli.main": [("cli", "main")],
    "cli.parse": [("cli", "parse_system")],
}


def entry_bits(values):
    """Largest and total bit length of the numerators and denominators."""
    top = total = 0
    for x in values:
        for v in (x.numerator, x.denominator):
            b = v.bit_length()
            total += b
            if b > top:
                top = b
    return top, total


def matrix_entries(matrices):
    return (x for M in matrices for row in M.to_lists() for x in row)


class Recorder:
    """In-memory spans plus the work counters measured at the same calls."""

    def __init__(self):
        self.spans = []
        self.probe = []  # probe seconds inside each span, descendants included
        self.child = []  # seconds covered by direct children and own probes
        self.stack = []
        self.op = None
        self.counts = {"ratmat.rank_rref.cells": 0, "ratmat.matmul.mults": 0}
        self.maxes = {"ratmat.rank_rref.in_bits_max": 0, "morse.out_bits_max": 0}

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op])
        self.probe.append(0.0)
        self.child.append(0.0)
        self.stack.append(len(self.spans) - 1)

    def close(self):
        i = self.stack.pop()
        span = self.spans[i]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.child[span[3]] += span[2] - span[1]
            self.probe[span[3]] += self.probe[i]

    def add_probe(self, seconds):
        if self.stack:
            self.probe[self.stack[-1]] += seconds
            self.child[self.stack[-1]] += seconds

    def export(self):
        """The spans as plain lists: name, start, end, parent, op, self, probe."""
        return [
            s + [s[2] - s[1] - c, p] for s, c, p in zip(self.spans, self.child, self.probe)
        ]


def _max_into(rec, key, value):
    if value > rec.maxes[key]:
        rec.maxes[key] = value


def _rank_rref_probe(rec, args, result):
    M = args[0]
    rec.counts["ratmat.rank_rref.cells"] += M.rows * M.cols
    _max_into(rec, "ratmat.rank_rref.in_bits_max", entry_bits(matrix_entries([M]))[0])


def _matmul_probe(rec, args, result):
    a, b = args
    rec.counts["ratmat.matmul.mults"] += a.rows * a.cols * b.cols


def _emnf_probe(rec, args, result):
    t = result.transform
    matrices = [getattr(t, f.name) for f in dataclasses.fields(t)]
    _max_into(rec, "morse.out_bits_max", entry_bits(matrix_entries(matrices))[0])


PROBES = {
    "ratmat.rank_rref": _rank_rref_probe,
    "ratmat.matmul": _matmul_probe,
    "morse.emnf": _emnf_probe,
}


def _wrap(rec, name, fn):
    probe = PROBES.get(name)

    def traced(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if probe is not None and rec.op is not None and result is not NotImplemented:
            t0 = time.perf_counter()
            probe(rec, args, result)
            rec.add_probe(time.perf_counter() - t0)
        return result

    return traced


def install(rec):
    """Wrap every binding of every covered function; return the binding count.

    Raises ``RuntimeError`` if some covered function has no binding, which
    means the span table no longer matches the package.
    """
    import dacscanon  # noqa: F401  (loads every module but cli)
    from dacscanon import cli, ratmat  # noqa: F401

    pkg = {
        n: m for n, m in sys.modules.items() if n == "dacscanon" or n.startswith("dacscanon.")
    }
    wrappers = {}
    for name, targets in SPAN_GROUPS.items():
        for mod, attr in targets:
            fn = getattr(pkg["dacscanon." + mod], attr)
            wrappers[id(fn)] = (fn, _wrap(rec, name, fn))
    bound = {key: 0 for key in wrappers}
    for mod in pkg.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                bound[id(value)] += 1
    missing = [wrappers[k][0].__qualname__ for k, n in bound.items() if n == 0]
    if missing:
        raise RuntimeError("no binding found for %s" % ", ".join(missing))
    RatMatrix, Subspace = ratmat.RatMatrix, ratmat.Subspace
    RatMatrix.__mul__ = _wrap(rec, "ratmat.matmul", RatMatrix.__mul__)
    Subspace.from_columns = staticmethod(_wrap(rec, "ratmat.subspace", Subspace.from_columns))
    return sum(bound.values()) + 2


# ``canonical.fbcf.self_s`` is the certificate conversion plus the final
# checks: fbcf minus its pipeline-stage children, not minus every kernel call.
FBCF_STAGES = {
    "systems.explicitate",
    "morse.emtf",
    "morse.emnf",
    "canonical.emcf",
    "canonical.build_fbcf",
}


def _under(spans, parent, name):
    """Whether the span at index ``parent`` or one above it is called ``name``."""
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent >= 0


def layer_totals(span_lists):
    """Per-name calls, inclusive seconds (outermost spans only) and self seconds.

    ``span_lists`` holds one exported span list per process.  Spans whose
    op is ``None`` (set-up) count only toward ``harness.*``.
    """
    calls, incl, self_s = {}, {}, {}
    for spans in span_lists:
        stage_time = {}
        for name, start, end, parent, op, own, probe in spans:
            if parent >= 0 and name in FBCF_STAGES and spans[parent][0] == "canonical.fbcf":
                stage_time[parent] = stage_time.get(parent, 0.0) + (end - start - probe)
        for i, (name, start, end, parent, op, own, probe) in enumerate(spans):
            if op is None and not name.startswith("harness."):
                continue
            calls[name] = calls.get(name, 0) + 1
            if name == "canonical.fbcf":
                own = end - start - probe - stage_time.get(i, 0.0)
            self_s[name] = self_s.get(name, 0.0) + own
            if not _under(spans, parent, name):
                incl[name] = incl.get(name, 0.0) + (end - start - probe)
    return calls, incl, self_s


def nested_calls(span_lists, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    return sum(
        _under(spans, span[3], ancestor)
        for spans in span_lists
        for span in spans
        if span[0] == name
    )
