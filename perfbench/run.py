#!/usr/bin/env python3
"""Benchmark of dacscanon: canonical forms with certificates, end to end.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs to be installed):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 50 --trace 0

Workloads, each a closed loop with one caller in one process that sends the
next system only after the previous one is done and checked:

* ``roundtrip`` -- criterion-2 round trips: case k draws an index datum from
  ``random_fbcf(Seeded(base + 2k))`` and hides it behind
  ``random_exfb_scramble(d, Seeded(base + 2k + 1, entry_bound=b))``.  The
  pool is cases 0-4 with small entries (b=1, the tier-1 gate's own
  systems) and cases 2-4 with big ones (b=3), so the same kernels also run
  on big integers and coefficient growth shows.
* ``cli_circuit`` -- ``python -m dacscanon.cli fbcf fixtures/circuit.json``
  followed by ``dacscanon verify`` on what it wrote, as child processes.

``--base`` names the case pool (default 900001, criterion 2's own cases;
700001 is the held-out base that a claimed gain must also hold on).
``--seed`` sets the order in which the pool is sent.  A run sends whole
passes over the pool, as many as brings it closest to ``--seconds``, at
least one, so every distinct system weighs the same in every metric.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` the package's functions are wrapped in spans (see
``spans.py``) and the last line holds the per-layer metrics, per pass over
the pool.  Earlier lines give the environment and a table with sample
counts.  ``--save FILE`` also writes the full record for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = "fixtures/circuit.json"
HERE = Path(__file__).resolve().parent

# (criterion-2 case, entry bound).  On a shared host the speed drifts for
# stretches of seconds to minutes, so a run must be long and still repeat
# each system: one pass takes 13-19 s on a 2-vCPU Xeon, a third of a run.
ROUNDTRIP_POOL = [(k, 1) for k in range(5)] + [(k, 3) for k in range(2, 5)]
WORKLOADS = ["roundtrip", "cli_circuit"]
SETUP_REPEATS = 5
GOLDEN_CIRCUIT = {
    "eps_p": [],
    "eps_bar_p": [2, 2, 1],
    "sigma_p": [1, 1],
    "sigma_bar_p": [1] * 9,
    "eta_p": [],
    "n_rho": 0,
    "A_rho": [],
    "dead_u": 0,
}
FAILURE_KINDS = ("exception", "index_mismatch", "cert_rejected", "cli_exit", "cli_unverified")

# The bounded timings are means over the run's operations.  The round trip's
# systems differ in cost by up to 6x, so a median rests on the one or two
# in the middle and spreads more from run to run; the medians are printed
# in the table beside the means.
E2E_UNITS = {
    "fbcf_s_mean": "s",
    "verify_s_mean": "s",
    "systems_per_s": "1/s",
    "cert_bits_max": "bits",
    "cert_bits_total": "bits",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
TABLE_ONLY = {
    "fbcf_s_p50": "s",
    "verify_s_p50": "s",
    "fbcf_s_mean.entry1": "s",
    "fbcf_s_mean.entry3": "s",
    "verify_s_mean.entry1": "s",
    "verify_s_mean.entry3": "s",
}

# Per-layer metric -> unit.  "calls", "cells", "mults" are exact counts.
LAYER_UNITS = {
    "geometry.invariant_subspaces.calls": "count",
    "geometry.invariant_subspaces.s": "s",
    "geometry.invariant_subspaces.calls_per_fbcf": "ratio",
    "ratmat.rank_rref.calls": "count",
    "ratmat.rank_rref.self_s": "s",
    "ratmat.rank_rref.cells": "count",
    "ratmat.rank_rref.in_bits_max": "bits",
    "ratmat.matmul.calls": "count",
    "ratmat.matmul.self_s": "s",
    "ratmat.matmul.mults": "count",
    "ratmat.subspace.calls": "count",
    "ratmat.subspace.self_s": "s",
    "ratmat.solve.calls": "count",
    "ratmat.solve.self_s": "s",
    "systems.explicitate.s": "s",
    "systems.verify.calls": "count",
    "systems.verify.s": "s",
    "systems.transform.s": "s",
    "morse.emtf.s": "s",
    "morse.emnf.s": "s",
    "morse.sylvester.calls": "count",
    "morse.sylvester.s": "s",
    "morse.out_bits_max": "bits",
    "canonical.emcf.s": "s",
    "canonical.build_fbcf.s": "s",
    "canonical.fbcf.self_s": "s",
    "chains.calls": "count",
    "chains.s": "s",
    "harness.random_fbcf.s": "s",
    "harness.random_exfb_scramble.s": "s",
    "cli.main.self_s": "s",
    "cli.parse.s": "s",
    "cli.pipeline_runs_per_command": "ratio",
    "cli.process_start_s": "s",
    "trace.systems_per_s": "1/s",
}


def applies(metric, workload):
    """Whether the layer behind ``metric`` runs on ``workload`` at all."""
    if metric.startswith("cli."):
        return workload == "cli_circuit"
    if metric.startswith("harness."):
        return workload != "cli_circuit"
    return True


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from ``.git`` directly; "unknown" if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, load1):
    from dacscanon import qq

    backend = type(qq(1))
    return {
        "python": platform.python_version(),
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg_1min": load1,
        "workload": args.workload,
        "base": args.base,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Run:
    """What one workload run measured."""

    def __init__(self):
        self.attempted = 0
        self.failures = {k: 0 for k in FAILURE_KINDS}
        self.systems = 0
        self.passes = 0
        self.timed_s = 0.0
        self.setup_s = 0.0
        self.cert_bits = {}  # distinct system -> (max, total)
        self.samples = []  # [system, fbcf seconds, verify seconds or None]
        self.start_s = []  # import-only child processes (cli_circuit)
        self.fbcf_commands = 0
        self.span_lists = []
        self.counters = []

    def fail(self, kind, detail):
        self.failures[kind] += 1
        print("FAIL %s: %s" % (kind, detail), file=sys.stderr)


def timed_passes(run, seconds, send_pass):
    """Whole passes, as many as ends closest to ``seconds``, at least one.

    The next pass is predicted to take as long as the last one.
    """
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        send_pass()
        run.passes += 1
        now = time.perf_counter()
        elapsed = now - t_start
        if abs(elapsed + (now - t_pass) - seconds) >= abs(elapsed - seconds):
            break
    run.timed_s = time.perf_counter() - t_start


def make_pool(dc, base):
    pool = {}
    for k, bound in ROUNDTRIP_POOL:
        d, idx = dc.random_fbcf(dc.Seeded(base + 2 * k), bounds=(3, 4))
        scrambled, _ = dc.random_exfb_scramble(d, dc.Seeded(base + 2 * k + 1, entry_bound=bound))
        pool[k, bound] = (scrambled, idx, d)
    return pool


def run_roundtrip(args, rec, import_s):
    import dacscanon as dc
    from spans import entry_bits, matrix_entries

    run = Run()
    setup = []
    for _ in range(1 if rec else SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = make_pool(dc, args.base)
        setup.append(time.perf_counter() - t0)
    run.setup_s = import_s + statistics.median(setup)
    order = list(ROUNDTRIP_POOL)
    random.Random(args.seed).shuffle(order)

    def send_pass():
        for k in order:
            scrambled, idx, expected = pool[k]
            gc.collect()
            run.attempted += 1
            if rec:
                rec.op = run.attempted
            try:
                t0 = time.perf_counter()
                cert, got, canonical = dc.fbcf(scrambled)
                t1 = time.perf_counter()
                run.samples.append([k, t1 - t0, None])
                if got != idx or canonical != expected:
                    run.fail("index_mismatch", "case %r: got %r" % (k, got))
                    continue
                t2 = time.perf_counter()
                ok = dc.verify_exfb(scrambled, canonical, cert)
                run.samples[-1][2] = time.perf_counter() - t2
            except Exception:
                run.fail("exception", "case %r\n%s" % (k, traceback.format_exc()))
                continue
            if not ok:
                run.fail("cert_rejected", "case %r" % (k,))
                continue
            run.cert_bits[k] = entry_bits(matrix_entries([cert.Q, cert.P, cert.F, cert.G]))
            run.systems += 1

    timed_passes(run, args.seconds, send_pass)
    if rec:
        rec.op = None
        run.span_lists.append(rec.export())
        run.counters.append({**rec.counts, **rec.maxes})
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cert_bits_from_report(report):
    from fractions import Fraction

    from spans import entry_bits

    cert = [c for c in report["certificates"] if c.get("kind") == "exfb"][-1]
    return entry_bits(Fraction(x) for key in "QPFG" for row in cert[key] for x in row)


def run_cli(args, rec, import_s):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        return _run_cli(args, rec, import_s, Path(tmp))


def _run_cli(args, rec, import_s, tmp):
    run = Run()
    env = _child_env()
    py = sys.executable
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        json.loads((ROOT / FIXTURE).read_text())
        t1 = time.perf_counter()
        subprocess.run([py, "-c", "import dacscanon.cli"], cwd=ROOT, env=env, check=True)
        t2 = time.perf_counter()
        run.start_s.append(t2 - t1)
        setup.append(t2 - t0)
    run.setup_s = import_s + statistics.median(setup)
    out = tmp / "fbcf.json"
    spans = tmp / "spans.json"

    def cli(op, argv):
        if rec:
            cmd = [py, str(HERE / "traced_cli.py"), str(spans), str(op)] + argv
        else:
            cmd = [py, "-m", "dacscanon.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if rec and spans.exists():
            dump = json.loads(spans.read_text())
            run.span_lists.append(dump["spans"])
            run.counters.append(dump["counters"])
            spans.unlink()
        return proc, elapsed

    def send_pass():
        gc.collect()
        run.attempted += 1
        op = run.attempted
        if out.exists():
            out.unlink()
        proc, elapsed = cli(op, ["fbcf", FIXTURE, "--out", str(out)])
        run.samples.append([FIXTURE, elapsed, None])
        run.fbcf_commands += 1
        if proc.returncode != 0:
            run.fail("cli_exit", "fbcf exit %d: %s" % (proc.returncode, proc.stderr))
            return
        try:
            report = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            run.fail("exception", "fbcf report unreadable: %s" % exc)
            return
        if not report.get("verified"):
            run.fail("cli_unverified", "fbcf reported verified=false")
            return
        if report.get("indices") != GOLDEN_CIRCUIT:
            run.fail("index_mismatch", "fbcf indices %r" % (report.get("indices"),))
            return
        proc, elapsed = cli(op, ["verify", "--left", FIXTURE, "--right", str(out), "--cert", str(out)])
        run.samples[-1][2] = elapsed
        if proc.returncode != 0:
            run.fail("cli_exit", "verify exit %d: %s" % (proc.returncode, proc.stderr))
            return
        try:
            verified = json.loads(proc.stdout).get("verified")
        except ValueError as exc:
            run.fail("exception", "verify report unreadable: %s" % exc)
            return
        if verified is not True:
            run.fail("cli_unverified", "verify reported verified=false")
            return
        run.cert_bits[FIXTURE] = _cert_bits_from_report(report)
        run.systems += 1

    timed_passes(run, args.seconds, send_pass)
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _mean(xs):
    return statistics.fmean(xs) if xs else float("nan")


def end_to_end(run):
    """Metric -> (value, sample count); the ``TABLE_ONLY`` metrics included."""
    bits = list(run.cert_bits.values())
    fbcf_s = [s[1] for s in run.samples]
    verify_s = [s[2] for s in run.samples if s[2] is not None]
    m = {
        "fbcf_s_mean": (_mean(fbcf_s), len(fbcf_s)),
        "verify_s_mean": (_mean(verify_s), len(verify_s)),
        "fbcf_s_p50": (_median(fbcf_s), len(fbcf_s)),
        "verify_s_p50": (_median(verify_s), len(verify_s)),
        "systems_per_s": (run.systems / run.timed_s, run.systems),
        "cert_bits_max": (max((b[0] for b in bits), default=0), len(bits)),
        "cert_bits_total": (sum(b[1] for b in bits), len(bits)),
        "setup_s": (run.setup_s, SETUP_REPEATS),
        "peak_rss_mib": (run.peak_rss_mib, 1),
    }
    # Round trips only: the same means split by entry bound, so a change that
    # helps small entries and hurts big ones shows in the table.
    for bound in sorted({s[0][1] for s in run.samples if isinstance(s[0], tuple)}):
        fb = [s[1] for s in run.samples if s[0][1] == bound]
        vb = [s[2] for s in run.samples if s[0][1] == bound and s[2] is not None]
        m["fbcf_s_mean.entry%d" % bound] = (_mean(fb), len(fb))
        m["verify_s_mean.entry%d" % bound] = (_mean(vb), len(vb))
    return m


def per_layer(run):
    """Metric -> (value, sample count); totals are per pass over the pool."""
    from spans import layer_totals, nested_calls

    calls, incl, self_s = layer_totals(run.span_lists)
    passes = run.passes

    def per_pass(x):
        return x // passes if isinstance(x, int) and x % passes == 0 else x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    counters = {}
    for c in run.counters:
        for k, v in c.items():
            counters[k] = max(counters.get(k, 0), v) if k.endswith("_max") else counters.get(k, 0) + v
    m = {}
    for name in LAYER_UNITS:
        head, _, kind = name.rpartition(".")
        if name in counters:
            value = counters[name] if kind.endswith("_max") else per_pass(counters[name])
        elif kind == "calls":
            value = per_pass(calls.get(head, 0))
        elif kind == "s":
            value = incl.get(head, 0.0)
            if not head.startswith("harness."):  # set-up runs once, not per pass
                value /= passes
        elif kind == "self_s":
            value = self_s.get(head, 0.0) / passes
        else:
            continue
        m[name] = value
    # Counted inside library fbcf calls only: the CLI's second pipeline run
    # is what cli.pipeline_runs_per_command counts.
    m["geometry.invariant_subspaces.calls_per_fbcf"] = ratio(
        nested_calls(run.span_lists, "geometry.invariant_subspaces", "canonical.fbcf"),
        calls.get("canonical.fbcf", 0),
    )
    m["cli.pipeline_runs_per_command"] = ratio(calls.get("canonical.emcf", 0), run.fbcf_commands)
    m["cli.process_start_s"] = _median(run.start_s) if run.start_s else 0.0
    m["trace.systems_per_s"] = run.systems / run.timed_s
    samples = {name: run.passes for name in m}
    samples["cli.process_start_s"] = len(run.start_s)
    return {name: (m[name], samples[name]) for name in LAYER_UNITS}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="order in which the pool is sent")
    p.add_argument("--seconds", type=float, default=50.0, help="measure for this long (whole passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", type=int, default=900001, help="round-trip case pool (held out: 700001)")
    p.add_argument("--save", help="also write the full record to this file")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load1 = os.getloadavg()[0]
    if not (SRC / "dacscanon" / "__init__.py").is_file():
        print("error: %s/dacscanon not found; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dacscanon

    import_s = time.perf_counter() - t0
    if Path(dacscanon.__file__).resolve().parent != SRC / "dacscanon":
        print("error: imported dacscanon from %s, not %s" % (dacscanon.__file__, SRC), file=sys.stderr)
        return 2
    env = environment(args, load1)
    print(json.dumps({"env": env}))

    rec = None
    if args.trace:
        from spans import Recorder, install

        rec = Recorder()
        print("tracing %d bindings" % install(rec))
    if args.workload == "cli_circuit":
        run = run_cli(args, rec, import_s)
    else:
        run = run_roundtrip(args, rec, import_s)

    failed = sum(run.failures.values())
    if args.trace:
        table, units = per_layer(run), LAYER_UNITS
    else:
        table, units = end_to_end(run), E2E_UNITS
    rows = [(name, value, units.get(name) or TABLE_ONLY[name], n) for name, (value, n) in table.items()]
    rows.append(("fail_share", failed / run.attempted, "share", run.attempted))
    for row in rows:
        print("%-46s %14.6g %-6s n=%d" % row)
    print("failures by kind: %s; passes: %d" % (json.dumps(run.failures), run.passes))
    zero = [n for n, (v, _) in table.items() if args.trace and applies(n, args.workload) and not v]
    if zero:
        print("WARNING: zero where the layer applies: %s" % ", ".join(zero))
    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in table.items() if name in units}
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    if args.save:
        record = dict(result, env=env, failures=run.failures, passes=run.passes,
                      table={n: v for n, (v, _) in table.items()},
                      samples={n: s for n, (_, s) in table.items()}, zero_where_applies=zero,
                      op_samples=run.samples)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
