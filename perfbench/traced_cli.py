"""Run one ``dacscanon`` CLI command with spans recorded (traced benchmark run).

    python3 perfbench/traced_cli.py SPANS_FILE OP_ID <cli arguments...>

Behaves like ``python -m dacscanon.cli <cli arguments...>`` (same exit
code), and afterwards writes the recorded spans and counters to SPANS_FILE
as JSON.  ``src`` must be on ``PYTHONPATH``.
"""

import json
import sys

from spans import Recorder, install


def main():
    spans_file, op = sys.argv[1], int(sys.argv[2])
    rec = Recorder()
    install(rec)
    from dacscanon import cli

    rec.op = op
    try:
        code = cli.main(sys.argv[3:])
    finally:
        rec.op = None
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.export(), "counters": {**rec.counts, **rec.maxes}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
