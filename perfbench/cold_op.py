"""One traced ``tensorcert`` command in a fresh interpreter.

    python3 perfbench/cold_op.py SPANS_FILE COMMAND [ARGS...]

Runs ``tensorcert.cli.run(COMMAND ARGS...)`` with the layer spans of
``perfbench.tracing`` and writes them to SPANS_FILE as JSON.  The first
and last readings of the clock are written too, so the parent process
can place interpreter start-up and exit in the op's trace.
"""

import time

FIRST = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("trace.setup", FIRST, time.perf_counter())
    with tracer.span("cli.import"):
        from tensorcert.cli import run
    with tracer.layers():
        code = run(argv)
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"first": FIRST, "last": time.perf_counter(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
