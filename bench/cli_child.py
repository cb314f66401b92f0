"""Traced ``povmkit.cli`` process: ``python bench/cli_child.py OUT.json ARGS...``.

Times ``import povmkit``, wraps the tracer's targets in this process, runs
``povmkit.cli.main(ARGS)`` and writes the tracer's aggregates and the import
time to OUT.json.  Exits with the code ``main`` returned.
"""

import sys
import time

_start = time.perf_counter_ns()
import povmkit  # noqa: E402  (timed: the first import of the library)

IMPORT_NS = time.perf_counter_ns() - _start

import json  # noqa: E402

import povmkit.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer(span_cap=0)
    tracer.install()
    try:
        code = povmkit.cli.main(args)
    finally:
        tracer.uninstall()
        totals = tracer.totals()
        totals["import_ns"] = IMPORT_NS
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(totals, handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
