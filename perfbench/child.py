"""Traced stand-in for ``python -m homchip``: one CLI run with span tracing.

Usage: python perfbench/child.py SPANS_JSON homchip-arguments...

Times the package import, installs the span wrappers, runs the command
through ``homchip.cli.main`` and writes the spans to SPANS_JSON at exit.
Span times are ``time.perf_counter`` readings, which on Linux come from
CLOCK_MONOTONIC and so line up with the parent's readings.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

tracer = tracing.Tracer()
index = tracer.open("import.homchip", start=started)
import homchip.cli  # noqa: E402

tracer.close(index)
tracer.install()
spans_path, argv = sys.argv[1], sys.argv[2:]
index = tracer.open(f"cli.{argv[0]}")
try:
    code = homchip.cli.main(argv)
finally:
    tracer.close(index)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
