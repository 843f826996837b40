"""Run one spidereval CLI command in-process under the span tracer.

Usage: python3 bench/trace_child.py TRACE_JSON CLI_ARG...

Installs the tracer's wrappers, calls ``spidereval.cli.main`` with the
given arguments, and writes the spans, counts, exit code and the wall
time of ``main`` to TRACE_JSON. The exit code is the CLI's.
"""

from __future__ import annotations

import sys
from time import perf_counter

import tracer


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    spans = tracer.Tracer()
    tracer.install(spans)
    from spidereval import cli

    start = perf_counter()
    code = cli.main(cli_args)
    spans.dump(trace_path, wall_s=perf_counter() - start, exit_code=code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
