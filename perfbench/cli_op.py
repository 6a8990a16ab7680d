"""Run one ``repro`` CLI command with layer tracing on.

Usage: ``python cli_op.py <spans.json> <command> [args...]``

The traced stand-in for ``python -m repro <command> [args...]``: it
records ``import repro`` as an ``import.repro`` span, wraps the layers
(see ``layers.py``), runs the CLI entry point, writes the spans to
``<spans.json>`` and exits with the command's status.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, Tracer, dump_spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli

    tracer.spans.append(Span("import.repro", start, time.perf_counter(), op=0))
    from layers import install

    install(tracer)
    tracer.op = 0
    tracer.active = True
    try:
        return repro.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        dump_spans(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main())
