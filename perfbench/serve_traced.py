"""Start ``python -m repro serve`` with the benchmark's span wrappers.

Usage: ``python perfbench/serve_traced.py SPANS_FILE <serve arguments>``.

The server runs exactly as ``python -m repro serve`` would; the
wrappers of :func:`perfbench.tracing.install` record a span tree per
``POST`` request.  After the graceful shutdown (SIGTERM) the spans are
written to ``SPANS_FILE`` as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    from repro.__main__ import main as repro_main

    from perfbench.tracing import Tracer, install

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    restore = install(tracer, server=True)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
