"""Start ``repro serve`` for the service-warm workload.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 -u perfbench/serve.py [--trace-out PATH]

The server listens on an ephemeral port of 127.0.0.1 and prints its URL
(``sweep server listening on http://...``); SIGTERM or SIGINT stops it
cleanly. With
``--trace-out`` the layers are wrapped by :mod:`tracing` before the
server starts, and on shutdown the spans are written to ``PATH`` and the
per-layer summary to ``PATH`` with a ``.json`` suffix.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    # A process started in the background inherits SIGINT as ignored, so
    # both signals are mapped to the interrupt `repro serve` handles.
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--host", "127.0.0.1", "--port", "0",
                         "--jobs", "1"])
    finally:
        if tracer is not None:
            tracer.write(args.trace_out)
            args.trace_out.with_suffix(".json").write_text(
                json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
