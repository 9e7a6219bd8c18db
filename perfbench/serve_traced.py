"""Traced launcher for the daemon: ``repro serve`` with span wrappers.

    python perfbench/serve_traced.py <spans.json> [serve options...]

Installs the span wrappers, then runs ``repro.cli.main(["serve", ...])``
unchanged.  SIGUSR1 drops the spans recorded so far (the benchmark sends
it after loading the warm set); after the graceful drain that SIGTERM
starts, the spans are written to ``<spans.json>``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_sources  # noqa: E402

use_checkout_sources()

from tracing import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.start()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli import main as repro_main

    code = repro_main(["serve", *sys.argv[2:]])
    tracer.enabled = False
    out.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
