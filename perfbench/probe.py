"""One set-up repetition in a fresh interpreter (timed by the parent).

    python perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_sources  # noqa: E402

use_checkout_sources()


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "reproduce":
        import reproduce

        reproduce.probe()
    elif workload == "warm-queries":
        import queries

        queries.probe_warm(seed)
    elif workload == "cold-queries":
        import queries

        queries.probe_cold(seed)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
