"""reproduce: the full experiment suite, CSVs byte-compared to ``results/``.

The workload has no generated inputs: ``run_experiments()`` with default
arguments is the repository's deliverable, so the seed does not change it.
"""

from __future__ import annotations

import time
from typing import Any

from common import ROOT, remove_dir, scratch_dir

# Committed CSVs that a default run does not write: the full Figure 6
# series comes from ``run_figure6(full_series=True)`` only.
NOT_DEFAULT = {"e-fig6_series_n256.csv"}


def probe() -> None:
    """Set-up as a fresh process pays it: importing the experiment suite."""
    import repro.experiments.runner  # noqa: F401


def _loop(seconds: float, expected: dict[str, bytes], times: list[float],
          experiments: list[dict[str, float]], errors: list[str],
          tracer: Any = None) -> None:
    """Reproduce until ``seconds`` have passed (at least once).

    ``times`` gets each whole reproduction's wall time, ``experiments``
    each experiment's own time within it (``ExperimentRun.seconds``).
    """
    from repro.experiments.runner import run_experiments

    # The root span "op" is one whole reproduction.
    reproduction = run_experiments if tracer is None else tracer.span("op", run_experiments)
    deadline = time.perf_counter() + seconds
    while True:
        out = scratch_dir("reproduce-")
        try:
            start = time.perf_counter()
            runs = reproduction(output_dir=out)
            times.append(time.perf_counter() - start)
            experiments.append({run.experiment_id: run.seconds for run in runs})
            written = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        finally:
            remove_dir(out)
        wrong = sorted(name for name in (expected.keys() - NOT_DEFAULT) | written.keys()
                       if expected.get(name) != written.get(name))
        errors.append(f"CSVs differ from results/: {', '.join(wrong)}" if wrong else "")
        if time.perf_counter() >= deadline:
            return


def run(seconds: float, tracer: Any) -> dict[str, Any]:
    """Untraced: one loop.  Traced: an untraced half, then a traced half."""
    expected = {p.name: p.read_bytes() for p in sorted((ROOT / "results").glob("*.csv"))}
    untraced: list[float] = []
    experiments: list[dict[str, float]] = []
    traced: list[float] = []
    errors: list[str] = []
    if tracer is None:
        _loop(seconds, expected, untraced, experiments, errors)
    else:
        _loop(seconds / 2, expected, untraced, experiments, errors)
        tracer.start()
        _loop(seconds / 2, expected, traced, [], errors, tracer)
        tracer.enabled = False
    return {"untraced": untraced, "experiments": experiments, "traced": traced,
            "errors": errors}
