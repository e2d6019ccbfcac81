"""The benchmark's definition: workloads and metrics.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --write-spec``) and a test keeps the two
equal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from perfbench.layers import PER_LAYER, SERVE_LAYER

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

#: name -> why (one line).
WORKLOADS: Dict[str, str] = {
    "cold-solve-6k": (
        "cold Appro solves at n=6000, K=2, every sensor requesting: "
        "charging-graph construction and step-6 insertion dominate, "
        "routing is small"
    ),
    "fig3-year-1200": (
        "one-year Appro simulation at n=1200, K=2 (paper Fig. 3): "
        "hundreds of small rounds sharing a distance cache, so tour "
        "construction dominates"
    ),
}

#: Runnable with ``--workload`` but not listed in ``BENCHMARK.json``:
#: its times spread too widely from run to run on a shared 2-vCPU
#: machine to hold a bound (see ``perfbench/README.md``).
EXTRA_WORKLOADS: Dict[str, str] = {
    "daemon-drift-1200": (
        "open-loop jobs at 2/s then 4/s into PlanningDaemon(workers=1) "
        "on three drifting n=1200 networks: admission, digests, warm "
        "contexts, invalidate, serialisation"
    ),
}

#: End-to-end metrics, reported by every workload:
#: name -> (unit, better, bound).
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "solve_s": ("s", "lower", 0.25),
    "planned_delay_s": ("s", "lower", 0.2),
    "result_s": ("s", "lower", 0.25),
}


def render() -> Dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def render_text() -> str:
    return json.dumps(render(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render_text())
    return path


def units(names: List[str]) -> Dict[str, str]:
    table = {name: spec[0] for name, spec in END_TO_END.items()}
    table.update({name: spec[0] for name, spec in PER_LAYER.items()})
    table.update({name: spec[0] for name, spec in SERVE_LAYER.items()})
    return {name: table[name] for name in names}
