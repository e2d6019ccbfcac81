"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve-6k --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's public functions in spans and reports the per-layer metrics
instead (see ``perfbench/README.md``). Every run checks the plans it
produced (exit status 1 when one fails), prints a SHA-256 over the
canonical schedule bytes, a full record stamped with the source
revision and library versions, and as its last line the JSON result::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

``--write-spec`` rewrites ``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-ups per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
#: A traced workload should spend at least this share of its result
#: time inside the layers it was chosen for.
CHOSEN_SHARE_MIN = 0.5


def _bootstrap() -> bool:
    """Put the program's sources and the benchmark package on the path;
    False when the sources are missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC.name}/repro",
              file=sys.stderr)
        return False
    sys.path[:] = [str(ROOT), str(SRC)] + [
        p for p in sys.path if Path(p or ".").resolve() != HERE
    ]
    return True


def _workload(name: str):
    from perfbench import cold_solve, daemon_drift, fig3_year

    return {
        "cold-solve-6k": cold_solve,
        "fig3-year-1200": fig3_year,
        "daemon-drift-1200": daemon_drift,
    }[name]


def _child_setup_s(args) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return ""
    if Path(lines[0]).resolve() != ROOT:
        return ""
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (path and bytes), which
    identifies the code also where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _stamp(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not _bootstrap():
        return 2
    from perfbench import common, layers, spec, speed
    from perfbench.spans import Tracer

    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    known = {**spec.WORKLOADS, **spec.EXTRA_WORKLOADS}
    if args.workload not in known:
        print(f"perfbench: --workload must be one of {sorted(known)}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    module = _workload(args.workload)

    state = module.setup(args.seed, args.seconds)
    own_setup_s = speed.scale(time.perf_counter() - _STARTED, [speed.burst()])
    if args.setup_only:
        module.close(state)
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    try:
        setups = [own_setup_s] + [
            _child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        tracer = Tracer() if args.trace else None
        outcome = module.measure(state, args.seconds, tracer)
        rss_mb = common.peak_rss_mb(getattr(state, "children", ()))
    finally:
        module.close(state)

    end_to_end = dict(outcome.metrics)
    end_to_end["setup_s"] = median(setups)
    end_to_end["peak_rss_mb"] = rss_mb
    correct = outcome.failed == 0 and not outcome.problems
    record = {
        "format": "perfbench-record/1",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "stamp": _stamp(args.seed),
        "schedule_sha256": outcome.digest,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "end_to_end": end_to_end,
        "setup_samples_s": setups,
        "notes": outcome.notes,
        "problems": outcome.problems[:20],
    }
    if args.trace:
        record["per_layer"] = outcome.layers
        share = outcome.layers["layers.chosen_share"]
        verdict = "ok" if share >= CHOSEN_SHARE_MIN else "MISMATCH"
        print(f"perfbench: chosen layers cover {share:.2f} of the result "
              f"time (expected >= {CHOSEN_SHARE_MIN}): {verdict}")
        print(f"perfbench: tracing overhead "
              f"{outcome.layers['trace.overhead_s']:+.4f} s per unit")
    for problem in outcome.problems[:20]:
        print(f"perfbench: FAILED {problem}")
    print(f"perfbench: {args.workload} schedule sha256 {outcome.digest}")
    print(json.dumps(record, sort_keys=True))

    reported = outcome.layers if args.trace else end_to_end
    if not args.trace:
        names = list(spec.END_TO_END)
    elif args.workload in spec.EXTRA_WORKLOADS:
        names = list(layers.PER_LAYER) + list(layers.SERVE_LAYER)
    else:
        names = list(layers.PER_LAYER)
    units = spec.units(names)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": reported[name], "unit": units[name]}
            for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
