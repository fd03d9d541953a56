"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dspstone --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15   # all three

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Every metric is printed with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The compiler is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
WORKLOADS = ("dspstone", "fuzz_loops", "http_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="one workload, or 'all' to run each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no compiler sources at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    pin_to_one_cpu()

    import report

    if args.workload == "http_mixed":
        import http_load

        os.makedirs(STATE_DIR, exist_ok=True)
        outcome = http_load.run(ROOT, STATE_DIR, args.seed, args.seconds,
                                traced=bool(args.trace))
    else:
        import inproc

        run = inproc.run_traced if args.trace else inproc.run_untraced
        outcome = run(args.workload, args.seed, args.seconds)
    metrics, counts, attempted, failed, notes = outcome

    changed = report.check_record(STATE_DIR, ROOT, args.workload, args.seed, counts)
    notes = list(notes) + [
        "%s differs from an earlier run of the same code and seed" % name
        for name in changed
    ]
    units = report.PER_LAYER if args.trace else report.END_TO_END
    for name in units:
        metrics.setdefault(name, 0)
    report.emit(
        metrics,
        units,
        correct=not notes and failed == 0,
        attempted=attempted,
        failed=failed,
        notes=notes,
    )
    return 0


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared host the second vCPU comes and goes with the neighbours'
    load; pinned, the figures stop depending on how much of it the host
    lends, and a single-threaded run stops migrating between vCPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_all(args) -> int:
    """Every workload in its own process (so that ``peak_rss_mb`` is that
    workload's), one after another; fails if any of them does."""
    status = 0
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        print(completed.stdout, end="", flush=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode or not lines or '"correct": true' not in lines[-1]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
