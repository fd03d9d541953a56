"""Summaries, the determinism record and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ok_ratio": "ratio",
    "code_words": "words",
    "dyn_ops": "ops",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Workloads that do not
#: exercise a layer report 0 for it.
PER_LAYER = {
    "retarget.s": "s",
    "session.s": "s",
    "grammar.rules": "count",
    "server.boot.s": "s",
    "server.warm.s": "s",
    "frontend.s": "s",
    "frontend.nodes": "count",
    "opt.s": "s",
    "opt.fold.s": "s",
    "opt.loops.s": "s",
    "opt.licm.s": "s",
    "opt.gvn.s": "s",
    "opt.dce.s": "s",
    "opt.other.s": "s",
    "opt.nodes_in": "count",
    "opt.nodes_out": "count",
    "opt.licm_hoisted": "count",
    "opt.gvn_hits": "count",
    "opt.strength_reductions": "count",
    "opt.hw_loops": "count",
    "opt.stage_fire_ratio": "ratio",
    "select.s": "s",
    "select.nodes_labelled": "count",
    "select.memo_hit_rate": "ratio",
    "select.ops": "count",
    "schedule.s": "s",
    "spill.s": "s",
    "spill.count": "count",
    "compact.s": "s",
    "compact.ops_per_word": "ratio",
    "other_passes.s": "s",
    "session.other.s": "s",
    "serialize.s": "s",
    "http.overhead_s": "s",
    "service.compile_s": "s",
    "client.s": "s",
    "trace.overhead_ratio": "ratio",
    "traced.wall_s": "s",
    "layers.unattributed_s": "s",
    "layers.unattributed_share": "ratio",
}

#: Counts every run of one workload, seed and source tree must repeat
#: exactly, traced or not.
DETERMINISTIC = (
    "code_words",
    "dyn_ops",
    "spill.count",
    "select.nodes_labelled",
    "opt.nodes_in",
    "opt.nodes_out",
    "opt.folds",
    "opt.licm_hoisted",
    "opt.gvn_hits",
    "opt.strength_reductions",
    "opt.hw_loops",
)


def latency_metrics(samples_s) -> dict:
    """Median and p90 in milliseconds.  p99 is printed with the samples
    behind it but not returned: on a shared 2-core host its spread
    between runs exceeds any bound the benchmark may set (see README)."""
    values = [s * 1000.0 for s in samples_s]
    percentiles = statistics.quantiles(values, n=100, method="inclusive")
    p99 = percentiles[98]
    print(
        "latency_ms_p99 %.6f ms (%d samples, %d above p99)"
        % (p99, len(values), sum(1 for v in values if v > p99))
    )
    return {
        "latency_ms_p50": statistics.median(values),
        "latency_ms_p90": percentiles[89],
    }


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def source_digest(root: str) -> str:
    """Hash of the compiler sources and the benchmark's own files: the
    determinism record is only compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".pyc", ".pyo")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_record(state_dir: str, root: str, workload: str, seed: int,
                 counts: dict) -> list:
    """Compare ``counts`` with the record an earlier run of the same code,
    workload and seed left; write the record when there is none.
    Returns the names of the counts that differ."""
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(
        state_dir,
        "counts-%s-%d-%s.json" % (workload, seed, source_digest(root)),
    )
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
        return [name for name in counts if recorded.get(name) != counts[name]]
    temp = path + ".%d.tmp" % os.getpid()
    with open(temp, "w") as handle:
        json.dump(counts, handle, sort_keys=True)
    os.replace(temp, path)
    return []


def emit(metrics: dict, units: dict, correct: bool, attempted: int,
         failed: int, notes=()) -> None:
    """Print every metric with its unit, then the result line last."""
    for note in notes:
        print("check failed: %s" % note, file=sys.stderr)
    for name, unit in units.items():
        print("%-26s %16.6f %s" % (name, metrics[name], unit))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
