"""Per-layer timing and counting, done from outside the compiler.

Every number comes from a call the benchmark makes into a public
``repro`` API, or from a count the public results already carry:

* each backend :class:`~repro.toolchain.Pass` is wrapped in a
  :class:`TimingPass` and installed through the public
  ``Session(..., pass_manager=...)`` argument;
* the optimizer's stages are timed with the public
  ``OptPipeline.run(observer=...)`` hook (:class:`StageTimer`);
* the frontend is timed around ``lower_to_program``.

All timers read :meth:`Ledger.now`, a clock that stops while the
benchmark itself inspects the program (for example, to decide whether an
optimizer stage changed it), so that inspection is charged to no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.frontend.lowering import lower_to_program
from repro.toolchain import OptimizationPass, Pass, PassManager, Session

#: Optimizer stages reported under their own name; any other stage's
#: time stays in ``opt.other.s``.
OPT_STAGES = ("fold", "loops", "licm", "gvn", "dce")

#: Backend passes reported under their own name; the time of any other
#: pass is reported as ``other_passes.s``.
KNOWN_PASSES = ("opt", "select", "schedule", "spill", "compact")


class Ledger:
    """Layer seconds and counts of one run, on a clock that can pause."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        # Whether StageTimer renders programs to see which stages fired.
        self.watch_stages = True
        self._paused = 0.0

    def now(self) -> float:
        """``perf_counter`` minus every paused interval so far."""
        return time.perf_counter() - self._paused

    def take(self):
        """``(seconds, counts)`` so far; both start again from zero (the
        clock keeps running)."""
        taken = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return taken

    @contextmanager
    def paused(self):
        """Stop the clock for the benchmark's own bookkeeping."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started

    @contextmanager
    def timed(self, layer: str):
        started = self.now()
        try:
            yield
        finally:
            self.seconds[layer] += self.now() - started


def program_text(program) -> str:
    """A canonical rendering, used only to tell whether a stage changed
    the program."""
    lines = []
    for block in program.blocks:
        lines.append("%s:" % block.name)
        lines.extend(str(statement) for statement in block.statements)
        lines.append(str(block.terminator))
    return "\n".join(lines)


class TimingPass(Pass):
    """Runs one pass and charges its wall time to ``pass:<name>``."""

    def __init__(self, inner: Pass, ledger: Ledger):
        self.inner = inner
        self.name = inner.name
        self.ledger = ledger

    def run(self, state, context) -> None:
        with self.ledger.timed("pass:" + self.name):
            self.inner.run(state, context)
        if self.name == "select":
            counts = self.ledger.counts
            stats = state.selection_stats
            counts["select.ops"] += len(state.all_instances())
            counts["select.memo_hits"] += int(stats.get("memo_hits", 0))
            counts["select.memo_lookups"] += int(
                stats.get("memo_hits", 0) + stats.get("memo_misses", 0)
            )


class StageTimer:
    """Stands in for an ``OptPipeline``: runs it with an observer that
    charges each stage's time to ``opt:<stage>`` and counts the stage runs
    that changed the program."""

    def __init__(self, pipeline, ledger: Ledger):
        self.pipeline = pipeline
        self.ledger = ledger

    def run(self, program, supported_ops=None, observer=None):
        ledger = self.ledger
        watch = ledger.watch_stages
        with ledger.paused():
            previous = program_text(program) if watch else ""
        last = ledger.now()

        def observe(stage, current):
            nonlocal last, previous
            ledger.seconds["opt:" + stage] += ledger.now() - last
            with ledger.paused():
                if watch:
                    text = program_text(current)
                    ledger.counts["opt.stage_runs"] += 1
                    ledger.counts["opt.stage_fired"] += text != previous
                    previous = text
                if observer is not None:
                    observer(stage, current)
            last = ledger.now()

        return self.pipeline.run(
            program, supported_ops=supported_ops, observer=observe
        )


def traced_session(retarget_result, config, spec, ledger: Ledger) -> Session:
    """A session whose pass manager is the default one for ``config``
    with every pass wrapped in a :class:`TimingPass`."""
    manager = PassManager.from_config(config)
    for backend_pass in manager.passes:
        if isinstance(backend_pass, OptimizationPass):
            backend_pass.pipeline = StageTimer(backend_pass.pipeline, ledger)
    manager.passes = [TimingPass(p, ledger) for p in manager.passes]
    return Session(retarget_result, config=config, spec=spec, pass_manager=manager)


def pass_seconds(ledger: Ledger) -> float:
    return sum(v for k, v in ledger.seconds.items() if k.startswith("pass:"))


def traced_compile(session: Session, source: str, name: str, ledger: Ledger):
    """``session.compile(source, name=name)``, split into frontend,
    passes and the rest of the compile call (``session.other``)."""
    with ledger.timed("frontend"):
        program = lower_to_program(source, name=name)
    ledger.counts["frontend.nodes"] += program.expression_node_count()
    before = pass_seconds(ledger)
    started = ledger.now()
    result = session.compile(program)
    elapsed = ledger.now() - started
    ledger.seconds["session.other"] += elapsed - (pass_seconds(ledger) - before)
    return result


def layer_metrics(seconds: dict) -> dict:
    """The per-layer seconds of an in-process traced pass (``seconds`` as
    :meth:`Ledger.take` returns it), by metric name."""
    stage_total = sum(seconds.get("opt:" + stage, 0.0) for stage in OPT_STAGES)
    metrics = {
        "frontend.s": seconds.get("frontend", 0.0),
        "session.other.s": seconds.get("session.other", 0.0),
        "other_passes.s": sum(
            value
            for key, value in seconds.items()
            if key.startswith("pass:") and key[5:] not in KNOWN_PASSES
        ),
    }
    for name in KNOWN_PASSES:
        metrics[name + ".s"] = seconds.get("pass:" + name, 0.0)
    for stage in OPT_STAGES:
        metrics["opt.%s.s" % stage] = seconds.get("opt:" + stage, 0.0)
    metrics["opt.other.s"] = metrics["opt.s"] - stage_total
    return metrics


#: The entries of :func:`layer_metrics` that partition the traced wall
#: time (the ``opt.<stage>.s`` entries are parts of ``opt.s``).
TOP_LEVEL_LAYERS = (
    "frontend.s",
    "session.other.s",
    "other_passes.s",
) + tuple(name + ".s" for name in KNOWN_PASSES)
