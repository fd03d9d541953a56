"""The in-process workloads: ``dspstone`` and ``fuzz_loops``.

Both compile source text with ``Session.compile`` on sessions built the
way users get them (``Toolchain`` with a memory-only ``RetargetCache``,
the default ``PipelineConfig`` with the verifier off), RT-simulate every
compiled program under the fuzz suite's seeded environment and compare
it with ``Program.execute``, the independent IR interpreter.
"""

from __future__ import annotations

import itertools
import random
import statistics
from collections import Counter
from typing import Dict, List, NamedTuple, Optional

from ledger import (
    TOP_LEVEL_LAYERS,
    Ledger,
    layer_metrics,
    traced_compile,
    traced_session,
)
from pace import Pacer, scaled_call
from report import DETERMINISTIC, latency_metrics, peak_rss_mb
from repro.dspstone.kernels import all_kernel_names, get_kernel, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.fuzz.generator import LOOP_HEAVY_CONFIG, generate_source
from repro.fuzz.oracles import (
    SIMULATION_STEP_LIMIT,
    faithful_simulate,
    observables,
    seed_environment,
)
from repro.hdl.ast import ModuleKind
from repro.toolchain import PipelineConfig, RetargetCache, Toolchain

#: The pipeline users get, with the static verifier off whatever
#: ``REPRO_VERIFY`` says.
CONFIG = PipelineConfig(verify=False)

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

DSPSTONE_TARGETS = ("demo", "ref", "tms320c25")

#: ``demo`` is left out: almost none of these programs compile on it
#: today, and failed compiles are cheaper than real ones.
FUZZ_TARGETS = ("ref", "tms320c25")

#: Size of the fixed fuzz corpus per second of ``--seconds``: at 10 s,
#: 150 programs, whose compiles take about 10 s on one CPU.
FUZZ_PROGRAMS_PER_SECOND = 15

#: Warm-up programs for ``fuzz_loops``, drawn from generator seeds
#: outside the corpus so that no program repeats within a run.
FUZZ_WARMUP_PROGRAMS = 4
FUZZ_WARMUP_BASE = 1_000_000


class Item(NamedTuple):
    target: str
    name: str
    source: str


class Outcome:
    """What one pass over a list of items produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.latencies: List[float] = []
        self.items: List[Item] = []
        self.totals: Counter = Counter()
        self.signatures: Dict[tuple, tuple] = {}
        self.wall_s = 0.0

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def result_counts(result) -> Dict[str, int]:
    metrics = result.metrics
    return {
        "code_words": metrics.code_size,
        "operations": metrics.operation_count,
        "spill.count": metrics.spill_count,
        "select.nodes_labelled": metrics.nodes_labelled,
        "opt.nodes_in": metrics.opt_nodes_before,
        "opt.nodes_out": metrics.opt_nodes_after,
        "opt.folds": metrics.opt_folds,
        "opt.licm_hoisted": metrics.opt_licm_hoisted,
        "opt.gvn_hits": metrics.opt_gvn_hits,
        "opt.strength_reductions": metrics.opt_strength_reductions,
        "opt.hw_loops": metrics.opt_hw_loops,
    }


def memory_storages(session) -> frozenset:
    """The target's memories; every other storage is a register the
    storage-faithful simulator tracks."""
    return frozenset(
        module.name
        for module in session.retarget_result.netlist.sequential_modules()
        if module.kind == ModuleKind.MEMORY
    )


def check_output(result, item: Item, storages: frozenset):
    """``(dyn_ops, mismatched variables)``.  The generated code is
    simulated twice from the seeded environment of the source program:
    by ``simulation_trace``, which counts the RT operations executed, and
    storage-faithfully, which also catches clobbered registers.  Both must
    agree with the IR interpreter run on the source program."""
    program = lower_to_program(item.source, name=item.name)
    environment = seed_environment(program)
    trace = result.simulation_trace(
        dict(environment), max_steps=SIMULATION_STEP_LIMIT
    )
    reference = observables(
        program.execute(dict(environment), max_steps=SIMULATION_STEP_LIMIT)
    )
    mismatched = set()
    for final in (
        trace.final_environment,
        faithful_simulate(result, storages, environment),
    ):
        simulated = observables(final)
        mismatched.update(
            key
            for key in set(simulated) | set(reference)
            if simulated.get(key, 0) != reference.get(key, 0)
        )
    return sum(len(step.operations) for step in trace.steps), sorted(mismatched)


def run_items(sessions, items, clock: Ledger, traced: bool, check: bool,
              stop_at: Optional[float] = None,
              expect: Optional[Dict[tuple, tuple]] = None,
              pacer: Optional[Pacer] = None) -> Outcome:
    """Compile ``items`` in order until they run out or ``clock`` passes
    ``stop_at``.  Each compile is one latency sample, also recorded in
    ``pacer`` when there is one.  With ``check``,
    every result is simulated and compared (clock paused) and its counts
    are summed.  With ``expect``, each result's counts must equal the
    signature a checked compile of the same item left there (dspstone
    repeats its kernels)."""
    outcome = Outcome()
    started = clock.now()
    for item in items:
        if stop_at is not None and clock.now() >= stop_at:
            break
        if pacer is not None:
            pacer.tick()
        outcome.attempted += 1
        outcome.items.append(item)
        compile_started = clock.now()
        session = sessions[item.target]
        try:
            if traced:
                result = traced_compile(session, item.source, item.name, clock)
            else:
                result = session.compile(item.source, name=item.name)
        except Exception as error:  # a failed compile is a failed attempt
            outcome.fail("%s on %s: %s: %s" % (
                item.name, item.target, type(error).__name__, error))
            continue
        outcome.latencies.append(clock.now() - compile_started)
        if pacer is not None:
            pacer.add(outcome.latencies[-1])
        with clock.paused():
            counts = result_counts(result)
            if check:
                try:
                    counts["dyn_ops"], mismatched = check_output(
                        result, item, memory_storages(session))
                except Exception as error:
                    outcome.fail("%s on %s: simulation: %s: %s" % (
                        item.name, item.target, type(error).__name__, error))
                    continue
                if mismatched:
                    outcome.fail("%s on %s: simulation disagrees with "
                                 "Program.execute on %s" % (
                                     item.name, item.target, mismatched[:5]))
                    continue
                outcome.totals.update(counts)
                outcome.signatures[item[:2]] = _signature(counts)
            elif expect is not None and expect.get(item[:2]) != _signature(counts):
                outcome.fail("%s on %s: counts differ from the first compile "
                             "of the same source" % (item.name, item.target))
    outcome.wall_s = clock.now() - started
    return outcome


def _signature(counts: Dict[str, int]) -> tuple:
    """The counts a repeated compile must reproduce.  Label counts are
    left out: the selector's memo is warmer the second time."""
    return tuple(
        value for key, value in sorted(counts.items())
        if key not in ("select.nodes_labelled", "dyn_ops")
    )


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def plain_setup(targets):
    toolchain = Toolchain(cache=RetargetCache(directory=False))
    return {target: toolchain.session(target, config=CONFIG) for target in targets}


def traced_setup(targets, ledger: Ledger):
    """The same set-up as :func:`plain_setup`, split into retargeting and
    session construction; the sessions time their passes into ``ledger``."""
    toolchain = Toolchain(cache=RetargetCache(directory=False))
    sessions = {}
    for target in targets:
        spec = toolchain.registry.resolve(target)
        with ledger.timed("retarget"):
            result, _hit = toolchain.cache.get_or_retarget(spec.hdl_source)
        with ledger.timed("session"):
            sessions[target] = traced_session(result, CONFIG, spec, ledger)
    return sessions


def timed_setups(targets):
    """``SETUP_REPEATS`` cold set-ups; returns their scaled durations
    (see ``pace.py``) and the sessions of the last one."""
    durations = []
    sessions = None
    for _ in range(SETUP_REPEATS):
        sessions, seconds = scaled_call(plain_setup, targets)
        durations.append(seconds)
    return durations, sessions


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def dspstone_plan(seed: int):
    """``(checked first pass, endless window stream)``: every kernel on
    every target, in a fresh seeded order each pass."""
    rng = random.Random(seed)
    kernels = all_kernel_names() + loop_kernel_names()
    base = [
        Item(target, kernel, get_kernel(kernel).source)
        for target in DSPSTONE_TARGETS
        for kernel in kernels
    ]

    def shuffled():
        items = list(base)
        rng.shuffle(items)
        return items

    first = shuffled()
    stream = itertools.chain.from_iterable(shuffled() for _ in itertools.count())
    return first, stream


def fuzz_plan(seed: int, seconds: int):
    """``(warm-up items, corpus items)``.  The corpus is fixed -- generator
    seeds 0..N-1 -- so that its counts and latency percentiles compare
    across runs; ``seed`` orders it."""
    size = FUZZ_PROGRAMS_PER_SECOND * seconds
    warmup = [
        Item(target, "warm%d" % index,
             generate_source(FUZZ_WARMUP_BASE + index, LOOP_HEAVY_CONFIG))
        for index in range(FUZZ_WARMUP_PROGRAMS)
        for target in FUZZ_TARGETS
    ]
    corpus = []
    for index in range(size):
        source = generate_source(index, LOOP_HEAVY_CONFIG)
        corpus.extend(Item(target, "fuzz%d" % index, source) for target in FUZZ_TARGETS)
    random.Random(seed).shuffle(corpus)
    return warmup, corpus


def one_pass(workload: str, sessions, seed: int, seconds: int, clock: Ledger,
             traced: bool, replay: Optional[List[Item]] = None,
             pacer: Optional[Pacer] = None):
    """``(quality, window, quality ledger counts, window ledger)``.

    ``quality`` is the checked pass over the workload's programs whose
    counts are the run's counts; ``window`` is the timed window.  For
    ``fuzz_loops`` the two are the same pass over the whole corpus.  With
    ``replay``, the ``dspstone`` window compiles exactly those items
    instead (the traced pass repeats the untraced window).  ``pacer``
    records the window's compiles."""
    if workload == "dspstone":
        first, stream = dspstone_plan(seed)
        quality = run_items(sessions, first, clock, traced, check=True)
        _, quality_counts = clock.take()
        # The window repeats the same programs: which stages fire is
        # already known, so it skips rendering them.
        clock.watch_stages = False
        if replay is not None:
            window = run_items(sessions, replay, clock, traced, check=False,
                               expect=quality.signatures)
        else:
            window = run_items(sessions, stream, clock, traced, check=False,
                               stop_at=clock.now() + seconds,
                               expect=quality.signatures, pacer=pacer)
        return quality, window, quality_counts, clock.take()
    warmup, corpus = fuzz_plan(seed, seconds)
    run_items(sessions, warmup, clock, traced, check=False)
    clock.take()
    window = run_items(sessions, corpus, clock, traced, check=True,
                       pacer=pacer)
    taken = clock.take()
    return window, window, taken[1], taken


def _failures(*outcomes):
    outcomes = list({id(o): o for o in outcomes}.values())
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    notes = [note for o in outcomes for note in o.notes]
    return attempted, failed, notes


def deterministic_counts(totals: Counter) -> Dict[str, int]:
    return {name: int(totals.get(name, 0)) for name in DETERMINISTIC}


def count_metrics(totals: Counter) -> Dict[str, float]:
    """The per-layer count metrics of one pass over the programs."""
    metrics = {
        name: totals[name]
        for name in DETERMINISTIC
        if name not in ("code_words", "dyn_ops", "opt.folds")
    }
    metrics["compact.ops_per_word"] = totals["operations"] / totals["code_words"]
    return metrics


def run_untraced(workload: str, seed: int, seconds: int):
    targets = DSPSTONE_TARGETS if workload == "dspstone" else FUZZ_TARGETS
    durations, sessions = timed_setups(targets)
    pacer = Pacer()
    quality, window, _, _ = one_pass(workload, sessions, seed, seconds,
                                     Ledger(), traced=False, pacer=pacer)
    attempted, failed, notes = _failures(quality, window)
    scaled = pacer.scaled()
    print("setup samples: %d; window: %d compiles in %.3f s, %.1f/s unscaled;"
          " speed factor median %.3f over %d probes"
          % (len(durations), len(window.latencies), window.wall_s,
             len(window.latencies) / max(sum(window.latencies), 1e-9),
             statistics.median(pacer.factors()), len(pacer.factors())))
    metrics = {
        "setup_s": statistics.median(durations),
        "items_per_s": len(scaled) / max(sum(scaled), 1e-9),
        "ok_ratio": (attempted - failed) / attempted,
        "code_words": quality.totals["code_words"],
        "dyn_ops": quality.totals["dyn_ops"],
    }
    metrics.update(latency_metrics(scaled or [0.0, 0.0]))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, deterministic_counts(quality.totals), attempted, failed, notes


def run_traced(workload: str, seed: int, seconds: int):
    """Per-layer metrics: an untraced pass, then a traced pass over the
    same items on fresh sessions; their counts must agree exactly."""
    targets = DSPSTONE_TARGETS if workload == "dspstone" else FUZZ_TARGETS
    setup_ledgers = []
    for _ in range(SETUP_REPEATS):
        setup_ledger = Ledger()
        setup_sessions = traced_setup(targets, setup_ledger)
        setup_ledgers.append(setup_ledger.seconds)

    quality_a, window_a, _, _ = one_pass(
        workload, plain_setup(targets), seed, seconds, Ledger(), traced=False)
    ledger = Ledger()
    sessions = traced_setup(targets, ledger)
    ledger.take()
    quality_b, window_b, quality_counts, (seconds_b, window_counts) = one_pass(
        workload, sessions, seed, seconds, ledger, traced=True,
        replay=window_a.items)

    attempted, failed, notes = _failures(quality_a, window_a, quality_b, window_b)
    counts = deterministic_counts(quality_a.totals)
    traced_counts = deterministic_counts(quality_b.totals)
    for name in counts:
        if counts[name] != traced_counts[name]:
            notes.append("%s differs between the untraced (%d) and traced (%d) "
                         "passes" % (name, counts[name], traced_counts[name]))

    metrics = layer_metrics(seconds_b)
    metrics.update(count_metrics(quality_b.totals))
    attributed = sum(metrics[name] for name in TOP_LEVEL_LAYERS)
    wall = window_b.wall_s
    notes += reconcile(wall, attributed)
    metrics.update({
        "retarget.s": statistics.median(s["retarget"] for s in setup_ledgers),
        "session.s": statistics.median(s["session"] for s in setup_ledgers),
        "grammar.rules": sum(
            len(session.retarget_result.grammar.rules)
            for session in setup_sessions.values()
        ),
        "frontend.nodes": quality_counts.get("frontend.nodes", 0),
        "opt.stage_fire_ratio": _ratio(quality_counts, "opt.stage_fired",
                                       "opt.stage_runs"),
        "select.memo_hit_rate": _ratio(window_counts, "select.memo_hits",
                                       "select.memo_lookups"),
        "select.ops": quality_counts.get("select.ops", 0),
        "trace.overhead_ratio": wall / window_a.wall_s,
        "traced.wall_s": wall,
        "layers.unattributed_s": wall - attributed,
        "layers.unattributed_share": (wall - attributed) / wall,
    })
    return metrics, counts, attempted, failed, notes


def reconcile(wall: float, attributed: float) -> List[str]:
    """Layer times can only fall short of the wall time they partition;
    more than the wall means a layer was counted twice."""
    if attributed > wall * 1.001:
        return ["layer times (%.6f s) exceed the traced wall time (%.6f s)"
                % (attributed, wall)]
    return []


def _ratio(counts: dict, numerator: str, denominator: str) -> float:
    total = counts.get(denominator, 0)
    return counts.get(numerator, 0) / total if total else 0.0
