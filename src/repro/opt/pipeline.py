"""The composable optimization pipeline and its statistics.

An :class:`OptPipeline` runs an ordered subset of the optimization
stages -- ``fold`` (constant folding / algebraic simplification),
``loops`` (counted-loop rotation and strength reduction,
:mod:`repro.opt.loops`), ``licm`` (loop-invariant code motion,
:mod:`repro.opt.licm`), ``cse`` (block-local common-subexpression
elimination, :mod:`repro.opt.cse`) and ``dce`` (dead-temporary
elimination) -- over an IR :class:`~repro.ir.Program` and returns a
*fresh* optimized program plus an :class:`OptStats` record.  The default
stage list runs all of them.

After a run that included the ``loops`` stage, or whose input already
carried annotations, counted single-block self-loops of the result carry
:class:`~repro.ir.program.HardwareLoop` annotations in
``Program.hw_loops`` -- re-derived from the result, never carried over
-- the hook the backend's zero-overhead repeat lowering keys on.

Copy hygiene is part of the contract: exactly one copy is made per run,
on entry (a leading ``fold`` stage's rebuild is that copy), and every
later stage rewrites this working program in place.  The returned
program therefore never shares statement or expression objects with the
input (mirroring the ``code.instances`` aliasing rules of the pass
pipeline), so callers may mutate either side freely.  Observers see the
live working program and must copy it to keep it, as ``repro opt``
does.  The CFG is analysed once on entry: a program without a retreating
edge skips the loop stages.  The pipeline is target-independent; passing
the target grammar's operator vocabulary as ``supported_ops`` merely
gates operator-introducing rewrites (see :mod:`repro.opt.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.diagnostics import ReproError
from repro.ir.program import BasicBlock, CBranch, Program, Statement
from repro.obs.trace import current_tracer
from repro.opt.cse import (
    MIN_OCCURRENCES,
    MIN_OPS,
    TEMP_PREFIX,
    eliminate_common_subexpressions,
    eliminate_dead_temporaries,
)
from repro.opt.dag import ProgramDAG, copy_expr, copy_terminator
from repro.opt.fold import fold_expr, fold_statement, split_rewrite_counts


class OptimizationError(ReproError):
    """Raised on invalid optimizer configuration (unknown stage names)."""

    phase = "opt"


@dataclass
class OptStats:
    """Statistics of one optimizer run (surfaced through
    :class:`~repro.toolchain.results.CompileMetrics` and ``--timings``).

    ``rewrites`` maps individual rewrite-rule names (``"const-fold"``,
    ``"add-zero"``, ``"mul-pow2-shl"``, ...) to fire counts; ``folds`` and
    ``algebraic`` are its constant/algebraic split.  ``cse_hits`` counts
    expression occurrences rewritten to read a temporary;
    ``temps_introduced``/``dead_removed`` count temporaries created and
    dead ones eliminated again.  The loop block: ``loops_rotated``
    (while-form loops rewritten into do-while form), ``licm_hoisted``
    (statements moved plus invariants materialized in preheaders),
    ``strength_reductions`` (induction-variable products rewritten) and
    ``hw_loops`` (counted self-loops annotated for hardware looping).
    """

    nodes_before: int = 0
    nodes_after: int = 0
    statements_before: int = 0
    statements_after: int = 0
    folds: int = 0
    algebraic: int = 0
    cse_hits: int = 0
    licm_hoisted: int = 0
    strength_reductions: int = 0
    loops_rotated: int = 0
    hw_loops: int = 0
    temps_introduced: int = 0
    dead_removed: int = 0
    rewrites: Dict[str, int] = field(default_factory=dict)

    @property
    def nodes_removed(self) -> int:
        return self.nodes_before - self.nodes_after

    @property
    def node_reduction(self) -> float:
        """Fraction of IR nodes removed (0.0 when the program was empty)."""
        if not self.nodes_before:
            return 0.0
        return self.nodes_removed / self.nodes_before

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["rewrites"] = dict(self.rewrites)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "OptStats":
        values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        values["rewrites"] = dict(data.get("rewrites", {}))
        return cls(**values)


def copy_program(program: Program) -> Program:
    """A deep, alias-free copy: fresh program, blocks, statements and
    expression trees.

    Reuses the DAG machinery's explicit-stack walkers
    (:meth:`~repro.opt.dag.ProgramDAG.intern_expr` +
    :meth:`~repro.opt.dag.ExprDAG.to_expr`) rather than a third
    hand-rolled tree rebuild: ``to_expr`` constructs every node fresh,
    which is exactly the aliasing guarantee needed here.
    """
    blocks: List[BasicBlock] = []
    for block in program.blocks:
        builder = ProgramDAG()
        roots = [builder.add_statement(statement) for statement in block.statements]
        blocks.append(
            BasicBlock(
                name=block.name,
                statements=[
                    Statement(
                        destination=statement.destination,
                        expression=builder.dag.to_expr(root),
                        destination_index=(
                            None
                            if statement.destination_index is None
                            else copy_expr(statement.destination_index)
                        ),
                    )
                    for statement, root in zip(block.statements, roots)
                ],
                terminator=copy_terminator(block.terminator),
            )
        )
    return Program(
        name=program.name,
        blocks=blocks,
        scalars=list(program.scalars),
        arrays=dict(program.arrays),
        entry=program.entry,
        hw_loops=dict(program.hw_loops),
    )


def _fold_program(
    program: Program, supported_ops: Optional[Set[str]], rewrites: Dict[str, int]
) -> Program:
    """A fresh program with every statement and branch condition folded."""
    return Program(
        name=program.name,
        blocks=[
            BasicBlock(
                name=block.name,
                statements=[
                    fold_statement(
                        statement, supported_ops=supported_ops, rewrites=rewrites
                    )
                    for statement in block.statements
                ],
                terminator=_fold_terminator(block.terminator, rewrites=rewrites),
            )
            for block in program.blocks
        ],
        scalars=list(program.scalars),
        arrays=dict(program.arrays),
        entry=program.entry,
    )


def _fold_terminator(terminator, rewrites=None):
    """A fresh terminator with a folded branch condition (``None`` and
    unconditional jumps pass through as fresh copies).

    The condition never enters code selection (it runs on the branch
    logic), so the *operator-introducing* ``supported_ops`` gating does
    not apply to it -- folding runs ungated, keeping ``while (1)``-style
    conditions cheap.
    """
    if terminator is None or not isinstance(terminator, CBranch):
        return copy_terminator(terminator)
    return CBranch(
        condition=fold_expr(terminator.condition, rewrites=rewrites),
        true_target=terminator.true_target,
        false_target=terminator.false_target,
    )


#: The :class:`OptStats` counters the stages accumulate.
_STAGE_COUNTERS = (
    "cse_hits",
    "temps_introduced",
    "dead_removed",
    "loops_rotated",
    "strength_reductions",
    "licm_hoisted",
)

#: Stages that materialize compiler temporaries.  When any of them is in
#: a run's stage list, ``dce`` removes exactly the temporaries that run
#: introduced (never a user variable that shares a prefix).
_MATERIALIZING_STAGES = ("loops", "licm", "cse")


class OptPipeline:
    """An ordered, configurable sequence of optimization stages."""

    #: All known stages, in canonical order.
    STAGES: Tuple[str, ...] = ("fold", "loops", "licm", "cse", "dce")

    #: The default run: every stage.
    DEFAULT_STAGES: Tuple[str, ...] = STAGES

    def __init__(
        self,
        stages: Optional[Sequence[str]] = None,
        min_cse_occurrences: int = MIN_OCCURRENCES,
        min_cse_ops: int = MIN_OPS,
        temp_prefix: str = TEMP_PREFIX,
    ):
        self.stages: Tuple[str, ...] = (
            tuple(stages) if stages is not None else self.DEFAULT_STAGES
        )
        unknown = [stage for stage in self.stages if stage not in self.STAGES]
        if unknown:
            raise OptimizationError(
                "unknown optimization stage(s) %s; available stages: %s"
                % (", ".join(sorted(unknown)), ", ".join(self.STAGES))
            )
        self.min_cse_occurrences = min_cse_occurrences
        self.min_cse_ops = min_cse_ops
        self.temp_prefix = temp_prefix

    def run(
        self,
        program: Program,
        supported_ops: Optional[Set[str]] = None,
        observer: Optional[Callable[[str, Program], None]] = None,
    ) -> Tuple[Program, OptStats]:
        """Optimize ``program`` and return ``(fresh program, stats)``.

        ``observer`` (when given) is called as ``observer(stage,
        program)`` after each stage with the live working program --
        the CLI's per-stage diff rendering hook.  Later stages rewrite
        that program in place, so an observer that keeps it must copy it
        (:func:`copy_program`); observers must never mutate it."""
        from repro.opt.licm import hoist_loop_invariants
        from repro.opt.loops import (
            annotate_hardware_loops,
            rotate_counted_loops,
            strength_reduce,
        )

        rewrites: Dict[str, int] = {}
        counters = dict.fromkeys(_STAGE_COUNTERS, 0)
        # The run's only copy: a leading fold rebuilds every statement
        # fresh anyway; otherwise copy on entry.  Every other stage
        # rewrites the working program in place.
        if self.stages[:1] == ("fold",):
            current = program
        else:
            current = copy_program(program)
        # One CFG for the run: fold, cse and dce never change edges, so
        # it stays exact until a loop stage reshapes the CFG.  Without a
        # retreating edge there is no loop, and the loop stages and the
        # hardware-loop annotation have nothing to do.
        cfg = ControlFlowGraph.from_program(program)
        cyclic = cfg.has_retreating_edge()
        # Names every temporary must avoid, shared by the stages'
        # allocators and filled on the run's first allocation.
        reserved: Set[str] = set()
        # Temporaries materialized by this run's stages; dead-temp
        # elimination removes only these, never a user variable that
        # happens to share a prefix.
        introduced_temps: Set[str] = set()
        tracer = current_tracer()
        for stage in self.stages:
            with tracer.span("opt:" + stage):
                if stage == "fold":
                    current = _fold_program(current, supported_ops, rewrites)
                elif stage == "loops" and cyclic:
                    scalars_before = set(current.scalars)
                    cfg, loops = rotate_counted_loops(current, counters, cfg)
                    strength_reduce(current, counters, loops, reserved)
                    introduced_temps |= set(current.scalars) - scalars_before
                elif stage == "licm" and cyclic:
                    block_count = len(current.blocks)
                    introduced_temps |= hoist_loop_invariants(
                        current, counters, cfg=cfg, reserved=reserved
                    )
                    if len(current.blocks) != block_count:
                        cfg = ControlFlowGraph.from_program(current)
                elif stage == "cse":
                    introduced_temps |= eliminate_common_subexpressions(
                        current,
                        min_occurrences=self.min_cse_occurrences,
                        min_ops=self.min_cse_ops,
                        temp_prefix=self.temp_prefix,
                        counters=counters,
                        reserved=reserved,
                    )
                elif stage == "dce":
                    # With a materializing stage in this run, only its
                    # temps are removable (a user scalar named "__cse0"
                    # is safe); without one, fall back to the documented
                    # standalone prefix semantics so "--stages dce" is
                    # not a no-op.
                    standalone = not any(
                        name in self.stages for name in _MATERIALIZING_STAGES
                    )
                    eliminate_dead_temporaries(
                        current,
                        temp_prefix=self.temp_prefix,
                        counters=counters,
                        temps=None if standalone else introduced_temps,
                    )
            if observer is not None:
                observer(stage, current)
        # Annotations are re-derived, never carried: any stage may have
        # changed a loop body.  They are kept whenever the input had
        # some or the loop stage ran.
        if "loops" in self.stages or program.hw_loops:
            current.hw_loops = annotate_hardware_loops(current, cfg) if cyclic else {}
        folds, algebraic = split_rewrite_counts(rewrites)
        return current, OptStats(
            nodes_before=program.expression_node_count(),
            nodes_after=current.expression_node_count(),
            statements_before=program.statement_count(),
            statements_after=current.statement_count(),
            folds=folds,
            algebraic=algebraic,
            hw_loops=len(current.hw_loops),
            rewrites=rewrites,
            **counters,
        )


def optimize_program(
    program: Program,
    stages: Optional[Sequence[str]] = None,
    supported_ops: Optional[Set[str]] = None,
) -> Tuple[Program, OptStats]:
    """One-call convenience over :class:`OptPipeline`."""
    return OptPipeline(stages=stages).run(program, supported_ops=supported_ops)
