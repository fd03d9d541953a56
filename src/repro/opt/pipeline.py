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

After a run that included the ``loops`` stage, counted single-block
self-loops of the result carry :class:`~repro.ir.program.HardwareLoop`
annotations in ``Program.hw_loops``, the hook the backend's
zero-overhead repeat lowering keys on.

Copy hygiene is part of the contract: the returned program never shares
statement or expression objects with the input (mirroring the
``code.instances`` aliasing rules of the pass pipeline), so callers may
mutate either side freely.  The pipeline is target-independent; passing
the target grammar's operator vocabulary as ``supported_ops`` merely
gates operator-introducing rewrites (see :mod:`repro.opt.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import ReproError
from repro.ir.program import BasicBlock, CBranch, Program, Statement
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
        return {
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "statements_before": self.statements_before,
            "statements_after": self.statements_after,
            "folds": self.folds,
            "algebraic": self.algebraic,
            "cse_hits": self.cse_hits,
            "licm_hoisted": self.licm_hoisted,
            "strength_reductions": self.strength_reductions,
            "loops_rotated": self.loops_rotated,
            "hw_loops": self.hw_loops,
            "temps_introduced": self.temps_introduced,
            "dead_removed": self.dead_removed,
            "rewrites": dict(self.rewrites),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OptStats":
        return cls(
            nodes_before=data.get("nodes_before", 0),
            nodes_after=data.get("nodes_after", 0),
            statements_before=data.get("statements_before", 0),
            statements_after=data.get("statements_after", 0),
            folds=data.get("folds", 0),
            algebraic=data.get("algebraic", 0),
            cse_hits=data.get("cse_hits", 0),
            licm_hoisted=data.get("licm_hoisted", 0),
            strength_reductions=data.get("strength_reductions", 0),
            loops_rotated=data.get("loops_rotated", 0),
            hw_loops=data.get("hw_loops", 0),
            temps_introduced=data.get("temps_introduced", 0),
            dead_removed=data.get("dead_removed", 0),
            rewrites=dict(data.get("rewrites", {})),
        )


def _program_nodes(program: Program) -> int:
    return program.expression_node_count()


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
        program)`` after each stage with the stage's result -- the CLI's
        per-stage diff rendering hook.  Observers must not mutate the
        program they are shown."""
        from repro.opt.licm import hoist_loop_invariants
        from repro.opt.loops import (
            annotate_hardware_loops,
            rotate_counted_loops,
            strength_reduce,
        )

        stats = OptStats(
            nodes_before=_program_nodes(program),
            statements_before=program.statement_count(),
        )
        counters: Dict[str, int] = {
            "cse_hits": 0,
            "temps_introduced": 0,
            "dead_removed": 0,
            "loops_rotated": 0,
            "strength_reductions": 0,
            "licm_hoisted": 0,
        }
        current = program
        produced_fresh = False
        # Temporaries materialized by this run's stages; dead-temp
        # elimination removes only these, never a user variable that
        # happens to share a prefix.
        introduced_temps: Set[str] = set()
        for stage in self.stages:
            if stage == "fold":
                current = Program(
                    name=current.name,
                    blocks=[
                        BasicBlock(
                            name=block.name,
                            statements=[
                                fold_statement(
                                    statement,
                                    supported_ops=supported_ops,
                                    rewrites=stats.rewrites,
                                )
                                for statement in block.statements
                            ],
                            terminator=_fold_terminator(
                                block.terminator, rewrites=stats.rewrites
                            ),
                        )
                        for block in current.blocks
                    ],
                    scalars=list(current.scalars),
                    arrays=dict(current.arrays),
                    entry=current.entry,
                )
                produced_fresh = True
            elif stage == "loops":
                current = copy_program(current)
                scalars_before = set(current.scalars)
                rotate_counted_loops(current, counters)
                strength_reduce(current, counters)
                introduced_temps |= set(current.scalars) - scalars_before
                produced_fresh = True
            elif stage == "licm":
                current = copy_program(current)
                introduced_temps |= hoist_loop_invariants(current, counters)
                produced_fresh = True
            elif stage == "cse":
                scalars_before = set(current.scalars)
                current = eliminate_common_subexpressions(
                    current,
                    min_occurrences=self.min_cse_occurrences,
                    min_ops=self.min_cse_ops,
                    temp_prefix=self.temp_prefix,
                    counters=counters,
                )
                introduced_temps |= set(current.scalars) - scalars_before
                produced_fresh = True
            elif stage == "dce":
                # DCE reuses surviving statement objects; freshness comes
                # from an earlier stage or the final copy below.  With a
                # materializing stage in this run, only its temps are
                # removable (a user scalar named "__cse0" is safe);
                # without one, fall back to the documented standalone
                # prefix semantics so "--stages dce" is not a no-op.
                standalone = not any(
                    name in self.stages for name in _MATERIALIZING_STAGES
                )
                current = eliminate_dead_temporaries(
                    current,
                    temp_prefix=self.temp_prefix,
                    counters=counters,
                    temps=None if standalone else introduced_temps,
                )
            if observer is not None:
                observer(stage, current)
        if not produced_fresh:
            current = copy_program(current)
        if "loops" in self.stages:
            current.hw_loops = annotate_hardware_loops(current)
            stats.hw_loops = len(current.hw_loops)
        stats.folds, stats.algebraic = split_rewrite_counts(stats.rewrites)
        stats.cse_hits = counters["cse_hits"]
        stats.licm_hoisted = counters["licm_hoisted"]
        stats.strength_reductions = counters["strength_reductions"]
        stats.loops_rotated = counters["loops_rotated"]
        stats.temps_introduced = counters["temps_introduced"]
        stats.dead_removed = counters["dead_removed"]
        stats.nodes_after = _program_nodes(current)
        stats.statements_after = current.statement_count()
        return current, stats


def optimize_program(
    program: Program,
    stages: Optional[Sequence[str]] = None,
    supported_ops: Optional[Set[str]] = None,
) -> Tuple[Program, OptStats]:
    """One-call convenience over :class:`OptPipeline`."""
    return OptPipeline(stages=stages).run(program, supported_ops=supported_ops)
