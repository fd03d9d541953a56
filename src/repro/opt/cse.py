"""Cross-statement common-subexpression and dead-temporary elimination.

CSE works on the versioned :class:`~repro.opt.dag.ProgramDAG`: two
occurrences share a DAG node only when they provably compute the same
value (variable/port leaves are keyed on their reaching definition), so
the transformation is hazard-free by construction -- a write between two
textually identical trees gives them different value numbers and they are
never merged.

A repeated operation node is *materialized* into a compiler-generated
temporary (``__cse0``, ``__cse1``, ...) hoisted immediately before the
first statement that uses it.  At that point every input leaf still holds
exactly the version the value number was built from (the first use's
right-hand side is evaluated there anyway), and all later occurrences
read the stored temporary, which no subsequent write can invalidate.
Candidates must be operation nodes with at least ``min_occurrences`` uses
and ``min_ops`` operator nodes (materializing a lone load-sized node
trades nothing), and must not read input ports (a port read is never
duplicated or elided).

Dead-temporary elimination is the matching cleanup: a backward liveness
pass that removes assignments to compiler temporaries never read
afterwards.  User-visible destinations (program variables, output ports)
are always kept -- they are the observable surface the differential suite
compares.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.expr import VarRef, expr_variables
from repro.ir.program import BasicBlock, Program, Statement
from repro.opt.dag import (
    DAGNode,
    ExprDAG,
    ProgramDAG,
    _make_expr,
    copy_expr,
    copy_terminator,
)

#: Prefix of compiler-generated CSE temporaries.
TEMP_PREFIX = "__cse"

#: Every prefix any optimizer stage materializes temporaries under:
#: CSE (``__cse``), loop-invariant code motion (``__licm``) and
#: strength reduction (``__sr``).  Observability filters (the fuzz
#: oracles, the differential suites, the pipeline verifier) treat all
#: three as compiler-internal names.
OPT_TEMP_PREFIXES = ("__cse", "__licm", "__sr")

#: Default materialization thresholds: a candidate must occur at least
#: twice and contain at least two operator nodes, so the temporary's
#: store/load traffic is paid for by whole re-computations saved.
MIN_OCCURRENCES = 2
MIN_OPS = 2


def is_temp(name: str, temp_prefix: str = TEMP_PREFIX) -> bool:
    return name.startswith(temp_prefix)


def _candidate_ids(
    dag: ExprDAG, min_occurrences: int, min_ops: int
) -> Set[int]:
    return {
        node.id
        for node in dag.nodes
        if node.is_operation()
        and dag.uses[node.id] >= min_occurrences
        and dag.op_counts[node.id] >= min_ops
        and not dag.has_port[node.id]
    }


def _rebuild_with_temps(
    dag: ExprDAG,
    root: int,
    candidates: Set[int],
    materialized: Dict[int, str],
    hoisted: List[Statement],
    alloc_temp: Callable[[], str],
    counters: Dict[str, int],
):
    """Rebuild one statement expression from the DAG, hoisting not-yet
    materialized candidates into temporary assignments (appended to
    ``hoisted``, innermost first).  Explicit-stack post-order; every
    produced IR node is freshly constructed."""
    exprs: Dict[int, object] = {}
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        node_id, expanded = stack.pop()
        if node_id in exprs:
            continue
        name = materialized.get(node_id)
        if name is not None:
            counters["cse_hits"] += 1
            exprs[node_id] = VarRef(name)
            continue
        node: DAGNode = dag.nodes[node_id]
        if not expanded and node.children:
            stack.append((node_id, True))
            for child in node.children:
                if child not in exprs:
                    stack.append((child, False))
            continue
        built = _make_expr(node, [exprs[c] for c in node.children])
        if node_id in candidates:
            name = alloc_temp()
            hoisted.append(Statement(destination=name, expression=built))
            materialized[node_id] = name
            counters["temps_introduced"] += 1
            counters["cse_hits"] += 1
            built = VarRef(name)
        exprs[node_id] = built
    return exprs[root]


def eliminate_common_subexpressions(
    program: Program,
    min_occurrences: int = MIN_OCCURRENCES,
    min_ops: int = MIN_OPS,
    temp_prefix: str = TEMP_PREFIX,
    counters: Optional[Dict[str, int]] = None,
) -> Program:
    """A fresh program with repeated subexpressions materialized into
    compiler temporaries.  ``counters`` (when given) accumulates
    ``cse_hits`` (occurrences rewritten to read a temporary) and
    ``temps_introduced``."""
    stats = counters if counters is not None else {}
    stats.setdefault("cse_hits", 0)
    stats.setdefault("temps_introduced", 0)
    # Temporary names must never collide with program variables -- a user
    # is free to declare a scalar called "__cse0".
    reserved = set(program.all_variables()) | set(program.scalars)
    temp_serial = [0]

    def alloc_temp() -> str:
        while True:
            name = "%s%d" % (temp_prefix, temp_serial[0])
            temp_serial[0] += 1
            if name not in reserved:
                reserved.add(name)
                return name

    new_blocks: List[BasicBlock] = []
    temps: List[str] = []
    for block in program.blocks:
        builder = ProgramDAG()
        roots = [builder.add_statement(statement) for statement in block.statements]
        dag = builder.dag
        candidates = _candidate_ids(dag, min_occurrences, min_ops)
        materialized: Dict[int, str] = {}
        statements: List[Statement] = []
        for statement, root in zip(block.statements, roots):
            hoisted: List[Statement] = []
            expression = _rebuild_with_temps(
                dag, root, candidates, materialized, hoisted, alloc_temp, stats
            )
            statements.extend(hoisted)
            destination_index = statement.destination_index
            if destination_index is not None:
                destination_index = copy_expr(destination_index)
            statements.append(
                Statement(
                    destination=statement.destination,
                    expression=expression,
                    destination_index=destination_index,
                )
            )
        temps.extend(sorted(materialized.values()))
        new_blocks.append(
            BasicBlock(
                name=block.name,
                statements=statements,
                terminator=copy_terminator(block.terminator),
            )
        )
    return Program(
        name=program.name,
        blocks=new_blocks,
        scalars=list(program.scalars) + sorted(set(temps)),
        arrays=dict(program.arrays),
        entry=program.entry,
    )


def eliminate_dead_temporaries(
    program: Program,
    temp_prefix: str = TEMP_PREFIX,
    counters: Optional[Dict[str, int]] = None,
    temps: Optional[Set[str]] = None,
) -> Program:
    """A fresh program without assignments to compiler temporaries that
    are never read afterwards.

    ``temps`` names the temporaries eligible for removal.  The pipeline
    passes exactly the set the CSE stage materialized, so a *user*
    variable that happens to be called ``__cse0`` is never touched; when
    ``temps`` is ``None`` (standalone use) any ``temp_prefix``-named
    destination counts.  Statements (and their expression trees) are
    reused from the input program object -- callers needing full copy
    hygiene copy afterwards (see :class:`~repro.opt.pipeline.OptPipeline`).

    On straight-line programs this is the classic backward liveness
    sweep.  On CFG programs it stays conservative across block
    boundaries: a temporary read *anywhere* (any block's statements,
    store indices or branch conditions) is kept everywhere, so only
    temporaries that are never read at all are removed.
    """
    stats = counters if counters is not None else {}
    stats.setdefault("dead_removed", 0)

    def removable(name: str) -> bool:
        if temps is not None:
            return name in temps
        return is_temp(name, temp_prefix)

    def statement_reads(statement: Statement) -> Set[str]:
        reads = expr_variables(statement.expression)
        if statement.destination_index is not None:
            reads.update(expr_variables(statement.destination_index))
        return reads

    new_blocks: List[BasicBlock] = []
    live_temps: Set[str] = set()
    if program.is_straight_line():
        block = program.blocks[0]
        kept: List[Statement] = []
        needed: Set[str] = set()
        for statement in reversed(block.statements):
            destination = statement.destination
            if (
                statement.destination_index is None
                and removable(destination)
                and destination not in needed
            ):
                stats["dead_removed"] += 1
                continue
            kept.append(statement)
            if statement.destination_index is None:
                needed.discard(destination)
            kept_reads = statement_reads(statement)
            needed.update(kept_reads)
        kept.reverse()
        for statement in kept:
            if removable(statement.destination):
                live_temps.add(statement.destination)
        new_blocks.append(BasicBlock(name=block.name, statements=kept))
    else:
        # CFG-conservative: collect every name read anywhere, then drop
        # only removable destinations that are never read at all.
        read_anywhere: Set[str] = set()
        for block in program.blocks:
            for statement in block.statements:
                read_anywhere.update(statement_reads(statement))
            if block.terminator is not None:
                read_anywhere.update(block.terminator.variables())
        for block in program.blocks:
            kept = []
            for statement in block.statements:
                destination = statement.destination
                if (
                    statement.destination_index is None
                    and removable(destination)
                    and destination not in read_anywhere
                ):
                    stats["dead_removed"] += 1
                    continue
                kept.append(statement)
                if removable(destination):
                    live_temps.add(destination)
            new_blocks.append(
                BasicBlock(
                    name=block.name, statements=kept, terminator=block.terminator
                )
            )
    scalars = [
        name
        for name in program.scalars
        if not removable(name) or name in live_temps
    ]
    return Program(
        name=program.name,
        blocks=new_blocks,
        scalars=scalars,
        arrays=dict(program.arrays),
        entry=program.entry,
    )
