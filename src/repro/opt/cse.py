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

Dead-temporary elimination is the matching cleanup: it removes
assignments to compiler temporaries that nothing in the program reads,
repeating until a chain of such temporaries is gone.  User-visible
destinations (program variables, output ports) are always kept -- they
are the observable surface the differential suite compares.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.expr import VarRef, expr_variables
from repro.ir.program import Program, Statement
from repro.opt.dag import DAGNode, ExprDAG, ProgramDAG, _make_expr

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


def temp_allocator(
    prefix: str, program: Program, reserved: Optional[Set[str]] = None
) -> Callable[[], str]:
    """Allocator of fresh ``<prefix><n>`` temporaries for ``program``.

    Names never collide with program variables -- a user is free to
    declare a scalar called ``__cse0``.  ``reserved``, the names to
    avoid, may be shared by every allocator of one optimizer run: while
    still empty it is filled from the program's variables on the first
    allocation, and each name handed out joins it."""
    reserved = set() if reserved is None else reserved
    serial = itertools.count()

    def alloc() -> str:
        if not reserved:
            reserved.update(program.all_variables(), program.scalars)
        while True:
            name = "%s%d" % (prefix, next(serial))
            if name not in reserved:
                reserved.add(name)
                return name

    return alloc


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
    reserved: Optional[Set[str]] = None,
) -> Set[str]:
    """Materialize repeated subexpressions of ``program`` into compiler
    temporaries, in place.  Only blocks with a candidate are rewritten.
    ``reserved`` is the run's shared name set (see
    :func:`temp_allocator`).  Returns the temporaries introduced;
    ``counters`` (when given) accumulates ``cse_hits`` (occurrences
    rewritten to read a temporary) and ``temps_introduced``."""
    stats = counters if counters is not None else {}
    stats.setdefault("cse_hits", 0)
    stats.setdefault("temps_introduced", 0)
    alloc_temp = temp_allocator(temp_prefix, program, reserved)
    temps: Set[str] = set()
    for block in program.blocks:
        builder = ProgramDAG()
        roots = [builder.add_statement(statement) for statement in block.statements]
        dag = builder.dag
        candidates = _candidate_ids(dag, min_occurrences, min_ops)
        if not candidates:
            continue
        materialized: Dict[int, str] = {}
        statements: List[Statement] = []
        for statement, root in zip(block.statements, roots):
            hoisted: List[Statement] = []
            statement.expression = _rebuild_with_temps(
                dag, root, candidates, materialized, hoisted, alloc_temp, stats
            )
            statements.extend(hoisted)
            statements.append(statement)
        block.statements = statements
        temps.update(materialized.values())
    program.scalars.extend(sorted(temps))
    return temps


def eliminate_dead_temporaries(
    program: Program,
    temp_prefix: str = TEMP_PREFIX,
    counters: Optional[Dict[str, int]] = None,
    temps: Optional[Set[str]] = None,
) -> int:
    """Remove assignments to compiler temporaries that nothing reads, in
    place; returns the number removed.

    ``temps`` names the temporaries eligible for removal.  The pipeline
    passes exactly the set its materializing stages introduced, so a
    *user* variable that happens to be called ``__cse0`` is never
    touched; when ``temps`` is ``None`` (standalone use) any
    ``temp_prefix``-named destination counts.

    The rule is flow-insensitive: an assignment goes when no statement,
    store index or branch condition in any block reads its temporary,
    repeated until nothing more is removed.
    """
    stats = counters if counters is not None else {}
    stats.setdefault("dead_removed", 0)
    if temps is not None and not temps:
        return 0
    removed = 0

    def removable(name: str) -> bool:
        if temps is not None:
            return name in temps
        return is_temp(name, temp_prefix)

    def statement_reads(statement: Statement) -> Set[str]:
        reads = expr_variables(statement.expression)
        if statement.destination_index is not None:
            reads.update(expr_variables(statement.destination_index))
        return reads

    while True:
        read_anywhere: Set[str] = set()
        for block in program.blocks:
            for statement in block.statements:
                read_anywhere.update(statement_reads(statement))
            if block.terminator is not None:
                read_anywhere.update(block.terminator.variables())
        removed_now = 0
        for block in program.blocks:
            kept = [
                statement
                for statement in block.statements
                if statement.destination_index is not None
                or not removable(statement.destination)
                or statement.destination in read_anywhere
            ]
            removed_now += len(block.statements) - len(kept)
            block.statements = kept
        if not removed_now:
            break
        removed += removed_now
    live_temps = {
        statement.destination
        for block in program.blocks
        for statement in block.statements
        if removable(statement.destination)
    }
    program.scalars = [
        name
        for name in program.scalars
        if not removable(name) or name in live_temps
    ]
    stats["dead_removed"] += removed
    return removed
