"""Interned expression DAGs over the IR (program-scoped value numbering).

The selector-side :class:`~repro.selector.subject.StructurePool` hash-conses
*subject trees* so the labeller can memoize node states.  This module does
the analogous interning one level up, on :mod:`repro.ir` expression trees,
but *scoped to one program region*: two occurrences of an expression share
one DAG node exactly when they are structurally identical **and** provably
compute the same value at both occurrence sites.

That second condition is what plain structural hashing cannot give: in ::

    y0 = a * b + c;
    a  = a + 1;
    y1 = a * b + c;

the two ``a * b + c`` trees are structurally identical but read different
values of ``a``.  The :class:`ProgramDAG` therefore keys every variable
(and port) leaf on the variable's *version* -- a counter bumped whenever a
statement assigns the name -- so value numbers bake in exactly which
definition each leaf reads.  Equal node ids then mean equal runtime values
regardless of any writes between the occurrences, which is the invariant
the cross-statement CSE of :mod:`repro.opt.cse` relies on.

Use counts are DAG-edge counts (one per distinct parent slot, plus one per
statement-root occurrence), so a subexpression that only ever appears
inside one repeated parent counts a single use: materializing the parent
is enough, the child comes along for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.expr import ArrayRef, Const, IRNode, Op, PortInput, VarRef
from repro.ir.program import BasicBlock, Statement


@dataclass(frozen=True)
class DAGNode:
    """One interned expression value.

    ``kind`` is ``"const"`` / ``"var"`` / ``"port"`` / ``"aref"`` /
    ``"op"``; ``label`` carries the variable, port, array or operator
    name; ``value`` the constant value; ``children`` the ids of the
    operand nodes (for ``"aref"``: the index expression).
    """

    id: int
    kind: str
    label: str = ""
    value: int = 0
    children: Tuple[int, ...] = ()

    def is_operation(self) -> bool:
        return self.kind == "op"


class ExprDAG:
    """The interning pool: structural keys to dense node ids.

    Tracks, per node: ``uses`` (distinct parent edges + statement-root
    occurrences), ``op_counts`` (number of operator nodes in the subtree,
    the optimizer's size measure) and ``has_port`` (whether the subtree
    reads a primary input port -- port reads are never duplicated *or*
    deleted by the optimizer, so they poison CSE/discard rewrites).
    """

    def __init__(self):
        self._ids: Dict[tuple, int] = {}
        self.nodes: List[DAGNode] = []
        self.uses: List[int] = []
        self.op_counts: List[int] = []
        self.has_port: List[bool] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> DAGNode:
        return self.nodes[node_id]

    def intern(self, key: tuple, kind: str, label: str, value: int,
               children: Tuple[int, ...]) -> int:
        """Intern one node; edges to children are counted exactly once
        (on creation), so ``uses`` stays a distinct-parent count."""
        got = self._ids.get(key)
        if got is not None:
            return got
        node_id = len(self.nodes)
        self._ids[key] = node_id
        self.nodes.append(
            DAGNode(id=node_id, kind=kind, label=label, value=value, children=children)
        )
        self.op_counts.append(
            (1 if kind == "op" else 0) + sum(self.op_counts[c] for c in children)
        )
        self.has_port.append(
            kind == "port" or any(self.has_port[c] for c in children)
        )
        self.uses.append(0)
        for child in children:
            self.uses[child] += 1
        return node_id

    def to_expr(self, node_id: int) -> IRNode:
        """Rebuild a fresh IR expression tree for one DAG node
        (explicit-stack post-order; deep chains never hit the recursion
        limit).  Every returned node object is newly constructed."""
        built: Dict[int, IRNode] = {}
        stack: List[Tuple[int, bool]] = [(node_id, False)]
        while stack:
            current, expanded = stack.pop()
            if current in built:
                continue
            node = self.nodes[current]
            if not expanded and node.children:
                stack.append((current, True))
                for child in node.children:
                    if child not in built:
                        stack.append((child, False))
                continue
            built[current] = _make_expr(node, [built[c] for c in node.children])
        return built[node_id]


def _make_expr(node: DAGNode, children: List[IRNode]) -> IRNode:
    if node.kind == "const":
        return Const(node.value)
    if node.kind == "var":
        return VarRef(node.label)
    if node.kind == "port":
        return PortInput(node.label)
    if node.kind == "aref":
        return ArrayRef(node.label, children[0])
    return Op(node.label, tuple(children))


class ProgramDAG:
    """Versioned value numbering over the statements of one basic block.

    Feed statements in program order through :meth:`add_statement`; the
    builder interns every subexpression into :attr:`dag`, records one root
    id per statement in :attr:`roots`, and bumps the destination's version
    *after* interning the right-hand side (a statement reads its inputs
    before it writes, so ``x = x + 1`` reads the old version of ``x``).
    """

    def __init__(self):
        self.dag = ExprDAG()
        self.roots: List[int] = []
        self._versions: Dict[str, int] = {}
        # Array write tracking for runtime-indexed accesses: a *dynamic*
        # store (``a[i] = ...``) may write any element, so element leaves
        # of ``a`` are additionally keyed on the array's dynamic-store
        # epoch; an ``a[j]`` *read* may read any element, so ``aref``
        # nodes are keyed on the epoch of *any* store into ``a``
        # (constant-index or dynamic).  Equal node ids keep meaning equal
        # runtime values in the presence of array writes.
        self._dynamic_epochs: Dict[str, int] = {}
        self._store_epochs: Dict[str, int] = {}

    def version_of(self, name: str) -> int:
        return self._versions.get(name, 0)

    @staticmethod
    def _array_of(name: str) -> Optional[str]:
        """The base array of an element name (``"a[3]" -> "a"``)."""
        bracket = name.find("[")
        return name[:bracket] if bracket > 0 else None

    def dynamic_epoch_of(self, array: str) -> int:
        return self._dynamic_epochs.get(array, 0)

    def store_epoch_of(self, array: str) -> int:
        return self._store_epochs.get(array, 0)

    def add_statement(self, statement: Statement) -> int:
        if statement.destination_index is not None:
            # The index expression is read by the store; intern it so its
            # subexpressions participate in value numbering like any read.
            self.intern_expr(statement.destination_index)
        root = self.intern_expr(statement.expression)
        self.dag.uses[root] += 1  # statement-root occurrence
        self.roots.append(root)
        destination = statement.destination
        self._versions[destination] = self.version_of(destination) + 1
        if statement.destination_index is not None:
            self._dynamic_epochs[destination] = self.dynamic_epoch_of(destination) + 1
            self._store_epochs[destination] = self.store_epoch_of(destination) + 1
        else:
            array = self._array_of(destination)
            if array is not None:
                self._store_epochs[array] = self.store_epoch_of(array) + 1
        return root

    def intern_expr(self, expr: IRNode) -> int:
        """Intern one IR expression bottom-up (explicit stack)."""
        dag = self.dag
        results: List[int] = []
        stack: List[Tuple[IRNode, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Const):
                key = ("const", node.value)
                results.append(dag.intern(key, "const", "", node.value, ()))
                continue
            if isinstance(node, VarRef):
                key = ("var", node.name, self.version_of(node.name))
                array = self._array_of(node.name)
                if array is not None:
                    key = key + (self.dynamic_epoch_of(array),)
                results.append(dag.intern(key, "var", node.name, 0, ()))
                continue
            if isinstance(node, PortInput):
                key = ("port", node.port, self.version_of("@%s" % node.port))
                results.append(dag.intern(key, "port", node.port, 0, ()))
                continue
            if isinstance(node, ArrayRef):
                if expanded:
                    index_id = results.pop()
                    key = ("aref", node.name, self.store_epoch_of(node.name), index_id)
                    results.append(
                        dag.intern(key, "aref", node.name, 0, (index_id,))
                    )
                    continue
                stack.append((node, True))
                stack.append((node.index, False))
                continue
            if not isinstance(node, Op):
                raise TypeError("unexpected IR node %r" % type(node).__name__)
            if expanded:
                arity = len(node.operands)
                children = tuple(results[len(results) - arity:]) if arity else ()
                del results[len(results) - arity:]
                key = ("op", node.op, children)
                results.append(dag.intern(key, "op", node.op, 0, children))
                continue
            stack.append((node, True))
            for operand in reversed(node.operands):
                stack.append((operand, False))
        return results[0]


def build_block_dag(block: BasicBlock) -> ProgramDAG:
    """The versioned expression DAG of one basic block's statements."""
    builder = ProgramDAG()
    for statement in block.statements:
        builder.add_statement(statement)
    return builder


def copy_expr(expr: IRNode) -> IRNode:
    """A fresh, alias-free copy of one expression tree (explicit-stack,
    via the interning machinery's rebuilders)."""
    builder = ProgramDAG()
    return builder.dag.to_expr(builder.intern_expr(expr))


def copy_terminator(terminator):
    """A fresh copy of a block terminator (``None`` passes through)."""
    from repro.ir.program import CBranch, Jump

    if terminator is None:
        return None
    if isinstance(terminator, Jump):
        return Jump(target=terminator.target)
    if isinstance(terminator, CBranch):
        return CBranch(
            condition=copy_expr(terminator.condition),
            true_target=terminator.true_target,
            false_target=terminator.false_target,
        )
    raise TypeError("unexpected terminator %r" % type(terminator).__name__)
