"""Offline-compiled matcher tables for the tree parser.

iburg compiles a grammar into static tables consulted by the generated
parser; :meth:`GrammarTables.build` plays the same role for the library
:class:`~repro.selector.burs.CodeSelector`.  The emitted selector module
(:mod:`repro.selector.emit`) reads the rule indexes and the chain
closure and linearizes the patterns itself when it renders the module:

* **dense interning** -- every terminal label that roots a rule pattern
  is assigned a dense integer id (``op_ids``, in rule order) and every
  non-terminal one too (``nt_ids``), as table metadata for tooling and
  stats;
* **one-level normal form** (the library selector) -- every non-chain
  rule becomes one row ``(lhs, cost, hardwired value, child
  non-terminals, rule)`` of its root operator, as burg normalizes a
  grammar: each distinct interior sub-pattern becomes one fresh, interned
  non-terminal with a single zero-cost row.  A row repeating the lhs and
  pattern of an earlier row at no lower cost is dropped (the
  strict-improvement tie-break never picks it); rule indices do not
  change.  Each operator also gets the set of constant values its
  patterns hardwire;
* **precomputed chain closure** -- the full transitive closure of the
  chain-rule graph, per source non-terminal: for every reachable target
  the minimal extra cost and the exact rule path realizing it.  Both
  selectors apply this matrix directly instead of a per-node fixpoint.
  Ties are broken deterministically by the lexicographically smallest
  rule-index path, so covers are deterministic.

Tables depend only on the grammar, are built once per retarget (the
``tables`` phase of :func:`repro.record.retarget.retarget`), pickle with
the :class:`~repro.record.retarget.RetargetResult` through the retarget
cache (warm starts skip generation), and are shared read-only by every
session and service thread using the selector.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.grammar.grammar import PatNonterm, PatTerm, PatternNode, Rule, TreeGrammar

#: One normal-form row: ``(lhs, cost, hardwired value or None, child
#: non-terminals, rule)``.  ``rule`` is the original grammar rule, or
#: ``None`` on the zero-cost row of a fresh interior non-terminal.
NormalRow = Tuple[str, int, Optional[int], Tuple[str, ...], Optional[Rule]]

#: The leaves of one rule pattern: ``(child-index path, non-terminal)`` in
#: left-to-right order.
LeafPaths = Tuple[Tuple[Tuple[int, ...], str], ...]

#: One chain-closure entry: ``(target, delta_cost, rule_path)`` -- deriving
#: ``target`` from the source costs ``delta_cost`` more, applying the chain
#: rules of ``rule_path`` in order (source first).
ClosureEntry = Tuple[str, int, Tuple[Rule, ...]]


def leaf_paths(pattern: PatternNode, path: Tuple[int, ...] = ()) -> LeafPaths:
    """The non-terminal leaves of ``pattern`` with their child-index paths,
    left to right (a chain rule's single leaf has the empty path)."""
    if isinstance(pattern, PatNonterm):
        return ((path, sys.intern(pattern.name)),)
    return tuple(
        leaf
        for index, operand in enumerate(pattern.operands)
        for leaf in leaf_paths(operand, path + (index,))
    )


@dataclass
class NormalForm:
    """The one-level normal form of a grammar (see :func:`normal_form`)."""

    #: Rows per operator label, in rule-index order.
    rows_by_op: Dict[str, Tuple[NormalRow, ...]]
    #: Constant values some pattern hardwires, per operator label.
    hardwired: Dict[str, FrozenSet[int]]
    fresh_nonterminals: int
    dropped_rows: int


def normal_form(rules: List[Rule]) -> NormalForm:
    """The one-level normal form of the non-chain ``rules`` (rule order).
    Fresh non-terminals are named ``#0``, ``#1``, ... (no grammar
    non-terminal starts with ``#``)."""
    rows: Dict[str, List[NormalRow]] = {}
    fresh: Dict[tuple, str] = {}
    cheapest: Dict[tuple, int] = {}
    # Few distinct child tuples recur over thousands of rules: share one
    # object each.
    shared: Dict[tuple, tuple] = {}
    dropped = 0
    for rule in rules:
        pattern = rule.pattern
        children = _child_nonterminals(pattern, rows, fresh, shared)
        key = (rule.lhs, pattern.name, pattern.value, children)
        previous = cheapest.get(key)
        if previous is not None and previous <= rule.cost:
            dropped += 1
            continue
        cheapest[key] = rule.cost
        rows.setdefault(pattern.name, []).append(
            (sys.intern(rule.lhs), rule.cost, pattern.value, children, rule)
        )
    return NormalForm(
        rows_by_op={
            sys.intern(label): tuple(label_rows) for label, label_rows in rows.items()
        },
        hardwired={
            label: frozenset(row[2] for row in label_rows if row[2] is not None)
            for label, label_rows in rows.items()
        },
        fresh_nonterminals=len(fresh),
        dropped_rows=dropped,
    )


def _child_nonterminals(
    pattern: PatTerm,
    rows: Dict[str, List[NormalRow]],
    fresh: Dict[tuple, str],
    shared: Dict[tuple, tuple],
) -> Tuple[str, ...]:
    """The child non-terminals of ``pattern``'s root, giving every interior
    operand its fresh non-terminal (and row) on first sight.  An operand
    is keyed on ``(label, value, child non-terminals)``: fresh names
    already identify the deeper sub-patterns, so one flat key interns a
    whole subtree."""
    names = []
    for operand in pattern.operands:
        if isinstance(operand, PatNonterm):
            names.append(sys.intern(operand.name))
            continue
        children = _child_nonterminals(operand, rows, fresh, shared)
        key = (operand.name, operand.value, children)
        name = fresh.get(key)
        if name is None:
            name = fresh[key] = sys.intern("#%d" % len(fresh))
            rows.setdefault(operand.name, []).append((name, 0, operand.value, children, None))
        names.append(name)
    key = tuple(names)
    return shared.setdefault(key, key)


def chain_closure_from(
    source: str, chain_rules_by_source: Dict[str, List[Rule]]
) -> Tuple[ClosureEntry, ...]:
    """Shortest chain-rule paths from ``source`` to every reachable
    non-terminal (the trivial ``source -> source`` entry excluded).

    Dijkstra over the chain-rule graph; ties on cost are broken by the
    lexicographically smallest rule-index path, making the result -- and
    therefore the selected covers -- deterministic.  Entries come back in
    settle order (by ``(delta, rule-index path)``).
    """
    settled: Dict[str, bool] = {}
    entries: List[ClosureEntry] = []
    heap: List[tuple] = [(0, (), source, ())]
    while heap:
        delta, index_path, nonterminal, rule_path = heapq.heappop(heap)
        if nonterminal in settled:
            continue
        settled[nonterminal] = True
        if rule_path:
            entries.append((nonterminal, delta, rule_path))
        for rule in chain_rules_by_source.get(nonterminal, ()):
            if rule.lhs in settled:
                continue
            heapq.heappush(
                heap,
                (
                    delta + rule.cost,
                    index_path + (rule.index,),
                    rule.lhs,
                    rule_path + (rule,),
                ),
            )
    return tuple(entries)


def introducible_ops(grammar: TreeGrammar) -> set:
    """Operator signatures the optimizer may *introduce* on this target.

    Operator presence in the terminal vocabulary is not enough: target
    grammars frequently support a shifter only with hard-wired amounts
    (e.g. ``shl(x, Const(1))`` from an ``x + x`` datapath), so a
    ``mul x 8 -> shl x 3`` rewrite would make a coverable tree
    uncoverable.  This scans the RT rule patterns and returns precise
    signatures: ``"shl"`` when the shift amount is an arbitrary constant
    operand, ``"shl:1"`` when only the amount 1 is hard-wired.  The scan
    runs once per grammar, in :meth:`GrammarTables.build`.
    """
    signatures = set()
    for rule in grammar.rules:
        pattern = rule.pattern
        if not isinstance(pattern, PatTerm) or pattern.name not in ("shl", "shr"):
            continue
        if len(pattern.operands) != 2:
            continue
        amount = pattern.operands[1]
        if isinstance(amount, PatTerm) and amount.name == "Const":
            if amount.value is None:
                signatures.add(pattern.name)
            else:
                signatures.add("%s:%d" % (pattern.name, amount.value))
    return signatures


@dataclass
class GrammarTables:
    """Matcher tables derived offline from one tree grammar."""

    grammar: TreeGrammar
    # Plain rule indexes (read by the target lints).
    rules_by_root: Dict[str, List[Rule]] = field(default_factory=dict)
    chain_rules_by_source: Dict[str, List[Rule]] = field(default_factory=dict)
    # Dense interning of pattern-root operators and non-terminals.
    op_ids: Dict[str, int] = field(default_factory=dict)
    op_names: List[str] = field(default_factory=list)
    nt_ids: Dict[str, int] = field(default_factory=dict)
    nt_names: List[str] = field(default_factory=list)
    # Precomputed chain closure, per source non-terminal.
    chain_closure: Dict[str, Tuple[ClosureEntry, ...]] = field(default_factory=dict)
    # One-level normal form, read by the library selector.
    normal_form: Optional[NormalForm] = None
    #: Operator signatures the IR optimizer may introduce on this target
    #: (see :func:`introducible_ops`).
    introducible_ops: FrozenSet[str] = frozenset()
    #: Wall-clock seconds spent building these tables (the ``tables``
    #: retargeting phase).
    build_time_s: float = 0.0

    @classmethod
    def build(cls, grammar: TreeGrammar) -> "GrammarTables":
        from repro.obs.trace import current_tracer

        started = time.perf_counter()
        with current_tracer().span(
            "tables:build", rules=len(grammar.rules)
        ):
            tables = cls._build_inner(grammar)
        tables.build_time_s = time.perf_counter() - started
        return tables

    @classmethod
    def _build_inner(cls, grammar: TreeGrammar) -> "GrammarTables":
        tables = cls(grammar=grammar)
        for rule in grammar.rules:
            if isinstance(rule.pattern, PatNonterm):
                tables.chain_rules_by_source.setdefault(rule.pattern.name, []).append(rule)
            elif isinstance(rule.pattern, PatTerm):
                tables.rules_by_root.setdefault(rule.pattern.name, []).append(rule)
        # Dense ids: pattern-root operators in first-appearance (rule index)
        # order, non-terminals in sorted order.
        for rule in grammar.rules:
            if isinstance(rule.pattern, PatTerm) and rule.pattern.name not in tables.op_ids:
                tables.op_ids[sys.intern(rule.pattern.name)] = len(tables.op_names)
                tables.op_names.append(rule.pattern.name)
        for name in sorted(grammar.nonterminals):
            tables.nt_ids[sys.intern(name)] = len(tables.nt_names)
            tables.nt_names.append(name)
        tables.normal_form = normal_form(
            [rule for rule in grammar.rules if isinstance(rule.pattern, PatTerm)]
        )
        # Full chain closure from every non-terminal that can appear in a
        # node state (any rule lhs) -- precomputing from all lhs symbols
        # keeps the labeller lookup total.
        sources = {rule.lhs for rule in grammar.rules}
        sources.update(tables.chain_rules_by_source)
        for source in sorted(sources):
            closure = chain_closure_from(source, tables.chain_rules_by_source)
            if closure:
                tables.chain_closure[source] = closure
        tables.introducible_ops = frozenset(introducible_ops(grammar))
        return tables

    # -- lookups ---------------------------------------------------------------

    def closure_from(self, source: str) -> Tuple[ClosureEntry, ...]:
        """The precomputed chain closure of ``source``."""
        return self.chain_closure.get(source, ())

    def stats(self) -> Dict[str, object]:
        return {
            "root_labels": len(self.rules_by_root),
            "indexed_rules": sum(len(r) for r in self.rules_by_root.values()),
            "chain_sources": len(self.chain_rules_by_source),
            "chain_rules": sum(len(r) for r in self.chain_rules_by_source.values()),
            "operators": len(self.op_names),
            "nonterminals": len(self.nt_names),
            "closure_sources": len(self.chain_closure),
            "closure_entries": sum(len(c) for c in self.chain_closure.values()),
            "normal_form_rows": sum(len(r) for r in self.normal_form.rows_by_op.values()),
            "fresh_nonterminals": self.normal_form.fresh_nonterminals,
            "dropped_rows": self.normal_form.dropped_rows,
            "build_time_s": self.build_time_s,
        }
