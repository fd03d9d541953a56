"""Offline-compiled matcher tables for the tree parser.

iburg compiles a grammar into static tables consulted by the generated
parser; :meth:`GrammarTables.build` plays the same role for our Python
matcher.  Beyond the simple rule indexes of earlier versions it now
produces a genuinely table-driven matcher backend:

* **dense interning** -- every terminal label that roots a rule pattern
  is assigned a dense integer id (``op_ids``): the match-program table is
  a list indexed by operator id, not a string-keyed dict.  Non-terminals
  get ids too (``nt_ids``), as table metadata for tooling and stats --
  node states themselves remain keyed by non-terminal name, which is the
  selector's public vocabulary;
* **linearized match programs** -- each non-chain rule pattern is
  flattened into a :class:`MatchProgram`: a pre-order tuple of constant
  instructions (terminal checks with arity/value, non-terminal leaf
  probes with their subtree path), so matching a pattern is a single
  non-recursive loop over tuples instead of a recursive descent over
  pattern objects;
* **precomputed chain closure** -- the full transitive closure of the
  chain-rule graph, per source non-terminal: for every reachable target
  the minimal extra cost and the exact rule path realizing it.  The
  labeller applies this matrix directly, eliminating the per-node
  fixpoint iteration entirely.  Ties are broken deterministically by the
  lexicographically smallest rule-index path, which both the table-driven
  and the interpretive matcher honour so their covers are identical.

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
from typing import Dict, FrozenSet, List, Tuple

from repro.grammar.grammar import PatNonterm, PatTerm, Rule, TreeGrammar

#: One linear match instruction.  Two shapes:
#:   ``(True, label, value, arity)``  -- terminal check: the current subject
#:       node must carry ``label``, the hardwired ``value`` (when not None)
#:       and exactly ``arity`` children (which are then scheduled);
#:   ``(False, nonterminal, path)``   -- non-terminal leaf probe: the current
#:       subject node must derive ``nonterminal``; ``path`` is the child-index
#:       path of this leaf inside the pattern (used by the labelling memo).
MatchInstruction = tuple

#: One chain-closure entry: ``(target, delta_cost, rule_path)`` -- deriving
#: ``target`` from the source costs ``delta_cost`` more, applying the chain
#: rules of ``rule_path`` in order (source first).
ClosureEntry = Tuple[str, int, Tuple[Rule, ...]]


@dataclass(frozen=True)
class MatchProgram:
    """A rule pattern compiled to a linear instruction tuple."""

    rule: Rule
    code: Tuple[MatchInstruction, ...]
    leaf_count: int


def linearize_pattern(rule: Rule) -> MatchProgram:
    """Flatten one non-chain rule pattern into a :class:`MatchProgram`.

    Instructions are emitted in pre-order; the matcher runs them against
    an explicit node stack, so pattern matching never recurses.
    """
    code: List[MatchInstruction] = []
    leaves = 0
    stack: List[Tuple[object, Tuple[int, ...]]] = [(rule.pattern, ())]
    while stack:
        pattern, path = stack.pop()
        if isinstance(pattern, PatNonterm):
            code.append((False, sys.intern(pattern.name), path))
            leaves += 1
            continue
        if not isinstance(pattern, PatTerm):
            raise TypeError("unexpected pattern node %r" % (pattern,))
        operands = pattern.operands
        code.append((True, sys.intern(pattern.name), pattern.value, len(operands)))
        for index in range(len(operands) - 1, -1, -1):
            stack.append((operands[index], path + (index,)))
    return MatchProgram(rule=rule, code=tuple(code), leaf_count=leaves)


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
    # Legacy rule indexes (kept -- cheap, and still the clearest view).
    rules_by_root: Dict[str, List[Rule]] = field(default_factory=dict)
    chain_rules_by_source: Dict[str, List[Rule]] = field(default_factory=dict)
    # Dense interning of pattern-root operators and non-terminals.
    op_ids: Dict[str, int] = field(default_factory=dict)
    op_names: List[str] = field(default_factory=list)
    nt_ids: Dict[str, int] = field(default_factory=dict)
    nt_names: List[str] = field(default_factory=list)
    # Linearized match programs, indexed by dense operator id.
    programs_by_op: List[Tuple[MatchProgram, ...]] = field(default_factory=list)
    # Precomputed chain closure, per source non-terminal.
    chain_closure: Dict[str, Tuple[ClosureEntry, ...]] = field(default_factory=dict)
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
        # Linearized match programs, grouped by root operator id, in rule
        # index order (which fixes the tie-break: the first matching rule
        # of equal cost wins, exactly like the interpretive matcher).
        tables.programs_by_op = [
            tuple(linearize_pattern(rule) for rule in tables.rules_by_root[name])
            for name in tables.op_names
        ]
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

    def candidate_rules(self, label: str) -> List[Rule]:
        """Non-chain rules whose pattern root carries the given terminal."""
        return self.rules_by_root.get(label, [])

    def chain_candidates(self, nonterminal: str) -> List[Rule]:
        """Chain rules that can fire once ``nonterminal`` has been derived."""
        return self.chain_rules_by_source.get(nonterminal, [])

    def programs_for(self, label: str) -> Tuple[MatchProgram, ...]:
        """The linearized match programs rooted at ``label``."""
        op = self.op_ids.get(label)
        if op is None:
            return ()
        return self.programs_by_op[op]

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
            "match_programs": sum(len(p) for p in self.programs_by_op),
            "program_instructions": sum(
                len(program.code)
                for programs in self.programs_by_op
                for program in programs
            ),
            "closure_sources": len(self.chain_closure),
            "closure_entries": sum(len(c) for c in self.chain_closure.values()),
            "build_time_s": self.build_time_s,
        }
