"""BURS tree parsing with an on-demand, cost-normalized automaton.

The labeller assigns every subject node, bottom-up, a *state*: for every
non-terminal the node derives, the cheapest rule deriving it (including
chain-rule closure).  The reducer then walks the optimal derivation
top-down from the start symbol and returns the ordered list of selected
rules (the *cover*), children before parents, so that RT rules can be
emitted directly as instructions.  The derivations are optimal with
respect to the accumulated rule costs, mirroring the guarantee of parsers
generated by iburg.

States are those of a BURS automaton built on demand (Proebsting, "BURS
automata generation", TOPLAS 1995; Ertl, Casey & Gregg, PLDI 2006): a
state stores costs *relative to its cheapest entry*, and equal states are
interned into one object.  A node's state then depends only on its label,
its constant value (when some pattern hardwires one) and its children's
states, so it is one dict lookup on that key.  A miss computes the
transition from the one-level normal form of
:class:`~repro.selector.tables.GrammarTables` and the precomputed chain
closure, with strict-improvement updates in rule order (the first rule of
equal cost wins), and caches it.  Absolute costs stay exact: a node's
offset is its transition's minimum plus its children's offsets, so the
cost of a whole cover is the root's relative cost plus the sum of the
minima over the tree.

The reference covers come from outside this module: the emitted selector
(:mod:`repro.selector.emit`, the iburg-style generated parser every
retarget builds) runs the plain dynamic program over the full rule list
and must reduce every subject tree to the same rule sequence, and the
test suite checks per-node costs against the seed's fixpoint labeller
reimplemented from the grammar alone.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.grammar.grammar import Rule, RuleKind, TreeGrammar
from repro.selector.subject import SubjectNode
from repro.selector.tables import GrammarTables, LeafPaths, leaf_paths


class SelectionError(Exception):
    """Raised when a subject tree has no derivation from the start symbol."""


@dataclass
class Match:
    """The best known way to derive a subject node from one non-terminal."""

    cost: int
    rule: Rule
    # For every non-terminal leaf of the rule pattern (in left-to-right
    # order): the subject node it matched and the required non-terminal.
    leaves: List[Tuple[SubjectNode, str]]


@dataclass
class Reduction:
    """One rule application in the optimal cover."""

    rule: Rule
    node: SubjectNode
    nonterminal: str
    leaves: List[Tuple[SubjectNode, str]]


@dataclass
class SelectionResult:
    """The optimal cover of a subject tree."""

    cost: int
    reductions: List[Reduction]

    def rt_reductions(self) -> List[Reduction]:
        """Only the reductions that correspond to actual RT instructions."""
        return [r for r in self.reductions if r.rule.kind == RuleKind.RT]

    def rule_indices(self) -> List[int]:
        return [r.rule.index for r in self.reductions]


class _State:
    """One interned automaton state.

    ``costs`` maps every derivable non-terminal (fresh normal-form ones
    included) to its cost relative to the state's cheapest entry;
    ``rules`` maps every derivable grammar non-terminal to the chosen
    original rule and that rule's leaf paths.  States compare by identity:
    interning makes equal states one object.
    """

    __slots__ = ("costs", "rules")

    def __init__(self, costs: Dict[str, int], rules: Dict[str, Tuple[Rule, LeafPaths]]):
        self.costs = costs
        self.rules = rules


#: A cached transition: the target state and the minimum it subtracted.
_Transition = Tuple[_State, int]


def _leaves(node: SubjectNode, paths: LeafPaths) -> List[Tuple[SubjectNode, str]]:
    leaves = []
    for path, nonterminal in paths:
        leaf = node
        for index in path:
            leaf = leaf.children[index]
        leaves.append((leaf, nonterminal))
    return leaves


class _NodeLabel(Mapping):
    """One node's entry in :meth:`CodeSelector.label`: a read-only view of
    its state at its absolute offset, building each :class:`Match` on
    access (a caller rarely reads every non-terminal of every node)."""

    __slots__ = ("_node", "_state", "_offset")

    def __init__(self, node: SubjectNode, state: _State, offset: int):
        self._node = node
        self._state = state
        self._offset = offset

    def __getitem__(self, nonterminal: str) -> Match:
        rule, paths = self._state.rules[nonterminal]
        return Match(
            cost=self._state.costs[nonterminal] + self._offset,
            rule=rule,
            leaves=_leaves(self._node, paths),
        )

    def __iter__(self):
        return iter(self._state.rules)

    def __len__(self) -> int:
        return len(self._state.rules)


class CodeSelector:
    """A processor-specific code selector for expression trees.

    The selector is safe to share across threads: the grammar tables are
    immutable after construction, transition lookups are lock-free dict
    reads, and a transition miss is computed under a lock (pooled
    sessions share one selector between service threads).
    """

    def __init__(self, grammar: TreeGrammar, tables: Optional[GrammarTables] = None):
        self.grammar = grammar
        self.tables = tables if tables is not None else GrammarTables.build(grammar)
        self._init_cache()

    _RUNTIME = (
        "_transitions", "_states", "_lock", "nodes_labelled", "memo_hits", "memo_misses"
    )

    def _init_cache(self) -> None:
        # (label, hardwired value or None, *child states) -> transition.
        self._transitions: Dict[tuple, _Transition] = {}
        self._states: Dict[frozenset, _State] = {}
        self._lock = threading.Lock()
        # Lifetime counters; memo_hits + memo_misses == nodes_labelled.
        self.nodes_labelled = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # The automaton and its counters are process-local runtime state; a
    # selector pickled through the retarget cache comes back without them.
    def __getstate__(self):
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._RUNTIME
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_cache()

    # -- public API -----------------------------------------------------------

    def select(self, root: SubjectNode, goal: Optional[str] = None) -> SelectionResult:
        """Optimal cover of ``root`` deriving it from ``goal`` (default: the
        grammar start symbol)."""
        goal = goal if goal is not None else self.grammar.start
        _, states, offset = self._label(root)
        root_state = states[id(root)][0]
        if goal not in root_state.rules:
            raise SelectionError(
                "expression tree %r has no derivation from %s in the grammar of %s"
                % (root, goal, self.grammar.processor)
            )
        reductions = self._reduce(root, goal, states)
        return SelectionResult(cost=root_state.costs[goal] + offset, reductions=reductions)

    def label(self, root: SubjectNode) -> Dict[int, Mapping[str, Match]]:
        """The labelling pass: for every node (by ``id``), the best match
        of every grammar non-terminal it derives, with absolute costs.
        Each node's mapping builds a :class:`Match` when it is read."""
        order, states, _ = self._label(root)
        offsets: Dict[int, int] = {}
        labels: Dict[int, Mapping[str, Match]] = {}
        for node in reversed(order):
            state, offset = states[id(node)]
            for child in node.children:
                offset += offsets[id(child)]
            offsets[id(node)] = offset
            labels[id(node)] = _NodeLabel(node, state, offset)
        return labels

    def node_cost(self, root: SubjectNode, goal: Optional[str] = None) -> Optional[int]:
        """Cost of the optimal cover, or ``None`` when no cover exists."""
        goal = goal if goal is not None else self.grammar.start
        _, states, offset = self._label(root)
        root_state = states[id(root)][0]
        if goal not in root_state.rules:
            return None
        return root_state.costs[goal] + offset

    def stats(self) -> Dict[str, object]:
        """Labeller statistics (transition cache and table provenance)."""
        labelled = self.nodes_labelled
        return {
            "nodes_labelled": labelled,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": (self.memo_hits / labelled) if labelled else 0.0,
            "states": len(self._states),
            "transitions": len(self._transitions),
            "table_build_time_s": self.tables.build_time_s,
        }

    # -- labelling ---------------------------------------------------------------

    def _label(
        self, root: SubjectNode
    ) -> Tuple[List[SubjectNode], Dict[int, _Transition], int]:
        """The nodes of ``root`` in pre-order, the transition taken at each
        (by ``id``) and the sum of their minima, which is the root's
        absolute offset."""
        order: List[SubjectNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        transitions = self._transitions
        hardwired = self.tables.normal_form.hardwired
        states: Dict[int, _Transition] = {}
        offset = 0
        misses = 0
        # Reversed pre-order: every node comes after all of its descendants.
        for node in reversed(order):
            value = node.const_value
            if value is not None and value not in hardwired.get(node.label, ()):
                value = None
            children = node.children
            if not children:
                key: tuple = (node.label, value)
            elif len(children) == 2:
                key = (
                    node.label,
                    value,
                    states[id(children[0])][0],
                    states[id(children[1])][0],
                )
            else:
                key = (node.label, value) + tuple(
                    states[id(child)][0] for child in children
                )
            transition = transitions.get(key)
            if transition is None:
                transition, computed = self._transition(key)
                misses += computed
            states[id(node)] = transition
            offset += transition[1]
        # The three counters move together, so a concurrent reader's
        # per-run deltas are each >= 0 and hits + misses == nodes.
        with self._lock:
            self.nodes_labelled += len(order)
            self.memo_hits += len(order) - misses
            self.memo_misses += misses
        return order, states, offset

    def _transition(self, key: tuple) -> Tuple[_Transition, bool]:
        """The transition on ``key`` and whether this call computed it
        (another thread may have cached it since the lock-free lookup)."""
        with self._lock:
            transition = self._transitions.get(key)
            if transition is not None:
                return transition, False
            label, value = key[0], key[1]
            children: Tuple[_State, ...] = key[2:]
            rows = self.tables.normal_form.rows_by_op.get(label, ())
            base: Dict[str, Tuple[int, Optional[Rule]]] = {}
            for lhs, cost, hardwired, child_nonterminals, rule in rows:
                if len(child_nonterminals) != len(children):
                    continue
                if hardwired is not None and hardwired != value:
                    continue
                total = cost
                for nonterminal, child in zip(child_nonterminals, children):
                    child_cost = child.costs.get(nonterminal)
                    if child_cost is None:
                        break
                    total += child_cost
                else:
                    best = base.get(lhs)
                    if best is None or total < best[0]:
                        base[lhs] = (total, rule)
            # Chain closure from every base entry, in insertion (rule)
            # order; the closure matrix is transitive, so one pass suffices.
            entries = dict(base)
            closure_from = self.tables.closure_from
            for source, (base_cost, _rule) in base.items():
                for target, delta, rule_path in closure_from(source):
                    total = base_cost + delta
                    best = entries.get(target)
                    if best is None or total < best[0]:
                        entries[target] = (total, rule_path[-1])
            minimum = min((cost for cost, _rule in entries.values()), default=0)
            transition = (self._intern(entries, minimum), minimum)
            self._transitions[key] = transition
            return transition, True

    def _intern(
        self, entries: Dict[str, Tuple[int, Optional[Rule]]], minimum: int
    ) -> _State:
        identity = frozenset(
            (nonterminal, cost - minimum, None if rule is None else rule.index)
            for nonterminal, (cost, rule) in entries.items()
        )
        state = self._states.get(identity)
        if state is None:
            state = _State(
                {nonterminal: cost - minimum for nonterminal, (cost, _r) in entries.items()},
                {
                    nonterminal: (rule, leaf_paths(rule.pattern))
                    for nonterminal, (_c, rule) in entries.items()
                    if rule is not None
                },
            )
            self._states[identity] = state
        return state

    # -- reduction -------------------------------------------------------------------

    def _reduce(
        self,
        root: SubjectNode,
        goal: str,
        states: Dict[int, _Transition],
    ) -> List[Reduction]:
        """The optimal cover, children before parents (explicit stack; safe
        on arbitrarily deep subject trees and chain-rule paths).

        Walks parents first with leaves taken right to left, then reverses:
        that is the post-order with leaves left to right."""
        output: List[Reduction] = []
        stack: List[Tuple[SubjectNode, str]] = [(root, goal)]
        while stack:
            node, nonterminal = stack.pop()
            choice = states[id(node)][0].rules.get(nonterminal)
            if choice is None:
                raise SelectionError("no derivation of %r from %s" % (node, nonterminal))
            leaves = _leaves(node, choice[1])
            output.append(Reduction(choice[0], node, nonterminal, leaves))
            stack.extend(leaves)
        output.reverse()
        return output
