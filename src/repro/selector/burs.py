"""BURS-style dynamic-programming tree parsing.

The labeller computes, bottom-up, for every subject node and every
non-terminal the cheapest rule deriving the node from that non-terminal
(including chain-rule closure).  The reducer then walks the optimal
derivation top-down from the start symbol and returns the ordered list of
selected rules (the *cover*), children before parents, so that RT rules can
be emitted directly as instructions.

The computed derivations are optimal with respect to the accumulated rule
costs, mirroring the guarantee of parsers generated by iburg.

Selection is driven entirely from the offline-compiled
:class:`~repro.selector.tables.GrammarTables`: rule patterns run as
linearized match programs (a non-recursive loop over instruction tuples),
chain-rule closure is a precomputed per-nonterminal ``(delta_cost,
rule_path)`` matrix applied directly (no per-node fixpoint), and node
states are memoized twice over: by hash-consed subtree structure
(:meth:`~repro.selector.subject.SubjectNode.structure_id`) in a bounded
memo whose hits bind the stored template to the concrete node lazily
(:class:`_LazyState`), so structurally repeated expressions -- across
statements and across pooled service requests -- label once, and on the
subject nodes themselves, so relabelling one tree (repeated ``node_cost``
probes, ISE search loops) reuses its states outright.  ``memo_size=0``
disables both.

The reference covers come from outside this module: the emitted selector
(:mod:`repro.selector.emit`, the iburg-style generated parser every
retarget builds) must reduce every subject tree to the same rule
sequence, and the test suite checks per-node costs against the seed's
fixpoint labeller reimplemented from the grammar alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.grammar.grammar import Rule, RuleKind, TreeGrammar
from repro.selector.subject import SubjectNode
from repro.selector.tables import GrammarTables

#: Default bound of the labelling memo (distinct subtree structures kept).
DEFAULT_MEMO_SIZE = 8192


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
    # Child-index paths of the leaves inside this node's subtree (parallel
    # to ``leaves``), so node states can be memoized in a node-independent
    # form.  ``None`` on memo-instantiated matches.
    paths: Optional[Tuple[Tuple[int, ...], ...]] = None


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


# State of one subject node: non-terminal -> best match.  Either a plain
# dict (freshly computed states) or a :class:`_LazyState` (instantiated
# from a memo template); both expose the same mapping surface.
_NodeState = Dict[str, Match]

# Memoized form of a node state: non-terminal -> (cost, rule, leaf specs),
# where each leaf spec is ``(child-index path, non-terminal)``.
_StateTemplate = Dict[str, Tuple[int, Rule, Tuple[Tuple[Tuple[int, ...], str], ...]]]


class _LazyState:
    """A node state instantiated from a memo template on demand.

    Building every :class:`Match` eagerly on a memo hit costs about as
    much as recomputing the state, which would defeat the memo for fresh
    trees.  Instead the template is bound to the concrete node and
    individual matches materialize (and are cached) only when a
    non-terminal is actually queried -- the reducer touches one or two per
    node, so a memo hit stays an order of magnitude cheaper than
    labelling.
    """

    __slots__ = ("_node", "_template", "_matches")

    def __init__(self, node: SubjectNode, template: _StateTemplate):
        self._node = node
        self._template = template
        self._matches: Dict[str, Match] = {}

    def get(self, nonterminal: str, default: Optional[Match] = None) -> Optional[Match]:
        match = self._matches.get(nonterminal)
        if match is not None:
            return match
        entry = self._template.get(nonterminal)
        if entry is None:
            return default
        cost, rule, leaf_specs = entry
        leaves: List[Tuple[SubjectNode, str]] = []
        for path, leaf_nonterminal in leaf_specs:
            leaf = self._node
            for index in path:
                leaf = leaf.children[index]
            leaves.append((leaf, leaf_nonterminal))
        match = Match(cost=cost, rule=rule, leaves=leaves)
        self._matches[nonterminal] = match
        return match

    def __getitem__(self, nonterminal: str) -> Match:
        match = self.get(nonterminal)
        if match is None:
            raise KeyError(nonterminal)
        return match

    def __contains__(self, nonterminal: str) -> bool:
        return nonterminal in self._template

    def __iter__(self):
        return iter(self._template)

    def __len__(self) -> int:
        return len(self._template)

    def keys(self):
        return self._template.keys()

    def items(self) -> List[Tuple[str, Match]]:
        return [(nonterminal, self[nonterminal]) for nonterminal in self._template]

    def values(self) -> List[Match]:
        return [self[nonterminal] for nonterminal in self._template]


class CodeSelector:
    """A processor-specific code selector for expression trees.

    ``memo_size`` bounds the labelling memo (``0`` disables memoization,
    structural and per-node alike).  The selector is safe to share
    read-only across threads: the grammar tables are immutable after
    construction and the memo is a plain dict touched only through
    GIL-atomic operations (a racing clear costs misses, never wrong hits).
    """

    def __init__(
        self,
        grammar: TreeGrammar,
        tables: Optional[GrammarTables] = None,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ):
        self.grammar = grammar
        self.tables = tables if tables is not None else GrammarTables.build(grammar)
        self.memo_size = memo_size
        self._init_runtime()

    def _init_runtime(self) -> None:
        # Plain dict, read lock-free (GIL-atomic get/set); bounded by
        # clearing wholesale on overflow, StructurePool-style.  Lost
        # entries degrade to misses, never to wrong hits.
        self._memo: Dict[int, _StateTemplate] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.nodes_labelled = 0
        self.node_cache_hits = 0

    # The memo (subject-node state cache) is process-local runtime state;
    # a selector pickled through the retarget cache comes back with a
    # fresh, empty memo.
    def __getstate__(self):
        state = {
            key: value for key, value in self.__dict__.items() if key != "_memo"
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo = {}

    # -- public API -----------------------------------------------------------

    def select(self, root: SubjectNode, goal: Optional[str] = None) -> SelectionResult:
        """Optimal cover of ``root`` deriving it from ``goal`` (default: the
        grammar start symbol)."""
        goal = goal if goal is not None else self.grammar.start
        # The lazy internal pass: memoized subtrees materialize only the
        # states the reducer actually touches.
        states: Dict[int, _NodeState] = {}
        self._label_subtree(root, states)
        root_state = states[id(root)]
        if goal not in root_state:
            raise SelectionError(
                "expression tree %r has no derivation from %s in the grammar of %s"
                % (root, goal, self.grammar.processor)
            )
        reductions = self._reduce(root, goal, states)
        return SelectionResult(cost=root_state[goal].cost, reductions=reductions)

    def label(self, root: SubjectNode) -> Dict[int, _NodeState]:
        """The labelling pass: per-node, per-non-terminal optimal costs.

        Returns a state for *every* node of the tree (the historical
        contract): the lazy walk of :meth:`select` runs first, then every
        node it skipped under a memo hit materializes from its own memo
        template (lazily, per non-terminal) instead of being recomputed.
        """
        states: Dict[int, _NodeState] = {}
        self._label_subtree(root, states)
        for node in root.post_order():
            self._state_of(node, states)
        return states

    def node_cost(self, root: SubjectNode, goal: Optional[str] = None) -> Optional[int]:
        """Cost of the optimal cover, or ``None`` when no cover exists.

        Routed through the labelling memo: repeated queries over
        structurally identical trees reuse cached node states instead of
        re-labelling from scratch.
        """
        goal = goal if goal is not None else self.grammar.start
        states: Dict[int, _NodeState] = {}
        self._label_subtree(root, states)
        match = states[id(root)].get(goal)
        return match.cost if match is not None else None

    def stats(self) -> Dict[str, object]:
        """Labeller statistics (memo behaviour and table provenance)."""
        lookups = self.memo_hits + self.memo_misses
        return {
            "nodes_labelled": self.nodes_labelled,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": (self.memo_hits / lookups) if lookups else 0.0,
            "memo_entries": len(self._memo),
            "memo_size": self.memo_size,
            "node_cache_hits": self.node_cache_hits,
            "table_build_time_s": self.tables.build_time_s,
        }

    # -- labelling ---------------------------------------------------------------

    def _label_subtree(self, root: SubjectNode, states: Dict[int, _NodeState]) -> None:
        """Label ``root`` bottom-up, skipping every subtree whose state is
        cached on the node or in the structural memo."""
        use_memo = self.memo_size > 0
        stack: List[Tuple[SubjectNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                states[id(node)] = self._compute_state(node, states)
                continue
            if id(node) in states:
                continue
            if use_memo and self._memo_instantiate(node, states) is not None:
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    def _memo_instantiate(
        self, node: SubjectNode, states: Dict[int, _NodeState]
    ) -> Optional[_NodeState]:
        """Materialize ``node``'s state from its per-node cache or its
        memoized template, or return ``None`` on a memo miss.  The single
        memo-hit path: the labelling walk and lazy state resolution both go
        through here, so hit accounting cannot drift."""
        cached = node._label_state
        if cached is not None and cached[0] is self:
            states[id(node)] = cached[1]
            self.node_cache_hits += 1
            return cached[1]
        template = self._memo.get(node.structure_id())
        if template is None:
            return None
        state = _LazyState(node, template)
        states[id(node)] = state
        node._label_state = (self, state)
        self.memo_hits += 1
        self.nodes_labelled += 1
        return state

    def _state_of(self, node: SubjectNode, states: Dict[int, _NodeState]) -> _NodeState:
        """The state of ``node``, materializing lazily from the memo (or by
        labelling the subtree) when the labelling walk skipped it."""
        state = states.get(id(node))
        if state is not None:
            return state
        if self.memo_size > 0:
            state = self._memo_instantiate(node, states)
            if state is not None:
                return state
        # Memo entry evicted (or memo disabled): label the subtree directly.
        self._label_subtree(node, states)
        return states[id(node)]

    def _compute_state(self, node: SubjectNode, states: Dict[int, _NodeState]) -> _NodeState:
        state: _NodeState = {}
        for program in self.tables.programs_for(node.label):
            matched = self._run_program(program, node, states)
            if matched is None:
                continue
            leaf_cost, leaves, paths = matched
            rule = program.rule
            cost = rule.cost + leaf_cost
            best = state.get(rule.lhs)
            if best is None or cost < best.cost:
                state[rule.lhs] = Match(cost=cost, rule=rule, leaves=leaves, paths=paths)
        self._apply_closure(node, state, self.tables.closure_from)
        self.nodes_labelled += 1
        if self.memo_size > 0:
            # A miss is only a miss when the memo was actually consulted.
            self.memo_misses += 1
            self._memo_put(node.structure_id(), self._template_of(state))
            node._label_state = (self, state)
        return state

    def _run_program(self, program, node, states):
        """Run one linearized match program against a subject subtree.

        Returns ``(leaf cost, leaves, leaf paths)`` or ``None``; a single
        loop over constant instruction tuples, no recursion.  Leaf probes
        go through :meth:`_state_of`: a multi-level pattern may reach below
        a subtree whose labelling was skipped by a memo hit, in which case
        the probed node's state materializes lazily from its own template.
        """
        stack = [node]
        cost = 0
        leaves: List[Tuple[SubjectNode, str]] = []
        paths: List[Tuple[int, ...]] = []
        for instruction in program.code:
            current = stack.pop()
            if instruction[0]:
                _, label, value, arity = instruction
                if current.label != label:
                    return None
                if value is not None and current.const_value != value:
                    return None
                children = current.children
                if len(children) != arity:
                    return None
                if arity:
                    stack.extend(reversed(children))
            else:
                state = states.get(id(current))
                if state is None:
                    state = self._state_of(current, states)
                match = state.get(instruction[1])
                if match is None:
                    return None
                cost += match.cost
                leaves.append((current, instruction[1]))
                paths.append(instruction[2])
        return cost, leaves, tuple(paths)

    @staticmethod
    def _apply_closure(node, state, closure_lookup) -> None:
        """Chain-rule closure via precomputed ``(delta, rule path)`` entries.

        Applied from every base (pattern-derived) entry; the closure
        matrix is transitive, so one pass replaces the legacy per-node
        fixpoint.  Strict-improvement updates keep tie-breaking identical
        across base entries in insertion (rule) order.
        """
        for source, match in list(state.items()):
            base_cost = match.cost
            for target, delta, rule_path in closure_lookup(source):
                cost = base_cost + delta
                best = state.get(target)
                if best is None or cost < best.cost:
                    last = rule_path[-1]
                    state[target] = Match(
                        cost=cost,
                        rule=last,
                        leaves=[(node, last.pattern.name)],
                        paths=((),),
                    )

    @staticmethod
    def _template_of(state: _NodeState) -> _StateTemplate:
        return {
            nonterminal: (
                match.cost,
                match.rule,
                tuple(
                    (path, leaf_nonterminal)
                    for path, (_leaf_node, leaf_nonterminal) in zip(
                        match.paths, match.leaves
                    )
                ),
            )
            for nonterminal, match in state.items()
        }

    def _memo_put(self, structure_id: int, template: _StateTemplate) -> None:
        memo = self._memo
        if len(memo) >= self.memo_size:
            memo.clear()
        memo[structure_id] = template

    # -- reduction -------------------------------------------------------------------

    def _reduce(
        self,
        root: SubjectNode,
        goal: str,
        states: Dict[int, _NodeState],
    ) -> List[Reduction]:
        """The optimal cover, children before parents (explicit stack; safe
        on arbitrarily deep subject trees and chain-rule paths)."""
        output: List[Reduction] = []
        states_get = states.get
        # Frames carry the resolved match on the second (emit) visit, so
        # every node state is fetched exactly once per reduction.
        stack: List[Tuple[SubjectNode, str, Optional[Match]]] = [(root, goal, None)]
        while stack:
            node, nonterminal, match = stack.pop()
            if match is not None:
                output.append(
                    Reduction(
                        rule=match.rule,
                        node=node,
                        nonterminal=nonterminal,
                        leaves=list(match.leaves),
                    )
                )
                continue
            state = states_get(id(node))
            if state is None:
                state = self._state_of(node, states)
            match = state.get(nonterminal)
            if match is None:
                raise SelectionError(
                    "no derivation of %r from %s" % (node, nonterminal)
                )
            stack.append((node, nonterminal, match))
            for leaf_node, leaf_nonterminal in reversed(match.leaves):
                stack.append((leaf_node, leaf_nonterminal, None))
        return output
