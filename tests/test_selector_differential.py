"""Differential and performance-semantics tests for the BURS matcher.

The library selector (linearized match programs, precomputed chain
closure, structural labelling memo) must produce exactly the covers of
the emitted selector module (``RetargetResult.matcher_module``, the
generated parser) on every built-in target and every DSPStone kernel --
identical costs *and* identical rule index sequences -- and its per-node
costs must equal the seed's fixpoint labeller, reimplemented here from
the grammar alone.  On top of that, this module pins down the memoization
semantics (node_cost reuse, boundedness, cross-statement sharing) and the
explicit-stack walks (deep ~5k-node chain expressions compile without
``RecursionError``).
"""

import pickle

import pytest

from repro.codegen.selection import build_subject_tree
from repro.dspstone import all_kernel_names, kernel_program
from repro.frontend import lower_to_program
from repro.fuzz.generator import LOOP_HEAVY_CONFIG, generate_source
from repro.ir.binding import BindingError, bind_program
from repro.ir.expr import Const, Op, VarRef
from repro.ir.program import BasicBlock, Program, Statement
from repro.selector import CodeSelector, SubjectNode
from repro.selector.burs import SelectionError
from repro.targets.library import all_target_names
from repro.toolchain import PipelineConfig, Session


@pytest.fixture(scope="module")
def emitted_selectors(retarget_results):
    """The emitted selector module of every target."""
    for result in retarget_results.values():
        if result.matcher_module is None:
            result.regenerate_matcher()
    return {name: result.matcher_module for name, result in retarget_results.items()}


def _statement_subjects(target_result, kernel):
    """Subject trees for every statement of a kernel on one target, or
    None when the kernel's variables cannot be bound on that target."""
    program = kernel_program(kernel)
    try:
        binding = bind_program(program, target_result.netlist)
    except BindingError:
        return None
    subjects = []
    for block in program.blocks:
        for statement in block.statements:
            subjects.append(build_subject_tree(statement, binding))
    return subjects


class TestDifferentialCovers:
    @pytest.mark.parametrize("target", sorted(all_target_names()))
    def test_kernels_cover_identically_on_target(
        self, target, retarget_results, emitted_selectors
    ):
        """The library selector and the emitted selector module agree on
        cost and exact rule sequence for every DSPStone kernel statement
        (or both find no cover)."""
        result = retarget_results[target]
        table_selector = result.selector
        emitted = emitted_selectors[target]
        compared = 0
        for kernel in all_kernel_names():
            subjects = _statement_subjects(result, kernel)
            if subjects is None:
                continue
            for subject in subjects:
                compared += 1
                try:
                    expected_rules = emitted.reduce(subject)
                except ValueError:
                    # Both selectors must agree that no cover exists.
                    with pytest.raises(SelectionError):
                        table_selector.select(subject)
                    continue
                got = table_selector.select(subject)
                assert got.cost == emitted.cover_cost(subject)
                assert got.rule_indices() == expected_rules
        assert compared > 0, "no kernel statement was comparable on %s" % target

    def test_memoized_relabelling_is_still_identical(self, tms_result):
        """A second pass over the same workload (memo fully warm) must not
        change any cover."""
        selector = CodeSelector(tms_result.grammar, tables=tms_result.selector.tables)
        subjects = _statement_subjects(tms_result, "fir")
        cold = [selector.select(s) for s in subjects]
        warm = [selector.select(s) for s in subjects]
        for before, after in zip(cold, warm):
            assert after.cost == before.cost
            assert after.rule_indices() == before.rule_indices()

    def test_matcher_knob_is_gone(self, demo_result):
        """One labelling backend: the selector takes no backend choice."""
        with pytest.raises(TypeError):
            CodeSelector(demo_result.grammar, matcher="tables")


class TestLabellingMemo:
    def test_node_cost_reuses_cached_states(self, demo_result):
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)
        root = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
            ],
        )
        first = selector.node_cost(root)
        misses_after_first = selector.memo_misses
        assert misses_after_first > 0
        second = selector.node_cost(root)
        assert second == first
        # The second call recomputed nothing: every state came from the
        # per-node cache (same tree object), none were re-labelled.
        assert selector.memo_misses == misses_after_first
        assert selector.node_cache_hits >= 1
        # A structurally identical but fresh tree hits the structural memo.
        fresh = SubjectNode(
            "ASSIGN",
            [
                SubjectNode("DMEM"),
                SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
            ],
        )
        assert selector.node_cost(fresh) == first
        assert selector.memo_misses == misses_after_first
        assert selector.memo_hits >= 1
        assert selector.stats()["memo_hit_rate"] > 0.0

    def test_structurally_identical_trees_share_states(self, demo_result):
        """Distinct node objects with identical structure hit the memo even
        when their payloads differ."""
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)

        def make(payload):
            return SubjectNode(
                "ASSIGN",
                [
                    SubjectNode("DMEM", payload=payload),
                    SubjectNode("add", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                ],
            )

        first = selector.select(make(("dest", "x")))
        hits_before = selector.memo_hits
        second = selector.select(make(("dest", "y")))
        assert selector.memo_hits > hits_before
        assert second.cost == first.cost
        assert second.rule_indices() == first.rule_indices()
        # Emission identity is preserved: reductions reference each tree's
        # own concrete nodes, not shared ones.
        assert second.reductions[-1].node is not first.reductions[-1].node

    def test_label_returns_states_for_every_node(self, demo_result):
        """The public label() contract: all nodes get a state, even when
        subtrees repeat within one tree; on a fully memoized tree label()
        computes no new state."""
        selector = CodeSelector(demo_result.grammar, tables=demo_result.selector.tables)

        def make():
            return SubjectNode(
                "ASSIGN",
                [
                    SubjectNode("DMEM"),
                    SubjectNode(
                        "add",
                        [
                            SubjectNode("mul", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                            SubjectNode("mul", [SubjectNode("ACC"), SubjectNode("DMEM")]),
                        ],
                    ),
                ],
            )

        cold = make()
        misses = hits = None
        # Cold memo, then a fresh tree against the warm memo, then the
        # same tree again through the per-node cache.
        for root in (cold, make(), cold):
            states = selector.label(root)
            nodes = root.post_order()
            assert len(states) == len(nodes)
            for node in nodes:
                assert states[id(node)], repr(node)
            if misses is None:
                misses, hits = selector.memo_misses, selector.memo_hits
            assert selector.memo_misses == misses
        # Every node of the fresh tree was a structural memo hit; the
        # relabelled tree reused its per-node states.
        assert selector.memo_hits == hits + len(nodes)
        assert selector.node_cache_hits >= len(nodes)

    def test_memo_disabled_reports_no_memo_traffic(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=0
        )
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=9)]
        )
        selector.label(root)
        stats = selector.stats()
        assert stats["memo_hits"] == 0
        assert stats["memo_misses"] == 0
        assert stats["nodes_labelled"] == 3

    def test_memo_is_bounded(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=4
        )
        for value in range(32):
            selector.node_cost(
                SubjectNode(
                    "ASSIGN",
                    [SubjectNode("DMEM"), SubjectNode("Const", const_value=value)],
                )
            )
        assert len(selector._memo) <= 4

    def test_memo_can_be_disabled(self, demo_result):
        selector = CodeSelector(
            demo_result.grammar, tables=demo_result.selector.tables, memo_size=0
        )
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=7)]
        )
        assert selector.node_cost(root) == selector.node_cost(root)
        assert selector.memo_hits == 0
        assert len(selector._memo) == 0

    def test_selector_pickles_without_memo(self, demo_result):
        selector = demo_result.selector
        root = SubjectNode(
            "ASSIGN", [SubjectNode("DMEM"), SubjectNode("Const", const_value=3)]
        )
        cost = selector.node_cost(root)
        clone = pickle.loads(pickle.dumps(selector))
        assert len(clone._memo) == 0
        assert clone.memo_size == selector.memo_size
        assert clone.node_cost(root) == cost

    def test_sessions_share_selector_tables(self, tms_result):
        """Sessions (and therefore pooled service workers) built on one
        retarget result share one read-only table object and one memo."""
        full = Session(tms_result)
        unscheduled = Session(
            tms_result, config=PipelineConfig(use_scheduling=False)
        )
        assert full.selector is unscheduled.selector
        assert full.selector.tables is tms_result.selector.tables


def _bellman_ford_chain_distances(source, grammar):
    """Independent oracle for the chain closure: shortest chain-rule
    distances from ``source``, computed by plain Bellman-Ford relaxation
    straight off ``grammar.rules`` (no GrammarTables machinery)."""
    distances = {source: 0}
    chain_rules = [rule for rule in grammar.rules if rule.is_chain()]
    for _ in range(len(grammar.nonterminals) + 1):
        changed = False
        for rule in chain_rules:
            origin = rule.pattern.name
            if origin not in distances:
                continue
            candidate = distances[origin] + rule.cost
            if rule.lhs not in distances or candidate < distances[rule.lhs]:
                distances[rule.lhs] = candidate
                changed = True
        if not changed:
            break
    return distances


def _fixpoint_label_costs(subject, grammar):
    """Independent oracle for node-state costs: the seed's interpretive
    algorithm (recursive pattern match + per-node chain fixpoint),
    reimplemented from the grammar alone.  Returns ``{nt: cost}`` per node
    id for every node of ``subject``."""
    from repro.grammar.grammar import PatNonterm, PatTerm

    def match(pattern, node, states):
        if isinstance(pattern, PatNonterm):
            cost = states[id(node)].get(pattern.name)
            return cost
        if node.label != pattern.name:
            return None
        if pattern.value is not None and node.const_value != pattern.value:
            return None
        if len(node.children) != len(pattern.operands):
            return None
        total = 0
        for child_pattern, child_node in zip(pattern.operands, node.children):
            child_cost = match(child_pattern, child_node, states)
            if child_cost is None:
                return None
            total += child_cost
        return total

    states = {}
    for node in subject.post_order():
        costs = {}
        for rule in grammar.rules:
            if rule.is_chain():
                continue
            leaf_cost = match(rule.pattern, node, states)
            if leaf_cost is None:
                continue
            total = rule.cost + leaf_cost
            if rule.lhs not in costs or total < costs[rule.lhs]:
                costs[rule.lhs] = total
        changed = True
        while changed:
            changed = False
            for rule in grammar.rules:
                if not rule.is_chain():
                    continue
                source_cost = costs.get(rule.pattern.name)
                if source_cost is None:
                    continue
                total = rule.cost + source_cost
                if rule.lhs not in costs or total < costs[rule.lhs]:
                    costs[rule.lhs] = total
                    changed = True
        states[id(node)] = costs
    return states


class TestClosureOracle:
    """The precomputed closure and the table-driven states checked against
    oracles that share no code with GrammarTables (guards against a bug in
    the tables fooling the library-vs-emitted differential, whose two
    selectors read the same match programs and closure)."""

    @pytest.mark.parametrize("target", sorted(all_target_names()))
    def test_closure_deltas_match_bellman_ford(self, target, retarget_results):
        result = retarget_results[target]
        tables = result.selector.tables
        sources = {rule.lhs for rule in result.grammar.rules}
        sources.update(tables.chain_rules_by_source)
        for source in sorted(sources):
            expected = _bellman_ford_chain_distances(source, result.grammar)
            expected.pop(source)
            got = {
                entry_target: delta
                for entry_target, delta, _rules in tables.closure_from(source)
            }
            assert got == expected, "closure mismatch from %s on %s" % (source, target)

    @pytest.mark.parametrize("target", sorted(all_target_names()))
    def test_closure_paths_are_wellformed(self, target, retarget_results):
        tables = retarget_results[target].selector.tables
        for source, entries in tables.chain_closure.items():
            for entry_target, delta, rule_path in entries:
                assert rule_path[0].pattern.name == source
                assert rule_path[-1].lhs == entry_target
                for previous, rule in zip(rule_path, rule_path[1:]):
                    assert rule.pattern.name == previous.lhs
                assert sum(rule.cost for rule in rule_path) == delta

    @pytest.mark.parametrize("target", ["demo", "ref", "tms320c25"])
    def test_node_state_costs_match_seed_fixpoint(self, target, retarget_results):
        """Every per-node, per-nonterminal cost of the table-driven
        labeller equals the seed algorithm's, on real kernel trees."""
        result = retarget_results[target]
        subjects = _statement_subjects(result, "fir") or []
        subjects += _statement_subjects(result, "complex_multiply") or []
        assert subjects
        _assert_fixpoint_costs(result, subjects)

    @pytest.mark.parametrize("target", ["ref", "tms320c25"])
    def test_loop_heavy_costs_match_seed_fixpoint(self, target, retarget_results):
        """The same check on the post-opt statements of loop-heavy fuzz
        programs -- the grammars and tree shapes the fuzz campaign runs
        most, where its ``matcher`` oracle shares tables with the
        selector."""
        result = retarget_results[target]
        session = Session(result)
        subjects = []
        for seed in range(3):
            program = lower_to_program(
                generate_source(seed, LOOP_HEAVY_CONFIG), name="loops%d" % seed
            )
            compiled = session.compile_program(program)
            for block in compiled.program.reachable_blocks():
                for statement in block.statements:
                    subjects.append(build_subject_tree(statement, compiled.binding))
        assert len(subjects) > 30
        _assert_fixpoint_costs(result, subjects)


def _assert_fixpoint_costs(result, subjects):
    for subject in subjects:
        expected = _fixpoint_label_costs(subject, result.grammar)
        states = result.selector.label(subject)
        for node in subject.post_order():
            got = {nt: match.cost for nt, match in states[id(node)].items()}
            assert got == expected[id(node)]


def _deep_chain_program(depth):
    """``acc = a + 1 + 1 + ... ;`` as a left-deep IR chain (~2*depth nodes)."""
    expression = VarRef("a")
    for _ in range(depth):
        expression = Op("add", (expression, Const(1)))
    return Program(
        name="deep_chain",
        blocks=[BasicBlock(name="entry", statements=[Statement("acc", expression)])],
        scalars=["a", "acc"],
    )


class TestDeepTrees:
    def test_deep_chain_selects_without_recursion_error(self, demo_result):
        """~5k-node chain: labelling, reduction and subject construction
        are explicit-stack walks and must not hit the recursion limit."""
        program = _deep_chain_program(2500)
        binding = bind_program(program, demo_result.netlist)
        statement = program.blocks[0].statements[0]
        subject = build_subject_tree(statement, binding)
        assert subject.size() >= 5000
        result = demo_result.selector.select(subject)
        assert result.cost > 0
        assert len(result.reductions) >= 2500

    def test_deep_chain_compiles_end_to_end(self, demo_result):
        """The full pipeline on a deep chain expression (the pre-table
        selector raised RecursionError in ``_reduce`` around depth 1000)."""
        program = _deep_chain_program(2500)
        session = Session(
            demo_result,
            config=PipelineConfig(use_scheduling=False, use_compaction=False),
        )
        compiled = session.compile_program(program)
        assert compiled.code_size >= 2500
        assert compiled.metrics.nodes_labelled > 0

    def test_emitted_selector_reduces_deep_chain(self, demo_result, emitted_selectors):
        """The emitted selector walks with explicit stacks too, and covers
        the ~5k-node chain exactly like the library selector."""
        program = _deep_chain_program(2500)
        binding = bind_program(program, demo_result.netlist)
        subject = build_subject_tree(program.blocks[0].statements[0], binding)
        assert subject.size() >= 5000
        expected = demo_result.selector.select(subject).rule_indices()
        assert emitted_selectors["demo"].reduce(subject) == expected
