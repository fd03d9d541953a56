"""Unit tests for the BURS code selector on a hand-written grammar."""

import pytest

from repro.grammar.grammar import PatNonterm, PatTerm, RuleKind, TreeGrammar
from repro.selector import CodeSelector, GrammarTables, SelectionError, SubjectNode


def _toy_grammar():
    """An accumulator machine grammar written by hand.

    Terminals: ASSIGN, MEM, ACC, add, mul, Const.
    Non-terminals: START, nt_MEM, nt_ACC.
    """
    grammar = TreeGrammar(processor="toy")
    grammar.terminals.update({"ASSIGN", "MEM", "ACC", "add", "mul", "Const"})
    grammar.nonterminals.update({"START", "nt_MEM", "nt_ACC"})
    # start rules
    grammar.add_rule(
        "START", PatTerm("ASSIGN", (PatTerm("MEM"), PatNonterm("nt_MEM"))), 0, RuleKind.START
    )
    grammar.add_rule(
        "START", PatTerm("ASSIGN", (PatTerm("ACC"), PatNonterm("nt_ACC"))), 0, RuleKind.START
    )
    # RT rules
    grammar.add_rule("nt_ACC", PatTerm("add", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM"))), 1, RuleKind.RT)
    grammar.add_rule("nt_ACC", PatTerm("mul", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM"))), 1, RuleKind.RT)
    # chained multiply-accumulate
    grammar.add_rule(
        "nt_ACC",
        PatTerm(
            "add",
            (PatNonterm("nt_ACC"), PatTerm("mul", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM")))),
        ),
        1,
        RuleKind.RT,
    )
    grammar.add_rule("nt_ACC", PatNonterm("nt_MEM"), 1, RuleKind.RT)  # load
    grammar.add_rule("nt_MEM", PatNonterm("nt_ACC"), 1, RuleKind.RT)  # store
    grammar.add_rule("nt_ACC", PatTerm("Const"), 1, RuleKind.RT)  # load immediate
    grammar.add_rule("nt_ACC", PatTerm("Const", value=0), 0, RuleKind.RT)  # zero is free
    # stop rules
    grammar.add_rule("nt_MEM", PatTerm("MEM"), 0, RuleKind.STOP)
    grammar.add_rule("nt_ACC", PatTerm("ACC"), 0, RuleKind.STOP)
    return grammar


def _var(storage="MEM"):
    return SubjectNode(storage)


def _assign(dest_label, expr):
    return SubjectNode("ASSIGN", [SubjectNode(dest_label), expr])


@pytest.fixture()
def selector():
    return CodeSelector(_toy_grammar())


class TestLabelling:
    def test_leaf_states(self, selector):
        root = _var()
        states = selector.label(root)
        state = states[id(root)]
        assert state["nt_MEM"].cost == 0
        assert state["nt_ACC"].cost == 1  # via the load chain rule

    def test_chain_closure_costs(self, selector):
        root = SubjectNode("add", [_var(), _var()])
        states = selector.label(root)
        state = states[id(root)]
        # add(MEM, MEM): load one operand (1) + add (1) = 2 to reach nt_ACC.
        assert state["nt_ACC"].cost == 2
        # storing it back costs one more
        assert state["nt_MEM"].cost == 3

    def test_const_value_matching(self, selector):
        zero = SubjectNode("Const", const_value=0)
        other = SubjectNode("Const", const_value=5)
        assert selector.label(zero)[id(zero)]["nt_ACC"].cost == 0
        assert selector.label(other)[id(other)]["nt_ACC"].cost == 1


class TestSelection:
    def test_simple_assignment(self, selector):
        root = _assign("MEM", SubjectNode("add", [_var(), _var()]))
        result = selector.select(root)
        assert result.cost == 3
        kinds = [r.rule.kind for r in result.reductions]
        assert kinds.count(RuleKind.RT) == 3

    def test_chained_mac_is_preferred(self, selector):
        # acc_dest = MEM + MEM * MEM  -> load, MAC, store = 3 instead of 4
        expr = SubjectNode(
            "add", [_var(), SubjectNode("mul", [_var(), _var()])]
        )
        root = _assign("MEM", expr)
        result = selector.select(root)
        assert result.cost == 4  # load ACC, load ACC (mul operand), MAC, store
        chained_used = any(
            r.rule.kind == RuleKind.RT and "mul" in str(r.rule.pattern) and "add" in str(r.rule.pattern)
            for r in result.reductions
        )
        assert chained_used

    def test_reductions_are_children_first(self, selector):
        expr = SubjectNode("add", [_var(), _var()])
        root = _assign("MEM", expr)
        result = selector.select(root)
        # the final reduction must be the start rule at the root
        assert result.reductions[-1].rule.kind == RuleKind.START
        assert result.reductions[-1].node is root

    def test_select_with_explicit_goal(self, selector):
        expr = SubjectNode("add", [_var(), _var()])
        result = selector.select(expr, goal="nt_ACC")
        assert result.cost == 2

    def test_node_cost_helper(self, selector):
        expr = SubjectNode("mul", [_var(), _var()])
        assert selector.node_cost(expr, goal="nt_ACC") == 2
        assert selector.node_cost(expr) is None  # START needs an ASSIGN root

    def test_unmatchable_tree_raises(self, selector):
        root = _assign("MEM", SubjectNode("division", [_var(), _var()]))
        with pytest.raises(SelectionError):
            selector.select(root)

    def test_rt_reductions_filter(self, selector):
        root = _assign("MEM", SubjectNode("add", [_var(), _var()]))
        result = selector.select(root)
        assert len(result.rt_reductions()) == 3
        assert all(r.rule.kind == RuleKind.RT for r in result.rt_reductions())

    def test_rule_indices_are_consistent(self, selector):
        root = _assign("MEM", _var())
        result = selector.select(root)
        assert result.rule_indices() == [r.rule.index for r in result.reductions]


class TestTables:
    def test_tables_index_by_root_label(self):
        grammar = _toy_grammar()
        tables = GrammarTables.build(grammar)
        assert len(tables.rules_by_root["add"]) == 2
        assert len(tables.rules_by_root["ASSIGN"]) == 2
        assert "unknown" not in tables.rules_by_root
        assert tables.programs_for("unknown") == ()

    def test_chain_rules_by_source(self):
        grammar = _toy_grammar()
        tables = GrammarTables.build(grammar)
        assert {r.lhs for r in tables.chain_rules_by_source["nt_MEM"]} == {"nt_ACC"}
        assert {r.lhs for r in tables.chain_rules_by_source["nt_ACC"]} == {"nt_MEM"}

    def test_stats(self):
        tables = GrammarTables.build(_toy_grammar())
        stats = tables.stats()
        assert stats["chain_rules"] == 2
        assert stats["indexed_rules"] + stats["chain_rules"] == len(_toy_grammar().rules)


class TestSubjectNode:
    def test_post_order(self):
        a, b = _var(), _var()
        add = SubjectNode("add", [a, b])
        root = _assign("MEM", add)
        order = root.post_order()
        assert order[-1] is root
        assert order.index(a) < order.index(add)
        assert order.index(b) < order.index(add)

    def test_size_and_leaf(self):
        root = _assign("MEM", SubjectNode("add", [_var(), _var()]))
        assert root.size() == 5
        assert _var().is_leaf()
        assert not root.is_leaf()

    def test_repr(self):
        assert repr(SubjectNode("Const", const_value=3)) == "Const(3)"
        assert repr(_var()) == "MEM"
        assert "add" in repr(SubjectNode("add", [_var(), _var()]))
