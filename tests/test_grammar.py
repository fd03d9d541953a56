"""Unit tests for tree-grammar construction and export."""

import pytest

from repro.bdd import BDDManager
from repro.grammar import (
    GrammarConstructionError,
    PatNonterm,
    PatTerm,
    Rule,
    RuleKind,
    TreeGrammar,
    build_tree_grammar,
    grammar_to_bnf,
)
from repro.grammar.grammar import (
    ASSIGN_TERMINAL,
    CONST_TERMINAL,
    START_SYMBOL,
    nonterminal_for,
    storage_of_nonterminal,
)
from repro.hdl import parse_processor
from repro.ise import ConstLeaf, ImmLeaf, OpNode, PortLeaf, RTTemplate, RTTemplateBase, RegLeaf
from repro.netlist import build_netlist
from repro.targets import target_hdl_source


@pytest.fixture(scope="module")
def demo_grammar():
    from repro.ise import extract_instruction_set
    from repro.expansion import expand_template_base

    netlist = build_netlist(parse_processor(target_hdl_source("demo")))
    extraction = extract_instruction_set(netlist)
    extended = expand_template_base(extraction.template_base)
    return netlist, extended, build_tree_grammar(netlist, extended)


class TestSymbolNaming:
    def test_nonterminal_roundtrip(self):
        assert nonterminal_for("ACC") == "nt_ACC"
        assert storage_of_nonterminal("nt_ACC") == "ACC"
        assert storage_of_nonterminal("START") == "START"


class TestConstruction:
    def test_terminals_follow_the_paper(self, demo_grammar):
        netlist, base, grammar = demo_grammar
        assert ASSIGN_TERMINAL in grammar.terminals
        assert CONST_TERMINAL in grammar.terminals
        # every sequential component and port appears as a terminal
        for name in ("ACC", "BREG", "DMEM", "PIN", "POUT"):
            assert name in grammar.terminals
        # every hardware operator appears as a terminal
        assert base.operators() <= grammar.terminals

    def test_nonterminals_follow_the_paper(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        assert grammar.start == START_SYMBOL
        for name in ("ACC", "BREG", "DMEM", "PIN", "POUT"):
            assert nonterminal_for(name) in grammar.nonterminals
        assert grammar.terminals.isdisjoint(grammar.nonterminals)

    def test_start_rules_cover_all_destinations(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        destinations = set()
        for rule in grammar.start_rules():
            assert rule.cost == 0
            root = rule.pattern
            assert isinstance(root, PatTerm) and root.name == ASSIGN_TERMINAL
            destinations.add(root.operands[0].name)
        assert {"ACC", "BREG", "DMEM", "POUT"} <= destinations
        assert "PIN" not in destinations  # input pins cannot be destinations

    def test_rt_rules_have_unit_cost_and_templates(self, demo_grammar):
        _netlist, base, grammar = demo_grammar
        rt_rules = grammar.rt_rules()
        assert len(rt_rules) == len(base)
        assert all(rule.cost == 1 for rule in rt_rules)
        assert all(rule.template is not None for rule in rt_rules)

    def test_stop_rules_have_zero_cost(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        stop_rules = grammar.stop_rules()
        assert all(rule.cost == 0 for rule in stop_rules)
        lhs = {rule.lhs for rule in stop_rules}
        assert nonterminal_for("ACC") in lhs
        assert nonterminal_for("DMEM") in lhs

    def test_grammar_is_structurally_valid(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        assert grammar.validate() == []

    def test_stats(self, demo_grammar):
        _netlist, base, grammar = demo_grammar
        stats = grammar.stats()
        assert stats["rt_rules"] == len(base)
        assert stats["rules"] == len(grammar.rules)

    def test_rules_by_root_excludes_chain_rules(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        by_root = grammar.rules_by_root()
        for label, rules in by_root.items():
            assert all(not rule.is_chain() for rule in rules)
            assert all(rule.pattern.name == label for rule in rules)

    def test_chain_rules_by_source(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        chains = grammar.chain_rules_by_source()
        for source, rules in chains.items():
            assert all(rule.pattern.name == source for rule in rules)


class TestPatternLowering:
    def _grammar_for(self, template):
        netlist = build_netlist(parse_processor(target_hdl_source("demo")))
        base = RTTemplateBase(processor="demo")
        base.add(template)
        return build_tree_grammar(netlist, base)

    def test_table2_lowering(self):
        manager = BDDManager()
        pattern = OpNode(
            "add",
            (
                RegLeaf("ACC"),
                OpNode("mul", (PortLeaf("PIN"), ConstLeaf(3))),
            ),
        )
        grammar = self._grammar_for(RTTemplate("ACC", pattern, manager.true))
        rule = grammar.rt_rules()[0]
        assert str(rule.pattern) == "add(nt_ACC, mul(PIN, Const#3))"

    def test_immediate_lowers_to_generic_const(self):
        manager = BDDManager()
        pattern = OpNode("add", (RegLeaf("ACC"), ImmLeaf("IM.word[7:0]", 8)))
        grammar = self._grammar_for(RTTemplate("ACC", pattern, manager.true))
        rule = grammar.rt_rules()[0]
        assert str(rule.pattern) == "add(nt_ACC, Const)"

    def test_unknown_destination_rejected(self):
        manager = BDDManager()
        template = RTTemplate("NOSUCH", RegLeaf("ACC"), manager.true)
        with pytest.raises(GrammarConstructionError):
            self._grammar_for(template)

    def test_unknown_storage_in_pattern_rejected(self):
        manager = BDDManager()
        template = RTTemplate("ACC", RegLeaf("NOSUCH"), manager.true)
        with pytest.raises(GrammarConstructionError):
            self._grammar_for(template)

    def test_unknown_port_in_pattern_rejected(self):
        manager = BDDManager()
        template = RTTemplate("ACC", PortLeaf("NOSUCH"), manager.true)
        with pytest.raises(GrammarConstructionError):
            self._grammar_for(template)


class TestValidation:
    def test_validate_reports_unknown_symbols(self):
        grammar = TreeGrammar(processor="x")
        grammar.nonterminals.add(START_SYMBOL)
        grammar.add_rule("nt_missing", PatNonterm("nt_other"), cost=0, kind=RuleKind.STOP)
        problems = grammar.validate()
        assert any("unknown lhs" in p for p in problems)
        assert any("unknown non-terminal" in p for p in problems)

    def test_validate_reports_missing_start(self):
        grammar = TreeGrammar(processor="x", start="START")
        problems = grammar.validate()
        assert any("start symbol" in p for p in problems)

    def test_validate_reports_unknown_terminal(self):
        grammar = TreeGrammar(processor="x")
        grammar.nonterminals.update({START_SYMBOL, "nt_A"})
        grammar.add_rule("nt_A", PatTerm("mystery"), cost=1, kind=RuleKind.RT)
        problems = grammar.validate()
        assert any("unknown terminal" in p for p in problems)

    def test_rule_str_and_chain_detection(self):
        rule = Rule(0, "nt_A", PatNonterm("nt_B"), 1, RuleKind.RT)
        assert rule.is_chain()
        assert "nt_A" in str(rule)


class TestBnfExport:
    def test_bnf_contains_all_rules(self, demo_grammar):
        _netlist, _base, grammar = demo_grammar
        bnf = grammar_to_bnf(grammar)
        assert "%start START" in bnf
        assert bnf.count("\n") >= len(grammar.rules)
        assert "ASSIGN" in bnf

    def test_bnf_renders_constant_values(self):
        manager = BDDManager()
        netlist = build_netlist(parse_processor(target_hdl_source("demo")))
        base = RTTemplateBase(processor="demo")
        base.add(
            RTTemplate("ACC", OpNode("add", (RegLeaf("ACC"), ConstLeaf(7))), manager.true)
        )
        bnf = grammar_to_bnf(build_tree_grammar(netlist, base))
        assert "Const#7" in bnf
