"""Target/grammar lints (``repro lint-target``).

Synthetic grammars exercise each lint category in isolation; the
built-in smoke proves the severity calibration -- every shipped target
lints with zero errors, so a CI gate on errors is meaningful.
"""

from repro.analysis import lint_grammar, lint_target
from repro.analysis.lints import IR_OPERATORS
from repro.grammar.grammar import (
    ASSIGN_TERMINAL,
    CONST_TERMINAL,
    START_SYMBOL,
    PatNonterm,
    PatTerm,
    RuleKind,
    TreeGrammar,
)
from repro.targets import all_target_names


def _toy_grammar():
    """A minimal clean grammar: stores into MEM, adds, loads constants."""
    grammar = TreeGrammar(processor="toy")
    grammar.terminals.update({ASSIGN_TERMINAL, "MEM", "add", CONST_TERMINAL})
    grammar.nonterminals.update({START_SYMBOL, "nt_MEM"})
    grammar.add_rule(
        START_SYMBOL,
        PatTerm(ASSIGN_TERMINAL, (PatTerm("MEM"), PatNonterm("nt_MEM"))),
        0,
        RuleKind.START,
    )
    grammar.add_rule(
        "nt_MEM",
        PatTerm("add", (PatNonterm("nt_MEM"), PatNonterm("nt_MEM"))),
        1,
        RuleKind.RT,
    )
    grammar.add_rule("nt_MEM", PatTerm(CONST_TERMINAL), 0, RuleKind.RT)
    return grammar


def _by_check(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(finding.check, []).append(finding)
    return grouped


class TestLintGrammar:
    def test_clean_grammar_has_no_findings(self):
        assert lint_grammar(_toy_grammar()) == []

    def test_unreachable_rule_is_a_warning(self):
        grammar = _toy_grammar()
        grammar.nonterminals.add("nt_dead")
        grammar.add_rule("nt_dead", PatTerm(CONST_TERMINAL), 1, RuleKind.RT)
        grouped = _by_check(lint_grammar(grammar))
        assert len(grouped["unreachable-rule"]) == 1
        finding = grouped["unreachable-rule"][0]
        assert finding.severity == "warning"
        assert "nt_dead" in finding.where

    def test_shadowed_rule_is_a_warning(self):
        grammar = _toy_grammar()
        # Same lhs, same pattern, higher cost: the matcher's first-rule
        # tie-break makes this rule dead.
        grammar.add_rule(
            "nt_MEM",
            PatTerm("add", (PatNonterm("nt_MEM"), PatNonterm("nt_MEM"))),
            3,
            RuleKind.RT,
        )
        grouped = _by_check(lint_grammar(grammar))
        assert len(grouped["shadowed-rule"]) == 1
        finding = grouped["shadowed-rule"][0]
        assert finding.severity == "warning"
        assert "first matching rule always wins" in finding.message

    def test_cheaper_duplicate_is_not_shadowed(self):
        grammar = _toy_grammar()
        # A *cheaper* duplicate beats the earlier rule on cost, so it is
        # live (the earlier one keeps winning ties only at equal cost).
        grammar.add_rule(
            "nt_MEM",
            PatTerm("add", (PatNonterm("nt_MEM"), PatNonterm("nt_MEM"))),
            0,
            RuleKind.RT,
        )
        grouped = _by_check(lint_grammar(grammar))
        assert "shadowed-rule" not in grouped

    def test_zero_cost_chain_cycle_is_an_error(self):
        grammar = _toy_grammar()
        grammar.nonterminals.add("nt_R")
        grammar.add_rule("nt_MEM", PatNonterm("nt_R"), 0, RuleKind.RT)
        grammar.add_rule("nt_R", PatNonterm("nt_MEM"), 0, RuleKind.RT)
        grouped = _by_check(lint_grammar(grammar))
        assert len(grouped["chain-cycle"]) == 1
        finding = grouped["chain-cycle"][0]
        assert finding.severity == "error"
        assert "->" in finding.message

    def test_costed_chain_loop_is_not_a_cycle_finding(self):
        grammar = _toy_grammar()
        grammar.nonterminals.add("nt_R")
        # Moving through nt_R costs one instruction in one direction:
        # legal modelling of a register-register move pair.
        grammar.add_rule("nt_MEM", PatNonterm("nt_R"), 1, RuleKind.RT)
        grammar.add_rule("nt_R", PatNonterm("nt_MEM"), 0, RuleKind.RT)
        grouped = _by_check(lint_grammar(grammar))
        assert "chain-cycle" not in grouped

    def test_inert_operator_is_a_note(self):
        grammar = _toy_grammar()
        grammar.terminals.add("bitrev")
        grammar.add_rule(
            "nt_MEM",
            PatTerm("bitrev", (PatNonterm("nt_MEM"),)),
            1,
            RuleKind.RT,
        )
        grouped = _by_check(lint_grammar(grammar))
        assert len(grouped["inert-operator"]) == 1
        finding = grouped["inert-operator"][0]
        assert finding.severity == "note"
        assert "'bitrev'" in finding.message

    def test_producible_operator_override(self):
        grammar = _toy_grammar()
        grammar.terminals.add("bitrev")
        grammar.add_rule(
            "nt_MEM",
            PatTerm("bitrev", (PatNonterm("nt_MEM"),)),
            1,
            RuleKind.RT,
        )
        findings = lint_grammar(
            grammar, producible_operators=set(IR_OPERATORS) | {"bitrev"}
        )
        assert "inert-operator" not in _by_check(findings)

    def test_structural_problems_surface_as_grammar_errors(self):
        grammar = _toy_grammar()
        grammar.add_rule("nt_unknown", PatTerm(CONST_TERMINAL), 1, RuleKind.RT)
        grouped = _by_check(lint_grammar(grammar))
        assert any(f.severity == "error" for f in grouped["grammar"])


class TestBuiltinTargetsLintClean:
    def test_every_builtin_target_has_zero_errors(self, retarget_results):
        for name in all_target_names():
            findings = lint_target(retarget_results[name])
            errors = [f for f in findings if f.severity == "error"]
            assert errors == [], (name, [f.describe() for f in errors])

    def test_lint_target_cross_checks_matcher_tables(self, demo_result):
        findings = lint_target(demo_result)
        # The demo target's tables index every rule.
        assert not any(f.check == "tables" for f in findings)

    def test_cli_lint_target_reports_clean(self, capsys):
        from repro.cli import main

        for name in all_target_names():
            assert main(["lint-target", name]) == 0, name
        out = capsys.readouterr().out
        assert out
