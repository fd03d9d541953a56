"""Unit tests for the offline-compiled matcher tables."""

import pickle

from repro.grammar.grammar import PatNonterm, PatTerm, RuleKind, TreeGrammar
from repro.selector import GrammarTables, chain_closure_from
from repro.selector.emit import compile_matcher_module, linearize_pattern
from repro.selector.tables import introducible_ops, leaf_paths


def _toy_grammar():
    grammar = TreeGrammar(processor="toy")
    grammar.terminals.update({"ASSIGN", "MEM", "ACC", "add", "mul", "Const"})
    grammar.nonterminals.update({"START", "nt_MEM", "nt_ACC"})
    grammar.add_rule(
        "START", PatTerm("ASSIGN", (PatTerm("MEM"), PatNonterm("nt_MEM"))), 0, RuleKind.START
    )
    grammar.add_rule(
        "nt_ACC", PatTerm("add", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM"))), 1, RuleKind.RT
    )
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
    grammar.add_rule("nt_ACC", PatTerm("Const", value=0), 0, RuleKind.RT)
    grammar.add_rule("nt_MEM", PatTerm("MEM"), 0, RuleKind.STOP)
    return grammar


class TestInterning:
    def test_operator_ids_are_dense_and_in_rule_order(self):
        tables = GrammarTables.build(_toy_grammar())
        assert sorted(tables.op_ids.values()) == list(range(len(tables.op_ids)))
        # First-appearance order over rule patterns: ASSIGN, add, Const, MEM.
        assert tables.op_names == ["ASSIGN", "add", "Const", "MEM"]
        assert all(tables.op_names[i] == name for name, i in tables.op_ids.items())

    def test_nonterminal_ids_are_dense(self):
        tables = GrammarTables.build(_toy_grammar())
        assert sorted(tables.nt_ids.values()) == list(range(len(tables.nt_ids)))
        assert set(tables.nt_names) == {"START", "nt_MEM", "nt_ACC"}


class TestMatchPrograms:
    """The emitted selector's linearized match programs."""

    def test_programs_grouped_by_root_in_rule_order(self):
        programs = compile_matcher_module(_toy_grammar()).PROGRAMS
        assert list(programs) == ["ASSIGN", "add", "Const", "MEM"]
        assert [index for index, _code in programs["add"]] == [1, 2]
        assert "unknown" not in programs

    def test_linearization_is_preorder(self):
        # The chained rule: add(nt_ACC, mul(nt_ACC, nt_MEM))
        assert linearize_pattern(_toy_grammar().rules[2].pattern) == (
            (True, "add", None, 2),
            (0, "nt_ACC"),
            (True, "mul", None, 2),
            (0, "nt_ACC"),
            (0, "nt_MEM"),
        )

    def test_hardwired_constant_value_is_encoded(self):
        programs = compile_matcher_module(_toy_grammar()).PROGRAMS
        assert programs["Const"] == ((5, ((True, "Const", 0, 0),)),)


class TestChainClosure:
    def test_closure_entries_and_deltas(self):
        tables = GrammarTables.build(_toy_grammar())
        acc_closure = dict(
            (target, (delta, rules)) for target, delta, rules in tables.closure_from("nt_ACC")
        )
        # nt_ACC -> nt_MEM via the store rule (cost 1).
        assert acc_closure["nt_MEM"][0] == 1
        assert [r.index for r in acc_closure["nt_MEM"][1]] == [4]
        mem_closure = dict(
            (target, (delta, rules)) for target, delta, rules in tables.closure_from("nt_MEM")
        )
        assert mem_closure["nt_ACC"][0] == 1

    def test_closure_excludes_trivial_self_entry(self):
        tables = GrammarTables.build(_toy_grammar())
        for source, entries in tables.chain_closure.items():
            assert all(target != source for target, _delta, _rules in entries)

    def test_multi_step_paths_are_transitive(self):
        grammar = TreeGrammar(processor="chainy")
        grammar.terminals.update({"X"})
        grammar.nonterminals.update({"a", "b", "c"})
        grammar.add_rule("a", PatTerm("X"), 0, RuleKind.RT)
        grammar.add_rule("b", PatNonterm("a"), 2, RuleKind.RT)
        grammar.add_rule("c", PatNonterm("b"), 3, RuleKind.RT)
        closure = dict(
            (target, (delta, [r.index for r in rules]))
            for target, delta, rules in chain_closure_from(
                "a", GrammarTables.build(grammar).chain_rules_by_source
            )
        )
        assert closure["b"] == (2, [1])
        assert closure["c"] == (5, [1, 2])

    def test_cost_ties_break_on_lowest_rule_index_path(self):
        grammar = TreeGrammar(processor="tie")
        grammar.terminals.update({"X"})
        grammar.nonterminals.update({"a", "b"})
        grammar.add_rule("a", PatTerm("X"), 0, RuleKind.RT)
        grammar.add_rule("b", PatNonterm("a"), 1, RuleKind.RT)  # index 1
        grammar.add_rule("b", PatNonterm("a"), 1, RuleKind.RT)  # index 2, same cost
        tables = GrammarTables.build(grammar)
        (entry,) = tables.closure_from("a")
        assert entry[0] == "b" and entry[1] == 1
        assert [r.index for r in entry[2]] == [1]


class TestBuildMetadata:
    def test_build_time_is_recorded(self):
        tables = GrammarTables.build(_toy_grammar())
        assert tables.build_time_s > 0.0

    def test_stats_cover_normal_form_and_closure(self):
        tables = GrammarTables.build(_toy_grammar())
        stats = tables.stats()
        assert stats["indexed_rules"] == 5
        # Five rule rows plus the fresh rows of MEM (in ASSIGN) and mul.
        assert stats["normal_form_rows"] == 7
        assert stats["fresh_nonterminals"] == 2
        assert stats["dropped_rows"] == 0
        assert stats["chain_rules"] == 2
        assert stats["closure_sources"] >= 2

    def test_tables_pickle_roundtrip(self):
        tables = GrammarTables.build(_toy_grammar())
        clone = pickle.loads(pickle.dumps(tables))
        assert clone.op_names == tables.op_names
        assert clone.stats() == tables.stats()
        assert [rule.index for rule in clone.rules_by_root["add"]] == [1, 2]
        assert clone.normal_form == tables.normal_form


class TestNormalForm:
    def test_interior_subpattern_becomes_fresh_nonterminal(self):
        tables = GrammarTables.build(_toy_grammar())
        add_rows = tables.normal_form.rows_by_op["add"]
        assert [(lhs, cost, children, rule.index) for lhs, cost, _v, children, rule in add_rows] == [
            ("nt_ACC", 1, ("nt_ACC", "nt_MEM"), 1),
            ("nt_ACC", 1, ("nt_ACC", "#1"), 2),
        ]
        # add(nt_ACC, mul(nt_ACC, nt_MEM)): mul(...) is one zero-cost row.
        assert tables.normal_form.rows_by_op["mul"] == (("#1", 0, None, ("nt_ACC", "nt_MEM"), None),)
        # ASSIGN(MEM, nt_MEM): the bare MEM leaf is a fresh non-terminal too.
        assert tables.normal_form.rows_by_op["MEM"][0] == ("#0", 0, None, (), None)
        assert tables.normal_form.fresh_nonterminals == 2

    def test_shared_subpatterns_intern_to_one_nonterminal(self):
        grammar = _toy_grammar()
        grammar.add_rule(
            "nt_MEM",
            PatTerm("sub", (PatNonterm("nt_ACC"), PatTerm("mul", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM"))))),
            2,
            RuleKind.RT,
        )
        tables = GrammarTables.build(grammar)
        assert len(tables.normal_form.rows_by_op["mul"]) == 1
        assert tables.normal_form.rows_by_op["sub"][0][3] == ("nt_ACC", "#1")

    def test_dominated_duplicates_are_dropped(self):
        grammar = _toy_grammar()
        pattern = PatTerm("add", (PatNonterm("nt_ACC"), PatNonterm("nt_MEM")))
        grammar.add_rule("nt_ACC", pattern, 1, RuleKind.RT)  # same cost: dropped
        grammar.add_rule("nt_ACC", pattern, 5, RuleKind.RT)  # dearer: dropped
        grammar.add_rule("nt_MEM", pattern, 1, RuleKind.RT)  # other lhs: kept
        grammar.add_rule("nt_ACC", pattern, 0, RuleKind.RT)  # cheaper: kept
        tables = GrammarTables.build(grammar)
        assert tables.normal_form.dropped_rows == 2
        assert [row[4].index for row in tables.normal_form.rows_by_op["add"]] == [1, 2, 9, 10]
        # Rule indices and the rule indexes (which the emitted selector
        # reads) keep all rules.
        assert [rule.index for rule in tables.rules_by_root["add"]] == [1, 2, 7, 8, 9, 10]

    def test_hardwired_values_and_leaf_paths(self):
        tables = GrammarTables.build(_toy_grammar())
        assert tables.normal_form.hardwired["Const"] == frozenset({0})
        assert tables.normal_form.hardwired["add"] == frozenset()
        assert tables.normal_form.rows_by_op["Const"] == (("nt_ACC", 0, 0, (), tables.grammar.rules[5]),)
        rules = tables.grammar.rules
        assert leaf_paths(rules[2].pattern) == (
            ((0,), "nt_ACC"), ((1, 0), "nt_ACC"), ((1, 1), "nt_MEM")
        )
        assert leaf_paths(rules[3].pattern) == (((), "nt_MEM"),)  # chain rule
        assert leaf_paths(rules[6].pattern) == ()


class TestIntroducibleOps:
    def test_hardwired_and_free_shift_amounts(self):
        grammar = _toy_grammar()
        grammar.terminals.update({"shl", "shr"})
        grammar.add_rule(
            "nt_ACC",
            PatTerm("shl", (PatNonterm("nt_ACC"), PatTerm("Const", value=1))),
            1,
            RuleKind.RT,
        )
        grammar.add_rule(
            "nt_ACC",
            PatTerm("shr", (PatNonterm("nt_ACC"), PatTerm("Const"))),
            1,
            RuleKind.RT,
        )
        tables = GrammarTables.build(grammar)
        assert tables.introducible_ops == {"shl:1", "shr"}
        assert pickle.loads(pickle.dumps(tables)).introducible_ops == {"shl:1", "shr"}

    def test_tables_precompute_the_scan_for_every_target(self, retarget_results):
        assert len(retarget_results) == 6
        for name, result in retarget_results.items():
            tables = result.selector.tables
            assert isinstance(tables.introducible_ops, frozenset), name
            assert tables.introducible_ops == introducible_ops(result.grammar), name

    def test_compiles_never_rescan_the_grammar(self, ref_result, monkeypatch):
        import repro.selector.tables as tables_module
        from repro.toolchain import Session

        session = Session(ref_result)

        def rescan(grammar):
            raise AssertionError("grammar rescanned during a compile")

        monkeypatch.setattr(tables_module, "introducible_ops", rescan)
        # ref hard-wires shift-by-one: mul-by-2 still strength-reduces.
        compiled = session.compile("int a, y;\ny = a * 2;\n")
        assert compiled.metrics.opt_folds >= 1
        assert compiled.simulate({"a": 5})["y"] == 10
