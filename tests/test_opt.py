"""Unit tests for the ``repro.opt`` IR optimization subsystem.

Covers the value-numbered expression DAG (versioning, use counts),
constant folding and algebraic rewriting (word-wrap agreement with the
simulator, port-read and target-capability gates), cross-statement CSE
with dead-temporary elimination, the composable pipeline with its
statistics, copy hygiene of optimizer output, and the toolchain/CLI
integration (``opt`` pass, ``--no-opt``, ``repro opt``).
"""

import pytest

from repro.frontend.lowering import lower_to_program
from repro.ir import WORD_BITS, wrap_word
from repro.ir.expr import Const, Op, PortInput, VarRef, evaluate_expr, expr_size
from repro.ir.program import BasicBlock, Program, Statement
from repro.opt import (
    OptimizationError,
    OptPipeline,
    OptStats,
    build_block_dag,
    contains_port_read,
    copy_program,
    eliminate_common_subexpressions,
    eliminate_dead_temporaries,
    fold_expr,
    optimize_program,
    structurally_equal,
)
from repro.toolchain import PipelineConfig, Session


def _program(statements, scalars, name="p", arrays=None):
    return Program(
        name=name,
        blocks=[BasicBlock(name="entry", statements=list(statements))],
        scalars=list(scalars),
        arrays=dict(arrays or {}),
    )


def _mul(a, b):
    return Op("mul", (a, b))


def _add(a, b):
    return Op("add", (a, b))


# ---------------------------------------------------------------------------
# Expression DAG
# ---------------------------------------------------------------------------


class TestExprDAG:
    def test_identical_subtrees_share_one_node(self):
        shared = lambda: _add(_mul(VarRef("a"), VarRef("b")), VarRef("c"))  # noqa: E731
        block = BasicBlock(
            name="entry",
            statements=[
                Statement("y0", shared()),
                Statement("y1", shared()),
            ],
        )
        builder = build_block_dag(block)
        assert builder.roots[0] == builder.roots[1]
        assert builder.dag.uses[builder.roots[0]] == 2

    def test_write_between_occurrences_splits_value_numbers(self):
        expr = lambda: _add(VarRef("a"), VarRef("b"))  # noqa: E731
        block = BasicBlock(
            name="entry",
            statements=[
                Statement("y0", expr()),
                Statement("a", Const(1)),
                Statement("y1", expr()),
            ],
        )
        builder = build_block_dag(block)
        assert builder.roots[0] != builder.roots[2]

    def test_self_read_uses_pre_write_version(self):
        # ``x = x + 1`` reads the old x; a later ``y = x + 1`` reads the
        # new one and must not share the node.
        block = BasicBlock(
            name="entry",
            statements=[
                Statement("x", _add(VarRef("x"), Const(1))),
                Statement("y", _add(VarRef("x"), Const(1))),
            ],
        )
        builder = build_block_dag(block)
        assert builder.roots[0] != builder.roots[1]

    def test_use_counts_are_edge_counts(self):
        # The inner product only ever appears inside the repeated sum:
        # one parent edge, not two.
        product = lambda: _mul(VarRef("a"), VarRef("b"))  # noqa: E731
        total = lambda: _add(product(), VarRef("c"))  # noqa: E731
        block = BasicBlock(
            name="entry",
            statements=[Statement("y0", total()), Statement("y1", total())],
        )
        builder = build_block_dag(block)
        dag = builder.dag
        root = builder.roots[0]
        assert dag.uses[root] == 2
        (product_id,) = [
            node.id
            for node in dag.nodes
            if node.kind == "op" and node.label == "mul"
        ]
        assert dag.uses[product_id] == 1

    def test_port_reads_poison_subtrees(self):
        block = BasicBlock(
            name="entry",
            statements=[Statement("y", _add(PortInput("IN"), VarRef("a")))],
        )
        builder = build_block_dag(block)
        assert builder.dag.has_port[builder.roots[0]]

    def test_to_expr_builds_fresh_equivalent_trees(self):
        original = _add(_mul(VarRef("a"), Const(3)), VarRef("a"))
        block = BasicBlock(name="entry", statements=[Statement("y", original)])
        builder = build_block_dag(block)
        rebuilt = builder.dag.to_expr(builder.roots[0])
        assert structurally_equal(rebuilt, original)
        assert rebuilt is not original

    def test_port_writes_version_port_reads(self):
        # Writing the output port @OUT between two @OUT reads splits them.
        read = lambda: _add(PortInput("OUT"), Const(1))  # noqa: E731
        block = BasicBlock(
            name="entry",
            statements=[
                Statement("y0", read()),
                Statement("@OUT", Const(5)),
                Statement("y1", read()),
            ],
        )
        builder = build_block_dag(block)
        assert builder.roots[0] != builder.roots[2]


# ---------------------------------------------------------------------------
# Folding and algebraic rewriting
# ---------------------------------------------------------------------------


class TestFold:
    def test_constant_subtrees_fold_to_wrapped_constants(self):
        expr = _add(Const(40000), Const(40000))
        folded = fold_expr(expr)
        assert folded == Const(wrap_word(80000))
        assert evaluate_expr(folded, {}) == evaluate_expr(expr, {})

    def test_out_of_range_literals_are_canonicalized(self):
        rewrites = {}
        folded = fold_expr(Const((1 << WORD_BITS) + 5), rewrites=rewrites)
        assert folded == Const(5)
        assert rewrites["const-wrap"] == 1

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (_add(VarRef("x"), Const(0)), VarRef("x")),
            (_add(Const(0), VarRef("x")), VarRef("x")),
            (Op("sub", (VarRef("x"), Const(0))), VarRef("x")),
            (_mul(VarRef("x"), Const(1)), VarRef("x")),
            (_mul(Const(1), VarRef("x")), VarRef("x")),
            (_mul(VarRef("x"), Const(0)), Const(0)),
            (Op("div", (VarRef("x"), Const(1))), VarRef("x")),
            (Op("or", (VarRef("x"), Const(0))), VarRef("x")),
            (Op("xor", (Const(0), VarRef("x"))), VarRef("x")),
            (Op("and", (VarRef("x"), Const(wrap_word(-1)))), VarRef("x")),
            (Op("and", (VarRef("x"), Const(0))), Const(0)),
            (Op("shl", (VarRef("x"), Const(0))), VarRef("x")),
            (Op("sub", (VarRef("x"), VarRef("x"))), Const(0)),
            (Op("xor", (VarRef("x"), VarRef("x"))), Const(0)),
            (Op("neg", (Op("neg", (VarRef("x"),)),)), VarRef("x")),
            (Op("not", (Op("not", (VarRef("x"),)),)), VarRef("x")),
        ],
    )
    def test_algebraic_identities(self, expr, expected):
        assert fold_expr(expr) == expected

    @pytest.mark.parametrize("value", [17, 42, 255])
    def test_identities_preserve_evaluation(self, value):
        cases = [
            _add(VarRef("x"), Const(0)),
            _mul(VarRef("x"), Const(8)),
            Op("div", (VarRef("x"), Const(4))),
            Op("sub", (VarRef("x"), VarRef("x"))),
            Op("neg", (Op("neg", (VarRef("x"),)),)),
            _mul(VarRef("x"), Const(0)),
        ]
        for expr in cases:
            folded = fold_expr(expr)
            assert evaluate_expr(folded, {"x": value}) == evaluate_expr(
                expr, {"x": value}
            ), expr

    def test_strength_reduction_to_shifts(self):
        folded = fold_expr(_mul(VarRef("x"), Const(8)))
        assert folded == Op("shl", (VarRef("x"), Const(3)))
        folded = fold_expr(Op("div", (VarRef("x"), Const(4))))
        assert folded == Op("shr", (VarRef("x"), Const(2)))

    def test_strength_reduction_respects_target_vocabulary(self):
        # A target without shifters must keep the multiply.
        expr = _mul(VarRef("x"), Const(8))
        kept = fold_expr(expr, supported_ops=set())
        assert kept == expr
        reduced = fold_expr(expr, supported_ops={"shl"})
        assert reduced == Op("shl", (VarRef("x"), Const(3)))

    def test_strength_reduction_honours_hardwired_shift_amounts(self):
        # "shl:1" allows exactly shift-by-one (x * 2), nothing wider --
        # the shape target grammars with an x + x datapath hardwire.
        assert fold_expr(
            _mul(VarRef("x"), Const(2)), supported_ops={"shl:1"}
        ) == Op("shl", (VarRef("x"), Const(1)))
        expr = _mul(VarRef("x"), Const(8))
        assert fold_expr(expr, supported_ops={"shl:1"}) == expr

    def test_value_discarding_rules_never_delete_port_reads(self):
        expr = _mul(PortInput("IN"), Const(0))
        assert fold_expr(expr) == expr  # the port read must survive
        assert fold_expr(Op("sub", (PortInput("IN"), PortInput("IN")))) == Op(
            "sub", (PortInput("IN"), PortInput("IN"))
        )
        assert contains_port_read(expr)

    def test_nested_rewrites_reach_fixpoint_in_one_pass(self):
        expr = _mul(_add(VarRef("x"), Const(0)), Const(1))
        assert fold_expr(expr) == VarRef("x")

    def test_comparison_conditions_fold_to_truth_values(self):
        assert fold_expr(Op("lt", (Const(3), Const(5)))) == Const(1)
        assert fold_expr(Op("eq", (Const(3), Const(5)))) == Const(0)
        assert fold_expr(Op("lnot", (Const(0),))) == Const(1)

    def test_deep_chains_fold_without_recursion_error(self):
        expression = VarRef("a")
        for _ in range(3000):
            expression = _add(expression, Const(0))
        assert fold_expr(expression) == VarRef("a")

    def test_structural_equality_is_deep_safe(self):
        deep = VarRef("a")
        for _ in range(3000):
            deep = _add(deep, Const(1))
        assert structurally_equal(deep, deep)
        # sub(deep, deep) folds without blowing the recursion limit.
        assert fold_expr(Op("sub", (deep, deep))) == Const(0)


# ---------------------------------------------------------------------------
# CSE and DCE
# ---------------------------------------------------------------------------


class TestCSE:
    def _shared(self):
        return _add(_mul(VarRef("a"), VarRef("b")), _mul(VarRef("c"), VarRef("d")))

    def test_repeated_subexpression_is_materialized_once(self):
        program = _program(
            [
                Statement("y0", _add(self._shared(), VarRef("e"))),
                Statement("y1", Op("sub", (self._shared(), VarRef("f")))),
            ],
            scalars=["a", "b", "c", "d", "e", "f", "y0", "y1"],
        )
        counters = {}
        optimized = eliminate_common_subexpressions(program, counters=counters)
        statements = optimized.blocks[0].statements
        assert len(statements) == 3
        assert statements[0].destination == "__cse0"
        assert structurally_equal(statements[0].expression, self._shared())
        assert statements[1].expression == _add(VarRef("__cse0"), VarRef("e"))
        assert counters["temps_introduced"] == 1
        assert counters["cse_hits"] == 2
        assert "__cse0" in optimized.scalars

    def test_write_hazard_blocks_cse(self):
        program = _program(
            [
                Statement("y0", _add(self._shared(), VarRef("e"))),
                Statement("a", Const(3)),
                Statement("y1", _add(self._shared(), VarRef("e"))),
            ],
            scalars=["a", "b", "c", "d", "e", "y0", "y1"],
        )
        optimized = eliminate_common_subexpressions(program)
        assert all(
            not s.destination.startswith("__cse")
            for s in optimized.blocks[0].statements
        )

    def test_small_and_rare_nodes_are_not_materialized(self):
        # A single product (one operator node) repeated twice stays inline.
        program = _program(
            [
                Statement("y0", _mul(VarRef("a"), VarRef("b"))),
                Statement("y1", _mul(VarRef("a"), VarRef("b"))),
            ],
            scalars=["a", "b", "y0", "y1"],
        )
        optimized = eliminate_common_subexpressions(program)
        assert len(optimized.blocks[0].statements) == 2

    def test_port_reading_subexpressions_are_never_materialized(self):
        shared = lambda: _add(  # noqa: E731
            _mul(PortInput("IN"), VarRef("b")), VarRef("c")
        )
        program = _program(
            [Statement("y0", shared()), Statement("y1", shared())],
            scalars=["b", "c", "y0", "y1"],
        )
        optimized = eliminate_common_subexpressions(program)
        assert len(optimized.blocks[0].statements) == 2

    def test_within_statement_duplicates_are_shared(self):
        shared = self._shared()
        program = _program(
            [Statement("y0", _mul(self._shared(), self._shared()))],
            scalars=["a", "b", "c", "d", "y0"],
        )
        optimized = eliminate_common_subexpressions(program)
        statements = optimized.blocks[0].statements
        assert len(statements) == 2
        assert statements[0].destination == "__cse0"
        assert structurally_equal(statements[0].expression, shared)
        assert statements[1].expression == _mul(VarRef("__cse0"), VarRef("__cse0"))

    def test_nested_candidates_materialize_inner_first(self):
        inner = lambda: _add(_mul(VarRef("a"), VarRef("b")), VarRef("c"))  # noqa: E731
        outer = lambda: _mul(inner(), VarRef("d"))  # noqa: E731
        program = _program(
            [
                Statement("y0", _add(outer(), inner())),
                Statement("y1", Op("sub", (outer(), VarRef("e")))),
            ],
            scalars=["a", "b", "c", "d", "e", "y0", "y1"],
        )
        optimized = eliminate_common_subexpressions(program)
        statements = optimized.blocks[0].statements
        # inner (__cse0) is defined before outer (__cse1) which reads it.
        assert [s.destination for s in statements[:2]] == ["__cse0", "__cse1"]
        assert structurally_equal(statements[0].expression, inner())
        assert statements[1].expression == _mul(VarRef("__cse0"), VarRef("d"))

    def test_semantics_preserved_on_random_environments(self):
        program = _program(
            [
                Statement("y0", _add(self._shared(), VarRef("e"))),
                Statement("a", _add(VarRef("a"), Const(1))),
                Statement("y1", _add(self._shared(), VarRef("e"))),
                Statement("y2", _mul(self._shared(), self._shared())),
            ],
            scalars=["a", "b", "c", "d", "e", "y0", "y1", "y2"],
        )
        optimized = eliminate_common_subexpressions(program)
        for seed in range(5):
            env = {
                name: (seed * 31 + i * 17 + 3) % 257
                for i, name in enumerate(sorted(program.all_variables()))
            }
            expected = program.blocks[0].execute(dict(env))
            got = optimized.blocks[0].execute(dict(env))
            for key, value in expected.items():
                assert got[key] == value, key


class TestDCE:
    def test_dead_temporaries_are_removed(self):
        program = _program(
            [
                Statement("__cse0", _add(VarRef("a"), VarRef("b"))),
                Statement("__cse1", _mul(VarRef("a"), VarRef("b"))),
                Statement("y", _add(VarRef("__cse0"), VarRef("c"))),
            ],
            scalars=["a", "b", "c", "y", "__cse0", "__cse1"],
        )
        counters = {}
        cleaned = eliminate_dead_temporaries(program, counters=counters)
        assert [s.destination for s in cleaned.blocks[0].statements] == [
            "__cse0",
            "y",
        ]
        assert counters["dead_removed"] == 1
        assert "__cse1" not in cleaned.scalars

    def test_user_destinations_are_never_removed(self):
        program = _program(
            [
                Statement("dead", Const(1)),  # user variable: observable
                Statement("y", _add(VarRef("a"), VarRef("b"))),
            ],
            scalars=["a", "b", "dead", "y"],
        )
        cleaned = eliminate_dead_temporaries(program)
        assert len(cleaned.blocks[0].statements) == 2

    def test_temp_chains_are_removed_transitively(self):
        program = _program(
            [
                Statement("__cse0", _add(VarRef("a"), VarRef("b"))),
                Statement("__cse1", _mul(VarRef("__cse0"), VarRef("c"))),
            ],
            scalars=["a", "b", "c", "__cse0", "__cse1"],
        )
        cleaned = eliminate_dead_temporaries(program)
        assert cleaned.blocks[0].statements == []


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class TestOptPipeline:
    def test_unknown_stage_rejected(self):
        with pytest.raises(OptimizationError):
            OptPipeline(stages=["fold", "inline"])

    def test_stats_round_trip(self):
        program = lower_to_program(
            "int a, b, y0, y1;\n"
            "y0 = (a * b + a) + 0;\n"
            "y1 = (a * b + a) * 1;\n"
        )
        _optimized, stats = optimize_program(program)
        assert stats.nodes_before > stats.nodes_after
        assert stats.algebraic >= 2  # add-zero, mul-one
        assert stats.temps_introduced == 1
        assert stats.cse_hits == 2
        rebuilt = OptStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert 0.0 < stats.node_reduction < 1.0

    def test_stage_subsets(self):
        program = lower_to_program(
            "int a, b, c, y0, y1;\n"
            "y0 = a * b + c * 1;\n"
            "y1 = a * b + c * 1;\n"
        )
        folded, fold_stats = optimize_program(program, stages=["fold"])
        assert fold_stats.temps_introduced == 0
        assert fold_stats.algebraic >= 2
        cse_only, cse_stats = optimize_program(program, stages=["cse"])
        assert cse_stats.folds == 0 and cse_stats.algebraic == 0
        assert cse_stats.temps_introduced >= 1
        assert folded.statement_count() == 2
        assert cse_only.statement_count() >= 3

    def test_optimizer_output_never_aliases_the_input(self):
        program = lower_to_program(
            "int a, b, y0, y1;\ny0 = a * b + a;\ny1 = a * b + a;\n"
        )
        for stages in (None, ["fold"], ["cse"], ["dce"], []):
            optimized, _stats = optimize_program(program, stages=stages)
            assert optimized is not program
            input_statements = {
                id(s) for block in program.blocks for s in block.statements
            }
            input_exprs = set()
            for block in program.blocks:
                for statement in block.statements:
                    stack = [statement.expression]
                    while stack:
                        node = stack.pop()
                        input_exprs.add(id(node))
                        stack.extend(node.children())
            for block in optimized.blocks:
                assert block is not program.blocks[0]
                for statement in block.statements:
                    assert id(statement) not in input_statements
                    stack = [statement.expression]
                    while stack:
                        node = stack.pop()
                        assert id(node) not in input_exprs, stages
                        stack.extend(node.children())

    def test_mutation_isolation_regression(self):
        # Mutating the input program after optimization must not leak
        # into the optimized program, and vice versa (the PR 1
        # ``code.instances`` aliasing fix, at the IR level).
        program = lower_to_program("int a, b, y;\ny = a * b + a;\n")
        optimized, _stats = optimize_program(program)
        before = [str(s) for s in optimized.blocks[0].statements]
        program.blocks[0].statements[0].destination = "mutated"
        program.blocks[0].statements.append(Statement("z", Const(1)))
        program.scalars.append("z")
        assert [str(s) for s in optimized.blocks[0].statements] == before
        optimized.blocks[0].statements[0].destination = "other"
        assert program.blocks[0].statements[0].destination == "mutated"

    def test_copy_program_is_deep(self):
        program = lower_to_program("int a, y;\ny = a + 1;\n")
        clone = copy_program(program)
        assert clone.blocks[0].statements[0] is not program.blocks[0].statements[0]
        assert (
            clone.blocks[0].statements[0].expression
            is not program.blocks[0].statements[0].expression
        )
        assert str(clone.blocks[0].statements[0]) == str(
            program.blocks[0].statements[0]
        )

    def test_user_variable_with_temp_like_name_is_preserved(self):
        # A user is free to declare a scalar called "__cse0": its
        # assignment must survive DCE, and CSE must allocate a
        # non-colliding temporary name.
        shared = lambda: Op(  # noqa: E731
            "add", (_mul(VarRef("a"), VarRef("b")), _mul(VarRef("c"), VarRef("d")))
        )
        program = _program(
            [
                Statement("__cse0", Const(7)),
                Statement("y0", _add(shared(), VarRef("__cse0"))),
                Statement("y1", Op("sub", (shared(), VarRef("e")))),
            ],
            scalars=["a", "b", "c", "d", "e", "y0", "y1", "__cse0"],
        )
        optimized, stats = optimize_program(program)
        assert stats.temps_introduced == 1
        assert stats.dead_removed == 0
        destinations = [s.destination for s in optimized.blocks[0].statements]
        assert destinations.count("__cse0") == 1  # the user's assignment
        temp_names = [d for d in destinations if d.startswith("__cse") and d != "__cse0"]
        assert temp_names and temp_names[0] != "__cse0"
        assert "__cse0" in optimized.scalars
        env = {"a": 3, "b": 4, "c": 5, "d": 6, "e": 2}
        expected = program.blocks[0].execute(dict(env))
        got = optimized.blocks[0].execute(dict(env))
        assert got["__cse0"] == expected["__cse0"] == 7
        assert got["y0"] == expected["y0"]
        assert got["y1"] == expected["y1"]

    def test_dce_only_pipeline_uses_prefix_semantics(self):
        # Without a cse stage in the run there is no exact temp set, so
        # "--stages dce" falls back to prefix-based removal instead of
        # silently doing nothing.
        program = _program(
            [
                Statement("__cse0", _add(VarRef("a"), VarRef("b"))),
                Statement("y", VarRef("a")),
            ],
            scalars=["a", "b", "y", "__cse0"],
        )
        optimized, stats = optimize_program(program, stages=["dce"])
        assert stats.dead_removed == 1
        assert [s.destination for s in optimized.blocks[0].statements] == ["y"]

    def test_empty_pipeline_still_copies(self):
        program = lower_to_program("int a, y;\ny = a + 1;\n")
        optimized, stats = optimize_program(program, stages=[])
        assert optimized is not program
        assert stats.nodes_before == stats.nodes_after


# ---------------------------------------------------------------------------
# Word-width unification (overflow regression)
# ---------------------------------------------------------------------------


class TestWordWidthUnification:
    def test_wrap_word_is_the_single_authority(self):
        from repro.ir import expr as expr_module

        import repro.ir as ir_package

        assert ir_package.wrap_word is expr_module.wrap_word

    def test_lowering_wraps_out_of_range_literals(self):
        program = lower_to_program("int y;\ny = %d;\n" % ((1 << WORD_BITS) + 9))
        assert program.blocks[0].statements[0].expression == Const(9)

    def test_folded_overflow_agrees_with_simulated_execution(self, tms_result):
        # 40000 + 40000 wraps to 14464 on the 16-bit machine: the folded
        # constant and the simulated unoptimized addition must agree.
        source = "int y;\ny = 40000 + 40000;\n"
        optimized = Session(tms_result).compile(source)
        unoptimized = Session(
            tms_result, config=PipelineConfig(use_optimizer=False)
        ).compile(source)
        expected = wrap_word(40000 + 40000)
        assert expected == 14464
        assert optimized.simulate({})["y"] == expected
        assert unoptimized.simulate({})["y"] == expected
        assert optimized.metrics.opt_folds >= 1


# ---------------------------------------------------------------------------
# Toolchain integration
# ---------------------------------------------------------------------------

CSE_SOURCE = (
    "int a, b, c, d, e, f, y0, y1, y2;\n"
    "y0 = a * b + c * d + e;\n"
    "y1 = a * b + c * d - f;\n"
    "y2 = a * b + c * d;\n"
)


class TestOptimizationPassIntegration:
    def test_opt_pass_runs_by_default_and_fills_metrics(self, demo_result):
        compiled = Session(demo_result).compile(CSE_SOURCE, name="cse")
        assert "opt" in compiled.pass_timings
        metrics = compiled.metrics
        assert metrics.opt_nodes_before > metrics.opt_nodes_after
        assert metrics.opt_temps == 1
        assert metrics.opt_cse_hits >= 2
        # The optimizer block survives serialization.
        rebuilt = type(compiled).from_dict(compiled.to_dict())
        assert rebuilt.metrics.opt_temps == 1

    def test_no_opt_config_restores_pre_optimizer_pipeline(self, demo_result):
        session = Session(demo_result, config=PipelineConfig(use_optimizer=False))
        compiled = session.compile(CSE_SOURCE, name="cse")
        assert "opt" not in compiled.pass_timings
        assert compiled.metrics.opt_nodes_before == 0
        assert compiled.metrics.opt_temps == 0

    def test_optimized_code_is_smaller_on_cse_heavy_input(self, demo_result):
        optimized = Session(demo_result).compile(CSE_SOURCE)
        unoptimized = Session(
            demo_result, config=PipelineConfig(use_optimizer=False)
        ).compile(CSE_SOURCE)
        assert optimized.code_size < unoptimized.code_size
        assert optimized.metrics.nodes_labelled <= unoptimized.metrics.nodes_labelled

    def test_result_program_is_fresh_not_the_callers(self, demo_result):
        program = lower_to_program(CSE_SOURCE, name="cse")
        compiled = Session(demo_result).compile_program(program)
        assert compiled.program is not program
        assert compiled.program.name == program.name
        # The caller's program is untouched (no CSE temps injected).
        assert all(
            not s.destination.startswith("__cse")
            for s in program.blocks[0].statements
        )
        assert any(
            s.destination.startswith("__cse")
            for s in compiled.program.blocks[0].statements
        )

    def test_strength_reduction_only_on_coverable_shapes(
        self, tms_result, ref_result
    ):
        from repro.toolchain.passes import introducible_ops

        # tms320c25 covers mul-by-const but has no shifter rules at all:
        # mul-by-8 must stay a multiply and keep compiling.
        assert introducible_ops(tms_result.grammar) == set()
        source8 = "int a, y;\ny = a * 8;\n"
        compiled = Session(tms_result).compile(source8)
        assert compiled.code_size > 0
        assert compiled.simulate({"a": 5})["y"] == 40
        # ref only hardwires shift-by-one (an x + x datapath): mul-by-2
        # strength-reduces, mul-by-8 must NOT (shl-by-3 is uncoverable
        # there even though "shl" is in the vocabulary).
        assert introducible_ops(ref_result.grammar) == {"shl:1"}
        for source in (source8, "int a, y;\ny = a * 2;\n"):
            ref_opt = Session(ref_result).compile(source)
            ref_raw = Session(
                ref_result, config=PipelineConfig(use_optimizer=False)
            ).compile(source)
            assert ref_opt.code_size <= ref_raw.code_size
            assert (
                ref_opt.simulate({"a": 5})["y"] == ref_raw.simulate({"a": 5})["y"]
            )

    def test_deep_chain_still_compiles_with_optimizer(self, demo_result):
        expression = VarRef("a")
        for _ in range(2500):
            expression = Op("add", (expression, Const(1)))
        program = _program([Statement("acc", expression)], scalars=["a", "acc"])
        session = Session(
            demo_result,
            config=PipelineConfig(use_scheduling=False, use_compaction=False),
        )
        compiled = session.compile_program(program)
        assert compiled.code_size >= 2500
        assert compiled.metrics.opt_nodes_before == expr_size(expression)

    def test_selector_key_ignores_the_optimizer_knob(self):
        assert (
            PipelineConfig().selector_key()
            == PipelineConfig(use_optimizer=False).selector_key()
        )

    def test_sessions_share_selector_across_opt_configs(self, demo_result):
        with_opt = Session(demo_result)
        without = Session(demo_result, config=PipelineConfig(use_optimizer=False))
        assert with_opt.selector is without.selector


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestOptCli:
    def test_opt_subcommand_prints_before_and_after(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.c"
        path.write_text(CSE_SOURCE)
        assert main(["opt", str(path)]) == 0
        output = capsys.readouterr().out
        assert "== before" in output and "== after" in output
        assert "__cse0" in output
        assert "temp(s) introduced" in output

    def test_opt_subcommand_kernel_and_stage_subset(self, capsys):
        from repro.cli import main

        assert main(["opt", "--kernel", "fir", "--stages", "fold"]) == 0
        output = capsys.readouterr().out
        assert "0 temp(s) introduced" in output

    def test_opt_subcommand_rejects_unknown_stage(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["opt", "--kernel", "fir", "--stages", "vectorize"])

    def test_opt_subcommand_needs_a_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["opt"])

    def test_compile_no_opt_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.c"
        path.write_text(CSE_SOURCE)
        assert main(["compile", "demo", str(path), "--no-cache"]) == 0
        optimized = capsys.readouterr().out
        assert main(["compile", "demo", str(path), "--no-cache", "--no-opt"]) == 0
        unoptimized = capsys.readouterr().out
        assert "__cse0" in optimized
        assert "__cse0" not in unoptimized

    def test_compile_timings_shows_optimizer_line(self, capsys):
        from repro.cli import main

        assert main(
            ["compile", "demo", "--kernel", "real_update", "--timings", "--no-cache"]
        ) == 0
        output = capsys.readouterr().out
        assert "optimizer:" in output
