"""Unit and oracle tests for the global optimizer layers.

Covers the loop analysis (back edges against a brute-force dominator-set
oracle, natural loops, preheader insertion), the counted-loop
transformations (rotation, strength reduction), LICM, CSE soundness
across branches, the never-negative rewrite counters, and the end-to-end
hardware-loop contract on the TMS320C25: every loop-form DSPStone kernel
must pick up at least one LICM hoist or one hardware loop, and RT
simulation of the optimized compile must agree with IR-level reference
execution of the *original* program.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.loops import (
    back_edges,
    insert_preheaders,
    loop_nesting_forest,
    naive_back_edges,
    natural_loops,
    render_forest,
)
from repro.dspstone import all_kernel_names, kernel_program, loop_kernel_names
from repro.frontend.lowering import lower_to_program
from repro.fuzz.generator import LOOP_HEAVY_CONFIG, generate_source
from repro.ir.program import (
    BasicBlock,
    CBranch,
    HardwareLoop,
    Jump,
    Program,
    Statement,
)
from repro.ir.expr import Const, Op, VarRef
from repro.opt import OPT_TEMP_PREFIXES, OptPipeline, optimize_program
from repro.opt.loops import annotate_hardware_loops, find_counted_loops
from repro.toolchain import Session
from repro.toolchain.results import METRIC_FIELDS

SEEDS = (0, 1, 2)


def _environment(program, seed):
    return {
        name: (seed * 41 + index * 17 + 3) % 251 + 1
        for index, name in enumerate(sorted(program.all_variables()))
    }


def _observable(environment):
    return {
        name: value
        for name, value in environment.items()
        if not name.startswith(OPT_TEMP_PREFIXES)
    }


def _assert_same_execution(original, transformed):
    """Reference-execute both programs on several environments and demand
    identical observable final states."""
    for seed in SEEDS:
        environment = _environment(original, seed)
        expected = _observable(original.execute(dict(environment)))
        got = _observable(transformed.execute(dict(environment)))
        # Temporaries aside, every variable of the original must agree.
        for name in original.all_variables():
            assert got[name] == expected[name], (seed, name)


# ---------------------------------------------------------------------------
# Back-edge analysis against the brute-force oracle
# ---------------------------------------------------------------------------


@st.composite
def random_cfgs(draw):
    """Arbitrary small digraphs (irreducible shapes included): entry b0,
    each block 0..2 successors among all blocks."""
    count = draw(st.integers(min_value=1, max_value=8))
    names = ["b%d" % index for index in range(count)]
    edges = {}
    for name in names:
        edges[name] = draw(
            st.lists(
                st.sampled_from(names),
                min_size=0,
                max_size=min(2, count),
                unique=True,
            )
        )
    return ControlFlowGraph.from_edges("b0", edges)


class TestBackEdgeOracle:
    @settings(max_examples=200, deadline=None)
    @given(random_cfgs())
    def test_back_edges_match_naive_dominator_sets(self, cfg):
        assert set(back_edges(cfg)) == set(naive_back_edges(cfg))

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_kernel_cfgs_agree_with_oracle(self, kernel):
        cfg = ControlFlowGraph.from_program(kernel_program(kernel))
        assert set(back_edges(cfg)) == set(naive_back_edges(cfg))
        forest = loop_nesting_forest(cfg)
        assert len(forest) == 1  # every loop kernel is a single loop
        assert render_forest(forest)  # renders without error

    def test_nested_loop_forest_depths(self):
        cfg = ControlFlowGraph.from_edges(
            "entry",
            {
                "entry": ["outer"],
                "outer": ["inner", "exit"],
                "inner": ["inner", "outer"],
                "exit": [],
            },
        )
        forest = loop_nesting_forest(cfg)
        assert forest.roots == ["outer"]
        assert forest.children["outer"] == ["inner"]
        assert forest.loops["outer"].depth == 1
        assert forest.loops["inner"].depth == 2
        assert forest.depth_of("inner") == 2
        assert forest.depth_of("entry") == 0
        assert forest.inside_out()[0].header == "inner"

    def test_loops_sharing_a_header_are_merged(self):
        cfg = ControlFlowGraph.from_edges(
            "entry",
            {
                "entry": ["head"],
                "head": ["a", "exit"],
                "a": ["head", "b"],
                "b": ["head"],
                "exit": [],
            },
        )
        loops = natural_loops(cfg)
        assert set(loops) == {"head"}
        assert set(loops["head"].blocks) == {"head", "a", "b"}
        assert len(loops["head"].back_edges) == 2


# ---------------------------------------------------------------------------
# Preheader insertion
# ---------------------------------------------------------------------------


class TestPreheaders:
    def test_existing_jump_predecessor_is_reused(self):
        # fir_loop's entry ends in an unconditional jump to the header:
        # it already is a preheader, no new block is needed.
        program = kernel_program("fir_loop")
        blocks_before = [block.name for block in program.blocks]
        preheaders = insert_preheaders(program)
        assert [block.name for block in program.blocks] == blocks_before
        (header,) = preheaders
        assert preheaders[header] == "entry"

    def test_if_join_predecessor_is_reused_as_preheader(self):
        # The join block after an ``if`` ends in an unconditional jump to
        # the loop header: it already serves as the preheader.
        source = (
            "int a, z, i, j;\n"
            "z = 0;\n"
            "i = 0;\n"
            "if (a < 3) { z = 1; }\n"
            "while (i < 4) { z = z + a; i = i + 1; }\n"
        )
        program = lower_to_program(source, name="cond_entry")
        original = lower_to_program(source, name="cond_entry")
        forest = loop_nesting_forest(ControlFlowGraph.from_program(program))
        (header,) = forest.loops
        blocks_before = [block.name for block in program.blocks]
        preheaders = insert_preheaders(program, forest)
        assert [block.name for block in program.blocks] == blocks_before
        assert preheaders[header] == "L2_join"
        assert forest.loops[header].preheader == "L2_join"
        _assert_same_execution(original, program)

    def test_multiple_outside_predecessors_get_fresh_preheader(self):
        # Two blocks branch straight into the loop header: no reusable
        # landing pad exists, so a fresh ``.pre`` block is created and
        # both edges are redirected through it.
        def build():
            return Program(
                name="multi_pred",
                scalars=["p", "z", "i"],
                blocks=[
                    BasicBlock(
                        name="entry",
                        statements=[Statement("i", Const(0))],
                        terminator=CBranch(
                            Op("lt", (VarRef("p"), Const(2))), "left", "right"
                        ),
                    ),
                    BasicBlock(
                        name="left",
                        statements=[Statement("z", Const(1))],
                        terminator=Jump("head"),
                    ),
                    BasicBlock(
                        name="right",
                        statements=[Statement("z", Const(2))],
                        terminator=Jump("head"),
                    ),
                    BasicBlock(
                        name="head",
                        statements=[
                            Statement("z", Op("add", (VarRef("z"), Const(1)))),
                            Statement("i", Op("add", (VarRef("i"), Const(1)))),
                        ],
                        terminator=CBranch(
                            Op("lt", (VarRef("i"), Const(4))), "head", "exit"
                        ),
                    ),
                    BasicBlock(name="exit", statements=[], terminator=None),
                ],
            )

        program = build()
        original = build()
        forest = loop_nesting_forest(ControlFlowGraph.from_program(program))
        preheaders = insert_preheaders(program, forest)
        assert preheaders["head"] == "head.pre"
        cfg = ControlFlowGraph.from_program(program)
        assert set(cfg.predecessors["head.pre"]) == {"left", "right"}
        assert set(cfg.predecessors["head"]) == {"head.pre", "head"}
        _assert_same_execution(original, program)

    def test_entry_header_moves_program_entry(self):
        # A do-while at the very top: the header IS the entry block, so
        # the preheader must become the new program entry.
        loop = BasicBlock(
            name="top",
            statements=[
                Statement("i", Op("add", (VarRef("i"), Const(1)))),
            ],
            terminator=CBranch(
                Op("lt", (VarRef("i"), Const(4))), "top", "done"
            ),
        )
        done = BasicBlock(name="done", statements=[], terminator=None)
        program = Program(
            name="entry_header", blocks=[loop, done], scalars=["i"]
        )
        preheaders = insert_preheaders(program)
        assert program.entry_block_name() == preheaders["top"]
        assert program.block(preheaders["top"]).terminator == Jump("top")


# ---------------------------------------------------------------------------
# Rotation and strength reduction (the "loops" stage)
# ---------------------------------------------------------------------------


class TestRotation:
    def test_while_kernel_rotates_to_do_while(self):
        program = kernel_program("dot_product_loop")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 1
        names = [block.name for block in optimized.blocks]
        assert names == ["entry", "L2_body", "L3_endwhile"]
        latch = optimized.block("L2_body")
        assert isinstance(latch.terminator, CBranch)
        assert "L2_body" in latch.terminator.targets()
        _assert_same_execution(program, optimized)

    def test_do_while_kernel_needs_no_rotation(self):
        program = kernel_program("mac_dowhile")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 0
        _assert_same_execution(program, optimized)

    def test_zero_trip_loop_is_not_rotated(self):
        # Rotation moves the test to the bottom, which would execute the
        # body once -- only proven >= 1 trip loops may rotate.
        source = (
            "int z, i;\n"
            "z = 0;\n"
            "i = 5;\n"
            "while (i < 4) { z = z + 1; i = i + 1; }\n"
        )
        program = lower_to_program(source, name="zero_trip")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.loops_rotated == 0
        _assert_same_execution(program, optimized)

    def test_counted_loop_recognition_proves_trip_count(self):
        program = kernel_program("fir_loop")
        loops = find_counted_loops(program)
        (loop,) = loops.values()
        assert loop.induction == "i"
        assert loop.trip_count == 8
        assert loop.step == 1


class TestStrengthReduction:
    SOURCE = (
        "int z, y, i;\n"
        "z = 0;\n"
        "y = 0;\n"
        "i = 0;\n"
        "while (i < 5) { z = z + i * 3; y = y + i * 3; i = i + 1; }\n"
    )

    def test_induction_products_become_increments(self):
        program = lower_to_program(self.SOURCE, name="sr")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.strength_reductions >= 2
        assert any(name.startswith("__sr") for name in optimized.scalars)
        _assert_same_execution(program, optimized)

    def test_single_occurrence_is_left_alone(self):
        source = (
            "int z, i;\n"
            "z = 0;\n"
            "i = 0;\n"
            "while (i < 5) { z = z + i * 3; i = i + 1; }\n"
        )
        program = lower_to_program(source, name="sr_single")
        optimized, stats = optimize_program(program, stages=("loops",))
        assert stats.strength_reductions == 0
        assert not any(name.startswith("__sr") for name in optimized.scalars)


# ---------------------------------------------------------------------------
# LICM and CSE across branches
# ---------------------------------------------------------------------------


class TestLICM:
    # LICM operates on rotated/do-while self-loops; ``k = a * b`` is an
    # invariant *statement* (single def, invariant reads) and moves
    # wholesale into the reused preheader.
    SOURCE = (
        "int a, b, k, z, i;\n"
        "z = 0;\n"
        "i = 0;\n"
        "do { k = a * b; z = z + k; i = i + 1; } while (i < 4);\n"
    )

    def test_invariant_statement_is_hoisted_out_of_the_loop(self):
        program = lower_to_program(self.SOURCE, name="licm")
        optimized, stats = optimize_program(program, stages=("licm",))
        assert stats.licm_hoisted >= 1
        forest = loop_nesting_forest(ControlFlowGraph.from_program(optimized))
        (loop,) = forest.loops.values()
        # The multiply left the loop body...
        body_text = " ".join(
            str(statement)
            for name in loop.blocks
            for statement in optimized.block(name).statements
        )
        assert "mul(a, b)" not in body_text
        # ...and lives in a block outside it.
        outside_text = " ".join(
            str(statement)
            for block in optimized.blocks
            if block.name not in loop.blocks
            for statement in block.statements
        )
        assert "mul(a, b)" in outside_text
        _assert_same_execution(program, optimized)

    def test_invariant_subexpression_is_materialized_once(self):
        source = (
            "int a, b, c, y, z, i;\n"
            "y = 0;\n"
            "z = 0;\n"
            "i = 0;\n"
            "do {\n"
            "  z = z + (a * b + c);\n"
            "  y = y - (a * b + c);\n"
            "  i = i + 1;\n"
            "} while (i < 4);\n"
        )
        program = lower_to_program(source, name="licm_subexpr")
        optimized, stats = optimize_program(program, stages=("licm",))
        assert stats.licm_hoisted >= 1
        assert any(name.startswith("__licm") for name in optimized.scalars)
        _assert_same_execution(program, optimized)

    def test_variant_expressions_stay_in_the_loop(self):
        # x[i] * h[i] varies with i: nothing to hoist even after rotation.
        program = kernel_program("fir_loop")
        optimized, stats = optimize_program(program, stages=("loops", "licm"))
        assert stats.licm_hoisted == 0
        _assert_same_execution(program, optimized)


class TestCrossBlockCSE:
    def test_reuse_stays_inside_the_block_that_computes_it(self):
        # The default pipeline's CSE is block-local: the repeat within
        # ``entry`` is served from a temporary, while the dominated
        # blocks recompute the product rather than read that temporary.
        source = (
            "int a, b, p, y0, y1, y2, y3;\n"
            "y0 = a * b + 7;\n"
            "y3 = a * b + 7;\n"
            "if (p < 4) { y1 = a * b + 7; }\n"
            "y2 = a * b + 7;\n"
        )
        program = lower_to_program(source, name="cse_dominated")
        optimized, stats = optimize_program(program)  # default stages
        assert stats.cse_hits == 2
        assert stats.temps_introduced == 1
        _assert_same_execution(program, optimized)
        for block in optimized.blocks:
            text = " ".join(str(s) for s in block.statements)
            if block.name == "entry":
                assert "__cse0" in text
            else:
                assert "__cse" not in text
                assert "mul(a, b)" in text

    def test_sibling_branches_do_not_share(self):
        # Neither branch of an if/else dominates the other: the optimizer
        # must not reuse a value computed in only one of them afterwards.
        source = (
            "int a, b, p, y0, y1, y2;\n"
            "if (p < 4) { y0 = a * b + 7; } else { y1 = a * b + 7; }\n"
            "y2 = a * b + 7;\n"
        )
        program = lower_to_program(source, name="cse_siblings")
        optimized, _stats = optimize_program(program)  # default stages
        _assert_same_execution(program, optimized)


# ---------------------------------------------------------------------------
# Hardware loops, end to end on the TMS320C25
# ---------------------------------------------------------------------------


class TestHardwareLoopsEndToEnd:
    def test_annotation_targets_single_block_self_loops(self):
        program = kernel_program("dot_product_loop")
        optimized, _stats = optimize_program(program)  # default stages
        annotations = annotate_hardware_loops(optimized)
        assert set(annotations) == {"L2_body"}
        loop = annotations["L2_body"]
        assert loop.trip_count == 4
        assert loop.kind == "repeat"

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_every_loop_kernel_gains_a_hoist_or_hardware_loop(
        self, kernel, tms_result
    ):
        program = kernel_program(kernel)
        result = Session(tms_result).compile_program(program)
        metrics = result.metrics
        assert metrics.opt_licm_hoisted >= 1 or metrics.opt_hw_loops >= 1, (
            "%s: no LICM hoist and no hardware loop on tms320c25" % kernel
        )
        assert metrics.opt_hw_loops == len(result.program.hw_loops)

    @pytest.mark.parametrize("kernel", sorted(loop_kernel_names()))
    def test_rt_simulation_matches_reference_execution(self, kernel, tms_result):
        original = kernel_program(kernel)
        result = Session(tms_result).compile_program(kernel_program(kernel))
        for seed in SEEDS:
            environment = _environment(original, seed)
            reference = original.execute(dict(environment))
            simulated = _observable(result.simulate(dict(environment)))
            for name in original.all_variables():
                assert simulated[name] == reference[name], (kernel, seed, name)

    def test_repeat_lowering_reenters_fresh_on_outer_iterations(self, tms_result):
        # An inner counted loop nested in an outer loop: the repeat
        # counter must reset between outer iterations.
        source = (
            "int z, i, j;\n"
            "z = 0;\n"
            "j = 0;\n"
            "while (j < 3) {\n"
            "  i = 0;\n"
            "  do { z = z + 1; i = i + 1; } while (i < 4);\n"
            "  j = j + 1;\n"
            "}\n"
        )
        program = lower_to_program(source, name="nested")
        original = lower_to_program(source, name="nested")
        result = Session(tms_result).compile_program(program)
        for seed in SEEDS:
            environment = _environment(original, seed)
            reference = original.execute(dict(environment))
            simulated = _observable(result.simulate(dict(environment)))
            assert simulated["z"] == reference["z"] == 12

    @pytest.mark.parametrize(
        "stages", [[]] + [[stage] for stage in OptPipeline.STAGES]
    )
    def test_every_stage_list_keeps_hardware_loop_annotations(self, stages):
        # Re-optimizing an annotated program re-derives its annotations
        # whatever the stage list: no stage may drop them.
        optimized, _stats = optimize_program(kernel_program("fir_loop"))
        assert set(optimized.hw_loops) == {"L2_body"}
        again, stats = OptPipeline(stages=stages).run(optimized)
        assert again.hw_loops == optimized.hw_loops
        assert again.hw_loops is not optimized.hw_loops
        assert stats.hw_loops == len(again.hw_loops)

    def test_annotations_are_rederived_not_carried(self):
        # A stale annotation on a program with no counted loop is dropped.
        program = kernel_program("fir")
        program.hw_loops = {
            "entry": HardwareLoop(latch="entry", trip_count=3, kind="rpt")
        }
        optimized, stats = OptPipeline(stages=["cse"]).run(program)
        assert optimized.hw_loops == {}
        assert stats.hw_loops == 0


class TestPipelineObserver:
    @pytest.mark.parametrize("kernel", ["fir_loop", "fir"])
    def test_observer_sees_every_stage_in_order(self, kernel):
        # "fir" is straight-line: the loop stages are skipped on an
        # acyclic CFG, but the observer still sees every stage.
        program = kernel_program(kernel)
        seen = []
        OptPipeline().run(
            program, observer=lambda stage, prog: seen.append(stage)
        )
        assert tuple(seen) == OptPipeline.DEFAULT_STAGES

    def test_stages_emit_child_spans_under_the_opt_pass(self, tms_result):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            Session(tms_result).compile_program(kernel_program("fir_loop"))
        spans = tracer.spans()
        opt_pass = [span for span in spans if span.name == "pass:opt"]
        assert len(opt_pass) == 1
        children = [
            span.name for span in spans if span.parent_id == opt_pass[0].span_id
        ]
        assert children == ["opt:%s" % stage for stage in OptPipeline.DEFAULT_STAGES]


class TestAcyclicSkip:
    def test_acyclic_programs_build_no_loop_forest(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("loop analysis on an acyclic CFG")

        monkeypatch.setattr(ControlFlowGraph, "loop_forest", forbidden)
        program = lower_to_program(
            "int a, b, c, y;\nif (a < b) { y = a * b + c; } else { y = c; }\n",
            name="branchy",
        )
        optimized, stats = optimize_program(program)
        assert len(optimized.blocks) == len(program.blocks)
        assert stats.loops_rotated == stats.licm_hoisted == stats.hw_loops == 0
        _assert_same_execution(program, optimized)

    def test_loop_analysis_runs_once_per_rotation(self, monkeypatch):
        import repro.opt.loops as loops_module

        calls = []
        real = loops_module.find_counted_loops

        def counting(program, cfg=None):
            calls.append(cfg is not None)
            return real(program, cfg)

        monkeypatch.setattr(loops_module, "find_counted_loops", counting)
        _optimized, stats = optimize_program(kernel_program("fir_loop"))
        assert stats.loops_rotated == 1
        # Rotation recognizes before and after its one rewrite; strength
        # reduction reuses the last recognition; annotation recognizes
        # the final program.  Every call reuses a CFG already built.
        assert calls == [True, True, True]

    def test_one_loop_forest_per_cfg(self, monkeypatch):
        import repro.analysis.loops as loops_analysis

        built = []
        real = loops_analysis.loop_nesting_forest

        def counting(cfg, idom=None):
            built.append(cfg)
            return real(cfg, idom)

        monkeypatch.setattr(loops_analysis, "loop_nesting_forest", counting)
        _optimized, stats = optimize_program(kernel_program("fir_loop"))
        assert stats.loops_rotated == 1 and stats.licm_hoisted == 0
        # One forest before rotation, one after it, shared by strength
        # reduction, LICM and the hardware-loop annotation.
        assert len(built) == len(set(map(id, built))) == 2


class TestStatsInvariants:
    def test_counters_are_never_negative_on_loop_heavy_programs(self):
        for seed in range(40):
            program = lower_to_program(
                generate_source(seed, LOOP_HEAVY_CONFIG), name="loops%d" % seed
            )
            _optimized, stats = optimize_program(program)
            for key, value in stats.to_dict().items():
                if isinstance(value, int):
                    assert value >= 0, (seed, key, value)

    def test_compile_metrics_obey_their_declared_invariants(self, retarget_results):
        def check(session, program):
            metrics = session.compile_program(program).metrics
            for f in METRIC_FIELDS:
                value = getattr(metrics, f.name)
                assert value >= 0, (program.name, f.name, value)
                if f.metadata["unit"] == "ratio":
                    assert value <= 1, (program.name, f.name, value)

        kernels = all_kernel_names() + loop_kernel_names()
        for target in ("demo", "ref", "tms320c25"):
            session = Session(retarget_results[target])
            for name in kernels:
                check(session, kernel_program(name))
            if target == "demo":
                continue  # almost no loop-heavy program compiles on demo
            for seed in range(40):
                source = generate_source(seed, LOOP_HEAVY_CONFIG)
                check(session, lower_to_program(source, name="loops%d" % seed))
