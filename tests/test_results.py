"""Tests for the structured CompilationResult artifact API."""

import dataclasses
import importlib
import json

import pytest

import repro
import repro.record
from repro.baselines import conventional_compiler

from repro.diagnostics import Diagnostic, ResultError
from repro.record.report import compilation_report
from repro.toolchain import (
    CompilationResult,
    CompileMetrics,
    PipelineConfig,
    Session,
    StatementArtifact,
)
from repro.toolchain.results import METRIC_FIELDS

SOURCE = "int a, b, c, d; d = c + a * b;"

#: A demo-machine source that forces spill insertion (one accumulator,
#: four live products).
SPILLY = (
    "int x0, x1, x2, x3, y; "
    "y = x0 * x1 + x1 * x2 + x2 * x3 + x3 * x0;"
)


@pytest.fixture(scope="module")
def result(tms_session):
    return tms_session.compile(SOURCE, name="mac")


class TestMetricsAndTimings:
    def test_metrics_block_matches_flat_properties(self, result):
        metrics = result.metrics
        assert isinstance(metrics, CompileMetrics)
        assert metrics.code_size == result.code_size
        assert metrics.operation_count == result.operation_count
        assert metrics.spill_count == result.spill_count
        assert metrics.selection_cost == result.selection_cost
        assert metrics.statement_count == len(result.statement_codes)

    def test_every_configured_pass_has_a_timing(self, tms_result):
        for preset in ("full", "conventional", "no-scheduling"):
            config = PipelineConfig.preset(preset)
            compiled = Session(tms_result, config=config).compile(SOURCE)
            assert list(compiled.pass_timings) == config.pass_names()
            assert all(t >= 0.0 for t in compiled.pass_timings.values())

    def test_encode_pass_is_timed_too(self, tms_result):
        config = PipelineConfig(encode=True)
        compiled = Session(tms_result, config=config).compile(SOURCE)
        assert "encode" in compiled.pass_timings
        assert compiled.encoding is not None

    def test_compile_time_is_sum_of_pass_timings(self, result):
        assert result.metrics.compile_time_s == pytest.approx(
            sum(result.pass_timings.values())
        )

    def test_config_is_recorded(self, result):
        assert result.config == PipelineConfig()


class TestViews:
    def test_listing_view(self, result):
        listing = result.listing()
        assert "mac" in listing and "tms320c25" in listing
        assert result.view("listing") == listing

    def test_statements_view(self, result):
        statements = result.statements()
        assert len(statements) == 1
        artifact = statements[0]
        assert isinstance(artifact, StatementArtifact)
        assert artifact.statement.startswith("d =")
        assert artifact.cost == result.selection_cost
        assert len(artifact.operations) == result.operation_count

    def test_metrics_and_timings_views(self, result):
        assert result.view("metrics") == result.metrics.to_dict()
        assert result.view("timings") == dict(result.pass_timings)

    def test_unknown_view_raises(self, result):
        with pytest.raises(ResultError):
            result.view("disassembly")

    def test_simulation_trace_view(self, result):
        trace = result.simulation_trace({"a": 2, "b": 5, "c": 1})
        assert len(trace.steps) == 1
        assert trace.final_environment["d"] == 11
        assert trace.steps[0].environment["d"] == 11
        assert trace.steps[0].operations  # the RT descriptions
        assert trace.to_dict()["final_environment"]["d"] == 11
        assert result.simulate({"a": 2, "b": 5, "c": 1})["d"] == 11


class TestSerialization:
    def test_to_json_round_trips_through_from_dict(self, result):
        data = json.loads(result.to_json())
        rebuilt = CompilationResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        # and a second generation is stable too
        assert CompilationResult.from_json(rebuilt.to_json()).to_dict() == data

    def test_round_trip_preserves_all_pass_timings(self, tms_result):
        config = PipelineConfig(encode=True)
        compiled = Session(tms_result, config=config).compile(SOURCE)
        rebuilt = CompilationResult.from_json(compiled.to_json())
        assert rebuilt.pass_timings == compiled.pass_timings
        assert list(rebuilt.pass_timings) == config.pass_names()

    def test_round_trip_preserves_views_and_diagnostics(self, demo_result):
        compiled = Session(demo_result).compile(SPILLY, name="spilly")
        assert compiled.spill_count > 0
        assert any(d.severity == "warning" for d in compiled.diagnostics)
        rebuilt = CompilationResult.from_json(compiled.to_json())
        assert rebuilt.listing() == compiled.listing()
        assert rebuilt.statements() == compiled.statements()
        assert rebuilt.diagnostics == compiled.diagnostics
        assert rebuilt.metrics == compiled.metrics
        assert rebuilt.config == compiled.config

    def test_detached_results_refuse_live_artifacts(self, result):
        detached = CompilationResult.from_dict(result.to_dict())
        assert detached.is_detached
        assert not result.is_detached
        with pytest.raises(ResultError):
            detached.instances
        with pytest.raises(ResultError):
            detached.simulation_trace({})

    def test_unsupported_schema_rejected(self, result):
        data = result.to_dict()
        data["schema"] = 999
        with pytest.raises(ResultError):
            CompilationResult.from_dict(data)

    def test_diagnostic_round_trip(self):
        diagnostic = Diagnostic(severity="warning", message="m", phase="spill")
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic

    def test_pipeline_config_round_trip(self):
        config = PipelineConfig.preset("no-chained").with_updates(encode=True)
        assert PipelineConfig.from_dict(config.to_dict()) == config


class TestSpillDiagnostics:
    def test_spill_pass_emits_structured_warning(self, demo_result):
        compiled = Session(demo_result).compile(SPILLY)
        warnings = [d for d in compiled.diagnostics if d.phase == "spill"]
        assert len(warnings) == 1
        assert str(compiled.spill_count) in warnings[0].message

    def test_spill_free_compilation_has_no_spill_diagnostic(self, result):
        assert not [d for d in result.diagnostics if d.phase == "spill"]


class TestMetricsSchema:
    """``CompileMetrics`` is the one declaration every consumer derives from."""

    def test_every_field_declares_unit_and_help(self):
        for f in METRIC_FIELDS:
            assert f.metadata["unit"] and f.metadata["help"], f.name

    def test_to_dict_keys_are_the_field_names(self, result):
        assert list(result.metrics.to_dict()) == [f.name for f in METRIC_FIELDS]
        assert result.metrics.to_dict() == dataclasses.asdict(result.metrics)

    def test_from_dict_round_trips_and_loads_results_with_dropped_keys(self, result):
        data = result.metrics.to_dict()
        assert CompileMetrics.from_dict(data) == result.metrics
        older = dict(data, tables_build_time_s=0.25)
        assert CompileMetrics.from_dict(older) == result.metrics

    def test_report_has_a_line_for_every_field(self, result):
        lines = compilation_report(result).splitlines()
        for f in METRIC_FIELDS:
            assert any(
                line.split()[0] == f.name and line.split()[-1] == f.metadata["unit"]
                for line in lines
                if line.strip()
            ), f.name

    def test_metrics_exposition_has_a_family_for_every_summed_field(self, result):
        from repro.server.metrics import ServerMetrics, compile_family_name

        server = ServerMetrics()
        envelope = {"target": "tms320c25", "ok": True, "result": result.to_dict()}
        server.record_compile(envelope)
        server.record_compile(envelope)
        text = server.render()
        for f in METRIC_FIELDS:
            if f.metadata["unit"] == "ratio":
                continue
            family = compile_family_name(f.name)
            assert "# HELP %s %s" % (family, f.metadata["help"]) in text
            assert "# TYPE %s counter" % family in text
            sample = '%s{target="tms320c25"} ' % family
            [line] = [line for line in text.splitlines() if line.startswith(sample)]
            expected = 2 * getattr(result.metrics, f.name)
            assert float(line.split()[-1]) == pytest.approx(expected), f.name
        rate = result.metrics.label_memo_hit_rate
        memo = "repro_label_memo_hit_rate "
        [line] = [line for line in text.splitlines() if line.startswith(memo)]
        assert float(line.split()[-1]) == pytest.approx(rate)

    @pytest.mark.parametrize(
        "override",
        [
            {"spill_count": -1},
            {"compile_time_s": -0.5},
            {"opt_cse_hits": -1},
            {"label_memo_hit_rate": 1.5},
            {"label_memo_hit_rate": float("nan")},
            {"code_size": "4"},
        ],
    )
    def test_invariant_violations_raise(self, result, override):
        data = dict(result.metrics.to_dict(), **override)
        with pytest.raises(ResultError, match=next(iter(override))):
            CompileMetrics.from_dict(data)
        with pytest.raises(ResultError):
            dataclasses.replace(result.metrics, **override)


class TestOneCompileAPI:
    def test_record_compiler_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.record.compiler")
        for module in (repro, repro.record, importlib.import_module("repro.toolchain")):
            for name in ("RecordCompiler", "CompiledProgram", "CompilerOptions"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_opt_gvn_hits_is_a_read_only_zero_outside_the_schema(self, result):
        metrics = result.metrics
        assert metrics.opt_gvn_hits == 0
        assert "opt_gvn_hits" not in metrics.to_dict()
        assert "opt_gvn_hits" not in {f.name for f in dataclasses.fields(metrics)}
        with pytest.raises(AttributeError):
            metrics.opt_gvn_hits = 1

    def test_conventional_compiler_matches_a_preset_session(self, tms_result):
        via_baseline = conventional_compiler(tms_result).compile(SOURCE)
        via_session = Session(
            tms_result, config=PipelineConfig.preset("conventional")
        ).compile(SOURCE)
        assert via_baseline.code_size == via_session.code_size
        assert via_baseline.operation_count == via_session.operation_count
        assert [i.describe() for i in via_baseline.instances] == [
            i.describe() for i in via_session.instances
        ]
        assert via_baseline.listing() == via_session.listing()


class TestReport:
    def test_compilation_report_renders(self, result):
        report = compilation_report(result)
        assert "mac" in report and "tms320c25" in report
        for pass_name in result.pass_timings:
            assert pass_name in report

    def test_compilation_report_works_on_detached_results(self, result):
        detached = CompilationResult.from_json(result.to_json())
        assert compilation_report(detached) == compilation_report(result)
