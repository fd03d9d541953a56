"""Unit tests for the RECORD driver: retargeting, compiler, reports."""

import pytest

from repro.expansion import ExpansionOptions
from repro.record import (
    processor_class_report,
    retarget,
    retargeting_report,
)
from repro.record.report import format_processor_class_report
from repro.targets import target_hdl_source
from repro.toolchain import PipelineConfig, Session


class TestRetarget:
    def test_phases_are_timed(self, demo_result):
        timings = demo_result.timings.as_dict()
        assert set(timings) == {
            "hdl_frontend",
            "netlist",
            "extraction",
            "expansion",
            "grammar",
            "tables",
            "parser_generation",
            "total",
        }
        assert timings["total"] >= max(v for k, v in timings.items() if k != "total")
        assert all(value >= 0 for value in timings.values())

    def test_template_counts(self, demo_result):
        assert demo_result.raw_template_count > 0
        assert demo_result.template_count >= demo_result.raw_template_count
        assert demo_result.template_count == len(demo_result.template_base)

    def test_summary_fields(self, demo_result):
        summary = demo_result.summary()
        assert summary["processor"] == "demo"
        assert summary["extended_templates"] == demo_result.template_count
        assert summary["retargeting_time_s"] == pytest.approx(demo_result.timings.total)

    def test_grammar_is_valid_for_all_targets(self, retarget_results):
        for name, result in retarget_results.items():
            assert result.grammar.validate() == [], name

    def test_expansion_can_be_disabled(self):
        options = ExpansionOptions(use_commutativity=False, use_rewrite_rules=False)
        result = retarget(target_hdl_source("demo"), expansion=options, generate_matcher=False)
        assert result.template_count == result.raw_template_count
        assert result.matcher_module is None

    def test_retarget_is_deterministic(self):
        first = retarget(target_hdl_source("bass_boost"), generate_matcher=False)
        second = retarget(target_hdl_source("bass_boost"), generate_matcher=False)
        assert first.template_count == second.template_count
        assert {t.render() for t in first.template_base} == {
            t.render() for t in second.template_base
        }


class TestCompiler:
    def test_compile_source_end_to_end(self, tms_session):
        compiled = tms_session.compile("int a, b, c, d; d = c + a * b;")
        assert compiled.code_size == 4
        assert compiled.operation_count == 4
        assert compiled.spill_count == 0
        assert compiled.selection_cost == 4
        assert compiled.processor == "tms320c25"

    def test_listing_is_renderable(self, tms_session):
        compiled = tms_session.compile("int a, b, d; d = a + b;", name="tiny")
        listing = compiled.listing()
        assert "tiny" in listing and "tms320c25" in listing

    def test_binding_overrides_are_respected(self, tms_result):
        compiled = Session(tms_result).compile(
            "int a, d; d = d + a;", binding_overrides={"a": "ACC"}
        )
        assert compiled.binding.storage_of("a") == "ACC"

    def test_options_disable_compaction(self, tms_result):
        with_compaction = Session(tms_result, PipelineConfig(use_compaction=True))
        without = Session(tms_result, PipelineConfig(use_compaction=False))
        source = "int a, b, c, d, e; d = c + a * b; e = c - a;"
        assert (
            with_compaction.compile(source).code_size
            <= without.compile(source).code_size
        )

    def test_no_chained_option_increases_cost(self, tms_result):
        full = Session(tms_result)
        restricted = Session(tms_result, PipelineConfig(allow_chained=False))
        source = "int a, b, c, d; d = c + a * b;"
        assert restricted.compile(source).code_size > full.compile(source).code_size

    def test_compiled_programs_share_statement_structure(self, tms_session):
        compiled = tms_session.compile("int a, b, c; b = a + 1; c = b + 2;")
        assert len(compiled.statement_codes) == 2
        assert compiled.program.statement_count() == 2


class TestReports:
    def test_retargeting_report_mentions_counts(self, demo_result):
        report = retargeting_report(demo_result)
        assert "demo" in report
        assert str(demo_result.template_count) in report
        assert "retargeting time" in report

    def test_processor_class_report_demo(self, demo_result):
        report = processor_class_report(demo_result)
        assert report["data type"] == "fixed-point"
        assert report["instruction format"] == "encoded"
        assert report["memory structure"] == "memory-register"
        assert report["register structure"] == "heterogeneous"
        assert report["mode registers"] == "no"

    def test_processor_class_report_tms(self, tms_result):
        report = processor_class_report(tms_result)
        assert report["register structure"] == "heterogeneous"
        assert "direct" in report["addressing modes"] or "computed" in report["addressing modes"]

    def test_formatted_report(self, demo_result):
        text = format_processor_class_report(demo_result)
        assert "Processor class features" in text
        assert "fixed-point" in text
