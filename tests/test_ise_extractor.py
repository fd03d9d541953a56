"""Unit tests for the instruction-set extraction driver."""

from repro.hdl import parse_processor
from repro.ise import InstructionSetExtractor, extract_instruction_set
from repro.netlist import build_netlist
from repro.targets import target_hdl_source


def _netlist(name):
    return build_netlist(parse_processor(target_hdl_source(name)))


class TestExtraction:
    def test_demo_extraction_produces_templates(self):
        result = extract_instruction_set(_netlist("demo"))
        assert len(result.template_base) > 5
        rendered = {t.render() for t in result.template_base}
        assert "ACC := add(ACC, DMEM)" in rendered
        assert "POUT := ACC" in rendered

    def test_every_template_condition_is_satisfiable(self):
        result = extract_instruction_set(_netlist("demo"))
        assert all(t.condition.satisfiable() for t in result.template_base)

    def test_duplicates_are_merged(self):
        result = extract_instruction_set(_netlist("demo"))
        keys = {
            (t.destination, str(t.pattern), t.condition.node)
            for t in result.template_base
        }
        assert len(keys) == len(result.template_base)

    def test_per_destination_counts_sum_to_total(self):
        result = extract_instruction_set(_netlist("tms320c25"))
        assert sum(result.per_destination.values()) == len(result.template_base)

    def test_stats_contains_template_count(self):
        result = extract_instruction_set(_netlist("bass_boost"))
        stats = result.stats()
        assert stats["templates"] == len(result.template_base)
        assert "chained" in stats

    def test_extractor_class_equivalent_to_helper(self):
        netlist = _netlist("manocpu")
        via_class = InstructionSetExtractor(netlist).extract()
        via_helper = extract_instruction_set(_netlist("manocpu"))
        assert len(via_class.template_base) == len(via_helper.template_base)

    def test_chained_templates_found_on_mac_machines(self):
        result = extract_instruction_set(_netlist("tms320c25"))
        chained = {t.render() for t in result.template_base.chained_templates()}
        assert "ACC := add(ACC, mul(TREG, DMEM))" in chained
        assert "ACC := sub(ACC, mul(TREG, DMEM))" in chained

    def test_mode_register_free_machines_have_no_mode_bits(self):
        result = extract_instruction_set(_netlist("demo"))
        names = result.control.instruction_bit_names()
        assert all(name.startswith("IM.") for name in names)

    def test_truncation_flag_not_set_for_builtin_targets(self):
        for name in ("demo", "manocpu", "tanenbaum", "bass_boost", "tms320c25"):
            result = extract_instruction_set(_netlist(name))
            assert not result.truncated, name
