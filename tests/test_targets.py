"""Tests of the built-in processor models and the target library."""

import pytest

from repro.hdl import ModuleKind, parse_processor
from repro.netlist import build_netlist
from repro.targets import all_target_names, get_target, load_target_netlist, target_hdl_source


class TestLibrary:
    def test_all_six_targets_present(self):
        # The order of table 3 of the paper.
        assert all_target_names() == [
            "demo",
            "ref",
            "manocpu",
            "tanenbaum",
            "bass_boost",
            "tms320c25",
        ]

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            get_target("pdp11")
        with pytest.raises(KeyError):
            target_hdl_source("pdp11")

    def test_specs_have_descriptions(self):
        for name in all_target_names():
            spec = get_target(name)
            assert spec.name == name
            assert spec.description
            assert spec.category

    def test_hdl_sources_parse(self):
        for name in all_target_names():
            model = parse_processor(target_hdl_source(name))
            assert model.name == name

    def test_netlists_build(self):
        for name in all_target_names():
            netlist = load_target_netlist(name)
            assert netlist.name == name
            assert netlist.control_source_modules(), name


class TestModelStructure:
    def test_every_target_has_one_instruction_memory(self):
        for name in all_target_names():
            netlist = load_target_netlist(name)
            instruction_memories = [
                m
                for m in netlist.modules.values()
                if m.kind == ModuleKind.INSTRUCTION_MEMORY
            ]
            assert len(instruction_memories) == 1, name

    def test_every_target_has_a_data_memory_except_none(self):
        for name in all_target_names():
            netlist = load_target_netlist(name)
            memories = [m for m in netlist.modules.values() if m.kind == ModuleKind.MEMORY]
            assert memories, name

    def test_tms_register_set(self):
        netlist = load_target_netlist("tms320c25")
        registers = {m.name for m in netlist.modules.values() if m.kind == ModuleKind.REGISTER}
        assert {"ACC", "TREG", "PREG", "AR"} <= registers

    def test_ref_register_file(self):
        netlist = load_target_netlist("ref")
        registers = {m.name for m in netlist.modules.values() if m.kind == ModuleKind.REGISTER}
        assert {"R0", "R1", "R2", "R3", "AR"} <= registers

    def test_all_inputs_of_datapath_modules_are_driven(self):
        # every combinational module input should be connected; an undriven
        # input would silently remove routes
        for name in all_target_names():
            netlist = load_target_netlist(name)
            for module in netlist.combinational_modules():
                for port in module.input_ports():
                    assert netlist.driver_of_input(module.name, port.name) is not None, (
                        name,
                        str(port),
                    )


class TestExtractionExpectations:
    """Per-target expectations about the extracted instruction set (the
    qualitative shape of table 3)."""

    def test_template_count_ordering(self, retarget_results):
        counts = {name: result.template_count for name, result in retarget_results.items()}
        # ref is by far the largest template base, bass_boost the smallest
        assert counts["ref"] == max(counts.values())
        assert counts["bass_boost"] == min(counts.values())
        assert counts["tms320c25"] > counts["bass_boost"]

    def test_all_targets_have_a_store_template(self, retarget_results):
        for name, result in retarget_results.items():
            destinations = result.template_base.destinations()
            memories = {
                m.name
                for m in result.netlist.modules.values()
                if m.kind == ModuleKind.MEMORY and m.memory_writes()
            }
            assert memories & destinations, name

    def test_mac_machines_expose_chained_templates(self, retarget_results):
        for name in ("ref", "bass_boost", "tms320c25"):
            chained = retarget_results[name].template_base.chained_templates()
            assert chained, name

    def test_accumulator_machines_have_add_templates(self, retarget_results):
        for name, result in retarget_results.items():
            assert "add" in result.template_base.operators(), name

    def test_demo_specific_templates(self, retarget_results):
        rendered = {t.render() for t in retarget_results["demo"].extraction.template_base}
        assert "ACC := add(ACC, DMEM)" in rendered
        assert "ACC := mul(ACC, DMEM)" in rendered
        assert "BREG := DMEM" in rendered
        assert "DMEM := ACC [direct]" in rendered

    def test_tms_specific_templates(self, retarget_results):
        rendered = {t.render() for t in retarget_results["tms320c25"].extraction.template_base}
        assert "ACC := add(ACC, mul(TREG, DMEM))" in rendered
        assert "PREG := mul(TREG, DMEM)" in rendered
        assert "TREG := DMEM" in rendered
        assert "ACC := PREG" in rendered

    def test_bass_boost_specific_templates(self, retarget_results):
        rendered = {t.render() for t in retarget_results["bass_boost"].extraction.template_base}
        assert "ACC := add(ACC, mul(XREG, CROM))" in rendered
        assert "XREG := DMEM" in rendered
        assert "XREG := SAMPLE_IN" in rendered

    def test_manocpu_specific_templates(self, retarget_results):
        rendered = {t.render() for t in retarget_results["manocpu"].extraction.template_base}
        assert "AC := add(AC, DMEM)" in rendered
        assert "AC := and(AC, DMEM)" in rendered
        assert "AC := not(AC)" in rendered
        assert "AC := #0" in rendered

    def test_tanenbaum_specific_templates(self, retarget_results):
        rendered = {t.render() for t in retarget_results["tanenbaum"].extraction.template_base}
        assert "AC := add(AC, DMEM)" in rendered
        assert "SP := add(SP, #1)" in rendered
        assert "SP := sub(SP, #1)" in rendered
