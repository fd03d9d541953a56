"""Textual reports about retargeted processors.

``retargeting_report`` summarises one retargeting run (the information of
one row of table 3); ``processor_class_report`` reconstructs the feature
checklist of table 1 of the paper from the extracted instruction set.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List

from repro.hdl.ast import ModuleKind
from repro.ise.templates import RegLeaf, pattern_leaves
from repro.record.retarget import RetargetResult


def compilation_report(result) -> str:
    """A multi-line summary of one compilation: one line per
    :class:`~repro.toolchain.results.CompileMetrics` field (name, value,
    unit), then the per-pass wall-clock timings and the diagnostics (the
    compile-side analogue of :func:`retargeting_report`).

    ``result`` is a :class:`repro.toolchain.results.CompilationResult`
    (live or detached -- both carry metrics and timings).
    """
    lines: List[str] = []
    lines.append("Compilation report for %r on %r" % (result.name, result.processor))
    lines.append("-" * 60)
    for f in fields(result.metrics):
        value = getattr(result.metrics, f.name)
        text = "%.6f" % value if isinstance(value, float) else "%d" % value
        lines.append("%-24s %12s %s" % (f.name, text, f.metadata["unit"]))
    lines.append("pass timings:")
    for pass_name, seconds in result.pass_timings.items():
        lines.append("    %-18s %10.6f s" % (pass_name, seconds))
    for diagnostic in result.diagnostics:
        lines.append(str(diagnostic))
    return "\n".join(lines) + "\n"


def retargeting_report(result: RetargetResult) -> str:
    """A multi-line summary of one retargeting run."""
    stats = result.netlist.stats()
    lines: List[str] = []
    lines.append("Retargeting report for processor %r" % result.processor)
    lines.append("-" * 60)
    lines.append("netlist: %d modules (%d sequential, %d combinational), "
                 "%d primary ports, %d buses"
                 % (stats["modules"], stats["sequential"], stats["combinational"],
                    stats["primary_ports"], stats["buses"]))
    lines.append("extracted RT templates:  %5d" % result.raw_template_count)
    lines.append("extended RT templates:   %5d" % result.template_count)
    lines.append("grammar: %d rules (%d RT, %d start, %d stop), %d terminals, %d non-terminals"
                 % (len(result.grammar.rules), len(result.grammar.rt_rules()),
                    len(result.grammar.start_rules()), len(result.grammar.stop_rules()),
                    len(result.grammar.terminals), len(result.grammar.nonterminals)))
    tables_stats = result.selector.tables.stats()
    lines.append("matcher tables: %d normal-form rows (%d fresh non-terminals, "
                 "%d dominated rows dropped), "
                 "%d chain-closure entries over %d sources"
                 % (tables_stats["normal_form_rows"],
                    tables_stats["fresh_nonterminals"],
                    tables_stats["dropped_rows"],
                    tables_stats["closure_entries"],
                    tables_stats["closure_sources"]))
    timings = result.timings
    lines.append("retargeting time: %.3f s total" % timings.total)
    for phase, seconds in timings.as_dict().items():
        if phase == "total":
            continue
        lines.append("    %-18s %8.3f s" % (phase, seconds))
    return "\n".join(lines) + "\n"


def processor_class_report(result: RetargetResult) -> Dict[str, str]:
    """The table-1 feature checklist, derived from the extracted model.

    Keys follow the parameter column of table 1 in the paper; values are
    the detected characteristics of the retargeted processor.
    """
    netlist = result.netlist
    base = result.template_base

    registers = [
        m for m in netlist.modules.values() if m.kind == ModuleKind.REGISTER
    ]
    memories = [m for m in netlist.modules.values() if m.kind == ModuleKind.MEMORY]
    mode_registers = [
        m for m in netlist.modules.values() if m.kind == ModuleKind.MODE_REGISTER
    ]
    decoders = [m for m in netlist.modules.values() if m.kind == ModuleKind.DECODER]

    # Memory structure: memory-register if some operator template reads a
    # memory operand directly, otherwise load-store.
    memory_register = False
    for template in base:
        if template.is_data_move():
            continue
        for leaf in pattern_leaves(template.pattern):
            if isinstance(leaf, RegLeaf) and any(m.name == leaf.storage for m in memories):
                memory_register = True
                break
        if memory_register:
            break

    addressing_modes = sorted(
        {t.addressing for t in base if t.addressing is not None}
    )

    register_destinations = {
        t.destination
        for t in base
        if any(m.name == t.destination for m in registers)
    }
    heterogeneous = len(register_destinations) > 1

    return {
        "data type": "fixed-point",
        "code type": "time-stationary",
        "instruction format": "encoded" if decoders else "horizontal",
        "memory structure": "memory-register" if memory_register else "load-store",
        "addressing modes": ", ".join(addressing_modes) if addressing_modes else "none",
        "register structure": "heterogeneous" if heterogeneous else "homogeneous",
        "mode registers": "yes (%d)" % len(mode_registers) if mode_registers else "no",
        "RT templates": str(len(base)),
    }


def format_processor_class_report(result: RetargetResult) -> str:
    """Render the table-1 checklist as aligned text."""
    report = processor_class_report(result)
    width = max(len(key) for key in report)
    lines = ["Processor class features for %r" % result.processor, "-" * 50]
    for key, value in report.items():
        lines.append("%-*s  %s" % (width, key, value))
    return "\n".join(lines) + "\n"
