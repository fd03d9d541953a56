"""Table 3: retargeting time and RT template count per target processor.

The paper reports, for six processors (demo, ref, manocpu, tanenbaum,
bass_boost, TMS320C25), the number of RT templates in the extended template
base (column 2) and the total retargeting time including instruction-set
extraction, grammar construction, parser generation and parser compilation
(column 3, SPARC-20 CPU seconds).

Each benchmark below runs the complete retargeting flow for one target; the
measured wall-clock time is our column 3, and ``extra_info`` records the
template counts (column 2) plus per-phase times.  Run with::

    pytest benchmarks/bench_table3_retargeting.py --benchmark-only

or execute this file directly to print the table in the paper's layout.
"""

from __future__ import annotations

import pytest

from repro.record.retarget import retarget
from repro.targets import all_target_names, target_hdl_source

# Paper values (DATE 1997, table 3) for side-by-side comparison in reports.
PAPER_TEMPLATE_COUNTS = {
    "demo": 439,
    "ref": 1703,
    "manocpu": 207,
    "tanenbaum": 232,
    "bass_boost": 89,
    "tms320c25": 356,
}
PAPER_RETARGETING_SECONDS = {
    "demo": 356.0,
    "ref": 84.0,
    "manocpu": 6.3,
    "tanenbaum": 11.7,
    "bass_boost": 3.7,
    "tms320c25": 165.0,
}


@pytest.mark.parametrize("target", all_target_names())
def test_table3_retargeting_time(benchmark, target):
    """Full retargeting flow (HDL -> netlist -> ISE -> expansion -> grammar
    -> generated parser) for one target processor."""
    source = target_hdl_source(target)
    result = benchmark.pedantic(retarget, args=(source,), rounds=3, iterations=1)
    benchmark.extra_info["target"] = target
    benchmark.extra_info["rt_templates_extended"] = result.template_count
    benchmark.extra_info["rt_templates_raw"] = result.raw_template_count
    benchmark.extra_info["grammar_rules"] = len(result.grammar.rules)
    benchmark.extra_info["paper_rt_templates"] = PAPER_TEMPLATE_COUNTS[target]
    benchmark.extra_info["paper_retargeting_seconds_sparc20"] = PAPER_RETARGETING_SECONDS[target]
    for phase, seconds in result.timings.as_dict().items():
        benchmark.extra_info["phase_%s_s" % phase] = round(seconds, 4)
    assert result.template_count > 0


def main():
    """Print table 3 in the paper's layout (measured vs. paper)."""
    header = "%-12s %18s %22s %18s %22s" % (
        "target",
        "RT templates",
        "retargeting time [s]",
        "paper templates",
        "paper time [SPARC-20 s]",
    )
    print(header)
    print("-" * len(header))
    for target in all_target_names():
        result = retarget(target_hdl_source(target))
        print(
            "%-12s %18d %22.3f %18d %22.1f"
            % (
                target,
                result.template_count,
                result.timings.total,
                PAPER_TEMPLATE_COUNTS[target],
                PAPER_RETARGETING_SECONDS[target],
            )
        )


if __name__ == "__main__":
    main()
