"""BURS labelling throughput against a recursive baseline.

The paper's selectors are iburg-generated table matchers; our
:class:`~repro.selector.burs.CodeSelector` goes one step further and
labels with an on-demand BURS automaton: cost-normalized states, interned,
with transitions cached on (label, hardwired constant, child states) and
computed on a miss from the grammar's one-level normal form.  This
benchmark measures what that buys on the TMS320C25 grammar and asserts
the selector labels at least 3x the throughput of a bench-local
baseline, :class:`RecursiveBaselineSelector`: recursive pattern matching
over grammar objects, chain closure recomputed at every node, no cache --
the algorithm the selector used before its tables.

Methodology: every measured pass labels **freshly built subject trees**
(new ``SubjectNode`` objects, as every real compile produces), so the
asserted number covers first-touch transition misses plus steady-state
hits across a repetitive batch stream.  Relabelling the same tree
objects is reported as a separate, unasserted number.  A differential
harness first proves both selectors produce byte-identical covers (cost
and rule index sequence per statement), so the speedup is never bought
with a different answer.

Run as a script to merge a ``labeller_throughput`` section into
``BENCH_results.json`` (created if absent) for the CI artifact trail::

    python benchmarks/bench_labeller_throughput.py --output BENCH_results.json
"""

from __future__ import annotations

import json
import os
import time
from typing import List

from repro.codegen.selection import build_subject_tree
from repro.frontend import lower_to_program
from repro.grammar.grammar import PatNonterm
from repro.ir import bind_program
from repro.selector.burs import CodeSelector, Reduction, SelectionError, SelectionResult
from repro.selector.subject import SubjectNode
from repro.selector.tables import chain_closure_from

#: Floor asserted on fresh-tree labelling:
#: (automaton nodes/s) / (baseline nodes/s).
SPEEDUP_FLOOR = 3.0

#: Floor asserted on the fresh-tree full select() path.
SELECT_SPEEDUP_FLOOR = 1.5

#: Fresh copies of the workload per measured pass; sized so the slowest
#: (baseline) measurement takes a few hundred milliseconds.
WORKLOAD_COPIES = 100


def _match_pattern(pattern, node, states):
    """Recursive match of one rule pattern: ``(leaf cost, leaves)`` or
    ``None``."""
    if isinstance(pattern, PatNonterm):
        entry = states[id(node)].get(pattern.name)
        if entry is None:
            return None
        return entry[0], [(node, pattern.name)]
    if node.label != pattern.name:
        return None
    if pattern.value is not None and node.const_value != pattern.value:
        return None
    if len(node.children) != len(pattern.operands):
        return None
    total_cost = 0
    leaves = []
    for child_pattern, child_node in zip(pattern.operands, node.children):
        matched = _match_pattern(child_pattern, child_node, states)
        if matched is None:
            return None
        total_cost += matched[0]
        leaves.extend(matched[1])
    return total_cost, leaves


class RecursiveBaselineSelector:
    """The pre-table labeller, stand-alone: recursive pattern matching
    over grammar objects and chain closure recomputed (Dijkstra) at every
    node, with no cache.  Same tie-breaks as the selector (first rule of
    equal cost wins, closure from base entries in insertion order), so
    covers are identical."""

    def __init__(self, grammar, tables):
        self.grammar = grammar
        self.tables = tables

    def label(self, root: SubjectNode) -> dict:
        """Per node id: non-terminal -> ``(cost, rule, leaves)``."""
        rules_by_root = self.tables.rules_by_root
        chain_rules = self.tables.chain_rules_by_source
        states: dict = {}
        for node in root.post_order():
            state: dict = {}
            for rule in rules_by_root.get(node.label, ()):
                matched = _match_pattern(rule.pattern, node, states)
                if matched is None:
                    continue
                cost = rule.cost + matched[0]
                best = state.get(rule.lhs)
                if best is None or cost < best[0]:
                    state[rule.lhs] = (cost, rule, matched[1])
            for source, (base_cost, _rule, _leaves) in list(state.items()):
                for target, delta, rule_path in chain_closure_from(source, chain_rules):
                    cost = base_cost + delta
                    best = state.get(target)
                    if best is None or cost < best[0]:
                        last = rule_path[-1]
                        state[target] = (cost, last, [(node, last.pattern.name)])
            states[id(node)] = state
        return states

    def select(self, root: SubjectNode) -> SelectionResult:
        goal = self.grammar.start
        states = self.label(root)
        if goal not in states[id(root)]:
            raise SelectionError("no derivation of %r from %s" % (root, goal))
        reductions: List[Reduction] = []
        stack = [(root, goal, False)]
        while stack:
            node, nonterminal, expanded = stack.pop()
            _cost, rule, leaves = states[id(node)][nonterminal]
            if expanded:
                reductions.append(Reduction(rule, node, nonterminal, list(leaves)))
                continue
            stack.append((node, nonterminal, True))
            for leaf in reversed(leaves):
                stack.append((leaf[0], leaf[1], False))
        return SelectionResult(cost=states[id(root)][goal][0], reductions=reductions)


def _sum_of_products(terms: int) -> str:
    lines = ["int x[%d], h[%d], y;" % (terms, terms)]
    expression = " + ".join("x[%d] * h[%d]" % (i, i) for i in range(terms))
    lines.append("y = %s;" % expression)
    return "\n".join(lines)


def _iir_section(taps: int) -> str:
    lines = ["int w[%d], a[%d], b[%d], y, acc;" % (taps, taps, taps)]
    acc = " + ".join("w[%d] * a[%d]" % (i, i) for i in range(taps))
    out = " + ".join("w[%d] * b[%d]" % (i, i) for i in range(taps))
    lines.append("acc = %s;" % acc)
    lines.append("y = %s;" % out)
    return "\n".join(lines)


def build_workload(tms_result) -> List[SubjectNode]:
    """Subject trees of a mixed DSP batch (sum-of-products of several
    sizes plus biquad-style sections).  Every call builds fresh
    ``SubjectNode`` objects, exactly like a real compile stream."""
    sources = [
        _sum_of_products(2),
        _sum_of_products(4),
        _sum_of_products(8),
        _sum_of_products(16),
        _iir_section(4),
        _iir_section(8),
    ]
    subjects: List[SubjectNode] = []
    for index, source in enumerate(sources):
        program = lower_to_program(source, name="wl%d" % index)
        binding = bind_program(program, tms_result.netlist)
        for block in program.blocks:
            for statement in block.statements:
                subjects.append(build_subject_tree(statement, binding))
    return subjects


def assert_identical_covers(
    table_selector: CodeSelector,
    baseline_selector: RecursiveBaselineSelector,
    subjects: List[SubjectNode],
) -> int:
    """The differential harness: every workload statement must cover
    identically under both selectors.  Returns the total cover cost."""
    total = 0
    for subject in subjects:
        expected = baseline_selector.select(subject)
        got = table_selector.select(subject)
        assert got.cost == expected.cost, (got.cost, expected.cost)
        assert got.rule_indices() == expected.rule_indices()
        total += got.cost
    return total


def measure_fresh_tree_throughput(selector, tms_result, select: bool = False) -> float:
    """Nodes per second labelling (or selecting) a stream of freshly
    built subject trees; tree construction happens outside the timer."""
    batches = [build_workload(tms_result) for _ in range(WORKLOAD_COPIES)]
    nodes = sum(subject.size() for batch in batches for subject in batch)
    operation = selector.select if select else selector.label
    started = time.perf_counter()
    for batch in batches:
        for subject in batch:
            operation(subject)
    return nodes / (time.perf_counter() - started)


def measure_relabel_throughput(selector: CodeSelector, tms_result) -> float:
    """Nodes per second relabelling the *same* tree objects repeatedly
    (the node_cost / ISE-loop regime)."""
    subjects = build_workload(tms_result)
    nodes_per_pass = sum(subject.size() for subject in subjects)
    for subject in subjects:  # warm
        selector.label(subject)
    passes = 0
    started = time.perf_counter()
    while True:
        for subject in subjects:
            selector.label(subject)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= 0.1 and passes >= 2:
            return nodes_per_pass * passes / elapsed


def run(tms_result) -> dict:
    tables = tms_result.selector.tables
    total_cost = assert_identical_covers(
        CodeSelector(tms_result.grammar, tables=tables),
        RecursiveBaselineSelector(tms_result.grammar, tables),
        build_workload(tms_result),
    )

    # Fresh selectors for every measurement; fresh trees inside each one.
    table_selector = CodeSelector(tms_result.grammar, tables=tables)
    table_nps = measure_fresh_tree_throughput(table_selector, tms_result)
    baseline_nps = measure_fresh_tree_throughput(
        RecursiveBaselineSelector(tms_result.grammar, tables), tms_result
    )
    table_select_nps = measure_fresh_tree_throughput(
        CodeSelector(tms_result.grammar, tables=tables), tms_result, select=True
    )
    baseline_select_nps = measure_fresh_tree_throughput(
        RecursiveBaselineSelector(tms_result.grammar, tables),
        tms_result,
        select=True,
    )
    # Unasserted regime: same-tree relabelling.
    relabel_nps = measure_relabel_throughput(
        CodeSelector(tms_result.grammar, tables=tables), tms_result
    )
    stats = table_selector.stats()
    statements_per_pass = len(build_workload(tms_result))
    return {
        "statements_per_pass": statements_per_pass,
        "workload_copies": WORKLOAD_COPIES,
        "workload_cover_cost": total_cost,
        "table_nodes_per_s": round(table_nps, 1),
        "baseline_nodes_per_s": round(baseline_nps, 1),
        "speedup": round(table_nps / baseline_nps, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "select_speedup": round(table_select_nps / baseline_select_nps, 2),
        "select_speedup_floor": SELECT_SPEEDUP_FLOOR,
        "relabel_speedup": round(relabel_nps / baseline_nps, 2),
        "transition_hit_rate": round(stats["memo_hit_rate"], 4),
        "automaton_states": stats["states"],
        "automaton_transitions": stats["transitions"],
        "tables_build_time_s": round(tables.build_time_s, 6),
    }


# ---------------------------------------------------------------------------
# The asserted benchmark (CI smoke mode runs exactly this)
# ---------------------------------------------------------------------------


def test_table_driven_labelling_is_3x_baseline(tms_result):
    results = run(tms_result)
    assert results["transition_hit_rate"] > 0.9  # fresh trees, few child-state combinations
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        "automaton labelling only %.2fx the recursive baseline "
        "(automaton %.0f nodes/s, baseline %.0f nodes/s)"
        % (
            results["speedup"],
            results["table_nodes_per_s"],
            results["baseline_nodes_per_s"],
        )
    )
    # End-to-end selection on fresh trees must also win clearly.
    assert results["select_speedup"] >= SELECT_SPEEDUP_FLOOR, results


# ---------------------------------------------------------------------------
# BENCH_results.json writer (CI artifact; merges into the existing file)
# ---------------------------------------------------------------------------


def main(output: str = "BENCH_results.json") -> dict:
    from repro.targets import target_hdl_source
    from repro.toolchain import RetargetCache

    tms_result, _hit = RetargetCache(directory=False).get_or_retarget(
        target_hdl_source("tms320c25")
    )
    section = run(tms_result)
    results = {"schema": 1}
    if os.path.exists(output):
        try:
            with open(output, "r") as handle:
                results = json.load(handle)
        except ValueError:
            pass
    results["labeller_throughput"] = {"tms320c25": section}
    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % output)
    print(json.dumps(section, indent=2))
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_results.json")
    main(parser.parse_args().output)
