"""Assembly-style output of compacted code."""

from __future__ import annotations

from typing import Dict, List

from repro.codegen.compaction import InstructionWord


def _format_bits(assignment: Dict[str, bool]) -> str:
    if not assignment:
        return "-"
    parts = []
    for name in sorted(assignment):
        parts.append("%s=%d" % (name, 1 if assignment[name] else 0))
    return " ".join(parts)


def format_listing(words: List[InstructionWord], title: str = "") -> str:
    """A human-readable listing: one line per instruction word with the RTs
    executed in parallel and one concrete partial-instruction encoding.
    Basic-block labels (branch targets) appear on their own line before
    the word they address."""
    lines: List[str] = []
    if title:
        lines.append("; %s" % title)
        lines.append("; %d instruction words" % len(words))
    for index, word in enumerate(words):
        if word.label:
            lines.append("%s:" % word.label)
        lines.append("%4d:  %s" % (index, word.describe()))
        bits = _format_bits(word.partial_instruction())
        lines.append("       ; bits: %s" % bits)
    return "\n".join(lines) + "\n"
