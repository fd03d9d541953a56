"""Code compaction: packing RTs into parallel instruction words.

Every extracted RT carries an execution condition over instruction-word and
mode-register bits (its binary partial instruction).  Two RTs can execute
in the same instruction word when their conditions are simultaneously
satisfiable (no encoding conflict, no shared-resource contention -- these
conflicts are exactly what the BDD conjunction detects) and when no data
dependence forces them apart.  The paper performs compaction as a separate
phase after code selection [17]; this module implements a greedy
list-scheduling variant of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd.manager import BDD
from repro.codegen.selection import BlockCode, RTInstance
from repro.obs.trace import current_tracer


@dataclass
class InstructionWord:
    """One machine instruction word holding one or more parallel RTs.

    ``label`` carries a basic-block label when this word is a branch
    target (the first word of a block in a program that needs labels).
    """

    instances: List[RTInstance] = field(default_factory=list)
    condition: Optional[BDD] = None
    label: Optional[str] = None

    def is_control(self) -> bool:
        return any(instance.is_control() for instance in self.instances)

    def describe(self) -> str:
        if not self.instances:
            return "nop"
        return " || ".join(instance.describe() for instance in self.instances)

    def partial_instruction(self) -> Dict[str, bool]:
        """A concrete setting of instruction/mode bits activating the word."""
        if self.condition is None:
            return {}
        assignment = self.condition.one_sat()
        return assignment if assignment is not None else {}


def _condition_of(instance: RTInstance) -> Optional[BDD]:
    if instance.template is not None:
        return instance.template.condition
    return None


def _data_conflict(word: InstructionWord, candidate: RTInstance) -> bool:
    """True when the candidate depends on, or interferes with, an RT already
    in the word (time-stationary model: all RTs of a word read their
    operands before any of them writes)."""
    candidate_reads = set(candidate.reads())
    candidate_writes = {candidate.result_id}
    for instance in word.instances:
        writes = {instance.result_id}
        reads = set(instance.reads())
        if candidate_reads & writes:
            return True  # true dependence
        if candidate_writes & reads:
            return True  # anti dependence within one word is not representable
        if candidate.result_storage == instance.result_storage:
            return True  # both RTs write the same storage resource
    return False


def compact(instances: List[RTInstance], enabled: bool = True) -> List[InstructionWord]:
    """Pack an RT sequence into instruction words.

    With ``enabled=False`` every RT gets its own word (the uncompacted
    baseline used in the ablation benchmarks).  Control transfers
    (``jump``/``cbranch``) are packing barriers: a branch gets its own
    word and nothing is packed across it, which keeps branches pinned at
    block ends.
    """
    words: List[InstructionWord] = []
    if not enabled:
        for instance in instances:
            words.append(
                InstructionWord(instances=[instance], condition=_condition_of(instance))
            )
        return words
    for instance in instances:
        condition = _condition_of(instance)
        placed = False
        if words and not instance.is_control():
            word = words[-1]
            if not word.is_control() and not _data_conflict(word, instance):
                combined = _combine_conditions(word.condition, condition)
                if combined is None or combined.satisfiable():
                    word.instances.append(instance)
                    word.condition = combined
                    placed = True
        if not placed:
            words.append(InstructionWord(instances=[instance], condition=condition))
    return words


def _needs_labels(block_codes: List[BlockCode]) -> bool:
    """True when block labels are needed: the program has more than one
    block or a terminator.  A straight-line program (one block falling
    off the end) has no branch target, so its words carry no label."""
    return len(block_codes) > 1 or any(
        block_code.terminator_code is not None for block_code in block_codes
    )


def compact_blocks(
    block_codes: List[BlockCode], enabled: bool = True
) -> List[InstructionWord]:
    """Pack a program, block by block (one ``compact:block`` span each).

    Packing never crosses a block boundary.  When the program needs
    labels, the first word of every block carries the block's label so
    branch targets stay addressable in the listing and the binary
    encoding, and an empty block still materializes one ``nop`` word to
    anchor its label.
    """
    labelled = _needs_labels(block_codes)
    tracer = current_tracer()
    words: List[InstructionWord] = []
    for block_code in block_codes:
        with tracer.span("compact:block", block=block_code.name) as span:
            instances: List[RTInstance] = []
            for code in block_code.all_codes():
                instances.extend(code.instances)
            block_words = compact(instances, enabled=enabled)
            if labelled:
                if not block_words:
                    block_words = [InstructionWord()]
                block_words[0].label = block_code.name
            if tracer.enabled:
                span.set(words=len(block_words))
        words.extend(block_words)
    return words


def _combine_conditions(a: Optional[BDD], b: Optional[BDD]) -> Optional[BDD]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def code_size(words: List[InstructionWord]) -> int:
    """Number of instruction words (the code-size metric of figure 2)."""
    return len(words)
