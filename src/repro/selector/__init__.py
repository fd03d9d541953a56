"""Processor-specific code selectors (tree parsers).

Optimal code selection for an expression tree is a minimum-cost derivation
of the tree in the processor's tree grammar.  The paper generates a tree
parser with iburg; this package provides the equivalent machinery in
Python:

* :mod:`repro.selector.burs` -- the library labeller and reducer: an
  on-demand BURS automaton whose cost-normalized states are interned and
  whose transitions are cached on (label, hardwired constant, child
  states), computed on a miss from the grammar's one-level normal form
  and chain closure; the reduce pass walks the optimal derivation
  top-down;
* :mod:`repro.selector.emit` -- generation of a stand-alone, grammar-specific
  matcher module running the plain dynamic program, mirroring iburg's
  generated C parser (and serving as the library selector's oracle);
* :mod:`repro.selector.tables` -- the precomputed rule tables both read.
"""

from repro.selector.subject import SubjectNode
from repro.selector.burs import (
    CodeSelector,
    Match,
    Reduction,
    SelectionError,
    SelectionResult,
)
from repro.selector.tables import GrammarTables, chain_closure_from
from repro.selector.emit import compile_matcher_module, emit_matcher_source

__all__ = [
    "CodeSelector",
    "GrammarTables",
    "Match",
    "Reduction",
    "SelectionError",
    "SelectionResult",
    "SubjectNode",
    "chain_closure_from",
    "compile_matcher_module",
    "emit_matcher_source",
]
