"""Structured compiler fuzzing: generator, differential oracles,
campaign driver, delta-debugging minimizer, regression corpus.

The pipeline's input space (nested control flow, dynamic array indexing,
fold/CSE-shaped expression trees) is far larger than the hand-written
suites cover.  This package closes the gap with a *seeded, structured*
program generator over the documented language subset and a differential
campaign that cross-checks, per generated program and target:

* ``sim``     -- storage-faithful RT simulation of the compiled code
  (:meth:`repro.sim.rtsim.RTSimulator.run_cfg`) against reference
  execution of the source program (:meth:`repro.ir.program.Program.execute`);
* ``opt``     -- the optimized pipeline against the byte-identical
  ``no-opt`` pipeline (both simulated, observables compared);
* ``matcher`` -- the library code selector against the emitted selector
  module, the generated parser of :mod:`repro.selector.emit` (rule index
  sequence of every selected statement's cover).

Any divergence or crash is shrunk by the delta-debugging minimizer to a
small reproducer and can be promoted into ``tests/corpus/`` where a
parametrized test replays it forever.  Entry points:
:func:`run_campaign` (API) and ``repro fuzz`` (CLI).
"""

from repro.fuzz.campaign import (
    DSP_TARGETS,
    ORACLE_NAMES,
    CampaignReport,
    Finding,
    run_campaign,
)
from repro.fuzz.corpus import load_corpus, save_finding
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_program,
    generate_source,
    render_source,
)
from repro.fuzz.minimize import ddmin, minimize_source

__all__ = [
    "DSP_TARGETS",
    "ORACLE_NAMES",
    "CampaignReport",
    "Finding",
    "GeneratorConfig",
    "ddmin",
    "generate_program",
    "generate_source",
    "load_corpus",
    "minimize_source",
    "render_source",
    "run_campaign",
    "save_finding",
]
