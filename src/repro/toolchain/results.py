"""Structured compilation artifacts: the result side of the toolchain API.

A :class:`CompilationResult` is the immutable record of one pipeline run.
It carries three layers of information:

* **metrics** -- a :class:`CompileMetrics` block with the quantities the
  paper's experiments report (code size, RT operations, spills, selection
  cost) and the labeller, optimizer and verifier counters, plus per-pass
  wall-clock timings recorded by
  :class:`~repro.toolchain.passes.PassManager`.  :class:`CompileMetrics`
  is the one metrics schema: JSON, ``repro compile --timings`` and the
  server's Prometheus families derive from its fields;
* **views** -- named, human-readable renderings: the instruction
  ``listing``, the binary ``encoding`` (when the encode pass ran) and an
  RT-level ``simulation_trace`` computed through
  :class:`~repro.sim.rtsim.RTSimulator`;
* **artifacts** -- the live IR/backend objects (program, block codes,
  instruction words, resource binding) for callers that keep processing.

Results serialize losslessly to plain dicts/JSON (:meth:`to_dict` /
:meth:`to_json`) and back (:meth:`from_dict` / :meth:`from_json`).  A
deserialized result is *detached*: every metric, timing, diagnostic and
view survives the round trip, but the live artifacts do not (they are
process-local objects); accessing them raises
:class:`~repro.diagnostics.ResultError`.

"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.codegen.compaction import InstructionWord, code_size
from repro.codegen.emitter import format_listing
from repro.codegen.selection import BlockCode, RTInstance, StatementCode, flat_codes
from repro.codegen.spill import count_spills
from repro.diagnostics import Diagnostic, ResultError
from repro.ir.binding import ResourceBinding
from repro.ir.program import Program
from repro.opt.pipeline import OptStats
from repro.toolchain.passes import CompilationState, PipelineConfig

#: Bump when the dict layout of :meth:`CompilationResult.to_dict` changes.
RESULT_SCHEMA_VERSION = 1


def _metric(unit: str, help_text: str, default=MISSING):
    """A :class:`CompileMetrics` field declaring its unit and help text."""
    return field(default=default, metadata={"unit": unit, "help": help_text})


@dataclass(frozen=True)
class CompileMetrics:
    """The scalar quantities of one compilation: the one metrics schema.

    Each field declares its ``unit`` and ``help`` text in its metadata,
    and :meth:`to_dict`/:meth:`from_dict`, ``repro compile --timings``
    and the server's ``repro_compile_<field>_total`` families all derive
    from :data:`METRIC_FIELDS`.  Every value is a number >= 0 and a
    ``ratio`` is at most 1; construction raises
    :class:`~repro.diagnostics.ResultError` otherwise.  The ``opt_*``
    fields are zero when the optimizer did not run, ``verify_*`` when
    :attr:`PipelineConfig.verify` was off.
    """

    code_size: int = _metric("words", "Instruction words after compaction (figure 2).")
    operation_count: int = _metric("ops", "RT operations, spill code included.")
    spill_count: int = _metric("ops", "Spill transfers inserted under storage pressure.")
    selection_cost: int = _metric("cost", "Summed cost of the selected covers.")
    statement_count: int = _metric("statements", "Source statements covered.")
    compile_time_s: float = _metric("s", "Compile wall time, the sum of the pass timings.")
    nodes_labelled: int = _metric("nodes", "Subject nodes the labeller labelled.", 0)
    label_memo_hit_rate: float = _metric(
        "ratio", "Share of labelled nodes whose transition was cached.", 0.0
    )
    opt_nodes_before: int = _metric("nodes", "IR nodes entering the optimizer.", 0)
    opt_nodes_after: int = _metric("nodes", "IR nodes leaving the optimizer.", 0)
    opt_folds: int = _metric("rewrites", "Constant folds and algebraic rewrites.", 0)
    opt_cse_hits: int = _metric("hits", "Subexpressions served from a CSE temporary.", 0)
    opt_temps: int = _metric("temps", "Optimizer temporaries materialized.", 0)
    opt_licm_hoisted: int = _metric("hoists", "Loop-invariant code hoisted to preheaders.", 0)
    opt_strength_reductions: int = _metric("rewrites", "Multiplications strength-reduced.", 0)
    opt_hw_loops: int = _metric("loops", "Counted loops lowered to hardware loops.", 0)
    verify_time_s: float = _metric("s", "Static verifier time, not in compile_time_s.", 0.0)
    verify_checks: int = _metric("batches", "Static verifier check batches run.", 0)

    def __post_init__(self):
        for f in METRIC_FIELDS:
            value = getattr(self, f.name)
            bound = 1 if f.metadata["unit"] == "ratio" else math.inf
            if not isinstance(value, (int, float)) or not 0 <= value <= bound:
                raise ResultError(
                    "CompileMetrics.%s = %r: every metric is a number >= 0 "
                    "and a ratio is at most 1" % (f.name, value)
                )

    @property
    def opt_gvn_hits(self) -> int:
        # Still read by the repository benchmark; nothing counts it now.
        return 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in METRIC_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "CompileMetrics":
        # Keys that are not fields (``tables_build_time_s`` in older
        # results) are ignored.
        return cls(**{f.name: data[f.name] for f in METRIC_FIELDS if f.name in data})


#: The schema, in declaration order.
METRIC_FIELDS = fields(CompileMetrics)


@dataclass(frozen=True)
class StatementArtifact:
    """Serialized view of the code generated for one source statement."""

    statement: str
    cost: int
    operations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "cost": self.cost,
            "operations": list(self.operations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatementArtifact":
        return cls(
            statement=data["statement"],
            cost=data["cost"],
            operations=tuple(data.get("operations", ())),
        )

    @classmethod
    def from_code(cls, code: StatementCode) -> "StatementArtifact":
        return cls(
            statement=str(code.statement),
            cost=code.cost,
            operations=tuple(inst.describe() for inst in code.instances),
        )


@dataclass(frozen=True)
class CompilationResult:
    """The immutable record of compiling one program for one target.

    Construct through :meth:`from_state` (what
    :meth:`repro.toolchain.Session.compile` does) or :meth:`from_dict`
    (deserialization).  Scalar facts live in :attr:`metrics` and are also
    exposed as flat properties (``code_size``, ``spill_count``, ...).
    """

    name: str
    processor: str
    metrics: CompileMetrics
    pass_timings: Dict[str, float] = field(default_factory=dict)
    config: Optional[PipelineConfig] = None
    diagnostics: Tuple[Diagnostic, ...] = ()
    encoding: Optional[str] = None
    # Live artifacts -- absent on detached (deserialized) results.
    program: Optional[Program] = field(default=None, repr=False, compare=False)
    # The selected code, block by block (statement codes plus the branch
    # pseudo-code at every block end).
    block_codes: Tuple[BlockCode, ...] = field(default=(), repr=False, compare=False)
    words: Tuple[InstructionWord, ...] = field(default=(), repr=False, compare=False)
    binding: Optional[ResourceBinding] = field(default=None, repr=False, compare=False)
    # Stored renderings -- populated on detached results so every view
    # survives serialization; live results render from the artifacts.
    stored_listing: Optional[str] = field(default=None, repr=False)
    stored_statements: Optional[Tuple[StatementArtifact, ...]] = field(
        default=None, repr=False
    )
    # Chrome trace-event export of this compile (``Tracer.to_chrome_trace``)
    # when the request asked for tracing; None otherwise.
    trace: Optional[dict] = field(default=None, repr=False, compare=False)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_state(
        cls,
        program: Program,
        processor: str,
        state: CompilationState,
        binding: Optional[ResourceBinding] = None,
        config: Optional[PipelineConfig] = None,
        trace: Optional[dict] = None,
    ) -> "CompilationResult":
        """Build a result from one finished :class:`CompilationState`."""
        instances = state.all_instances()
        opt_stats = state.opt_stats or OptStats()
        metrics = CompileMetrics(
            code_size=code_size(state.words),
            operation_count=len(instances),
            spill_count=count_spills(instances),
            selection_cost=sum(code.cost for code in state.statement_codes),
            statement_count=sum(
                len(block_code.codes) for block_code in state.block_codes
            ),
            compile_time_s=sum(state.pass_timings.values()),
            nodes_labelled=int(state.selection_stats.get("nodes_labelled", 0)),
            label_memo_hit_rate=float(state.selection_stats.get("memo_hit_rate", 0.0)),
            opt_nodes_before=opt_stats.nodes_before,
            opt_nodes_after=opt_stats.nodes_after,
            opt_folds=opt_stats.folds + opt_stats.algebraic,
            opt_cse_hits=opt_stats.cse_hits,
            opt_temps=opt_stats.temps_introduced,
            opt_licm_hoisted=opt_stats.licm_hoisted,
            opt_strength_reductions=opt_stats.strength_reductions,
            opt_hw_loops=opt_stats.hw_loops,
            verify_time_s=state.verify_time_s,
            verify_checks=state.verify_checks,
        )
        return cls(
            name=program.name,
            processor=processor,
            metrics=metrics,
            pass_timings=dict(state.pass_timings),
            config=config,
            diagnostics=tuple(state.diagnostics),
            encoding=state.encoding,
            program=program,
            block_codes=tuple(state.block_codes),
            words=tuple(state.words),
            binding=binding,
            trace=trace,
        )

    # -- scalar compatibility properties ------------------------------------------

    @property
    def code_size(self) -> int:
        """Number of instruction words (the metric of figure 2)."""
        return self.metrics.code_size

    @property
    def operation_count(self) -> int:
        """Number of RT operations before compaction (incl. spill code)."""
        return self.metrics.operation_count

    @property
    def spill_count(self) -> int:
        return self.metrics.spill_count

    @property
    def selection_cost(self) -> int:
        return self.metrics.selection_cost

    @property
    def is_detached(self) -> bool:
        """True when this result was deserialized and carries no live
        IR/backend artifacts (views and metrics still work)."""
        return self.program is None and self.stored_statements is not None

    @property
    def statement_codes(self) -> Tuple[StatementCode, ...]:
        """Read-only flat view of :attr:`block_codes` (same objects)."""
        return tuple(flat_codes(self.block_codes))

    @property
    def instances(self) -> List[RTInstance]:
        """All RT instances in statement order (live results only)."""
        self._require_artifacts("instances")
        return [
            instance for code in self.statement_codes for instance in code.instances
        ]

    def _require_artifacts(self, what: str) -> None:
        if self.is_detached:
            raise ResultError(
                "detached CompilationResult (deserialized from to_dict/to_json) "
                "carries no live %s; recompile to get them" % what
            )

    # -- views --------------------------------------------------------------------

    #: Names accepted by :meth:`view`.
    VIEWS = ("listing", "encoding", "statements", "metrics", "timings")

    def listing(self) -> str:
        """The instruction-word listing."""
        if self.stored_listing is not None:
            return self.stored_listing
        return format_listing(
            list(self.words), title="%s on %s" % (self.name, self.processor)
        )

    def statements(self) -> Tuple[StatementArtifact, ...]:
        """Per-statement artifacts: source text, cost, RT operations."""
        if self.stored_statements is not None:
            return self.stored_statements
        return tuple(StatementArtifact.from_code(code) for code in self.statement_codes)

    def view(self, name: str):
        """A named view of the result (see :data:`VIEWS`)."""
        if name == "listing":
            return self.listing()
        if name == "encoding":
            return self.encoding
        if name == "statements":
            return self.statements()
        if name == "metrics":
            return self.metrics.to_dict()
        if name == "timings":
            return dict(self.pass_timings)
        raise ResultError(
            "unknown result view %r; available views: %s"
            % (name, ", ".join(self.VIEWS))
        )

    def _simulate_with(self, run, environment, max_steps):
        """Call the simulator entry point ``run`` on the block codes."""
        self._require_artifacts("statement codes (needed for simulation)")
        from repro.ir.program import DEFAULT_STEP_LIMIT

        return run(
            list(self.block_codes),
            environment or {},
            entry=self.program.entry_block_name() if self.program else None,
            max_steps=max_steps if max_steps is not None else DEFAULT_STEP_LIMIT,
        )

    def simulation_trace(
        self,
        environment: Optional[Dict[str, int]] = None,
        max_steps: Optional[int] = None,
    ):
        """Execute the generated code through the RT-level simulator and
        return the :class:`~repro.sim.rtsim.SimulationTrace` (per executed
        statement: operations + environment snapshot; loop bodies appear
        once per iteration).  Live results only.  Execution starts at the
        entry block; ``max_steps`` bounds it (default: the IR step limit)."""
        from repro.sim.rtsim import trace_cfg_execution

        return self._simulate_with(trace_cfg_execution, environment, max_steps)

    def simulate(
        self,
        environment: Optional[Dict[str, int]] = None,
        max_steps: Optional[int] = None,
    ) -> Dict[str, int]:
        """The final environment after simulating the generated code (the
        trace's ``final_environment``, without recording the steps)."""
        from repro.sim.rtsim import simulate_block_codes

        return self._simulate_with(simulate_block_codes, environment, max_steps)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable description of the result."""
        data = {
            "schema": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "processor": self.processor,
            "metrics": self.metrics.to_dict(),
            "pass_timings": dict(self.pass_timings),
            "config": None if self.config is None else self.config.to_dict(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "statements": [s.to_dict() for s in self.statements()],
            "listing": self.listing(),
            "encoding": self.encoding,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "CompilationResult":
        """Rebuild a (detached) result from :meth:`to_dict` output."""
        schema = data.get("schema", RESULT_SCHEMA_VERSION)
        if schema != RESULT_SCHEMA_VERSION:
            raise ResultError(
                "unsupported CompilationResult schema %r (expected %d)"
                % (schema, RESULT_SCHEMA_VERSION)
            )
        config = data.get("config")
        return cls(
            name=data["name"],
            processor=data["processor"],
            metrics=CompileMetrics.from_dict(data["metrics"]),
            pass_timings=dict(data.get("pass_timings", {})),
            config=None if config is None else PipelineConfig.from_dict(config),
            diagnostics=tuple(
                Diagnostic.from_dict(d) for d in data.get("diagnostics", ())
            ),
            encoding=data.get("encoding"),
            stored_listing=data.get("listing", ""),
            stored_statements=tuple(
                StatementArtifact.from_dict(s) for s in data.get("statements", ())
            ),
            trace=data.get("trace"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CompilationResult":
        return cls.from_dict(json.loads(text))
