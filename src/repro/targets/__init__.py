"""Built-in target processor models.

The paper evaluates retargeting on six processors: two simple examples
(``demo``, ``ref``), two educational machines (``manocpu`` after Mano's
basic computer, ``tanenbaum`` after Tanenbaum's Mac-1), an industrial audio
ASIP (``bass_boost``) and the Texas Instruments TMS320C25 DSP.  This
package ships HDL models of all six (simplified but architecturally
faithful) together with metadata used by the experiments.

The functions below are the function-style entry over the target
registry, :data:`repro.toolchain.registry.REGISTRY`, which stays the one
store of targets.
"""

from __future__ import annotations

from typing import List

from repro.hdl.parser import parse_processor
from repro.netlist.builder import build_netlist
from repro.netlist.netlist import Netlist
from repro.toolchain.registry import TargetSpec, default_registry

__all__ = [
    "TargetSpec",
    "all_target_names",
    "get_target",
    "load_target_netlist",
    "target_hdl_source",
]


def all_target_names() -> List[str]:
    """Names of all built-in targets, in the paper's table 3 order
    (= built-in registration order)."""
    registry = default_registry()
    return [name for name in registry.names()
            if registry.get(name).origin == "builtin"]


def get_target(name: str) -> TargetSpec:
    """The :class:`TargetSpec` of a registered target.

    Raises :class:`repro.diagnostics.TargetError` (a :class:`KeyError`
    subclass) for unknown names.
    """
    return default_registry().get(name)


def target_hdl_source(name: str) -> str:
    """The HDL source text of a registered target."""
    return get_target(name).hdl_source


def load_target_netlist(name: str) -> Netlist:
    """Parse and build the netlist of a registered target."""
    return build_netlist(parse_processor(target_hdl_source(name)))
