"""Shared fixtures: retargeted processors are expensive enough to share.

The whole tier-1 suite compiles with the static pipeline verifier
enabled: ``REPRO_VERIFY`` is set *before* any ``repro`` import, because
``PipelineConfig``'s default (and the import-time ``PRESETS``) captures
the environment when the dataclass is instantiated.
"""

from __future__ import annotations

import os

os.environ.setdefault("REPRO_VERIFY", "1")

import pytest

from repro.record.retarget import retarget
from repro.targets import all_target_names, target_hdl_source
from repro.toolchain import Session


@pytest.fixture(scope="session")
def retarget_results():
    """Retargeting results for every built-in target, computed once."""
    results = {}
    for name in all_target_names():
        results[name] = retarget(target_hdl_source(name))
    return results


@pytest.fixture(scope="session")
def demo_result(retarget_results):
    return retarget_results["demo"]


@pytest.fixture(scope="session")
def tms_result(retarget_results):
    return retarget_results["tms320c25"]


@pytest.fixture(scope="session")
def ref_result(retarget_results):
    return retarget_results["ref"]


@pytest.fixture(scope="session")
def fuzz_harnesses(retarget_results):
    """Differential-oracle harnesses for every DSPStone-capable target,
    built from the shared retarget fixtures (used by the fuzz campaign
    and corpus-replay suites)."""
    from repro.fuzz.campaign import DSP_TARGETS
    from repro.fuzz.oracles import TargetHarness

    return {
        name: TargetHarness.create(name, retarget_result=retarget_results[name])
        for name in DSP_TARGETS
    }


@pytest.fixture(scope="session")
def tms_session(tms_result):
    return Session(tms_result)


@pytest.fixture(scope="session")
def demo_session(demo_result):
    return Session(demo_result)
