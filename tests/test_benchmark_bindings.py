"""The traced benchmark run (`perfbench/`) wraps package functions by name.

A rename or deletion in the package must fail here, in the unit suite,
rather than only when `perfbench/run.py --trace 1` next runs.
"""

from __future__ import annotations

import os
import sys

import pytest

from unroll_tuner import backend

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def test_benchmark_bindings_resolve(workloads):
    bindings = [b[:2] for b in workloads.LayerLog().boundaries()]
    bindings += workloads.CostPipeline.SPLIT_POINTS
    # NativeLabel.final_checks builds and runs one-variant sweep binaries
    bindings += [(backend, "emit_kernel_source"), (backend, "native_measure")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in bindings
               if getattr(owner, attr, None) is None]
    assert not missing
