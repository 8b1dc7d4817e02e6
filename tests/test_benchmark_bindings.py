"""The names the benchmark binds: one cycle of each workload, with its gate.

`perfbench/workloads.py` reaches privdel through module attributes (say
`pd.parties.HONEST` or `pd.acceptance.ALL_CHECKS`) and keyword arguments
of the criteria. A name it uses that is deleted or renamed fails here, in
the test suite, rather than in a benchmark run. The namespace holds the
modules already imported, as `perfbench/run.py` binds them, without the
fresh import `run.load_privdel` makes, so every test module keeps seeing
one copy of each class.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import privdel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PD = SimpleNamespace(
    package=privdel,
    **{name.lstrip("_"): importlib.import_module(f"privdel.{name}") for name in run.MODULES},
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_cycle_of_each_workload_passes_its_gate(name):
    workload = WORKLOADS[name](PD, seed=1)
    requests = workload.cycle(0)
    assert requests
    for request in requests:
        assert request.check(request.fn(*request.args)), request.label
    assert not workload.tally.failures()
