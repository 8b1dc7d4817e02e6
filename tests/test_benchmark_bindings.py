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
import tracer as tracing  # noqa: E402
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


#: every per-instance step the span tracer wraps, by its layer-qualified name
INSTANCE_STEPS = (
    "experiments.stream_rng",
    "encoding.random_message",
    "encoding.generate_key",
    "encoding.encode",
    "encoding.decode_non_trap",
    "parties.adversary_intervene",
    "parties.prover_respond",
    "parties.verify",
    "parties.discr_guess",
    "qubit.measure_sites",
)


def test_the_tracer_sees_every_per_instance_step():
    # a step inlined into its caller, or called through a binding the
    # tracer cannot rebind, would leave its column of a traced run empty
    workload = WORKLOADS["instance"](PD, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for request in workload.cycle(0):
            request.fn(*request.args)
    finally:
        tracer.restore()
    assert tracer.absent == []
    assert tracer.counter_failures == 0
    unseen = [name for name in INSTANCE_STEPS if tracer.stats[name].calls == 0]
    assert unseen == []
