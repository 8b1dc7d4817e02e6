"""Tests of the benchmark itself: the output gate, the tracer and the entry point.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import Check, Narrow, Request, Wide  # noqa: E402


@pytest.fixture(scope="module")
def pd():
    return run.load_privdel()


def _report(estimate, trials, reference, **extra):
    return SimpleNamespace(
        estimate=estimate, trials=trials, analytic_reference=reference, **extra
    )


# -- output gate -------------------------------------------------------------


def test_closed_forms_match_privdel_bounds(pd):
    for m, n, r in ((1000, 50, 105), (90, 10, 50), (100, 20, 24), (3, 2, 5)):
        assert gate.cert_exact(m, n, r) == pytest.approx(pd.bounds.cert_exact(m, n, r), rel=1e-12)
    assert gate.firstbit_cert(90, 10) == pd.bounds.firstbit_cert(90, 10)
    assert gate.firstbit_conditional(90, 10) == pytest.approx(
        pd.bounds.firstbit_conditional_success(90, 10)
    )


def test_planted_wrong_estimate_trips_the_gate(pd):
    wide = Wide(pd, seed=3)
    noop_storage, sample_storage = wide.cycle(0)[:2]
    trials = wide.trials
    p = gate.cert_exact(wide.m, wide.n, wide.r)
    sd = (p * (1 - p) / trials) ** 0.5

    assert sample_storage.check(_report(round(p * trials) / trials, trials, p))
    planted = round((p + 6 * sd) * trials) / trials
    assert not sample_storage.check(_report(planted, trials, p))
    # a report whose own reference disagrees with the closed form fails too
    assert not sample_storage.check(_report(round(p * trials) / trials, trials, p + 0.01))

    assert noop_storage.check(_report(1.0, trials, 1.0))
    assert not noop_storage.check(_report((trials - 1) / trials, trials, 1.0))
    # the pooled check sees the planted estimates as well
    assert wide.tally.failures()


def test_planted_discrimination_estimate_trips_the_gate(pd):
    narrow = Narrow(pd, seed=3)
    discr = narrow.cycle(0)[0]
    trials = narrow.trials
    accepted = round(narrow.p_cert * trials)
    good = round(narrow.p_cond * accepted) / accepted
    assert discr.check(_report(good, trials, narrow.p_cond, accepted_trials=accepted))
    assert not discr.check(_report(0.5, trials, narrow.p_cond, accepted_trials=accepted))


def test_check_gate_expects_key_length_red(pd):
    requests = {r.label: r for r in Check(pd, seed=0).cycle(0)}
    verdict = SimpleNamespace
    assert requests["key_length"].check(verdict(name="key_length", passed=False))
    assert not requests["key_length"].check(verdict(name="key_length", passed=True))
    assert requests["wegman_carter"].check(verdict(name="wegman_carter", passed=True))
    assert not requests["wegman_carter"].check(verdict(name="wegman_carter", passed=False))


def test_within_is_exact_at_the_edges():
    assert gate.within(10, 10, 1.0)
    assert not gate.within(9, 10, 1.0)
    assert gate.within(500, 1000, 0.5)
    assert not gate.within(600, 1000, 0.5)


# -- tracer ----------------------------------------------------------------------


def test_install_wraps_caller_bindings_and_restore_puts_them_back(pd):
    engine, experiments, qubit = pd.engine, pd.experiments, pd.qubit
    originals = {
        (engine, "measure_sites"): engine.measure_sites,
        (experiments, "run_batch"): experiments.run_batch,
        (qubit, "measure_sites"): qubit.measure_sites,
        (pd.package, "run_cert"): pd.package.run_cert,
    }
    trace = tracing.Tracer()
    trace.install(tracing.TARGETS + (("ghost", "privdel.qubit", "no_such_function"),))
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
        assert trace.absent == ["ghost.no_such_function"]
        config = experiments.ExperimentConfig(m=5, n=2, trials=10, seed=1)
        experiments.run_cert(config)
    finally:
        trace.restore()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    assert trace.stats["engine.run_batch"].calls == 1
    assert trace.stats["qubit.measure_sites"].calls == 1
    assert trace.counters.engine_trials == 10
    assert trace.counters.batches == 1


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0, 20.0, 23.0])
    trace = tracing.Tracer(clock=lambda: next(ticks))
    for name in ("a", "b", "c"):
        trace.stats[name] = tracing.FnStats()

    def leaf():
        return None

    def outer():
        trace.call("b", leaf, (), {})  # 1 -> 2
        trace.call("c", leaf, (), {})  # 4 -> 5
        return None

    trace.call("a", outer, (), {})  # 0 -> 10
    trace.call("c", leaf, (), {})  # 20 -> 23
    a, b, c = (trace.stats[n] for n in "abc")
    assert (a.busy_s, a.self_s) == (10.0, 8.0)
    assert (b.busy_s, b.self_s) == (1.0, 1.0)
    assert (c.calls, c.busy_s, c.self_s) == (2, 4.0, 4.0)
    assert trace.top_busy_s == 13.0
    assert sum(s.self_s for s in trace.stats.values()) == trace.top_busy_s
    parents = {name: parent for name, _, _, parent, _ in trace.spans}
    assert parents["b"] == 0  # span id of "a"


def test_errors_are_counted_and_reraised():
    trace = tracing.Tracer()
    trace.stats["boom"] = tracing.FnStats()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        trace.call("boom", boom, (), {})
    assert trace.stats["boom"].errors == 1
    assert trace._stack == []


def test_accounted_frac_leaves_out_untimed_work():
    trace = tracing.Tracer()
    trace.stats["leaf"] = tracing.FnStats()
    workload = SimpleNamespace(glue_s=0.0, per_request_latency=True)

    def request():
        trace.call("leaf", time.sleep, (0.01,), {})
        time.sleep(0.01)  # neither in a span nor timed as the benchmark's own
        start = time.perf_counter()
        time.sleep(0.01)  # timed as the benchmark's own
        workload.glue_s += time.perf_counter() - start

    workload.cycle = lambda k: [Request("r", request, (), 1, lambda out: True)]
    phase = run.Phase()
    phase.run(workload, 0.1, 0, trace)
    metrics, _ = run.per_layer(trace, phase, phase)
    assert metrics["trace.accounted_frac"][0] == pytest.approx(2 / 3, abs=0.1)
    assert metrics["trace.bench_s"][0] == pytest.approx(0.01, abs=0.004)


# -- entry point ---------------------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result(trace):
    proc = _run(ROOT, "--workload", "narrow", "--seed", "5", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
