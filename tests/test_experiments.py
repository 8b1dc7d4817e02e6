import math

import numpy as np
import pytest

from privdel.bounds import (
    cert_exact,
    firstbit_advantage,
    firstbit_cert,
    firstbit_conditional_success,
)
from privdel._engine import run_batch
from privdel.encoding import encode, generate_key, random_message
from privdel.experiments import (
    ExperimentConfig,
    REPORT_COLUMNS,
    report_row,
    run_cert,
    run_discr,
    runs_test_pvalue,
    stream_rng,
    sweep,
    wilson_halfwidth,
)
from privdel.parties import (
    Custom,
    FirstBit,
    HONEST,
    NoOp,
    PositionChoice,
    RectilinearSample,
    Task,
    adversary_intervene,
    discr_guess,
    prover_respond,
    verify,
)
from privdel.qubit import Basis


def three_sigma(p, trials):
    return 3 * math.sqrt(p * (1 - p) / trials)


def test_honest_runs_accept_exactly():
    for task in (Task.STORAGE, Task.ERASURE):
        for m, n in ((10, 2), (33, 7)):
            report = run_cert(
                ExperimentConfig(m=m, n=n, task=task, trials=4_000, seed=1)
            )
            assert report.estimate == 1.0
            assert report.analytic_reference == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m=0, n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=1, n=1, trials=0)


def test_sampling_estimate_matches_exact_law():
    config = ExperimentConfig(
        m=2, n=1, adversary=RectilinearSample(1), trials=60_000, seed=2
    )
    report = run_cert(config)
    p = cert_exact(2, 1, 1)
    assert report.analytic_reference == pytest.approx(p)
    assert abs(report.estimate - p) <= three_sigma(p, config.trials)


def test_engine_agrees_with_step_by_step_protocol_runs():
    m, n, r = 5, 2, 3
    p = cert_exact(m, n, r)
    engine = run_cert(
        ExperimentConfig(m=m, n=n, adversary=RectilinearSample(r), trials=40_000, seed=3)
    )
    assert abs(engine.estimate - p) <= three_sigma(p, 40_000)
    scalar_trials = 4_000
    accepted = 0
    for i in range(scalar_trials):
        rng = stream_rng(303, i)
        key = generate_key(m, n, rng)
        state = encode(random_message(m, rng), key)
        state, _ = adversary_intervene(state, RectilinearSample(r), rng)
        cert = prover_respond(state, HONEST, Task.STORAGE, rng)
        accepted += verify(cert, key, rng).accepted
    scalar = accepted / scalar_trials
    assert abs(scalar - p) <= three_sigma(p, scalar_trials)
    assert abs(scalar - engine.estimate) <= three_sigma(p, scalar_trials) + three_sigma(
        p, 40_000
    )


def test_erasure_task_follows_the_same_law():
    m, n, r = 40, 8, 24
    p = cert_exact(m, n, r)
    report = run_cert(
        ExperimentConfig(
            m=m,
            n=n,
            task=Task.ERASURE,
            adversary=RectilinearSample(r),
            trials=40_000,
            seed=30,
        )
    )
    assert abs(report.estimate - p) <= three_sigma(p, 40_000)


def test_prefix_sampling_follows_the_same_law():
    # fixed positions against uniformly placed traps: same overlap law
    from privdel.parties import PositionChoice

    m, n, r = 30, 6, 18
    p = cert_exact(m, n, r)
    report = run_cert(
        ExperimentConfig(
            m=m,
            n=n,
            adversary=RectilinearSample(r, PositionChoice.PREFIX),
            trials=40_000,
            seed=31,
        )
    )
    assert report.analytic_reference == pytest.approx(p)
    assert abs(report.estimate - p) <= three_sigma(p, 40_000)


def test_custom_probe_through_the_engine():
    # a fixed two-position rectilinear probe is a 2-sample attack
    from privdel.parties import Custom
    from privdel.qubit import Basis

    m, n = 10, 5
    p = cert_exact(m, n, 2)
    report = run_cert(
        ExperimentConfig(
            m=m,
            n=n,
            adversary=Custom([3, 11], Basis.RECTILINEAR),
            trials=40_000,
            seed=32,
        )
    )
    assert report.analytic_reference is None
    assert abs(report.estimate - p) <= three_sigma(p, 40_000)


def test_firstbit_certification_rate():
    report = run_cert(
        ExperimentConfig(m=90, n=10, adversary=FirstBit(), trials=50_000, seed=4)
    )
    p = firstbit_cert(90, 10)
    assert report.analytic_reference == pytest.approx(p)
    assert abs(report.estimate - p) <= three_sigma(p, 50_000)


def test_estimate_never_exceeds_the_tail_bound():
    from privdel.bounds import hoeffding_bound

    m, n, r, trials = 50, 10, 30, 40_000
    report = run_cert(
        ExperimentConfig(m=m, n=n, adversary=RectilinearSample(r), trials=trials, seed=33)
    )
    slack = three_sigma(report.analytic_reference, trials)
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert report.estimate <= hoeffding_bound(m, n, r, eps).raw + slack


def test_discr_noop_is_a_coin_flip():
    config = ExperimentConfig(m=20, n=5, adversary=NoOp(), trials=40_000, seed=6)
    report = run_discr(config, "0" * 20)
    assert report.cert_estimate == 1.0
    assert report.conditioned_on == "CERT"
    assert report.analytic_reference == 0.5
    assert abs(report.estimate - 0.5) <= three_sigma(0.5, config.trials)
    assert abs(report.security_product) <= three_sigma(0.5, config.trials)


def test_discr_firstbit_matches_closed_forms():
    m, n, trials = 90, 10, 200_000
    config = ExperimentConfig(m=m, n=n, adversary=FirstBit(), trials=trials, seed=7)
    report = run_discr(config, "0" * m)
    conditional = firstbit_conditional_success(m, n)
    assert report.analytic_reference == pytest.approx(conditional)
    assert abs(report.estimate - conditional) <= three_sigma(conditional, trials)
    assert abs(report.cert_estimate - firstbit_cert(m, n)) <= three_sigma(
        firstbit_cert(m, n), trials
    )
    # unconditioned success is 1/2 + the advantage floor; conditioning
    # shifts it up by just over a percent at this trap fraction
    uncond = 0.5 + firstbit_advantage(m, n)
    assert abs(report.unconditioned_estimate - uncond) <= three_sigma(uncond, trials)
    assert abs(report.security_product - firstbit_advantage(m, n)) < 0.01
    gap = (report.estimate - 0.5) - (report.unconditioned_estimate - 0.5)
    assert 0 < gap < 0.02


def test_discr_engine_agrees_with_step_by_step_runs():
    # the engine's vectorized guessing must match discr_guess semantics
    from privdel.parties import adversary_intervene, discr_guess

    m, n, trials = 18, 2, 3_000
    legit = np.zeros(m, dtype=np.uint8)
    accepted = correct_accepted = 0
    for i in range(trials):
        rng = stream_rng(404, i)
        is_legit = bool(rng.integers(0, 2))
        message = legit if is_legit else random_message(m, rng)
        key = generate_key(m, n, rng)
        state = encode(message, key)
        state, record = adversary_intervene(state, FirstBit(), rng)
        cert = prover_respond(state, HONEST, Task.STORAGE, rng)
        ok = verify(cert, key, rng).accepted
        guess = discr_guess(record, legit, rng)
        if ok:
            accepted += 1
            correct_accepted += guess == is_legit
    scalar = correct_accepted / accepted
    expected = firstbit_conditional_success(m, n)
    assert abs(scalar - expected) <= three_sigma(expected, accepted)
    engine = run_discr(
        ExperimentConfig(m=m, n=n, adversary=FirstBit(), trials=60_000, seed=34),
        legit,
    )
    assert abs(engine.estimate - expected) <= three_sigma(expected, 60_000)


T1_STRATEGIES = (
    NoOp(),
    FirstBit(),
    RectilinearSample(0),
    RectilinearSample(4),
    RectilinearSample(7),
    RectilinearSample(3, PositionChoice.PREFIX),
    Custom([0, 2, 5], [Basis.RECTILINEAR, Basis.DIAGONAL, Basis.RECTILINEAR]),
)


@pytest.mark.parametrize("case", ["storage", "erasure", "discr"])
@pytest.mark.parametrize("adversary", T1_STRATEGIES, ids=lambda a: a.label)
def test_engine_t1_batch_is_the_step_by_step_run(adversary, case):
    # a one-trial batch draws exactly what one step-by-step run draws, so
    # the two agree run by run, not only in law; the discrimination case
    # uses erasure, whose verify draws nothing before the guess coin
    m, n, runs = 5, 2, 2_000
    task = Task.STORAGE if case == "storage" else Task.ERASURE
    legit = np.array([1, 0, 1, 1, 0], dtype=np.uint8) if case == "discr" else None
    for i in range(runs):
        rng = stream_rng(505, i)
        if legit is not None:
            is_legit = bool(rng.integers(0, 2, dtype=np.uint8))
        message = random_message(m, rng)
        if legit is not None and is_legit:
            message = legit
        key = generate_key(m, n, rng)
        state, record = adversary_intervene(encode(message, key), adversary, rng)
        cert = prover_respond(state, HONEST, task, rng)
        accepted = verify(cert, key, rng).accepted
        batch = run_batch(m, n, task, adversary, 1, stream_rng(505, i), legit=legit)
        assert batch.accepted == accepted, i
        if legit is not None:
            correct = discr_guess(record, legit, rng) == is_legit
            assert batch.correct == correct, i


def test_discr_degenerate_when_nothing_is_accepted():
    # a single trial that certifies with probability 2^-20
    config = ExperimentConfig(
        m=1, n=20, adversary=RectilinearSample(21), trials=1, seed=8
    )
    report = run_discr(config, "0")
    assert report.accepted_trials == 0
    assert report.degenerate
    assert math.isnan(report.ci95_halfwidth)
    assert math.isnan(report.security_product)


def test_discr_checks_message_length():
    config = ExperimentConfig(m=5, n=2, trials=10, seed=9)
    with pytest.raises(ValueError):
        run_discr(config, "0000")


def test_sweep_is_monotone_and_deterministic():
    m, n = 100, 20
    configs = [
        ExperimentConfig(
            m=m, n=n, adversary=RectilinearSample(r), trials=20_000, seed=0
        )
        for r in range(0, m + n + 1, 30)
    ]
    first = sweep(configs, master_seed=99)
    second = sweep(configs, master_seed=99)
    assert first == second
    estimates = [rep.estimate for rep in first]
    assert estimates[0] == 1.0
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))
    for config, rep in zip(configs, first):
        assert rep.analytic_reference == pytest.approx(
            cert_exact(m, n, config.adversary.r)
        )


def test_sweep_with_noop_grid_is_all_ones():
    configs = [
        ExperimentConfig(m=m, n=4, adversary=NoOp(), trials=3_000, seed=0)
        for m in (8, 16)
    ]
    assert [rep.estimate for rep in sweep(configs, master_seed=1)] == [1.0, 1.0]


def test_sweep_survives_a_failing_config():
    good = ExperimentConfig(m=6, n=2, trials=2_000, seed=0)
    bad = ExperimentConfig(
        m=6, n=2, adversary=RectilinearSample(9), trials=2_000, seed=0
    )
    reports = sweep([good, bad, good], master_seed=3)
    assert reports[0].estimate == 1.0 and reports[2].estimate == 1.0
    assert reports[1].error is not None and "r=9" in reports[1].error
    assert math.isnan(reports[1].estimate)


def test_sweep_rejects_empty_input():
    with pytest.raises(ValueError):
        sweep([])


def test_report_row_echoes_the_parameter_set():
    m, n = 12, 3
    # (strategy, adversary, r, analytic, discrimination reference)
    cases = (
        (NoOp(), "noop", 0, 1.0, 0.5),
        (RectilinearSample(5), "sample(r=5,uniform)", 5, cert_exact(m, n, 5), None),
        (
            FirstBit(),
            "firstbit",
            1,
            firstbit_cert(m, n),
            firstbit_conditional_success(m, n),
        ),
        (Custom([1, 4, 9], Basis.RECTILINEAR), "custom(3)", 3, None, None),
    )
    for adversary, label, r, analytic, discr_reference in cases:
        config = ExperimentConfig(
            m=m, n=n, adversary=adversary, trials=1_000, seed=17
        )
        row = report_row(config, run_cert(config))
        assert tuple(row) == REPORT_COLUMNS
        assert (row["m"], row["n"], row["task"], row["seed"]) == (m, n, "storage", 17)
        assert row["trials"] == 1_000
        assert (row["adversary"], row["r"]) == (label, r)
        assert row["analytic"] == analytic  # bit for bit, or both None
        discr = run_discr(config, "0" * m)
        assert discr.analytic_reference == discr_reference


def test_wilson_halfwidth_reference_values():
    # hand-evaluated Wilson 95% interval at p-hat = 0.5, trials = 100
    assert wilson_halfwidth(50, 100) == pytest.approx(0.09617, abs=1e-4)
    assert wilson_halfwidth(0, 50) > 0.0
    assert math.isnan(wilson_halfwidth(0, 0))


def test_runs_test_behaviour():
    rng = stream_rng(20, 0)
    uniform = rng.integers(0, 2, 20_000)
    assert runs_test_pvalue(uniform) > 0.01
    assert runs_test_pvalue(np.zeros(100, dtype=int)) == 0.0
    alternating = np.arange(2_000) % 2
    assert runs_test_pvalue(alternating) < 1e-6


def test_stream_rng_is_keyed_by_seed_and_index():
    assert stream_rng(1, 0).random() == stream_rng(1, 0).random()
    assert stream_rng(1, 0).random() != stream_rng(1, 1).random()
    assert stream_rng(1, 0).random() != stream_rng(2, 0).random()
