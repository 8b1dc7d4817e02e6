"""Seeded Monte-Carlo estimation of the certification and discrimination games.

`run_cert` estimates the probability that the verifier accepts the
certificate; `run_discr` estimates the adversary's chance of guessing
which of two messages the protocol ran on, conditioned on acceptance.
Analytic references from `bounds` are attached whenever a closed form is
known, so every estimate ships with the value it should be compared to.

Trials are processed in fixed-size batches; batch b draws from a stream
derived from (seed, b), so a run is reproducible from its config alone and
batches could be distributed across workers without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from . import bounds
from ._engine import Batch, batch_bytes, run_batch
from .encoding import as_bits
from .parties import AdversaryStrategy, NoOp, Task, adversary_label

#: Trials per derived random stream. Fixed so results do not depend on
#: scheduling; changing it changes the streams and therefore the samples.
BATCH_TRIALS = 4096

#: A config whose batch is estimated (`_engine.batch_bytes`) above this
#: many bytes is refused when it is built, before anything is drawn.
MAX_BATCH_BYTES = 2 * 2**30

_Z95 = 1.959963984540054


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for sub-stream `index` of master seed `seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return math.nan
    p = successes / trials
    z2 = z * z
    return (z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))) / (
        1.0 + z2 / trials
    )


def runs_test_pvalue(bits) -> float:
    """Two-sided Wald-Wolfowitz runs test p-value for a binary sequence."""
    b = np.asarray(bits)
    total = b.size
    ones = int(b.sum())
    zeros = total - ones
    if zeros == 0 or ones == 0:
        return 0.0
    runs = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    mu = 1.0 + 2.0 * zeros * ones / total
    var = (
        2.0 * zeros * ones * (2.0 * zeros * ones - total)
        / (total * total * (total - 1.0))
    )
    if var <= 0:
        return 0.0
    z = (runs - mu) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    task: Task = Task.STORAGE
    adversary: AdversaryStrategy = NoOp()
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        attacked = self.adversary.attacked(self.m, self.n)
        if attacked > self.m + self.n:
            raise ValueError(
                f"adversary {self.adversary.label} attacks more than the "
                f"m+n={self.m + self.n} positions"
            )
        t = min(self.trials, BATCH_TRIALS)
        needed = batch_bytes(t, self.m, self.n, attacked)
        if needed > MAX_BATCH_BYTES:
            raise ValueError(
                f"one batch of {t} runs needs about {needed / 2**30:.1f} GiB, "
                f"over the {MAX_BATCH_BYTES / 2**30:g} GiB limit"
            )


@dataclass(frozen=True)
class ExperimentReport:
    """Monte-Carlo estimate with its interval and analytic reference.

    `estimate` is the acceptance rate for certification runs; for
    discrimination runs it is P[correct guess | accepted] with
    `conditioned_on` set to "CERT", and the unconditioned rate, the
    acceptance rate and the security product
    P[CERT] * (P[DISCR | CERT] - 1/2) ride along.
    """

    estimate: float
    trials: int
    ci95_halfwidth: float
    analytic_reference: Optional[float] = None
    conditioned_on: Optional[str] = None
    cert_estimate: Optional[float] = None
    unconditioned_estimate: Optional[float] = None
    security_product: Optional[float] = None
    accepted_trials: Optional[int] = None

    @property
    def degenerate(self) -> bool:
        return math.isnan(self.estimate)


def batches(
    config: ExperimentConfig, legit: Optional[np.ndarray] = None
) -> Iterator[tuple[int, np.random.Generator, Batch]]:
    """Each batch of the config's runs as (first trial index, stream, `Batch`).

    Batch b holds up to BATCH_TRIALS runs off ``stream_rng(seed, b)``, and a
    caller may draw more from the stream. Drop each batch before asking for
    the next, or two are held at once.
    """
    for index, start in enumerate(range(0, config.trials, BATCH_TRIALS)):
        t = min(BATCH_TRIALS, config.trials - start)
        rng = stream_rng(config.seed, index)
        yield start, rng, run_batch(
            config.m, config.n, config.task, config.adversary, t, rng, legit
        )


def run_cert(config: ExperimentConfig) -> ExperimentReport:
    """Estimate P[certificate accepted] over independent protocol runs."""
    accepted = 0
    for _, _, batch in batches(config):
        accepted += int(batch.accepted.sum())
        del batch  # before the next draw
    return ExperimentReport(
        estimate=accepted / config.trials,
        trials=config.trials,
        ci95_halfwidth=wilson_halfwidth(accepted, config.trials),
        analytic_reference=bounds.analytic_cert_probability(
            config.m, config.n, config.adversary
        ),
    )


def run_discr(config: ExperimentConfig, legit) -> ExperimentReport:
    """Estimate the adversary's discrimination success, conditioned on acceptance.

    Each trial runs the protocol on `legit` or on a fresh uniform dummy of
    the same length with equal probability; the strategy's guessing rule
    maps the eavesdrop record to a guess. With zero accepted trials the
    conditional estimate is degenerate (NaN).
    """
    legit_arr = as_bits(legit)
    if legit_arr.size != config.m:
        raise ValueError(f"legit message length {legit_arr.size} != m={config.m}")
    accepted = correct = correct_accepted = 0
    for _, _, batch in batches(config, legit_arr):
        hit = batch.guesses == batch.inputs.is_legit
        accepted += int(batch.accepted.sum())
        correct += int(hit.sum())
        correct_accepted += int((hit & batch.accepted).sum())
        del batch  # before the next draw
    cert_rate = accepted / config.trials
    uncond = correct / config.trials
    if accepted > 0:
        conditional = correct_accepted / accepted
        halfwidth = wilson_halfwidth(correct_accepted, accepted)
        product = cert_rate * (conditional - 0.5)
    else:
        conditional = math.nan
        halfwidth = math.nan
        product = math.nan
    return ExperimentReport(
        estimate=conditional,
        trials=config.trials,
        ci95_halfwidth=halfwidth,
        analytic_reference=config.adversary.analytic_discr(config.m, config.n),
        conditioned_on="CERT",
        cert_estimate=cert_rate,
        unconditioned_estimate=uncond,
        security_product=product,
        accepted_trials=accepted,
    )


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for position `index` under a master seed."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def sweep(
    configs: list[ExperimentConfig], master_seed: int
) -> list[tuple[ExperimentConfig, ExperimentReport]]:
    """Run every certification config, config i under `derive_seed(master_seed, i)`.

    Returns each config as it ran, with its derived seed, beside its
    report, so a point can be rerun alone. The whole sweep is reproducible
    from one number. A config is checked when it is built, so a bad grid
    point fails before any sweep runs.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    ran = [
        replace(config, seed=derive_seed(master_seed, index))
        for index, config in enumerate(configs)
    ]
    return [(config, run_cert(config)) for config in ran]


REPORT_COLUMNS = (
    "m",
    "n",
    "task",
    "adversary",
    "r",
    "trials",
    "estimate",
    "ci95",
    "analytic",
    "product",
    "seed",
)


def report_row(config: ExperimentConfig, report: ExperimentReport) -> dict:
    """Self-describing row: full parameter set plus the report values."""
    return {
        "m": config.m,
        "n": config.n,
        "task": config.task.value,
        "adversary": adversary_label(config.adversary),
        "r": config.adversary.attacked(config.m, config.n),
        "trials": report.trials,
        "estimate": report.estimate,
        "ci95": report.ci95_halfwidth,
        "analytic": report.analytic_reference,
        "product": report.security_product,
        "seed": config.seed,
    }
