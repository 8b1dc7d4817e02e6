"""Vectorized Monte-Carlo kernel for the certification and discrimination games.

Trials are simulated in batches: a (t, m+n) uint8 site array, one axis
for the trial and one for the position. Every protocol step has one
implementation shared with the per-instance API: traps come from
`encoding.uniform_subsets`, attacks from the strategy's own `sites`,
measurements from `qubit.measure_sites` / `qubit.measure_all_sites` and
guesses from `parties.guess_legit`. Only trap placement and the trap
check are written in batch form here. A batch of t=1 consumes its stream
exactly as one step-by-step run of `parties` does, which the test suite
checks run by run.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .encoding import uniform_subsets
from .parties import AdversaryStrategy, Task, guess_legit
from .qubit import Basis, measure_all_sites, measure_sites


class BatchTally(NamedTuple):
    accepted: int
    correct: int
    correct_accepted: int


def run_batch(
    m: int,
    n: int,
    task: Task,
    adversary: AdversaryStrategy,
    t: int,
    rng: np.random.Generator,
    legit: Optional[np.ndarray] = None,
) -> BatchTally:
    """Simulate t independent protocol runs off one random stream.

    Draw order is fixed: discrimination coin, messages, trap positions,
    trap values, attack positions, attack measurements, prover
    measurements, verifier measurements, fallback guess coins. With
    `legit` set, each run carries the candidate message or a fresh uniform
    dummy with equal probability and the tally includes guess counts.
    """
    total = m + n

    if legit is not None:
        is_legit = rng.integers(0, 2, t, dtype=np.uint8).astype(bool)
        messages = rng.integers(0, 2, (t, m), dtype=np.uint8)
        messages[is_legit] = legit
    else:
        messages = rng.integers(0, 2, (t, m), dtype=np.uint8)

    traps = uniform_subsets(t, total, n, rng)
    trap_values = rng.integers(0, 2, (t, n), dtype=np.uint8)

    # masks fill row-major: each row's traps in sorted order, as in
    # trap_values, and its other sites in position order, as in messages
    trap_mask = np.zeros((t, total), dtype=bool)
    np.put_along_axis(trap_mask, traps, True, axis=1)
    sites = np.empty((t, total), dtype=np.uint8)
    sites[trap_mask] = (2 * Basis.DIAGONAL + trap_values).ravel()
    sites[~trap_mask] = messages.ravel()

    attack = adversary.sites(t, total, rng)
    if attack is not None:
        outcomes = measure_sites(sites, *attack, rng)

    if task is Task.STORAGE:
        checks = measure_sites(sites, traps, Basis.DIAGONAL, rng)
    else:
        announced = measure_all_sites(sites, Basis.DIAGONAL, rng)
        checks = np.take_along_axis(announced, traps, axis=1)
    accepted = (checks == trap_values).all(axis=1)

    if legit is None:
        return BatchTally(int(accepted.sum()), 0, 0)

    if attack is None:
        attack = (np.empty((t, 0), dtype=np.intp), np.empty((t, 0), dtype=np.uint8))
        outcomes = attack[1]
    correct = guess_legit(*attack, outcomes, int(legit[0]), rng) == is_legit
    return BatchTally(
        int(accepted.sum()),
        int(correct.sum()),
        int((correct & accepted).sum()),
    )
