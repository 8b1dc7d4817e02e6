"""Vectorized Monte-Carlo kernels for the certification and discrimination games.

Trials are simulated in batches: a (t, m+n) uint8 site array, one axis
for the trial and one for the position. The measurement rule is shared
with the per-instance path through `qubit.measure_sites` /
`qubit.measure_all_sites`, so the physics has a single implementation;
only the plumbing (key sampling, placement, accept logic) is written in
batch form here. Semantics per trial slice are identical to running
`parties` step by step, which the test suite checks.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .qubit import Basis, measure_all_sites, measure_sites
from .parties import (
    Custom,
    FirstBit,
    NoOp,
    PositionChoice,
    RectilinearSample,
    Task,
)


class BatchTally(NamedTuple):
    accepted: int
    correct: int
    correct_accepted: int


def _uniform_subsets(t: int, total: int, size: int, rng: np.random.Generator):
    """(t, size) row-sorted uniform subsets of range(total), plus complements.

    The `size` smallest of `total` iid uniforms are a uniform subset by
    exchangeability.
    """
    keys = rng.random((t, total))
    order = np.argpartition(keys, size - 1, axis=1) if 0 < size < total else None
    if size == 0:
        picked = np.empty((t, 0), dtype=np.intp)
        rest = np.broadcast_to(np.arange(total, dtype=np.intp), (t, total))
    elif size == total:
        picked = np.broadcast_to(np.arange(total, dtype=np.intp), (t, total))
        rest = np.empty((t, 0), dtype=np.intp)
    else:
        picked = np.sort(order[:, :size], axis=1).astype(np.intp, copy=False)
        rest = np.sort(order[:, size:], axis=1).astype(np.intp, copy=False)
    return picked, rest


def _attack_positions(
    strategy, t: int, total: int, rng: np.random.Generator
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Batched (t, k) attack positions and bases; (None, None) for no attack."""
    if isinstance(strategy, NoOp):
        return None, None
    if isinstance(strategy, FirstBit):
        pos = np.zeros((t, 1), dtype=np.intp)
        return pos, np.zeros((t, 1), dtype=np.uint8)
    if isinstance(strategy, RectilinearSample):
        r = strategy.r
        if r > total:
            raise ValueError(f"r={r} exceeds state length {total}")
        if r == 0:
            return None, None
        if strategy.position_choice is PositionChoice.PREFIX:
            pos = np.broadcast_to(np.arange(r, dtype=np.intp), (t, r))
        else:
            pos, _ = _uniform_subsets(t, total, r, rng)
        return pos, np.zeros((t, r), dtype=np.uint8)
    if isinstance(strategy, Custom):
        if strategy.positions.size and strategy.positions[-1] >= total:
            raise ValueError("custom position out of range")
        pos = np.broadcast_to(strategy.positions, (t, strategy.positions.size))
        bas = np.broadcast_to(strategy.bases, (t, strategy.bases.size))
        return pos, bas
    raise TypeError(f"unknown adversary strategy: {strategy!r}")


def run_batch(
    m: int,
    n: int,
    task: Task,
    adversary,
    t: int,
    rng: np.random.Generator,
    fixed_message: Optional[np.ndarray] = None,
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
    elif fixed_message is not None:
        messages = np.broadcast_to(fixed_message, (t, m))
    else:
        messages = rng.integers(0, 2, (t, m), dtype=np.uint8)

    traps, rest = _uniform_subsets(t, total, n, rng)
    trap_values = rng.integers(0, 2, (t, n), dtype=np.uint8)

    sites = np.empty((t, total), dtype=np.uint8)
    np.put_along_axis(sites, traps, 2 * Basis.DIAGONAL + trap_values, axis=1)
    np.put_along_axis(sites, rest, messages, axis=1)

    attack_pos, attack_bases = _attack_positions(adversary, t, total, rng)
    saw_zero = None
    outcome_zero = None
    if attack_pos is not None:
        outcomes = measure_sites(sites, attack_pos, attack_bases, rng)
        if legit is not None:
            hit = (attack_pos == 0) & (attack_bases == Basis.RECTILINEAR)
            saw_zero = hit.any(axis=1)
            outcome_zero = (outcomes * hit).sum(axis=1)

    if task is Task.STORAGE:
        checks = measure_sites(sites, traps, Basis.DIAGONAL, rng)
    else:
        announced = measure_all_sites(sites, Basis.DIAGONAL, rng)
        checks = np.take_along_axis(announced, traps, axis=1)
    accepted = (checks == trap_values).all(axis=1)

    if legit is None:
        return BatchTally(int(accepted.sum()), 0, 0)

    coins = rng.integers(0, 2, t, dtype=np.uint8).astype(bool)
    if saw_zero is None:
        guess_legit = coins
    else:
        guess_legit = np.where(saw_zero, outcome_zero == int(legit[0]), coins)
    correct = guess_legit == is_legit
    return BatchTally(
        int(accepted.sum()),
        int(correct.sum()),
        int((correct & accepted).sum()),
    )
