"""Vectorized Monte-Carlo engine for the certification and discrimination games.

A run's verdict depends only on its n trap sites, and the guess only on
what the attack saw. So a batch of t runs holds, per run, only its n traps
and its k attacked sites, in one (t, n+k) uint8 site array (see `qubit`):
traps in the first n columns, the attacked positions after them. An
attacked trap is measured in its own trap column, and the column set aside
for it goes unused. Memory and work per run are O(n + k), whatever m is.

`run_batch` is a draw step and a pure kernel. `draw` takes every random
input of t runs from the stream: traps from `encoding.uniform_subsets`,
the attack from the strategy's own `sites`, message bits only at the
attacked positions, and one uniform per measurement. `kernel` maps those
arrays to verdicts and attack outcomes through `qubit.measure_sites` /
`qubit.measure_all_sites`, and guesses come from `parties.guess_legit`.
The per-instance API in `parties` runs the same steps on whole states;
it draws its stream in another order, so the two agree in law, and the
kernel fed one such run's draws returns that run's verdict and outcomes.
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


class TrialInputs(NamedTuple):
    """Every random input of t runs, one row per run."""

    #: (t, n) row-sorted trap positions and (t, n) trap bits
    traps: np.ndarray
    trap_values: np.ndarray
    #: (t, k) row-sorted attacked positions and their bases
    positions: np.ndarray
    bases: np.ndarray
    #: (t, k) fresh message bits at the attacked positions
    bits: np.ndarray
    #: (t,) bool, the run carries the candidate message; None outside
    #: the discrimination game
    is_legit: Optional[np.ndarray]
    #: (t, k) uniforms of the attack measurements
    attack_u: np.ndarray
    #: uniforms of the trap check: (t, n) for the storage verifier's trap
    #: measurements, (t, n+k) for the erasure prover's announcement
    check_u: np.ndarray


def draw(
    m: int,
    n: int,
    task: Task,
    adversary: AdversaryStrategy,
    t: int,
    rng: np.random.Generator,
    discr: bool = False,
) -> TrialInputs:
    """Draw the inputs of t runs, in this order: discrimination coins, trap
    positions, trap values, attack sites, message bits, attack uniforms,
    check uniforms."""
    total = m + n
    is_legit = rng.integers(0, 2, t, dtype=np.uint8).astype(bool) if discr else None
    traps = uniform_subsets(t, total, n, rng)
    trap_values = rng.integers(0, 2, (t, n), dtype=np.uint8)
    attack = adversary.sites(t, total, rng)
    if attack is None:
        attack = (np.empty((t, 0), dtype=np.intp), np.empty((t, 0), dtype=np.uint8))
    k = attack[0].shape[1]
    bits = rng.integers(0, 2, (t, k), dtype=np.uint8)
    # float32 keeps P(u >= 1/2) exactly 1/2 at half the bytes of float64
    attack_u = rng.random((t, k), dtype=np.float32)
    check_u = rng.random((t, n if task is Task.STORAGE else n + k), dtype=np.float32)
    return TrialInputs(traps, trap_values, *attack, bits, is_legit, attack_u, check_u)


def kernel(
    m: int, task: Task, inputs: TrialInputs, legit: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(t,) acceptance verdicts and (t, k) attack outcomes, a pure function
    of the inputs.

    A non-trap attacked position p holds message bit p - (traps before p):
    the candidate's bit in a legitimate run, the fresh bit otherwise. The
    attack measures each attacked site once, a trap in its trap column;
    then the storage verifier measures the traps in the diagonal basis, or
    the erasure prover measures every held site in the diagonal basis and
    the verifier reads the trap announcements. A run is accepted iff every
    trap outcome equals its trap value.
    """
    traps, trap_values, positions, bases, bits, is_legit, attack_u, check_u = inputs
    t, n = traps.shape
    k = positions.shape[1]
    before, is_trap = _traps_before(traps, positions, m + n)

    sites = np.empty((t, n + k), dtype=np.uint8)
    sites[:, :n] = 2 * Basis.DIAGONAL + trap_values
    if is_legit is not None:
        # trap entries index past their message bit; clip, their column is unused
        candidate = legit.take(positions - before, mode="clip")
        bits = np.where(is_legit[:, None], candidate, bits)
    sites[:, n:] = 2 * Basis.RECTILINEAR + bits

    if k:
        # in place, so that few (t, k) index arrays are alive at once: an
        # attacked trap's column is its trap index, which `before` holds
        columns = before
        np.copyto(columns, n + np.arange(k), where=~is_trap)
        outcomes = measure_sites(sites, columns, bases, attack_u)
    else:
        outcomes = np.empty((t, 0), dtype=np.uint8)

    if task is Task.STORAGE:
        trap_columns = np.broadcast_to(np.arange(n), (t, n))
        checks = measure_sites(sites, trap_columns, Basis.DIAGONAL, check_u)
    else:
        checks = measure_all_sites(sites, Basis.DIAGONAL, check_u)[:, :n]
    return (checks == trap_values).all(axis=1), outcomes


def _traps_before(
    traps: np.ndarray, positions: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each attacked position, the traps before it in its row, and
    whether it is a trap itself.

    Row i is shifted by i * total, which lays the rows end to end in one
    sorted array, so one search answers every row. The shifted values are
    int32 wherever they fit: on the narrow benchmark workload that took
    the peak RSS from 50.4 to 47.4 MB, and the search is faster too.
    """
    t, n = traps.shape
    shifted = np.int32 if t * total < 2**31 else np.int64
    row = np.arange(t, dtype=shifted)[:, None]
    keyed = np.add(traps, row * total, dtype=shifted, casting="unsafe").ravel()
    query = np.add(positions, row * total, dtype=shifted, casting="unsafe")
    found = np.searchsorted(keyed, query)
    is_trap = keyed.take(found, mode="clip") == query
    found -= row * n
    return found, is_trap


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

    With `legit` set, each run carries the candidate message or a fresh
    uniform dummy with equal probability, and the tally includes guess
    counts; fallback guess coins are drawn last.
    """
    inputs = draw(m, n, task, adversary, t, rng, discr=legit is not None)
    accepted, outcomes = kernel(m, task, inputs, legit)
    if legit is None:
        return BatchTally(int(accepted.sum()), 0, 0)
    guesses = guess_legit(inputs.positions, inputs.bases, outcomes, int(legit[0]), rng)
    correct = guesses == inputs.is_legit
    return BatchTally(
        int(accepted.sum()),
        int(correct.sum()),
        int((correct & accepted).sum()),
    )
