"""Vectorized Monte-Carlo engine for the certification and discrimination games.

A run's verdict depends only on its n trap sites, and the guess only on
what the attack saw. So a batch of t runs holds, per run, only its n traps
and its k attacked sites, as a (t, n) and a (t, k) uint8 site array (see
`qubit`). Only the attacked traps, at most min(n, k) per run, link the
two: the kernel finds them with one sort per batch that merges each run's
trap and attacked positions (`_matches`), copies each such trap's site
into the attacked sites before the attack, and its collapse back after.
Memory per run is O(n + k) and work O((n + k) log(n + k)), whatever m is.

`run_batch` is a draw step and a pure kernel. `draw` takes every random
input of t runs from the stream: traps from `encoding.uniform_subsets`,
the attack from the strategy's own `sites`, which may read the traps just
drawn (`parties.NonTraps` attacks every non-trap position), then trap
values, message bits only at the attacked positions and one coin bit per
measurement, all from one ``rng.bytes`` call. `kernel` maps those arrays
to verdicts, attack outcomes and the attacked sites as the attack left
them, through `qubit.measure_sites`; guesses come from `parties.guess_legit`.
The per-instance API in `parties` runs the same steps on whole states;
it draws its stream in another order, so the two agree in law, and the
kernel fed one such run's draws returns that run's verdict and outcomes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .encoding import uniform_subsets
from .parties import AdversaryStrategy, Task, guess_legit
from .qubit import Basis, measure_sites


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
    #: (t, k) coin bits of the attack measurements
    attack_coins: np.ndarray
    #: (t, n) coin bits of the trap measurements (storage) or announcements
    check_coins: np.ndarray


def random_bits(rng: np.random.Generator, t: int, width: int) -> np.ndarray:
    """(t, width) uint8 fair bits: one ``rng.bytes`` draw, unpacked big-endian."""
    packed = np.frombuffer(rng.bytes(-(-t * width // 8)), dtype=np.uint8)
    return np.unpackbits(packed, count=t * width).reshape(t, width)


def draw(
    m: int, n: int, adversary: AdversaryStrategy, t: int, rng: np.random.Generator,
    discr: bool = False,
) -> TrialInputs:
    """Draw the inputs of t runs, in this order: trap positions, attack
    sites, then one (t, d + 2n + 2k) bit matrix whose columns are the
    legit coin (d = 1 only if `discr`), n trap values, k message bits, k
    attack coins and n check coins: only what the kernel reads, so
    storage and erasure runs draw alike."""
    total = m + n
    traps = uniform_subsets(t, total, n, rng)
    attack = adversary.sites(t, total, rng, traps)
    if attack is None:
        attack = (np.empty((t, 0), dtype=np.intp), np.empty((t, 0), dtype=np.uint8))
    k = attack[0].shape[1]
    d = int(discr)
    bits = random_bits(rng, t, d + 2 * n + 2 * k)
    is_legit = bits[:, 0].astype(bool) if discr else None
    trap_values, message, *coins = np.split(bits[:, d:], np.cumsum([n, k, k]), axis=1)
    return TrialInputs(traps, trap_values, *attack, message, is_legit, *coins)


def kernel(
    m: int, inputs: TrialInputs, legit: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t,) acceptance verdicts, (t, k) attack outcomes and the (t, k)
    attacked sites as the attack left them, a pure function of the inputs.

    A non-trap attacked position p holds message bit p - (traps before p):
    the candidate's bit in a legitimate run, the fresh bit otherwise. An
    attacked trap holds its trap site instead. The attack measures each
    (t, k) attacked site once, and each attacked trap takes its collapsed
    site back into the (t, n) trap sites. Then the storage verifier
    measures the traps in the diagonal basis, or the erasure prover
    measures every held site in the diagonal basis and the verifier reads
    the trap announcements; either way only the trap outcomes count, and
    they are decided by `check_coins`. A run is accepted iff every trap
    outcome equals its trap value.
    """
    traps, trap_values, positions, bases, bits, is_legit = inputs[:6]
    attack_coins, check_coins = inputs[6:]
    t, n = traps.shape
    k = positions.shape[1]
    trap_sites = 2 * Basis.DIAGONAL + trap_values
    if k:
        trap_at, site_at, before = _matches(traps, positions, m + n, is_legit is not None)
        if is_legit is not None:
            # trap entries index past their message bit; clip, they are overwritten
            candidate = legit.take(positions - before, mode="clip")
            bits = np.where(is_legit[:, None], candidate, bits)
        sites = 2 * Basis.RECTILINEAR + bits
        flat_sites, flat_traps = sites.reshape(-1), trap_sites.reshape(-1)
        flat_sites[site_at] = flat_traps[trap_at]
        outcomes = measure_sites(sites, ..., bases, attack_coins)
        flat_traps[trap_at] = flat_sites[site_at]
    else:
        sites = outcomes = np.empty((t, 0), dtype=np.uint8)
    checks = measure_sites(trap_sites, ..., Basis.DIAGONAL, check_coins)
    return (checks == trap_values).all(axis=1), outcomes, sites


#: Up to this many attacked positions per run, `_matches` binary-searches
#: them among the traps; above it, one row sort per batch is cheaper. Per
#: 4096-run batch at (1000,50), search against sort: 0.40 against 1.03 ms
#: at k = 1, 1.29 against 1.41 ms at k = 6 with the counts, 6.3 against
#: 1.8 ms at k = 50
SEARCHED_SITES = 5


def _matches(
    traps: np.ndarray, positions: np.ndarray, total: int, with_before: bool
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Each attacked trap as a pair of flat indices, (trap, attacked site),
    in row-major order, and, if asked, the (t, k) count of traps before
    each attacked position.

    One sort per batch merges each run's n traps and k attacked positions:
    a row of n + k keys ``position << 1 | is_trap``, in the narrowest
    integer type that holds them, sorted in place, so that an attacked
    site sorts just before the trap at its own position. A trap's rank in
    its row, less its column and less one, is then the column of the site
    just before it, and a site's rank less its column counts the traps
    before it. Work per run is O((n+k) log(n+k)) and memory O(n+k),
    whatever m is. Up to `SEARCHED_SITES` attacked positions, a binary
    search of each among the traps, rows laid end to end, is cheaper and
    gives the same arrays.
    """
    t, n = traps.shape
    k = positions.shape[1]
    if k <= SEARCHED_SITES:
        shifted = np.int32 if t * total < 2**31 else np.int64
        row = np.arange(t, dtype=shifted)[:, None]
        trap_keys = np.add(traps, row * total, dtype=shifted, casting="unsafe")
        site_keys = np.add(positions, row * total, dtype=shifted, casting="unsafe")
        found = np.searchsorted(trap_keys.ravel(), site_keys)
        site_at = np.flatnonzero(trap_keys.take(found, mode="clip") == site_keys)
        trap_at = found.ravel()[site_at]
        if not with_before:
            return trap_at, site_at, None
        found -= row * n
        return trap_at, site_at, found
    width = n + k
    keys = np.empty((t, width), dtype=next(
        key for key in (np.int16, np.int32, np.int64) if 2 * total - 1 <= np.iinfo(key).max
    ))
    keys[:, :n] = traps
    keys[:, n:] = positions
    keys <<= 1
    keys[:, :n] |= 1
    keys.sort(axis=1)
    # the key sorted just before each trap, row-major: the attacked site
    # at the trap's position if there is one, else a smaller position
    is_trap = np.bitwise_and(keys, 1, out=np.empty(keys.shape, dtype=bool), casting="unsafe")
    rank = np.flatnonzero(is_trap).reshape(t, n)
    rank -= 1
    attacked = np.equal(keys.reshape(-1).take(rank) >> 1, traps)
    del keys  # before the pair indices, which may be as large
    # only trap 0 can sort first in its row, with no key before it there
    attacked[:, 0] &= rank[:, 0] % width != width - 1
    trap_at = np.flatnonzero(attacked)
    site_at = rank.reshape(-1).take(trap_at)
    site_at -= trap_at
    if not with_before:
        return trap_at, site_at, None
    before = np.flatnonzero(np.logical_not(is_trap, out=is_trap)).reshape(t, k)
    before -= np.arange(0, t * width, width)[:, None]
    before -= np.arange(k)
    return trap_at, site_at, before


def batch_bytes(t: int, m: int, n: int, k: int) -> int:
    """An upper estimate of the peak bytes of one batch of t runs with k
    attacked positions.

    The drawn inputs, sort keys and site arrays take at most about 48
    bytes per trap or attacked site (measured up to 40 with `tracemalloc`).
    A subset of one run, or of a third of the positions or more, is drawn
    (`encoding.uniform_subsets`) through a (t, m+n) intp shuffle or a
    (t, m+n) mask, which dominates at large m.
    """
    total = m + n
    shuffled = any(size and (t == 1 or 3 * size >= total) for size in (n, k))
    return t * (48 * (n + k) + (8 * total if shuffled else 0))


class Batch(NamedTuple):
    """t runs: what `draw` drew, what `kernel` returned and the guesses."""

    inputs: TrialInputs
    #: (t,) verdicts, (t, k) attack outcomes and (t, k) attacked sites
    accepted: np.ndarray
    outcomes: np.ndarray
    sites: np.ndarray
    #: (t,) bool, "legitimate" guesses; None outside the discrimination game
    guesses: Optional[np.ndarray]


def run_batch(
    m: int,
    n: int,
    task: Task,
    adversary: AdversaryStrategy,
    t: int,
    rng: np.random.Generator,
    legit: Optional[np.ndarray] = None,
) -> Batch:
    """Simulate t independent protocol runs off one random stream.

    With `legit` set, each run carries the candidate message or a fresh
    uniform dummy with equal probability, and the adversary guesses which;
    fallback guess coins are drawn last. Storage and erasure runs draw and
    are checked alike, so `task` changes nothing here.
    """
    inputs = draw(m, n, adversary, t, rng, discr=legit is not None)
    accepted, outcomes, sites = kernel(m, inputs, legit)
    guesses = None
    if legit is not None:
        guesses = guess_legit(inputs.positions, inputs.bases, outcomes, int(legit[0]), rng)
    return Batch(inputs, accepted, outcomes, sites, guesses)
