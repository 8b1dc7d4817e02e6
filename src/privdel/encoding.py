"""Key generation, trap-bit sprinkling and key-length accounting.

The sender hides n diagonal-basis trap bits at a uniformly random set of
positions among the m rectilinear-basis message bits. The encoded state
holds one uint8 site, ``2*basis + bit``, per position (see `qubit`). The
secret key is the trap positions plus the trap values; its length in
bits is n + log2(C(m+n, n)). `uniform_subsets` is the one sampler of
position sets: keys, the batched engine's traps and sampled attack
positions all come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import LN2, log_binomial
from .qubit import Basis, measure_sites

#: A message is an ordered sequence of bits, held as a uint8 array.
Message = np.ndarray


def as_bits(bits) -> np.ndarray:
    """Coerce a bit sequence (list, string of 0/1, array) to a uint8 array."""
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr


def bits_to_string(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits))


def random_message(m: int, rng: np.random.Generator) -> Message:
    if m < 1:
        raise ValueError("message length must be at least 1")
    return rng.integers(0, 2, m, dtype=np.uint8)


def uniform_subsets(
    t: int, total: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """(t, k) row-sorted uniform k-subsets of range(total).

    Two draws, picked from the sizes alone. A single row (t == 1), and rows
    where k is a third of total or more, are the first k entries of a
    uniform shuffle, sorted: the same draws as ``rng.permutation(total)``,
    so the per-instance key stream does not depend on the choice. Other
    batches redraw duplicates (`_redrawn_subsets`), O(k log k) per row
    instead of O(total). Measured at t=4096 on 2 cores, shuffled vs
    redrawn: total=1050 k=50 94 vs 5.7 ms, k=105 66 vs 21 ms, k=263 98
    vs 70 ms, k=315 86 vs 102 ms; total=100 k=10 6.8 vs 1.4 ms, k=33 7.9
    vs 7.0 ms, k=40 7.9 vs 9.5 ms. The crossover sits near k = total/3.
    The redraw's fixed cost loses at t=1: 8.6 vs 28 us at (120, 20).
    """
    if t == 1 or 3 * k >= total:
        return _shuffled_subsets(t, total, k, rng)
    return _redrawn_subsets(t, total, k, rng)


def _shuffled_subsets(
    t: int, total: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Row i: the first k entries of the i-th of t uniform shuffles, sorted."""
    rows = np.empty((t, total), dtype=np.intp)
    rows[:] = np.arange(total)
    rng.permuted(rows, axis=1, out=rows)
    return np.sort(rows[:, :k], axis=1)


def _redrawn_subsets(
    t: int, total: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k uniform draws per row; each surplus copy of a value is redrawn.

    The redraw rule looks only at which entries are equal, never at their
    values, so relabeling range(total) maps the process onto itself: every
    k-subset is equally likely. Each pass sorts and checks only the rows
    that still had a duplicate.
    """
    rows = rng.integers(0, total, (t, k), dtype=np.intp)
    todo = np.arange(t)
    while todo.size:
        sub = np.sort(rows[todo], axis=1)
        surplus = np.zeros(sub.shape, dtype=bool)
        surplus[:, 1:] = sub[:, 1:] == sub[:, :-1]
        sub[surplus] = rng.integers(0, total, np.count_nonzero(surplus))
        rows[todo] = sub
        todo = todo[surplus.any(axis=1)]
    return rows


@dataclass(frozen=True, slots=True)
class SecretKey:
    """Trap positions and trap values, the verifier's only persistent secret."""

    total_length: int
    trap_positions: np.ndarray
    trap_values: np.ndarray

    def __post_init__(self) -> None:
        pos = self.trap_positions
        vals = self.trap_values
        if pos.size != vals.size or pos.size < 1:
            raise ValueError("need at least one trap and matching position/value counts")
        if pos[0] < 0 or pos[-1] >= self.total_length:
            raise ValueError("trap positions out of range")
        if pos.size > 1 and not (np.diff(pos) > 0).all():
            raise ValueError("trap positions must be strictly increasing")
        if vals.size and vals.max() > 1:
            raise ValueError("trap values must be bits")

    @property
    def num_traps(self) -> int:
        return self.trap_positions.size

    @property
    def message_length(self) -> int:
        return self.total_length - self.num_traps

    def non_trap_positions(self) -> np.ndarray:
        mask = np.ones(self.total_length, dtype=bool)
        mask[self.trap_positions] = False
        return np.flatnonzero(mask)


@dataclass(slots=True)
class EncodedState:
    """The transmitted train of qubits, one uint8 site ``2*basis + bit`` per position."""

    sites: np.ndarray

    def __len__(self) -> int:
        return self.sites.shape[0]


def generate_key(m: int, n: int, rng: np.random.Generator) -> SecretKey:
    """Draw a fresh secret key: a uniform n-subset of positions plus n random bits.

    All C(m+n, n) position sets are equiprobable (one row of
    `uniform_subsets`). Rejects m = 0 and n = 0, which degenerate the
    protocol.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    positions = uniform_subsets(1, m + n, n, rng)[0]
    values = rng.integers(0, 2, n, dtype=np.uint8)
    return SecretKey(m + n, positions, values)


class KeyLength(NamedTuple):
    exact_bits: float
    approx_bits: float


def key_length_bits(m: int, n: int) -> KeyLength:
    """Key length n + log2(C(m+n, n)) in bits, with the n*log2(m) shorthand.

    The exact value is evaluated through log-gamma so it never overflows.
    The shorthand is only meaningful for m >= 1 (it is NaN at m = 0) and
    approaches the exact value as m/n grows.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if n == 0:
        return KeyLength(0.0, 0.0)
    log2_binom = log_binomial(m + n, n) / LN2
    approx = n * math.log2(m) if m >= 1 else math.nan
    return KeyLength(n + log2_binom, approx)


def encode(message, key: SecretKey) -> EncodedState:
    """Build the transmitted state: traps in the diagonal basis, message elsewhere.

    Position p carries the i-th trap value in the diagonal basis when
    p == trap_positions[i], otherwise the next message bit in the
    rectilinear basis, preserving message order.
    """
    msg = as_bits(message)
    if msg.size != key.message_length:
        raise ValueError(
            f"message length {msg.size} does not match key (expects {key.message_length})"
        )
    sites = np.empty(key.total_length, dtype=np.uint8)
    sites[key.non_trap_positions()] = msg
    sites[key.trap_positions] = 2 * Basis.DIAGONAL + key.trap_values
    return EncodedState(sites)


def decode_non_trap(
    state: EncodedState, key: SecretKey, rng: np.random.Generator
) -> Message:
    """Measure every non-trap position in the rectilinear basis, in order.

    On an undisturbed honest encoding this returns the message exactly.
    Collapses the measured positions in place.
    """
    if len(state) != key.total_length:
        raise ValueError("state length does not match key")
    positions = key.non_trap_positions()
    return measure_sites(
        state.sites, positions, Basis.RECTILINEAR, rng.random(positions.shape)
    )


def key_to_json(key: SecretKey) -> dict:
    """JSON object form used to persist and replay instances."""
    return {
        "m": key.message_length,
        "n": key.num_traps,
        "trap_positions": [int(p) for p in key.trap_positions],
        "trap_values": bits_to_string(key.trap_values),
    }


def key_from_json(obj: dict) -> SecretKey:
    """Inverse of `key_to_json`; any malformed object raises ValueError."""
    try:
        positions = np.asarray(obj["trap_positions"], dtype=np.intp)
        values = as_bits(obj["trap_values"])
        m, n = int(obj["m"]), int(obj["n"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed key object: {exc!r}") from exc
    if positions.ndim != 1 or positions.size != n:
        raise ValueError("trap positions must be a list of n integers")
    return SecretKey(m + n, positions, values)
