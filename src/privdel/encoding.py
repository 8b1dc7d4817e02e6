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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import LN2, log_binomial
from .qubit import Basis, measure_sites

#: A message is an ordered sequence of bits, held as a uint8 array.
Message = np.ndarray


def as_bits(bits) -> np.ndarray:
    """Coerce a bit sequence (list, string of 0/1, array) to a uint8 array.

    Values are checked before the cast, so 257, -255 or 0.7 raise rather
    than wrap or truncate to a bit. A uint8 array needs only its maximum
    checked.
    """
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.dtype != np.uint8:
        zero, one = ("0", "1") if arr.dtype.kind == "U" else (0, 1)
        if not ((arr == zero) | (arr == one)).all():
            raise ValueError("bit sequence may contain only 0 and 1")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr


def bits_to_string(bits: np.ndarray) -> str:
    return np.where(np.asarray(bits) != 0, b"1", b"0").tobytes().decode("ascii")


def random_message(m: int, rng: np.random.Generator) -> Message:
    if m < 1:
        raise ValueError("message length must be at least 1")
    return rng.integers(0, 2, m, dtype=np.uint8)


def uniform_subsets(
    t: int, total: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """(t, k) row-sorted uniform k-subsets of range(total).

    One row (t == 1) is the sorted first k entries of
    ``rng.permutation(total)``, as keys always were. A batch
    picks its draw from the sizes: the full set is ``arange`` rows, with no
    draw; if the other total - k are under a third, they are redrawn and
    each row is their complement (`complement_subsets`); else from a third
    up, rows are sorted shuffle prefixes, and below, k draws with their
    duplicates redrawn (`_redrawn_subsets`), O(k log k) per row. At t=4096
    on 2 cores, shuffled vs redrawn: total=1050 k=50 62 vs 2.7 ms, k=105
    70 vs 5.7, k=263 66 vs 27, k=315 65 vs 35; total=100 k=10 4.9 vs 0.6,
    k=33 5.4 vs 2.9, k=40 5.4 vs 4.0. Shuffled vs complement: total=100
    k=75 6.1 vs 4.2 ms, k=90 5.9 vs 1.9, k=100 (no draw) 8.3 vs 0.2;
    total=1050 k=800 81 vs 44, k=1000 88 vs 9.9 (the thresholds fix the
    stream). At (120, 20) the redraw loses at t=1, 4 (the permutation) vs
    28 us, and t=8, 15 vs 52 us; at t=64 the two tie."""
    if t == 1:  # the same draws and rows as a one-row `_shuffled_subsets`
        return np.sort(rng.permutation(total)[:k])[None]
    if k == total:
        return np.arange(total, dtype=np.intp)[None].repeat(t, axis=0)
    if 3 * (total - k) < total:
        return complement_subsets(_redrawn_subsets(t, total, total - k, rng), total)
    if 3 * k >= total:
        return _shuffled_subsets(t, total, k, rng)
    return _redrawn_subsets(t, total, k, rng)


def complement_subsets(rows: np.ndarray, total: int) -> np.ndarray:
    """Row i: the positions of range(total) not in row i, in increasing order."""
    t, k = rows.shape
    free = np.ones((t, total), dtype=bool)
    np.put_along_axis(free, rows, False, axis=1)
    return np.broadcast_to(np.arange(total), free.shape)[free].reshape(t, total - k)


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
    k-subset is equally likely. Rows are sorted in place; each pass redraws
    the surplus copies, row-major, and re-sorts only their rows. Drawn and
    sorted as int32 where total fits (faster than intp); numpy's bounded
    draw takes the same 32-bit path for both, so the stream is the same.
    """
    dtype = np.int32 if total < 2**31 else np.intp
    rows = rng.integers(0, total, (t, k), dtype=dtype)
    rows.sort(axis=1)
    todo, sub = np.arange(t), rows
    while True:
        row, col = np.divmod(np.flatnonzero(sub[:, 1:] == sub[:, :-1]), k - 1)
        if not row.size:
            return rows.astype(np.intp, copy=False)
        row = todo[row]
        rows.reshape(-1)[row * k + col + 1] = rng.integers(0, total, row.size, dtype=dtype)
        todo = np.flatnonzero(np.bincount(row))
        sub = np.sort(rows[todo], axis=1)
        rows[todo] = sub


@dataclass(frozen=True, slots=True)
class SecretKey:
    """Trap positions and trap values, the verifier's only persistent secret."""

    total_length: int
    trap_positions: np.ndarray
    trap_values: np.ndarray
    _non_traps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # lists and tuples are held as arrays, as if the caller had passed those
        pos, vals = np.asarray(self.trap_positions), np.asarray(self.trap_values)
        object.__setattr__(self, "trap_positions", pos)
        object.__setattr__(self, "trap_values", vals)
        if pos.ndim != 1 or pos.shape != vals.shape or pos.size < 1:
            raise ValueError("need at least one trap and 1-D positions and values of one length")
        if pos[0] < 0 or pos[-1] >= self.total_length:
            raise ValueError("trap positions out of range")
        if np.count_nonzero(pos[1:] <= pos[:-1]):
            raise ValueError("trap positions must be strictly increasing")
        # a uint8 array needs only its maximum checked, other dtypes every value
        bits = vals.max() <= 1 if vals.dtype == np.uint8 else np.isin(vals, (0, 1)).all()
        if not bits:
            raise ValueError("trap values must be bits")
        is_trap = np.zeros(self.total_length, dtype=bool)
        is_trap[pos] = True
        non_traps = (~is_trap).nonzero()[0]
        non_traps.setflags(write=False)
        object.__setattr__(self, "_non_traps", non_traps)

    def __eq__(self, other):  # by value: the generated one compares arrays as tuples
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.total_length == other.total_length
            and np.array_equal(self.trap_positions, other.trap_positions)
            and np.array_equal(self.trap_values, other.trap_values)
        )

    def __reduce__(self):  # copies and unpickled keys rebuild their read-only state
        return SecretKey, (self.total_length, self.trap_positions, self.trap_values)

    @property
    def num_traps(self) -> int:
        return self.trap_positions.size

    @property
    def message_length(self) -> int:
        return self.total_length - self.num_traps

    def non_trap_positions(self) -> np.ndarray:
        """The m message positions, increasing: computed once, at
        construction, and read-only."""
        return self._non_traps


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


def encode(message, key: SecretKey) -> np.ndarray:
    """Build the transmitted state, one (m+n,) uint8 site per position: traps
    in the diagonal basis, message elsewhere.

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
    return sites


def decode_non_trap(
    state: np.ndarray, key: SecretKey, rng: np.random.Generator
) -> Message:
    """Measure every non-trap position in the rectilinear basis, in order.

    On an undisturbed honest encoding this returns the message exactly.
    Collapses the measured positions in place.
    """
    if len(state) != key.total_length:
        raise ValueError("state length does not match key")
    positions = key.non_trap_positions()
    return measure_sites(
        state, positions, Basis.RECTILINEAR, rng.random(positions.shape) >= 0.5
    )


def key_to_json(key: SecretKey) -> dict:
    """JSON object form used to persist and replay instances."""
    return {
        "m": key.message_length,
        "n": key.num_traps,
        "trap_positions": [int(p) for p in key.trap_positions],
        "trap_values": bits_to_string(key.trap_values),
    }


def _json_int(value, field: str) -> int:
    """`value` if it is a JSON integer; a float, string or bool is refused, not cast."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def key_from_json(obj: dict) -> SecretKey:
    """Inverse of `key_to_json`; any malformed object raises ValueError."""
    try:
        m, n = _json_int(obj["m"], "m"), _json_int(obj["n"], "n")
        raw_positions = obj["trap_positions"]
        if not isinstance(raw_positions, list) or len(raw_positions) != n:
            raise ValueError("trap positions must be a list of n integers")
        positions = np.array(
            [_json_int(p, "a trap position") for p in raw_positions], dtype=np.intp
        )
        if not isinstance(obj["trap_values"], str):
            raise ValueError("trap values must be a string of 0s and 1s")
        values = as_bits(obj["trap_values"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed key object: {exc!r}") from exc
    return SecretKey(m + n, positions, values)
