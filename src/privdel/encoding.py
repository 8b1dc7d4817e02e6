"""Key generation, trap-bit sprinkling and key-length accounting.

The sender hides n diagonal-basis trap bits at a uniformly random set of
positions among the m rectilinear-basis message bits. The encoded state
holds one uint8 site, ``2*basis + bit``, per position (see `qubit`). The
secret key is the trap positions plus the trap values; its length in
bits is n + log2(C(m+n, n)). `uniform_subsets` is the one sampler of
position sets: keys, the batched engine's traps and sampled attack
positions all come from it. A key's row is a permutation's prefix; a
batch's rows come, by size, from a byte mask trimmed to size k (a third
of the positions up to two thirds), from k draws with duplicates redrawn
(fewer), or as the complement of such a draw (more).
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
    picks its draw from the sizes: the full set is a read-only broadcast
    ``arange`` row, with no draw; if the other total - k are under a third,
    they are redrawn and each row is their complement (`complement_subsets`);
    else from a third up, a byte mask trimmed to size k (`_masked_subsets`),
    and below, k draws with their duplicates redrawn (`_redrawn_subsets`),
    O(k log k) per row. At t=4096 on 2 cores, masked vs redrawn: total=100
    k=34 2.2 vs 3.0 ms, k=40 2.2 vs 3.9, total=1050 k=350 12 vs 38; masked
    vs complement: total=100 k=66 2.3 vs 4.0, total=1050 k=700 14 vs 52;
    masked alone: total=100 k=50 2.1, total=1050 k=525 12. Outside its
    sizes the mask loses: total=100 k=20 2.4 vs 1.3 redrawn, total=1050
    k=105 20 vs 4.7, total=100 k=90 3.0 vs 1.3 complement, total=1050
    k=1000 18 vs 8.4 (the thresholds fix the stream). At (120, 20) the redraw loses at t=1,
    4 (the permutation) vs 28 us, and t=8, 15 vs 52 us; at t=64 the two tie."""
    if t == 1:  # one row is a permutation's sorted prefix, as keys always were
        return np.sort(rng.permutation(total)[:k])[None]
    if k == total:
        return np.broadcast_to(np.arange(total, dtype=np.intp), (t, total))
    if 3 * (total - k) < total:
        return complement_subsets(_redrawn_subsets(t, total, total - k, rng), total)
    if 3 * k >= total:
        return _masked_subsets(t, total, k, rng)
    return _redrawn_subsets(t, total, k, rng)


def complement_subsets(rows: np.ndarray, total: int) -> np.ndarray:
    """Row i: the positions of range(total) not in row i, in increasing order."""
    t, k = rows.shape
    free = np.ones((t, total), dtype=bool)
    np.put_along_axis(free, rows, False, axis=1)
    return _mask_rows(free, total - k)


def _mask_rows(mask: np.ndarray, k: int) -> np.ndarray:
    """The (t, k) increasing positions of a (t, total) mask with k per row."""
    t, total = mask.shape
    rows = np.flatnonzero(mask).reshape(t, k)
    rows -= np.arange(0, t * total, total)[:, None]
    return rows


def _masked_subsets(
    t: int, total: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Each position joins its row at a rate near k/total; then each row
    of the wrong size is mended one uniform position at a time.

    The rate is k/total rounded to a multiple of 1/256: one random byte per
    position, read from raw 64-bit words as little-endian bytes (a fifth of
    the cost of ``rng.bytes``), is compared with a threshold. Each
    round, every row of the wrong size draws one position of range(total):
    a row too large drops it if it is a member, a row too small adds it if
    it is not. Every step treats all positions alike, so relabeling
    range(total) maps the process onto itself: every k-subset is equally
    likely, whatever the rate, which only sets the number of rounds (about
    40 at (4096, 100, 50)). The mask takes one byte per position and its
    draw one more; rows come out sorted from one `flatnonzero` of the mask.
    """
    raw = rng.bit_generator.random_raw(-(-t * total // 8)).astype("<u8", copy=False)
    mask = raw.view(np.uint8)[: t * total] < (256 * k + total // 2) // total
    left = np.count_nonzero(mask.reshape(t, total), axis=1) - k
    off = np.flatnonzero(left)
    left = left[off]
    fill = left < 0  # what a row of the wrong size writes where its draw hits
    np.abs(left, out=left)
    base = off * total
    while base.size:
        flat = base + rng.integers(0, total, base.size)
        hit = mask[flat] != fill
        mask[flat[hit]] = fill[hit]
        left -= hit
        keep = left != 0
        base, fill, left = base[keep], fill[keep], left[keep]
    return _mask_rows(mask.reshape(t, total), k)


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
