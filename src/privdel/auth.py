"""One-time message authentication: polynomial hashing over GF(2^s) plus a pad.

The integrity layer on top of privacy certification. A message is split
into s-bit field elements m_1..m_L and hashed as sum(m_i * x^i) at the
secret point x, then one-time padded. The key is two field elements
regardless of the message length, and any fixed forgery succeeds for at
most a deg/2^s fraction of keys because the difference of two distinct
hash polynomials has at most deg roots.

To block padding forgeries, the element sequence fed to the hash is the
zero-padded message blocks followed by one extra block holding the
original bit length, which therefore must be below 2^s. s=4 exists solely
so the security property can be verified by exhausting the key space.

Every operation is batch-first, and the scalar forms are its one-row
case: key generation draws N keys from one `rng.bytes` call, and the
arithmetic runs over numpy uint64 arrays. A value of up to 2s bits is
held as a pair (high, low) split at x^s: `low` holds the bits below x^s,
`high` the bits from x^s up. Each factor b gets its own window, the 16
carry-less products b*j for j < 16. A product a*b then takes s/4 nibble
steps, most significant nibble of `a` first: the accumulator shifts left
by 4 and adds the window entry of that nibble. Its high part is then
folded below x^s, as x^s equals the low terms of the reduction
polynomial. For N messages, `block_matrix` packs the blocks into one
(N, L) matrix, and `poly_hash` builds each row's window of its point once
and runs Horner's rule over the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import as_bits

#: Irreducible reduction polynomials (with the x^s term included).
REDUCTION_POLYS = {
    4: 0b1_0011,  # x^4 + x + 1
    32: (1 << 32) | (1 << 7) | (1 << 3) | (1 << 2) | 1,  # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | (1 << 4) | (1 << 3) | (1 << 1) | 1,  # x^64 + x^4 + x^3 + x + 1
}

SUPPORTED_WIDTHS = tuple(sorted(REDUCTION_POLYS))

#: Exponents e of the low terms of each reduction polynomial: x^s = sum x^e.
_LOW_TERMS = {
    s: tuple(e for e in range(s) if poly >> e & 1) for s, poly in REDUCTION_POLYS.items()
}

#: The s bits below x^s, as a uint64 mask.
_MASKS = {s: np.uint64((1 << s) - 1) for s in REDUCTION_POLYS}

#: Bit k of each nibble j, as _NIBBLE_BITS[k, j] in {0, 1}.
_NIBBLE_BITS = np.arange(16, dtype=np.uint64) >> np.arange(4, dtype=np.uint64)[:, None] & 1


def _elements(values, s: int) -> np.ndarray:
    """`values` as a uint64 array, each checked to be an element of GF(2^s).

    Integer arrays are checked as they are. Anything else goes through
    Python ints, because numpy makes floats of a list holding 2^63.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.array(values, dtype=object)
        if not all(isinstance(value, (int, np.integer)) for value in values.flat):
            raise ValueError(f"elements of GF(2^{s}) must be integers")
    outside = np.asarray((values < 0) | (values >= 1 << s), dtype=bool)
    if outside.any():
        raise ValueError(f"{values[outside].flat[0]} is not an element of GF(2^{s})")
    return values.astype(np.uint64)


def _window(b: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) of the 16 carry-less products b*j, j < 16: two (N, 16) arrays.

    b*j is the XOR of b*x^k over the set bits k of j.
    """
    shifts = np.arange(4, dtype=np.uint64)[:, None]
    parts = (b >> (s - 1 - shifts) >> 1, b << shifts & _MASKS[s])  # b*x^k, k < 4
    high, low = (
        np.bitwise_xor.reduce(part[:, :, None] * _NIBBLE_BITS[:, None], axis=0)
        for part in parts
    )
    return high, low


def _fold(high: np.ndarray, low: np.ndarray, s: int) -> np.ndarray:
    """high*x^s + low reduced below x^s, by replacing x^s with its low terms."""
    while high.any():
        carry = np.zeros_like(high)
        for e in _LOW_TERMS[s]:
            low ^= high << e & _MASKS[s]
            if e:
                carry ^= high >> (s - e)
        high = carry
    return low


def _mul(a: np.ndarray, window: tuple[np.ndarray, np.ndarray], s: int) -> np.ndarray:
    """a*b modulo the width-s reduction polynomial, row by row; b given by its window."""
    window_high, window_low = (part.ravel() for part in window)
    rows = np.arange(0, window_low.size, 16, dtype=np.uint64)
    high = np.zeros_like(a)
    low = np.zeros_like(a)
    for shift in range(s - 4, -1, -4):
        entry = rows | a >> shift & 15
        high = high << 4 | low >> (s - 4)
        low = low << 4 & _MASKS[s]
        high ^= window_high[entry]
        low ^= window_low[entry]
    return _fold(high, low, s)


def poly_hash(blocks, x, s: int):
    """Evaluate sum_i blocks[i-1] * x^i (a constant-free polynomial) at x.

    One row of blocks and one point give an int. An (N, L) block matrix
    and N points (or one) give the N row hashes as a uint64 array.
    """
    blocks = _elements(blocks if isinstance(blocks, np.ndarray) else list(blocks), s)
    if blocks.ndim not in (1, 2):
        raise ValueError("blocks must be one row or a matrix of rows")
    rows = np.atleast_2d(blocks)
    # one point gets one window, which `_mul` broadcasts over the rows
    window = _window(np.atleast_1d(_elements(x, s)), s)
    acc = np.zeros(len(rows), np.uint64)
    for column in rows.T[::-1]:
        acc = _mul(acc ^ column, window, s)
    return int(acc[0]) if blocks.ndim == 1 else acc


def block_matrix(messages, s: int) -> np.ndarray:
    """Field-element encoding of N bit sequences, as one (N, L) uint64 matrix.

    Row i holds message i's data blocks (bits most-significant-first, the
    last block zero-padded on the right), its length block in column
    ceil(len/s), and zeros after it up to the widest row: under Horner,
    trailing zero blocks leave the hash unchanged. uint8 arrays skip
    `as_bits`; the bits of all messages are checked in one pass.
    """
    rows = [
        message if isinstance(message, np.ndarray) and message.dtype == np.uint8
        else as_bits(message)
        for message in messages
    ]
    if any(row.ndim != 1 for row in rows):
        raise ValueError("bit sequence must be one-dimensional")
    flat = np.concatenate(rows) if rows else np.zeros(0, np.uint8)
    if flat.max(initial=0) > 1:
        raise ValueError("bit sequence may contain only 0 and 1")
    lengths = np.array([row.size for row in rows], dtype=np.int64)
    if not lengths.all():
        raise ValueError("message must be non-empty")
    longest = int(lengths.max(initial=0))
    if longest >= 1 << s:
        raise ValueError(f"message of {longest} bits too long for width s={s}")
    data_blocks = -(-lengths // s)
    columns = int(data_blocks.max(initial=0)) + 1
    bits = np.zeros((len(rows), columns * s), np.uint8)
    bits[np.arange(columns * s) < lengths[:, None]] = flat
    packed = np.packbits(bits, axis=1)
    if s % 8:  # s = 4: two blocks to a byte
        packed = np.stack((packed >> 4, packed & 0xF), axis=2).reshape(len(rows), -1)
    else:
        packed = packed.view(f">u{s // 8}")
    blocks = packed[:, :columns].astype(np.uint64)
    blocks[np.arange(len(rows)), data_blocks] = lengths
    return blocks


@dataclass(frozen=True, slots=True)
class AuthKey:
    """One-time key: a hash point and a pad, each s bits, uniform and independent."""

    s: int
    hash_key: int
    pad: int

    def __post_init__(self) -> None:
        if self.s not in REDUCTION_POLYS:
            raise ValueError(f"unsupported width {self.s}; use one of {SUPPORTED_WIDTHS}")
        limit = 1 << self.s
        if not (0 <= self.hash_key < limit and 0 <= self.pad < limit):
            raise ValueError("key material out of range for width s")


@dataclass(frozen=True, slots=True)
class AuthTag:
    s: int
    value: int


def generate_auth_key(s: int, rng: np.random.Generator, count: int | None = None):
    """Hash key and pad from one `rng.bytes` draw; `count` keys as a list, one draw.

    `Generator.bytes` consumes whole uint32 words, so each element takes
    the first bytes of its own `word`-byte span: the same keys, and the
    same generator state afterwards, as one draw per element.
    """
    if s not in REDUCTION_POLYS:
        raise ValueError(f"unsupported width {s}; use one of {SUPPORTED_WIDTHS}")
    if count is not None and count < 0:
        raise ValueError(f"key count must be non-negative, got {count}")
    if count == 0:
        return []  # `rng.bytes(0)` would still consume a word
    nbytes = (s + 7) // 8
    word = 4 * -(-nbytes // 4)
    raw = np.frombuffer(rng.bytes((1 if count is None else count) * 2 * word), np.uint8)
    spans = np.ascontiguousarray(raw.reshape(-1, word)[:, :nbytes])
    elements = spans.view(f">u{nbytes}").reshape(-1, 2) & _MASKS[s]
    keys = [AuthKey(s, hash_key, pad) for hash_key, pad in elements.tolist()]
    return keys[0] if count is None else keys


def _digests(messages, keys) -> tuple[int, list[int]]:
    """The keys' one width, and the padded hash of each message under its own key."""
    keys = list(keys)
    widths = {key.s for key in keys}
    if len(widths) != 1:
        raise ValueError(f"a batch needs keys of one width, got widths {sorted(widths)}")
    s = widths.pop()
    blocks = block_matrix(messages, s)
    if len(blocks) != len(keys):
        raise ValueError(f"{len(blocks)} messages for {len(keys)} keys")
    points, pads = np.array([(key.hash_key, key.pad) for key in keys], np.uint64).T
    return s, (poly_hash(blocks, points, s) ^ pads).tolist()


def tag(message, key: AuthKey | Sequence[AuthKey]) -> AuthTag | list[AuthTag]:
    """MAC tag: padded polynomial hash of the encoded message blocks.

    A sequence of keys of one width tags a sequence of messages pair by
    pair, in one batch, and gives the list of tags.
    """
    single = isinstance(key, AuthKey)
    if single:
        message, key = [message], [key]
    s, digests = _digests(message, key)
    tags = [AuthTag(s, digest) for digest in digests]
    return tags[0] if single else tags


def verify_tag(
    message, candidate: AuthTag | Sequence[AuthTag], key: AuthKey | Sequence[AuthKey]
) -> bool | np.ndarray:
    """True iff `candidate` is the tag of `message` under `key`, of the key's width.

    Batched like `tag`: sequences of messages, candidates and keys give a
    bool array with one verdict per triple.
    """
    single = isinstance(key, AuthKey)
    if single:
        message, candidate, key = [message], [candidate], [key]
    s, digests = _digests(message, key)
    verdicts = [
        given.s == s and given.value == digest
        for given, digest in zip(candidate, digests, strict=True)
    ]
    return verdicts[0] if single else np.array(verdicts, dtype=bool)


def auth_key_to_hex(key: AuthKey) -> str:
    digits = (key.s + 3) // 4
    return f"{key.hash_key:0{digits}x}{key.pad:0{digits}x}"


def tag_to_hex(t: AuthTag) -> str:
    return f"{t.value:0{(t.s + 3) // 4}x}"

