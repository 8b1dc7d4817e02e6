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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import as_bits

#: Irreducible reduction polynomials (with the x^s term included).
REDUCTION_POLYS = {
    4: 0b1_0011,  # x^4 + x + 1
    32: (1 << 32) | (1 << 7) | (1 << 3) | (1 << 2) | 1,  # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | (1 << 4) | (1 << 3) | (1 << 1) | 1,  # x^64 + x^4 + x^3 + x + 1
}

SUPPORTED_WIDTHS = tuple(sorted(REDUCTION_POLYS))


def gf_mul(a: int, b: int, s: int) -> int:
    """Carry-less multiply modulo the width-s reduction polynomial."""
    poly = REDUCTION_POLYS[s]
    top = 1 << s
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return result


def poly_hash(blocks, x: int, s: int) -> int:
    """Evaluate sum_i blocks[i-1] * x^i (a constant-free polynomial) at x."""
    acc = 0
    for block in reversed(list(blocks)):
        acc = gf_mul(acc ^ int(block), x, s)
    return acc


def message_blocks(message, s: int) -> list[int]:
    """Field-element encoding of a bit sequence: data blocks, then bit length.

    Bits fill each block most-significant-first; the last data block is
    zero-padded on the right. The trailing length block makes distinct
    messages map to distinct element sequences, so the bit length must fit
    in one field element (below 2^s).
    """
    bits = as_bits(message)
    if bits.size == 0:
        raise ValueError("message must be non-empty")
    if bits.size >= (1 << s):
        raise ValueError(f"message of {bits.size} bits too long for width s={s}")
    blocks = []
    for start in range(0, bits.size, s):
        chunk = bits[start : start + s]
        value = 0
        for bit in chunk:
            value = (value << 1) | int(bit)
        value <<= s - chunk.size
        blocks.append(value)
    blocks.append(bits.size)
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


def generate_auth_key(s: int, rng: np.random.Generator) -> AuthKey:
    nbytes = (s + 7) // 8
    mask = (1 << s) - 1
    hash_key = int.from_bytes(rng.bytes(nbytes), "big") & mask
    pad = int.from_bytes(rng.bytes(nbytes), "big") & mask
    return AuthKey(s, hash_key, pad)


def tag(message, key: AuthKey) -> AuthTag:
    """MAC tag: padded polynomial hash of the encoded message blocks."""
    digest = poly_hash(message_blocks(message, key.s), key.hash_key, key.s)
    return AuthTag(key.s, digest ^ key.pad)


def verify_tag(message, candidate: AuthTag, key: AuthKey) -> bool:
    if candidate.s != key.s:
        return False
    return tag(message, key).value == candidate.value


def auth_key_to_hex(key: AuthKey) -> str:
    digits = (key.s + 3) // 4
    return f"{key.hash_key:0{digits}x}{key.pad:0{digits}x}"


def tag_to_hex(t: AuthTag) -> str:
    return f"{t.value:0{(t.s + 3) // 4}x}"

