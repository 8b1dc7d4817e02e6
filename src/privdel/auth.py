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

A product a*b is formed one byte of `a` at a time, most significant
first, with two lookups per byte (high nibble, then low) into `_window(b)`,
the 16 carry-less products b*j for j < 16. The unreduced product is then
folded below x^s, as x^s equals the low terms of the reduction polynomial.
`poly_hash` builds its point's window once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import as_bits

#: Irreducible reduction polynomials (with the x^s term included). `_mul`
#: reads a factor one byte at a time, two nibble lookups per byte; at s=4
#: the only byte's high nibble is 0 and adds nothing.
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


def _element(value, s: int) -> int:
    """`value` as an int, checked to be an element of GF(2^s)."""
    value = int(value)
    if not 0 <= value < 1 << s:
        raise ValueError(f"{value} is not an element of GF(2^{s})")
    return value


def _window(b: int) -> list[int]:
    """The 16 unreduced carry-less products b*j for j < 16."""
    table = [0] * 16
    for j in range(1, 16):
        table[j] = table[j >> 1] << 1 ^ (b if j & 1 else 0)
    return table


def _mul(a: int, window: list[int], s: int) -> int:
    """a*b modulo the width-s reduction polynomial, b given by its window."""
    acc = 0
    for byte in a.to_bytes((s + 7) // 8, "big"):
        acc = acc << 8 ^ window[byte >> 4] << 4 ^ window[byte & 0xF]
    while high := acc >> s:
        acc &= (1 << s) - 1
        for e in _LOW_TERMS[s]:
            acc ^= high << e
    return acc


def gf_mul(a: int, b: int, s: int) -> int:
    """Carry-less multiply modulo the width-s reduction polynomial."""
    return _mul(_element(a, s), _window(_element(b, s)), s)


def poly_hash(blocks, x: int, s: int) -> int:
    """Evaluate sum_i blocks[i-1] * x^i (a constant-free polynomial) at x."""
    window = _window(_element(x, s))
    acc = 0
    for block in reversed(list(blocks)):
        acc = _mul(acc ^ _element(block, s), window, s)
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
    # one big-endian integer, byte padding off, zero-padded to whole blocks
    value = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
    value <<= -bits.size % s
    mask = (1 << s) - 1
    blocks = [value >> shift & mask for shift in range((bits.size - 1) // s * s, -1, -s)]
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
    """Hash key and pad from one `rng.bytes` draw.

    `Generator.bytes` consumes whole uint32 words, so each element takes
    the first bytes of its own `word`-byte span: the same key, and the same
    generator state afterwards, as one draw per element.
    """
    nbytes = (s + 7) // 8
    word = 4 * -(-nbytes // 4)
    raw = rng.bytes(2 * word)
    mask = (1 << s) - 1
    hash_key = int.from_bytes(raw[:nbytes], "big") & mask
    pad = int.from_bytes(raw[word : word + nbytes], "big") & mask
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

