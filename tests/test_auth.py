import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from privdel.auth import (
    AuthKey,
    AuthTag,
    REDUCTION_POLYS,
    auth_key_to_hex,
    generate_auth_key,
    gf_mul,
    message_blocks,
    poly_hash,
    tag,
    tag_to_hex,
    verify_tag,
)
from privdel.experiments import stream_rng


def gf_pow(a, e, s):
    """a^e in GF(2^s) by square-and-multiply: the power-sum oracle of `poly_hash`."""
    result = 1
    while e:
        if e & 1:
            result = gf_mul(result, a, s)
        a = gf_mul(a, a, s)
        e >>= 1
    return result


def test_reduction_polynomials_are_irreducible():
    x = sympy.Symbol("x")
    for s, poly_int in REDUCTION_POLYS.items():
        coeffs = [(poly_int >> power) & 1 for power in range(s, -1, -1)]
        poly = sympy.Poly(coeffs, x, modulus=2)
        assert poly.degree() == s
        assert sympy.factor_list(poly, modulus=2)[1][0][1] == 1
        assert len(sympy.factor_list(poly, modulus=2)[1]) == 1


def test_gf16_hand_products():
    # x * (x+1) = x^2 + x
    assert gf_mul(0x3, 0x2, 4) == 0x6
    # (x+1)^2 = x^2 + 1
    assert gf_mul(0x3, 0x3, 4) == 0x5
    # x^3 * x = x^4 = x + 1 under x^4 + x + 1
    assert gf_mul(0x8, 0x2, 4) == 0x3
    assert gf_mul(0x0, 0xF, 4) == 0x0
    assert gf_mul(0x1, 0xB, 4) == 0xB


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_field_laws_at_width_32(a, b, c):
    s = 32
    assert gf_mul(a, b, s) == gf_mul(b, a, s)
    assert gf_mul(a, gf_mul(b, c, s), s) == gf_mul(gf_mul(a, b, s), c, s)
    assert gf_mul(a, b ^ c, s) == gf_mul(a, b, s) ^ gf_mul(a, c, s)
    assert gf_mul(a, 1, s) == a


@pytest.mark.parametrize("s", [4, 32, 64])
def test_multiplicative_group_order(s):
    rng = stream_rng(100 + s, 0)
    for _ in range(8):
        a = int.from_bytes(rng.bytes((s + 7) // 8), "big") & ((1 << s) - 1)
        if a == 0:
            continue
        assert gf_pow(a, (1 << s) - 1, s) == 1


def test_poly_hash_of_zero_blocks_is_zero():
    assert poly_hash([0, 0, 0], 0xB, 4) == 0
    assert poly_hash([], 0xB, 4) == 0


def test_poly_hash_single_block_example():
    assert poly_hash([0x3], 0x2, 4) == 0x6


@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_poly_hash_matches_power_sum(blocks, x):
    s = 32
    direct = 0
    for i, block in enumerate(blocks, start=1):
        direct ^= gf_mul(block, gf_pow(x, i, s), s)
    assert poly_hash(blocks, x, s) == direct


def test_message_blocks_packing():
    # bits fill blocks most-significant-first; length block appended
    assert message_blocks("0011", 4) == [0x3, 4]
    assert message_blocks("00110", 4) == [0x3, 0x0, 5]
    assert message_blocks("1", 4) == [0x8, 1]
    with pytest.raises(ValueError):
        message_blocks("", 4)
    with pytest.raises(ValueError):
        message_blocks("1" * 16, 4)


def test_distinct_paddings_get_distinct_tags():
    # "1" and "10" share their zero-padded data block; the length block
    # separates them for every key
    for hash_key in range(16):
        for pad in (0x0, 0x9):
            key = AuthKey(4, hash_key, pad)
            assert tag("1", key) != tag("10", key) or hash_key == 0
    # even a zero hash key separates them through nothing; degenerate
    # hash key 0 maps every message to the pad, which is why the bound
    # counts it as one colliding key out of 16
    key = AuthKey(4, 0, 3)
    assert tag("1", key) == tag("10", key)


@given(st.integers(1, 300), st.integers(0, 2**31), st.sampled_from([32, 64]))
@settings(max_examples=60, deadline=None)
def test_round_trip(length, seed, s):
    rng = stream_rng(seed, 0)
    bits = rng.integers(0, 2, length, dtype=np.uint8)
    key = generate_auth_key(s, rng)
    assert verify_tag(bits, tag(bits, key), key)


def test_single_bit_flip_detection_rate_exhaustively():
    # two-block messages: a flip is accepted by at most 2 of 16 hash keys
    rng = stream_rng(21, 0)
    for _ in range(20):
        bits = rng.integers(0, 2, 8, dtype=np.uint8)
        flip = bits.copy()
        flip[int(rng.integers(0, 8))] ^= 1
        for pad in (0, 7):
            passing = sum(
                verify_tag(flip, tag(bits, AuthKey(4, k, pad)), AuthKey(4, k, pad))
                for k in range(16)
            )
            assert passing <= 2


def test_forgery_success_fraction_at_toy_size():
    # all 2^8 (hash, pad) keys, a handful of fixed two-block forgeries
    rng = stream_rng(22, 0)
    for _ in range(10):
        bits = rng.integers(0, 2, 8, dtype=np.uint8)
        forged = rng.integers(0, 2, 8, dtype=np.uint8)
        if np.array_equal(forged, bits):
            continue
        delta = int(rng.integers(0, 16))
        wins = 0
        for hash_key, pad in itertools.product(range(16), range(16)):
            key = AuthKey(4, hash_key, pad)
            if tag(forged, key).value == tag(bits, key).value ^ delta:
                wins += 1
        assert wins / 256 <= 2 / 16


def test_tag_width_and_key_size_do_not_depend_on_message_length():
    rng = stream_rng(23, 0)
    key = generate_auth_key(64, rng)
    short = tag(np.ones(8, dtype=np.uint8), key)
    long = tag(np.ones(2048, dtype=np.uint8), key)
    assert short.s == long.s == 64
    assert len(auth_key_to_hex(key)) == 32  # two 64-bit field elements


def test_hex_forms_are_zero_padded_to_the_width():
    # the demo transcript's `auth` field: s/4 hex digits per field element
    assert auth_key_to_hex(AuthKey(4, 0x3, 0xA)) == "3a"
    assert tag_to_hex(AuthTag(4, 0x8)) == "8"
    assert auth_key_to_hex(AuthKey(32, 0x1F, 0xDEADBEEF)) == "0000001f" "deadbeef"
    assert tag_to_hex(AuthTag(32, 0xBEEF)) == "0000beef"
    key = AuthKey(64, 0x5, 0x0123456789ABCDEF)
    assert auth_key_to_hex(key) == "0000000000000005" "0123456789abcdef"
    assert tag_to_hex(AuthTag(64, 0x2A)) == "000000000000002a"


def test_auth_key_validation():
    with pytest.raises(ValueError):
        AuthKey(5, 0, 0)
    with pytest.raises(ValueError):
        AuthKey(4, 16, 0)
    with pytest.raises(ValueError):
        AuthKey(4, 0, -1)


def test_verify_rejects_width_mismatch():
    rng = stream_rng(26, 0)
    key = generate_auth_key(32, rng)
    bits = np.array([1, 1, 0], dtype=np.uint8)
    assert not verify_tag(bits, AuthTag(64, tag(bits, key).value), key)
