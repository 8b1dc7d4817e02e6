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
    block_matrix,
    generate_auth_key,
    poly_hash,
    tag,
    tag_to_hex,
    verify_tag,
)
from privdel.experiments import stream_rng


def gf_mul(a, b, s):
    """The field multiply a*b, reached as `poly_hash` of the one block a at the point b.

    A list or array `a` multiplies row by row: one one-block row per
    element, against its own point in `b` (or one point for all).
    """
    if isinstance(a, np.ndarray):
        return poly_hash(a[:, None], b, s)
    if isinstance(a, list):
        return poly_hash([[value] for value in a], b, s)
    return poly_hash([a], b, s)


def schoolbook_mul(a, b, s):
    """Bit-serial carry-less multiply with reduction per step: the oracle of `gf_mul`."""
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


def schoolbook_hash(blocks, x, s):
    """Horner's rule over the schoolbook multiply: the oracle of `poly_hash`."""
    acc = 0
    for block in reversed(blocks):
        acc = schoolbook_mul(acc ^ block, x, s)
    return acc


def loop_blocks(bits, s):
    """Bit-by-bit field-element encoding of one message: the oracle of `block_matrix`."""
    blocks = []
    for start in range(0, len(bits), s):
        chunk = bits[start : start + s]
        value = 0
        for bit in chunk:
            value = (value << 1) | int(bit)
        blocks.append(value << (s - len(chunk)))
    return blocks + [len(bits)]


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


def test_gf_mul_matches_schoolbook_exhaustively_at_width_4():
    for a in range(16):
        for b in range(16):
            assert gf_mul(a, b, 4) == schoolbook_mul(a, b, 4)


@pytest.mark.parametrize("s", [32, 64])
def test_gf_mul_matches_schoolbook_at_wide_widths(s):
    rng = stream_rng(200 + s, 0)
    top = (1 << s) - 1
    edges = [0, 1, 2, top, 1 << (s - 1)]
    randoms = [int.from_bytes(rng.bytes(s // 8), "big") for _ in range(4000)]
    pairs = list(itertools.product(edges, edges))
    pairs += zip(randoms[::2], randoms[1::2])
    pairs += [(a, b) for a in randoms[:20] for b in edges]
    for a, b in pairs:
        assert gf_mul(a, b, s) == schoolbook_mul(a, b, s)
    # the same pairs in one batch, from Python ints and from uint64 arrays
    left, right = (list(column) for column in zip(*pairs))
    expected = [schoolbook_mul(a, b, s) for a, b in pairs]
    assert gf_mul(left, right, s).tolist() == expected
    left, right = np.array(left, np.uint64), np.array(right, np.uint64)
    assert gf_mul(left, right, s).tolist() == expected


@pytest.mark.parametrize(
    "a, b",
    [(0x10, 1), (1, 0x10), (-1, 1), (3, -2), (1 << 64, 1),
     (np.array([1, 0x10]), 1), (np.array([2, 3]), np.array([-1, 1])),
     (np.array([1, 0x10], np.uint64), [2, 3]), ([1, 1 << 64], 1), ([1, 2], [3, 2.0])],
)
def test_gf_mul_rejects_operands_outside_the_field(a, b):
    # 0x10 is x^4, which GF(16) holds only reduced (as x + 1 = 3); a Python
    # int past 64 bits is refused as out of the field, not as an overflow
    with pytest.raises(ValueError):
        gf_mul(a, b, 4)


@pytest.mark.parametrize(
    "blocks, x, s",
    [([0x10], 1, 4), ([1], 0x10, 4), ([1, 2, 16, 3], 5, 4), ([-1], 3, 4),
     ([1 << 32], 7, 32), ([1], -1, 64), ([1, 1 << 64], 2, 64),
     (np.array([[1, 2], [3, 16]]), np.array([1, 2]), 4),
     (np.array([[1], [2]], np.uint64), np.array([3, 1 << 32], np.uint64), 32),
     ([[1], [1 << 64]], [2, 3], 64), (np.array([[1]]), np.array([-1]), 64),
     ([[1, 2]], [1 << 64], 64), ([[1, 2]], [2.5], 64)],
)
def test_poly_hash_rejects_elements_outside_the_field(blocks, x, s):
    with pytest.raises(ValueError):
        poly_hash(blocks, x, s)


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


@pytest.mark.parametrize("s", [32, 64])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_poly_hash_matches_power_sum(s, data):
    element = st.integers(0, 2**s - 1)
    blocks = data.draw(st.lists(element, min_size=1, max_size=6))
    x = data.draw(element)
    direct = 0
    for i, block in enumerate(blocks, start=1):
        direct ^= gf_mul(block, gf_pow(x, i, s), s)
    assert poly_hash(blocks, x, s) == direct


def blocks_of(message, s):
    """The one row of `block_matrix` for a single message."""
    return block_matrix([message], s)[0].tolist()


def test_message_blocks_packing():
    # bits fill blocks most-significant-first; length block appended
    assert blocks_of("0011", 4) == [0x3, 4]
    assert blocks_of("00110", 4) == [0x3, 0x0, 5]
    assert blocks_of("1", 4) == [0x8, 1]
    with pytest.raises(ValueError):
        blocks_of("", 4)
    with pytest.raises(ValueError):
        blocks_of("1" * 16, 4)


@pytest.mark.parametrize("s, longest", [(4, 15), (32, 300), (64, 300)])
def test_message_blocks_match_the_bit_loop(s, longest):
    # every length across byte and block boundaries, random bits per length
    rng = stream_rng(300 + s, 0)
    messages = []
    for length in range(1, longest + 1):
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        assert blocks_of(bits, s) == loop_blocks(bits, s)
        assert blocks_of(np.ones(length, np.uint8), s) == loop_blocks([1] * length, s)
        messages += [bits, np.ones(length, np.uint8)]
    # all lengths in one ragged batch: each row is the loop's blocks, then
    # zeros; hashed under keys 0, 1, 2^s - 1 and random ones, each row
    # matches Horner over the schoolbook multiply
    matrix = block_matrix(messages, s)
    randoms = rng.integers(0, 1 << s, len(messages), dtype=np.uint64)
    keys = [(0, 1, (1 << s) - 1, int(r))[i % 4] for i, r in enumerate(randoms)]
    hashes = poly_hash(matrix, np.array(keys, np.uint64), s)
    for row, bits, key, digest in zip(matrix.tolist(), messages, keys, hashes.tolist()):
        blocks = loop_blocks(bits, s)
        assert row == blocks + [0] * (len(row) - len(blocks))
        assert digest == schoolbook_hash(blocks, key, s)
    # one point over every row is N copies of that point
    for key in (0, 1, (1 << s) - 1, int(randoms[0])):
        copies = np.full(len(messages), key, np.uint64)
        assert poly_hash(matrix, key, s).tolist() == poly_hash(matrix, copies, s).tolist()


_TEXT = np.unpackbits(np.frombuffer(b"proving erasure", dtype=np.uint8))  # 120 bits


@pytest.mark.parametrize(
    "s, hash_key, pad, message, expected",
    [
        (4, 0x7, 0xA, "1011", "5"),
        (4, 0xF, 0x0, "1" * 15, "8"),
        (32, 0x89ABCDEF, 0x01234567, "1", "a94074c2"),
        (32, 0xFFFFFFFF, 0xDEADBEEF, "10" * 50, "28fdf533"),
        (64, 0x0123456789ABCDEF, 0xFEDCBA9876543210, _TEXT, "b48e7cfe6e71082f"),
        (64, 0xFFFFFFFFFFFFFFFF, 0x1, "0" * 63 + "1" + "1" * 64 + "0", "aaaaaaaaaaa2b851"),
    ],
    ids=["4-one-block", "4-longest", "32-one-bit", "32-top-key", "64-text", "64-top-key"],
)
def test_pinned_tags(s, hash_key, pad, message, expected):
    # tags from the bit-serial multiply and the bit-loop encoding
    assert tag_to_hex(tag(message, AuthKey(s, hash_key, pad))) == expected


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


@pytest.mark.parametrize(
    "s, first, second, next_draw",
    [
        (4, "fe", "83", 2458955400),
        (32, "9f5b658c8e4436e7", "085c4a7ed35c5311", 2458955400),
        (
            64,
            "9f5b658c8e4436e7085c4a7ed35c5311",
            "88ae90922d1638ac556929149ab0f878",
            1521222313,
        ),
    ],
)
def test_generate_auth_key_is_pinned(s, first, second, next_draw):
    # keys and the generator state after them; each key element takes
    # whole uint32 words of the stream, so s=4 and s=32 use the same words
    rng = stream_rng(31, 0)
    assert auth_key_to_hex(generate_auth_key(s, rng)) == first
    assert auth_key_to_hex(generate_auth_key(s, rng)) == second
    assert int(rng.integers(0, 2**32)) == next_draw


@pytest.mark.parametrize("s", [4, 32, 64])
def test_generate_auth_key_batch_is_the_one_key_draws(s):
    # one draw of 1,000 keys is 1,000 one-key draws, and leaves the stream
    # where they leave it; no key and a refused count draw nothing
    batch_rng, one_rng = stream_rng(32, 0), stream_rng(32, 0)
    keys = generate_auth_key(s, batch_rng, 1000)
    assert keys == [generate_auth_key(s, one_rng) for _ in range(1000)]
    assert generate_auth_key(s, batch_rng, 0) == []
    with pytest.raises(ValueError, match="non-negative"):
        generate_auth_key(s, batch_rng, -1)
    assert int(batch_rng.integers(0, 2**32)) == int(one_rng.integers(0, 2**32))


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


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([0, 2, 1], np.uint8), "only 0 and 1"),
        ([0, 257], "only 0 and 1"),
        ("012", "only 0 and 1"),
        (np.ones((2, 2), np.uint8), "one-dimensional"),
        ("", "non-empty"),
        ("1" * 16, "too long"),
    ],
    ids=["uint8-2", "list-257", "string-2", "two-dimensional", "empty", "too-long"],
)
def test_block_matrix_refuses_a_bad_message_anywhere_in_the_batch(bad, error):
    good = np.array([1, 0, 1], np.uint8)
    for messages in ([bad], [good, bad], [bad, "1011", good]):
        with pytest.raises(ValueError, match=error):
            block_matrix(messages, 4)


def test_auth_key_validation():
    with pytest.raises(ValueError):
        AuthKey(5, 0, 0)
    with pytest.raises(ValueError):
        AuthKey(4, 16, 0)
    with pytest.raises(ValueError):
        AuthKey(4, 0, -1)
    with pytest.raises(ValueError, match="unsupported width"):
        generate_auth_key(5, stream_rng(27, 0))


def test_verify_rejects_width_mismatch():
    rng = stream_rng(26, 0)
    key = generate_auth_key(32, rng)
    bits = np.array([1, 1, 0], dtype=np.uint8)
    assert not verify_tag(bits, AuthTag(64, tag(bits, key).value), key)
