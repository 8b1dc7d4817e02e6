import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdel.encoding import (
    SecretKey,
    as_bits,
    bits_to_string,
    decode_non_trap,
    encode,
    generate_key,
    key_from_json,
    key_length_bits,
    key_to_json,
    random_message,
)
from privdel.experiments import stream_rng
from privdel.qubit import Basis


def test_generate_key_rejects_degenerate_sizes():
    rng = stream_rng(0, 0)
    with pytest.raises(ValueError):
        generate_key(0, 1, rng)
    with pytest.raises(ValueError):
        generate_key(1, 0, rng)


def test_generate_key_is_deterministic_per_seed():
    a = generate_key(100, 20, stream_rng(42, 0))
    b = generate_key(100, 20, stream_rng(42, 0))
    assert np.array_equal(a.trap_positions, b.trap_positions)
    assert np.array_equal(a.trap_values, b.trap_values)


def test_two_position_uniformity():
    # m=1, n=1: the trap sits at index 0 or 1, each half the time
    hits = sum(
        generate_key(1, 1, stream_rng(1, i)).trap_positions[0] == 0
        for i in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) < 0.015


def test_all_ten_subsets_equally_likely():
    # m=3, n=2: compare against the exhaustive list of 2-subsets of {0..4}
    subsets = list(itertools.combinations(range(5), 2))
    counts = dict.fromkeys(subsets, 0)
    trials = 100_000
    for i in range(trials):
        key = generate_key(3, 2, stream_rng(2, i))
        counts[tuple(key.trap_positions)] += 1
    for subset in subsets:
        assert abs(counts[subset] / trials - 0.1) < 0.01


def test_trap_marginal_matches_inclusion_probability():
    # every index is a trap with probability n/(m+n)
    m, n, trials = 7, 3, 20_000
    hits = np.zeros(m + n)
    for i in range(trials):
        hits[generate_key(m, n, stream_rng(3, i)).trap_positions] += 1
    p = n / (m + n)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert (np.abs(hits / trials - p) <= 3 * sigma).all()


def test_secret_key_invariants_are_enforced():
    values = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ValueError):
        SecretKey(5, np.array([3, 1]), values)  # not increasing
    with pytest.raises(ValueError):
        SecretKey(5, np.array([1, 1]), values)  # duplicate
    with pytest.raises(ValueError):
        SecretKey(5, np.array([1, 7]), values)  # out of range
    with pytest.raises(ValueError):
        SecretKey(5, np.array([1, 2]), np.array([0, 2], dtype=np.uint8))


def test_key_length_examples():
    assert key_length_bits(17, 0) == (0.0, 0.0)
    exact, _ = key_length_bits(2, 1)
    assert exact == pytest.approx(1 + math.log2(3), abs=1e-12)


def test_key_length_against_integer_arithmetic():
    m, n = 10**6, 32
    exact, approx = key_length_bits(m, n)
    oracle = n + math.log2(math.comb(m + n, n))
    assert abs(exact - oracle) / oracle < 1e-9
    assert approx == pytest.approx(n * math.log2(m))


def test_key_length_shorthand_converges_from_above():
    # the n*log2(m) shorthand drops the log2(n!) term, so its relative
    # error shrinks monotonically as m grows at fixed n
    n = 8
    errors = []
    for m in (10**3, 10**5, 10**7, 10**9, 10**12):
        exact, approx = key_length_bits(m, n)
        errors.append(abs(approx - exact) / exact)
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.03


def test_encode_places_traps_and_message_bits():
    key = SecretKey(4, np.array([0, 2]), np.array([0, 1], dtype=np.uint8))
    state = encode([1, 0], key)
    # site = 2*basis + bit: |+>, |1>, |->, |0>
    assert state.sites.tolist() == [
        2 * Basis.DIAGONAL + 0,
        2 * Basis.RECTILINEAR + 1,
        2 * Basis.DIAGONAL + 1,
        2 * Basis.RECTILINEAR + 0,
    ]
    assert state.sites.dtype == np.uint8
    assert len(state) == 4


def test_encode_rejects_length_mismatch_and_non_bits():
    key = generate_key(4, 2, stream_rng(4, 0))
    with pytest.raises(ValueError):
        encode([1, 0, 1], key)
    with pytest.raises(ValueError):
        encode([1, 0, 1, 2], key)


@given(st.integers(1, 24), st.integers(1, 8), st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_round_trip_recovers_the_message(m, n, seed):
    rng = stream_rng(seed, 0)
    key = generate_key(m, n, rng)
    message = random_message(m, rng)
    state = encode(message, key)
    assert np.array_equal(decode_non_trap(state, key, rng), message)


def test_decode_checks_length():
    rng = stream_rng(5, 0)
    key = generate_key(4, 2, rng)
    other = generate_key(5, 2, rng)
    state = encode(random_message(4, rng), key)
    with pytest.raises(ValueError):
        decode_non_trap(state, other, rng)


def test_decode_sees_a_rectilinear_flip():
    rng = stream_rng(6, 0)
    key = generate_key(6, 2, rng)
    message = random_message(6, rng)
    state = encode(message, key)
    target = int(key.non_trap_positions()[2])
    state.sites[target] ^= 1  # tamper: bit flip on a rectilinear site
    decoded = decode_non_trap(state, key, rng)
    expected = message.copy()
    expected[2] ^= 1
    assert np.array_equal(decoded, expected)


def test_key_json_round_trip_and_schema():
    key = generate_key(12, 4, stream_rng(7, 0))
    obj = key_to_json(key)
    assert set(obj) == {"m", "n", "trap_positions", "trap_values"}
    text = json.dumps(obj)
    back = key_from_json(json.loads(text))
    assert back.total_length == key.total_length
    assert np.array_equal(back.trap_positions, key.trap_positions)
    assert np.array_equal(back.trap_values, key.trap_values)


def test_bit_string_helpers():
    assert bits_to_string(as_bits("0110")) == "0110"
    assert as_bits("10").tolist() == [1, 0]
    with pytest.raises(ValueError):
        as_bits("102")
