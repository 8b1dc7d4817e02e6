import copy
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privdel import encoding
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
    uniform_subsets,
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


SUBSET_DRAWS = (
    pytest.param(encoding._shuffled_subsets, id="shuffled"),
    pytest.param(encoding._redrawn_subsets, id="redrawn"),
)


@pytest.mark.parametrize("draw", SUBSET_DRAWS)
@pytest.mark.parametrize(
    "t,total,k", [(1, 1, 0), (5, 9, 0), (5, 9, 9), (1, 9, 9), (64, 30, 7), (7, 1050, 105)]
)
def test_subset_draw_contract(draw, t, total, k):
    rows = draw(t, total, k, stream_rng(61, total + k))
    assert rows.shape == (t, k)
    assert (np.diff(rows, axis=1) > 0).all()
    assert ((rows >= 0) & (rows < total)).all()
    if k == total:
        assert (rows == np.arange(total)).all()


@pytest.mark.parametrize("draw", SUBSET_DRAWS)
def test_subset_draw_is_uniform_over_all_3_subsets_of_6(draw):
    trials = 60_000
    rows = draw(trials, 6, 3, stream_rng(62, 0))
    masks = (1 << rows).sum(axis=1)
    subsets = [sum(1 << i for i in s) for s in itertools.combinations(range(6), 3)]
    counts = np.bincount(masks, minlength=64)
    assert counts.sum() == counts[subsets].sum() == trials
    chi2 = stats.chisquare(counts[subsets])
    assert chi2.pvalue > 0.001
    inclusion = (rows == 0).any(axis=1).mean()
    assert abs(inclusion - 3 / 6) <= 3 * math.sqrt(0.25 / trials)


def test_uniform_subsets_picks_its_draw_from_the_sizes():
    shuffled, redrawn = encoding._shuffled_subsets, encoding._redrawn_subsets

    def complement(t, total, k, rng):
        # the complement of a redrawn subset of the other total - k
        return encoding.complement_subsets(redrawn(t, total, total - k, rng), total)

    cases = (
        (1, 1050, 5, shuffled),
        (1, 100, 90, shuffled),
        (1, 30, 30, shuffled),
        (4096, 100, 50, shuffled),
        (4096, 100, 10, redrawn),
        (4096, 1050, 105, redrawn),
        (4096, 100, 66, shuffled),
        (4096, 100, 67, complement),
        (4096, 100, 90, complement),
        (4096, 1050, 1000, complement),
    )
    for t, total, k, draw in cases:
        rng, expected_rng = stream_rng(63, k), stream_rng(63, k)
        expected = draw(t, total, k, expected_rng)
        assert np.array_equal(uniform_subsets(t, total, k, rng), expected), (t, total, k)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
    # the full set of a batch is drawn without touching the stream
    rng = stream_rng(63, 0)
    before = rng.bit_generator.state
    rows = uniform_subsets(8, 30, 30, rng)
    assert rows.dtype == np.intp and rows.shape == (8, 30)
    assert (rows == np.arange(30)).all()
    assert rng.bit_generator.state == before
    # a single row is a permutation's sorted prefix, as keys were always drawn
    row = uniform_subsets(1, 120, 20, stream_rng(64, 0))[0]
    assert row.tolist() == sorted(stream_rng(64, 0).permutation(120)[:20].tolist())


@pytest.mark.parametrize("total,k", [(6, 4), (7, 5)])
def test_uniform_subsets_is_uniform_over_every_k_subset(total, k):
    # 4 of 6 are shuffled; the other 2 of 7 are under a third, so each
    # 5-subset is the complement of a redrawn 2-subset
    trials = 60_000
    rows = uniform_subsets(trials, total, k, stream_rng(65, total))
    assert rows.shape == (trials, k)
    assert (np.diff(rows, axis=1) > 0).all()
    masks = (1 << rows).sum(axis=1)
    subsets = [sum(1 << i for i in s) for s in itertools.combinations(range(total), k)]
    counts = np.bincount(masks, minlength=2**total)
    assert counts.sum() == counts[subsets].sum() == trials
    assert stats.chisquare(counts[subsets]).pvalue > 0.001
    p = k / total
    inclusion = (rows == 0).any(axis=1).mean()
    assert abs(inclusion - p) <= 3 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize(
    "t,total,k,digest,next_draw",
    [
        (4096, 1050, 105, 15866023084, 1555078244),
        (4096, 120, 20, 66813274, 191471648),
        (64, 30, 7, 33773, 2078786526),
    ],
)
def test_redrawn_subsets_stream_is_pinned(t, total, k, digest, next_draw):
    # the rows and where the generator is left are part of every seeded
    # batch; these literals came from the intp sampler before rows were
    # drawn and sorted as int32
    rng = stream_rng(12, 0)
    rows = encoding._redrawn_subsets(t, total, k, rng)
    assert rows.dtype == np.intp
    assert int((rows * np.arange(1, k + 1)).sum()) == digest
    assert int(rng.integers(0, 2**31)) == next_draw


def reference_redrawn_subsets(t, total, k, rng):
    """The sampler's earlier loop: every pass gathers, sorts and writes back
    whole rows, marking surplus copies in a boolean mask."""
    dtype = np.int32 if total < 2**31 else np.intp
    rows = rng.integers(0, total, (t, k), dtype=dtype)
    todo = np.arange(t)
    while todo.size:
        sub = np.sort(rows[todo], axis=1)
        surplus = np.zeros(sub.shape, dtype=bool)
        surplus[:, 1:] = sub[:, 1:] == sub[:, :-1]
        sub[surplus] = rng.integers(0, total, np.count_nonzero(surplus), dtype=dtype)
        rows[todo] = sub
        todo = todo[surplus.any(axis=1)]
    return rows.astype(np.intp, copy=False)


@pytest.mark.parametrize("t", [1, 2, 7, 64, 4096])
@pytest.mark.parametrize(
    "total,k",
    [(1, 0), (9, 0), (5, 1), (10, 3), (30, 7), (100, 10), (100, 33), (120, 20),
     (1050, 50), (1050, 105)],
)
def test_redrawn_subsets_match_the_reference_loop(t, total, k):
    expected_rng, rng = stream_rng(13, t), stream_rng(13, t)
    expected = reference_redrawn_subsets(t, total, k, expected_rng)
    rows = encoding._redrawn_subsets(t, total, k, rng)
    assert rows.dtype == expected.dtype == np.intp
    assert rows.shape == expected.shape == (t, k)
    assert np.array_equal(rows, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


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
    # scalar and matrix fields, as lists and as arrays, are refused by name
    for positions, values in ((3, 1), ([[1, 3]], [[0, 1]]), ([1, 3], [[0, 1]])):
        for pos, vals in ((positions, values), (np.array(positions), np.array(values))):
            with pytest.raises(ValueError, match="1-D"):
                SecretKey(7, pos, vals)


def test_secret_key_refuses_non_bit_trap_values_of_any_dtype():
    # a -1 trap value would encode as the rectilinear site 2*1 - 1
    positions = np.array([1, 3])
    for values in ([-1, 0], [0, 2], [0, 256], [0.5, 1.0], ["0", "1"]):
        with pytest.raises(ValueError, match="bits"):
            SecretKey(7, positions, np.array(values))
    for dtype in (np.uint8, np.int64, np.float64, bool):
        key = SecretKey(7, positions, np.array([1, 0], dtype=dtype))
        assert encode("10110", key)[positions].tolist() == [3, 2]


def test_secret_key_takes_lists_and_tuples_as_their_arrays():
    array_key = SecretKey(7, np.array([1, 3]), np.array([0, 1]))
    for positions, values in (([1, 3], [0, 1]), ((1, 3), (0, 1))):
        key = SecretKey(7, positions, values)
        assert isinstance(key.trap_positions, np.ndarray)
        assert isinstance(key.trap_values, np.ndarray)
        assert key.non_trap_positions().tolist() == [0, 2, 4, 5, 6]
        assert np.array_equal(encode("10110", key), encode("10110", array_key))
    for unsorted in ([3, 1], [5, -1], [1, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            SecretKey(7, unsorted, [0, 1])
    with pytest.raises(ValueError, match="bits"):
        SecretKey(7, [1, 3], [0, 2])
    with pytest.raises(ValueError, match="at least one trap"):
        SecretKey(7, [], [])


def test_secret_key_holds_its_non_trap_positions_read_only():
    sizes = ((1, 1), (9, 4), (100, 20), (5, 20))
    keys = [generate_key(m, n, stream_rng(66, m)) for m, n in sizes]
    keys += [SecretKey(7, [1, 3], [0, 1]), key_from_json(key_to_json(keys[2]))]
    for key in keys:
        mask = np.ones(key.total_length, dtype=bool)
        mask[key.trap_positions] = False
        non_traps = key.non_trap_positions()
        assert non_traps.dtype == np.intp
        assert non_traps.tolist() == np.flatnonzero(mask).tolist()
        assert key.non_trap_positions() is non_traps
        with pytest.raises(ValueError, match="read-only"):
            non_traps[0] = 0
    # copies and unpickled keys hold their own read-only positions
    for key in keys:
        for copied in (copy.copy(key), copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
            assert copied.total_length == key.total_length
            assert np.array_equal(copied.trap_positions, key.trap_positions)
            assert np.array_equal(copied.trap_values, key.trap_values)
            non_traps = copied.non_trap_positions()
            assert non_traps.tolist() == key.non_trap_positions().tolist()
            with pytest.raises(ValueError, match="read-only"):
                non_traps[0] = 0
    # the cached positions are not part of the key's repr or equality
    key = SecretKey(7, [3], [1])
    assert repr(key) == "SecretKey(total_length=7, trap_positions=array([3]), trap_values=array([1]))"
    assert key == SecretKey(7, [3], [1])
    assert key != SecretKey(8, [3], [1])


def test_secret_keys_compare_by_value():
    key = SecretKey(7, [1, 3], [0, 1])
    assert key == SecretKey(7, [1, 3], [0, 1])
    assert key == SecretKey(7, np.array([1, 3]), np.array([0, 1], dtype=np.uint8))
    assert not key != SecretKey(7, (1, 3), (0, 1))
    for other in (
        SecretKey(8, [1, 3], [0, 1]),
        SecretKey(7, [1, 4], [0, 1]),
        SecretKey(7, [1, 3], [1, 1]),
        SecretKey(7, [1, 3, 5], [0, 1, 0]),
        SecretKey(7, [1], [0]),
    ):
        assert key != other and other != key
        assert not key == other
    assert key != (7, [1, 3], [0, 1])
    large = generate_key(100, 20, stream_rng(67, 0))
    copies = (
        copy.deepcopy(large), pickle.loads(pickle.dumps(large)), key_from_json(key_to_json(large))
    )
    for copied in copies:
        assert copied == large and large == copied
        assert copied is not large
    assert large != generate_key(100, 20, stream_rng(67, 1))
    with pytest.raises(TypeError, match="unhashable"):
        hash(key)


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
    assert state.tolist() == [
        2 * Basis.DIAGONAL + 0,
        2 * Basis.RECTILINEAR + 1,
        2 * Basis.DIAGONAL + 1,
        2 * Basis.RECTILINEAR + 0,
    ]
    assert state.dtype == np.uint8
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
    state[target] ^= 1  # tamper: bit flip on a rectilinear site
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
    assert bits_to_string([True, False]) == "10"
    assert bits_to_string(np.zeros(0, np.uint8)) == ""
    assert as_bits("10").tolist() == [1, 0]
    with pytest.raises(ValueError):
        as_bits("102")
    for bits in ([1, 0, 1], [True, False, True], np.array([1.0, 0.0, 1.0]), ["1", "0", "1"]):
        assert as_bits(bits).tolist() == [1, 0, 1]
    array = np.array([1, 0, 1], dtype=np.uint8)
    assert as_bits(array) is array
    assert as_bits([]).dtype == np.uint8
    with pytest.raises(ValueError, match="one-dimensional"):
        as_bits([[0, 1]])


@pytest.mark.parametrize(
    "bits",
    [np.array([257, 0]), [0.7, 1.0], np.array([-255]), [2, 0], np.array([1.0, np.nan])],
    ids=["257", "0.7", "-255", "list-2", "nan"],
)
def test_as_bits_refuses_non_bits_before_casting(bits):
    # a uint8 cast would wrap 257 and -255 to 1 and truncate 0.7 to 0
    with pytest.raises(ValueError, match="only 0 and 1"):
        as_bits(bits)
