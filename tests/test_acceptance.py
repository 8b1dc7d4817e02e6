"""Acceptance gate: every headline criterion at its pinned tolerance.

One test per criterion, each asserting that criterion's true verdict, and
each printing its PASS/FAIL line so `pytest -v -s tests/test_acceptance.py`
(or `privdel --check`) reads as the acceptance report.

Seven criteria must PASS. The key-length criterion must FAIL: its 8% gate
on the n*log2(m) shorthand is arithmetically out of reach at the pinned
operating point (m, n) = (10^6, 32), where the shorthand overshoots the
exact length n + log2 C(m+n, n) by log2(n!) - n - sum_i log2(1 + i/m),
i.e. 15.51%; the gate would first be met near m = 7.6e10. The gate is
deliberately not loosened, so its test pins the FAIL together with that
arithmetic, recomputed here from integers, and requires the shorthand to
be the only problem the criterion reports.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from privdel import _engine, acceptance, auth, bounds
from privdel.encoding import key_length_bits
from privdel.experiments import BATCH_TRIALS, stream_rng


def assert_key_length_red(result):
    m, n = 10**6, 32
    exact = n + math.log2(math.comb(m + n, n))
    shorthand = math.log2(m**n)
    # sum_{i=1..n} log2(1 + i/m), rounded once from the exact rational
    drift = math.log2(Fraction(math.prod(range(m + 1, m + n + 1)), m**n))
    gap = math.log2(math.factorial(n)) - n - drift
    shorthand_rel = (shorthand - exact) / exact

    assert round(exact, 4) == 552.1477
    assert round(shorthand, 4) == 637.8102
    assert round(gap, 4) == 85.6625
    assert shorthand_rel > 0.08

    computed = key_length_bits(m, n)
    assert computed.exact_bits == pytest.approx(exact, rel=1e-9, abs=0)
    assert computed.approx_bits == pytest.approx(shorthand, rel=1e-9, abs=0)
    assert computed.approx_bits - computed.exact_bits == pytest.approx(
        gap, rel=1e-9, abs=0
    )
    assert key_length_bits(m, 0) == (0.0, 0.0)

    assert not result.passed
    assert result.detail == (
        f"shorthand n*log2(m) = {shorthand:.1f} is {shorthand_rel:.2%} from "
        f"the exact {exact:.1f} bits (gate: 8%)"
    )


#: every criterion's report at its default size, as the seeded runs give it
DETAILS = {
    "key_length": "shorthand n*log2(m) = 637.8 is 15.51% from the exact 552.1 bits (gate: 8%)",
    "sampling_tail_bound": (
        "exact law dominated by the raw bound at all 6 non-vacuous grid points"
    ),
    "wegman_carter": (
        "exhaustive s=4 forgery sweep respects the degree/16 key-fraction bound "
        "(L<=3, equal and mixed lengths); 10000/10000 round trips at s=64; key is "
        "2 field elements for any message length"
    ),
    "sampling_exact_law": (
        "20 grid points within 3 sigma of the exact law; enumeration oracle "
        "matched exactly at 818 small instances"
    ),
    "honest_correctness": "honest accepts 100000/100000 for all 6 (m,n,task) configurations",
    "rectilinear_transparency": (
        "adversary read M and passed certification in 100000/100000 runs"
    ),
    "erasure_randomness": (
        "ones fraction 0.50034 (0.5 +- 0.00150), runs test p=0.185 over 1000000 pooled bits"
    ),
    "firstbit_attack": (
        "cert 0.9498 (ref 0.95), conditional advantage 0.2364 (ref 0.2368), "
        "security product 0.2245 (ref 0.225); 1000000 trials"
    ),
}


@pytest.mark.parametrize(
    "check",
    acceptance.ALL_CHECKS,
    ids=lambda check: check.__name__.removeprefix("check_"),
)
def test_criterion(check):
    result = check()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    if result.name == "key_length":
        assert_key_length_red(result)
    else:
        assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[result.name]


def test_enumeration_oracle_is_the_exact_law():
    for total in range(1, 9):
        for n in range(total + 1):
            for r in range(total + 1):
                assert acceptance.enumerated_cert_fraction(
                    total - n, n, r
                ) == bounds.cert_exact_fraction(total - n, n, r)


def test_subset_count_rows_sum_to_the_binomial():
    for total in range(13):
        counts = acceptance._subset_counts(total)
        assert counts.shape == (total + 1,) * 3
        for n in range(total + 1):
            for r in range(total + 1):
                assert counts[n, r].sum() == math.comb(total, r)
                # h trap hits: h of the n traps and r - h of the others
                assert counts[n, r].tolist() == [
                    math.comb(n, h) * math.comb(total - n, r - h) if h <= r else 0
                    for h in range(total + 1)
                ]
        assert not counts.flags.writeable


def sort_multiplicity_ok(diffs, limit):
    """Reference forgery predicate: no row of nibble values holds one value more than `limit` times."""
    d = np.sort(diffs, axis=-1)
    return not (d[..., limit:] == d[..., :-limit]).any()


def packed_ok(ha, hb, limit):
    return acceptance._max_multiplicity_ok(
        acceptance._pack_rows(ha), acceptance._pack_rows(hb), limit
    )


def test_packed_forgery_predicate_matches_a_sort_on_random_rows():
    rng = stream_rng(40, 0)
    verdicts = set()
    for limit in range(1, 8):
        for case in range(40):
            # few distinct values skew the rows; every tenth case spans
            # several 64-row chunks
            values = int(rng.integers(2, 17))
            rows = 140 if case % 10 == 0 else 6
            ha = rng.integers(0, values, (int(rng.integers(1, rows)), 16), dtype=np.uint8)
            hb = rng.integers(0, values, (int(rng.integers(1, 6)), 16), dtype=np.uint8)
            expected = sort_multiplicity_ok(ha[:, None, :] ^ hb[None, :, :], limit)
            assert packed_ok(ha, hb, limit) == expected  # cross-length form
            verdicts.add(expected)
            if len(ha) > 1:
                expected = sort_multiplicity_ok(ha[1:] ^ ha[0], limit)
                assert packed_ok(ha[:1], ha[1:], limit) == expected  # equal-length form
                verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_packed_forgery_predicate_on_planted_rows(limit):
    rng = stream_rng(50 + limit, 0)
    base = rng.integers(0, 16, 16, dtype=np.uint8)

    def distinct_diffs(rows):
        return np.stack([rng.permutation(16).astype(np.uint8) for _ in range(rows)])

    # XOR with a constant nibble keeps every value's multiplicity, so each
    # pair ha[i] ^ hb[j] below holds the multiplicities of diffs[i]
    hb = base ^ np.arange(16, dtype=np.uint8)[:, None]
    for count, ok in ((limit, True), (limit + 1, False)):
        planted = rng.permutation(16).astype(np.uint8)
        sites = rng.choice(16, count, replace=False)
        planted[sites] = planted[sites[0]]  # one value exactly `count` times
        diffs = distinct_diffs(130)
        diffs[127] = planted  # the last row of the second 64-row chunk
        ha = base ^ diffs
        assert sort_multiplicity_ok(ha[:, None, :] ^ hb[None, :, :], limit) == ok
        assert packed_ok(ha, hb, limit) == ok  # cross-length form
        h = base ^ np.concatenate([np.zeros((1, 16), np.uint8), diffs])
        assert sort_multiplicity_ok(h[1:] ^ h[0], limit) == ok
        assert packed_ok(h[:1], h[1:], limit) == ok  # equal-length form


def corrupt_accepted(accepted, outcomes, sites, row):
    accepted[row] = False


def corrupt_outcomes(accepted, outcomes, sites, row):
    outcomes[row, 7] ^= 1


def corrupt_sites(accepted, outcomes, sites, row):
    sites[row, 7] ^= 1  # a rectilinear site of the other bit


def transparency(trials):
    return acceptance.check_rectilinear_transparency(trials)


def erasure(trials):
    return acceptance.check_erasure_randomness(100 * trials)  # m = 100 bits a run


@pytest.mark.parametrize(
    "check, corrupt, problem",
    [
        (transparency, corrupt_outcomes, "adversary misread M"),
        (transparency, corrupt_accepted, "rejected"),
        (transparency, corrupt_sites, "verifier misread M"),
        (erasure, corrupt_accepted, "honest run rejected"),
    ],
    ids=["outcomes", "accepted", "sites", "erasure-accepted"],
)
def test_rectilinear_transparency_names_the_first_failing_trial(
    monkeypatch, check, corrupt, problem
):
    # one bad row in the second batch is reported by its index over all
    # batches, and by the one check it fails
    batched_kernel = _engine.kernel
    batches, row = 0, 37

    def kernel(*args):
        nonlocal batches
        result = batched_kernel(*args)
        batches += 1
        if batches == 2:
            corrupt(*result, row)
        return result

    monkeypatch.setattr(_engine, "kernel", kernel)
    result = check(BATCH_TRIALS + 100)
    assert batches == 2
    assert not result.passed
    assert result.detail == f"{problem} at trial {BATCH_TRIALS + row}"


def test_wegman_carter_reports_the_first_failing_round_trip(monkeypatch):
    batched_tag = auth.tag
    tagged = 0  # round-trip instances tagged in earlier batches

    def mistag(message, key):
        nonlocal tagged
        tags = batched_tag(message, key)
        if isinstance(tags, list):  # a round-trip batch
            for i in (4321, 7000):
                if tagged <= i < tagged + len(tags):
                    good = tags[i - tagged]
                    tags[i - tagged] = auth.AuthTag(good.s, good.value ^ 1)
            tagged += len(tags)
        return tags

    monkeypatch.setattr(auth, "tag", mistag)
    result = acceptance.check_wegman_carter()
    assert not result.passed
    assert result.detail == "round trip failed at instance 4321"

    # a tag of another width fails only its own pair of a batch
    rng = stream_rng(41, 0)
    keys = [auth.generate_auth_key(32, rng) for _ in range(3)]
    messages = [np.ones(length, np.uint8) for length in (1, 40, 70)]
    tags = batched_tag(messages, keys)
    tags[1] = auth.AuthTag(64, tags[1].value)
    assert auth.verify_tag(messages, tags, keys).tolist() == [True, False, True]


def test_wegman_carter_draws_keys_a_batch_at_a_time(monkeypatch):
    # one key draw per 1,000-pair round-trip batch plus the key-size check:
    # a per-pair loop would make 10,001
    batched_keys = auth.generate_auth_key
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return batched_keys(*args)

    monkeypatch.setattr(auth, "generate_auth_key", counted)
    assert acceptance.check_wegman_carter().passed
    assert calls <= 11


def forgery_sweep_rows(monkeypatch):
    """Run the Wegman-Carter criterion and return its packed s=4 hash rows by
    block count, read off the rows its equal-length sweeps compare."""
    classes = {}
    sweep = acceptance._max_multiplicity_ok

    def recording(pa, pb, limit):
        if pb.size == 16**limit - 1:  # an equal-length sweep: row 0, then the rest
            classes[limit] = np.concatenate([pa, pb])
        return sweep(pa, pb, limit)

    monkeypatch.setattr(acceptance, "_max_multiplicity_ok", recording)
    assert acceptance.check_wegman_carter().passed
    monkeypatch.undo()
    return classes


def test_reduced_cross_length_sweep_gives_the_full_sweeps_verdicts(monkeypatch):
    # row 0 of the shorter class against the longer class, as the criterion
    # sweeps, and every pair of rows; each pair fails below its bound l_big + 1
    packed = forgery_sweep_rows(monkeypatch)
    assert sorted(packed) == [1, 2, 3]
    for l_small, l_big in ((1, 2), (1, 3), (2, 3)):
        verdicts = []
        for limit in range(1, l_big + 3):
            full = acceptance._max_multiplicity_ok(packed[l_small], packed[l_big], limit)
            reduced = acceptance._max_multiplicity_ok(packed[l_small][:1], packed[l_big], limit)
            assert reduced == full
            verdicts.append(full)
        assert verdicts[l_big:] == [True, True]
        assert False in verdicts


@pytest.mark.parametrize(
    "row", [5, 16 + 37, 16 + 256, 16 + 256 + 4095], ids=["L1", "L2", "L3-zero", "L3-last"]
)
def test_a_perturbed_hash_row_fails_the_linearity_check(monkeypatch, row):
    # the hash under key 9 of one message row (rows are L=1, then L=2, then
    # L=3 messages) has one bit flipped
    exact_hash = auth.poly_hash

    def perturbed(blocks, x, s):
        hashes = exact_hash(blocks, x, s)
        if s == 4 and x == 9:
            hashes[row] ^= np.uint64(1)
        return hashes

    monkeypatch.setattr(auth, "poly_hash", perturbed)
    result = acceptance.check_wegman_carter()
    assert not result.passed
    assert result.detail.startswith("poly_hash is not GF(2)-linear in the data blocks")
