import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdel.bounds import cert_exact
from privdel.encoding import encode, generate_key, random_message
from privdel.experiments import stream_rng
from privdel.parties import (
    BlindErasureGuess,
    Custom,
    ErasureCert,
    FirstBit,
    HONEST,
    NoOp,
    PositionChoice,
    RectilinearSample,
    StorageCert,
    Task,
    adversary_intervene,
    adversary_label,
    discr_guess,
    prover_respond,
    transcript_row,
    verify,
)
from privdel.qubit import Basis


def make_instance(m, n, seed, stream=0):
    rng = stream_rng(seed, stream)
    key = generate_key(m, n, rng)
    message = random_message(m, rng)
    return rng, key, message, encode(message, key)


def run_once(m, n, adversary, task, seed, stream):
    rng, key, message, state = make_instance(m, n, seed, stream)
    state, record = adversary_intervene(state, adversary, rng)
    cert = prover_respond(state, HONEST, task, rng)
    return verify(cert, key, rng), record, key, message


def test_noop_leaves_the_state_alone():
    rng, key, message, state = make_instance(8, 2, 0)
    before = state.sites.copy()
    state, record = adversary_intervene(state, NoOp(), rng)
    assert len(record) == 0
    assert np.array_equal(state.sites, before)


def test_full_sampling_reads_the_message_and_coins_the_traps():
    trap_outcomes = []
    for i in range(400):
        rng, key, message, state = make_instance(20, 5, 1, i)
        state, record = adversary_intervene(
            state, RectilinearSample(25), rng
        )
        mask = np.zeros(25, dtype=bool)
        mask[key.trap_positions] = True
        assert np.array_equal(record.outcomes[~mask], message)
        trap_outcomes.append(record.outcomes[mask])
    pooled = np.concatenate(trap_outcomes)
    assert abs(pooled.mean() - 0.5) <= 3 * 0.5 / math.sqrt(pooled.size)


def test_firstbit_record_on_a_message_position():
    # find an instance whose index 0 is not a trap
    for i in range(50):
        rng, key, message, state = make_instance(6, 2, 2, i)
        if 0 in key.trap_positions:
            continue
        before = state.sites.copy()
        state, record = adversary_intervene(state, FirstBit(), rng)
        assert record.measured_positions.tolist() == [0]
        assert record.measured_bases.tolist() == [Basis.RECTILINEAR]
        assert record.outcomes.tolist() == [message[0]]
        # measuring a rectilinear eigenstate rectilinearly collapses to itself
        assert np.array_equal(state.sites, before)
        return
    pytest.fail("no instance with a message bit at index 0")


def test_attack_validation_errors():
    rng, key, message, state = make_instance(4, 2, 3)
    with pytest.raises(ValueError):
        adversary_intervene(state, RectilinearSample(7), rng)
    with pytest.raises(ValueError):
        Custom([1, 1], Basis.RECTILINEAR)
    with pytest.raises(ValueError):
        adversary_intervene(state, Custom([9], Basis.RECTILINEAR), rng)
    with pytest.raises(ValueError):
        RectilinearSample(-1)


def test_prefix_sampling_measures_the_first_positions():
    rng, key, message, state = make_instance(10, 3, 4)
    state, record = adversary_intervene(
        state, RectilinearSample(4, PositionChoice.PREFIX), rng
    )
    assert record.measured_positions.tolist() == [0, 1, 2, 3]


def test_honest_storage_returns_the_state_unchanged():
    rng, key, message, state = make_instance(9, 3, 5)
    before = state.sites.copy()
    cert = prover_respond(state, HONEST, Task.STORAGE, rng)
    assert isinstance(cert, StorageCert)
    assert np.array_equal(cert.returned.sites, before)


def test_honest_erasure_announces_traps_exactly_and_rest_uniformly():
    non_trap_bits = []
    for i in range(1_000):
        rng, key, message, state = make_instance(100, 20, 6, i)
        cert = prover_respond(state, HONEST, Task.ERASURE, rng)
        assert isinstance(cert, ErasureCert)
        assert np.array_equal(cert.announced[key.trap_positions], key.trap_values)
        non_trap_bits.append(cert.announced[key.non_trap_positions()])
    pooled = np.concatenate(non_trap_bits)
    assert pooled.size == 100_000
    assert abs(pooled.mean() - 0.5) < 0.005


def test_honest_runs_always_verify():
    for task in (Task.STORAGE, Task.ERASURE):
        for i in range(200):
            result, record, key, message = run_once(12, 3, NoOp(), task, 7, i)
            assert result.accepted
            if task is Task.STORAGE:
                assert np.array_equal(result.recovered, message)
            else:
                assert result.recovered is None


@given(
    st.integers(1, 40),
    st.integers(1, 10),
    st.sampled_from(list(Task)),
    st.integers(0, 2**31),
)
@settings(max_examples=80, deadline=None)
def test_honest_correctness_property(m, n, task, seed):
    result, _, _, message = run_once(m, n, NoOp(), task, seed, 0)
    assert result.accepted
    if task is Task.STORAGE:
        assert np.array_equal(result.recovered, message)


def test_erasure_rejects_a_flipped_trap_announcement():
    rng, key, message, state = make_instance(10, 3, 8)
    cert = prover_respond(state, HONEST, Task.ERASURE, rng)
    cert.announced[key.trap_positions[1]] ^= 1
    assert not verify(cert, key, rng).accepted


def test_verify_checks_certificate_length():
    rng, key, message, state = make_instance(6, 2, 9)
    with pytest.raises(ValueError):
        verify(ErasureCert(np.zeros(5, dtype=np.uint8)), key, rng)
    other_key = generate_key(9, 2, rng)
    with pytest.raises(ValueError):
        verify(StorageCert(state), other_key, rng)


def test_sampling_acceptance_matches_the_exact_law():
    # (m=2, n=1, r=1): acceptance 5/6
    trials = 20_000
    accepted = sum(
        run_once(2, 1, RectilinearSample(1), Task.STORAGE, 10, i)[0].accepted
        for i in range(trials)
    )
    p = cert_exact(2, 1, 1)
    assert abs(accepted / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_measuring_k_traps_accepts_with_probability_two_to_minus_k():
    # plant a probe on exactly 2 trap positions
    k, trials = 2, 20_000
    accepted = 0
    for i in range(trials):
        rng, key, message, state = make_instance(10, 4, 11, i)
        probe = Custom(key.trap_positions[:k], Basis.RECTILINEAR)
        state, _ = adversary_intervene(state, probe, rng)
        cert = prover_respond(state, HONEST, Task.STORAGE, rng)
        accepted += verify(cert, key, rng).accepted
    p = 2.0**-k
    assert abs(accepted / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_rectilinear_snooping_off_the_traps_is_invisible():
    for i in range(300):
        rng, key, message, state = make_instance(16, 4, 12, i)
        snoop = Custom(key.non_trap_positions(), Basis.RECTILINEAR)
        state, record = adversary_intervene(state, snoop, rng)
        assert np.array_equal(record.outcomes, message)
        accepted, recovered = verify(
            prover_respond(state, HONEST, Task.STORAGE, rng), key, rng
        )
        assert accepted
        assert np.array_equal(recovered, message)


def test_storage_and_erasure_share_the_detection_law():
    m, n, r, trials = 30, 6, 18, 20_000
    rates = []
    for task in (Task.STORAGE, Task.ERASURE):
        accepted = sum(
            run_once(m, n, RectilinearSample(r), task, 13, i)[0].accepted
            for i in range(trials)
        )
        rates.append(accepted / trials)
    p = cert_exact(m, n, r)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rates[0] - rates[1]) <= 3 * math.sqrt(2) * sigma
    for rate in rates:
        assert abs(rate - p) <= 3 * sigma


def test_erasure_announcement_stays_uniform_under_rectilinear_snooping():
    # rectilinear collapse keeps each non-trap qubit an even coin for the
    # diagonal announcement measurement
    pooled = []
    for i in range(600):
        rng, key, message, state = make_instance(40, 8, 19, i)
        state, _ = adversary_intervene(state, RectilinearSample(48), rng)
        cert = prover_respond(state, HONEST, Task.ERASURE, rng)
        pooled.append(cert.announced[key.non_trap_positions()])
    bits = np.concatenate(pooled)
    assert abs(bits.mean() - 0.5) <= 3 * 0.5 / math.sqrt(bits.size)


def test_blind_erasure_guess_hits_the_floor():
    n, trials = 3, 40_000
    accepted = 0
    for i in range(trials):
        rng, key, message, state = make_instance(5, n, 14, i)
        cert = prover_respond(state, BlindErasureGuess(), Task.ERASURE, rng)
        accepted += verify(cert, key, rng).accepted
    p = 2.0**-n
    assert abs(accepted / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_blind_guess_is_erasure_only():
    rng, key, message, state = make_instance(5, 2, 15)
    with pytest.raises(ValueError):
        prover_respond(state, BlindErasureGuess(), Task.STORAGE, rng)


def test_discr_guess_rule():
    rng = stream_rng(16, 0)
    legit = np.array([1, 0, 1], dtype=np.uint8)
    matching = adversary_record([0], [Basis.RECTILINEAR], [1])
    assert discr_guess(matching, legit, rng) is True
    differing = adversary_record([0], [Basis.RECTILINEAR], [0])
    assert discr_guess(differing, legit, rng) is False
    # no rectilinear record at position 0: fair coin
    empty = adversary_record([], [], [])
    guesses = {discr_guess(empty, legit, stream_rng(16, i)) for i in range(64)}
    assert guesses == {True, False}
    diagonal = adversary_record([0], [Basis.DIAGONAL], [1])
    guesses = {discr_guess(diagonal, legit, stream_rng(17, i)) for i in range(64)}
    assert guesses == {True, False}


def adversary_record(positions, bases, outcomes):
    from privdel.parties import EavesdropRecord

    return EavesdropRecord(
        np.asarray(positions, dtype=np.intp),
        np.asarray(bases, dtype=np.uint8),
        np.asarray(outcomes, dtype=np.uint8),
    )


def test_transcript_schema_and_labels():
    result, record, key, message = run_once(
        6, 2, RectilinearSample(3), Task.ERASURE, 18, 0
    )
    row = transcript_row(
        Task.ERASURE, 18, 6, 2, RectilinearSample(3), result.accepted, record
    )
    assert set(row) == {"task", "seed", "m", "n", "adversary", "accepted", "record"}
    parsed = json.loads(json.dumps(row))
    assert parsed["task"] == "erasure"
    assert set(parsed["record"]) == {"positions", "bases", "outcomes"}
    assert adversary_label(NoOp()) == "noop"
    assert adversary_label(FirstBit()) == "firstbit"
    assert adversary_label(RectilinearSample(3)).startswith("sample(r=3")
