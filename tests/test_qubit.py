import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdel.acceptance import _snap_probability
from privdel.qubit import Basis, EIGENSTATES, measure_all_sites, measure_sites

SQRT_HALF = math.sqrt(0.5)


def rng_for(seed):
    return np.random.default_rng(seed)


def site(basis, bit):
    return 2 * int(basis) + bit


def test_eigenstates_are_the_four_reference_states():
    assert EIGENSTATES[Basis.RECTILINEAR, 0] == pytest.approx([1.0, 0.0])
    assert EIGENSTATES[Basis.RECTILINEAR, 1] == pytest.approx([0.0, 1.0])
    assert EIGENSTATES[Basis.DIAGONAL, 0] == pytest.approx([SQRT_HALF, SQRT_HALF])
    assert EIGENSTATES[Basis.DIAGONAL, 1] == pytest.approx([SQRT_HALF, -SQRT_HALF])


@pytest.mark.parametrize("state_basis", list(Basis))
@pytest.mark.parametrize("bit", (0, 1))
@pytest.mark.parametrize("measure_basis", list(Basis))
def test_outcome_law_equals_the_born_rule(state_basis, bit, measure_basis):
    # drive the rule with an exact grid of uniforms, so the outcome
    # frequencies are its outcome law, and compare with |<e|psi>|^2
    grid = 1024
    uniforms = (np.arange(grid) + 0.5) / grid
    sites = np.full(grid, site(state_basis, bit), dtype=np.uint8)
    outcomes = measure_all_sites(sites, measure_basis, uniforms)
    state = EIGENSTATES[state_basis, bit]
    for outcome in (0, 1):
        born = _snap_probability(float(np.dot(EIGENSTATES[measure_basis, outcome], state)) ** 2)
        assert Fraction(int(np.count_nonzero(outcomes == outcome)), grid) == born
    assert np.array_equal(sites, 2 * int(measure_basis) + outcomes)


def test_same_basis_measurement_is_deterministic():
    rng = rng_for(0)
    for basis in Basis:
        for bit in (0, 1):
            sites = np.full(50, site(basis, bit), dtype=np.uint8)
            outcomes = measure_all_sites(sites, basis, rng.random(sites.shape))
            assert (outcomes == bit).all()
            assert (sites == site(basis, bit)).all()


def test_conjugate_measurement_is_a_fair_coin():
    # |<0|+>|^2 = 1/2, checked as an empirical frequency
    trials = 100_000
    sites = np.full(trials, site(Basis.DIAGONAL, 0), dtype=np.uint8)
    outcomes = measure_all_sites(sites, Basis.RECTILINEAR, rng_for(1).random(trials))
    assert abs(outcomes.mean() - 0.5) < 0.005


@pytest.mark.parametrize("basis", list(Basis))
def test_cross_basis_frequencies_within_three_sigma(basis):
    trials = 20_000
    other = Basis.DIAGONAL if basis is Basis.RECTILINEAR else Basis.RECTILINEAR
    for bit in (0, 1):
        sites = np.full(trials, site(basis, bit), dtype=np.uint8)
        outcomes = measure_all_sites(sites, other, rng_for(10 + bit).random(trials))
        assert abs(outcomes.mean() - 0.5) <= 3 * 0.5 / math.sqrt(trials)


@given(
    st.sampled_from(list(Basis)),
    st.integers(0, 1),
    st.sampled_from(list(Basis)),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_repeated_measurement_is_idempotent(state_basis, bit, basis, seed):
    rng = rng_for(seed)
    sites = np.array([site(state_basis, bit)], dtype=np.uint8)
    first = measure_sites(sites, [0], basis, rng.random(1))
    collapsed = sites.copy()
    second = measure_sites(sites, [0], basis, rng.random(1))
    assert second.tolist() == first.tolist()
    assert np.array_equal(sites, collapsed)


@given(
    st.sampled_from(list(Basis)),
    st.integers(0, 1),
    st.sampled_from(list(Basis)),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_collapse_preserves_normalization(state_basis, bit, basis, seed):
    # the collapsed site is the measured eigenstate, a unit vector
    sites = np.array([site(state_basis, bit)], dtype=np.uint8)
    outcome = measure_sites(sites, [0], basis, rng_for(seed).random(1))
    assert sites.tolist() == [site(basis, outcome[0])]
    vector = EIGENSTATES[sites[0] >> 1, sites[0] & 1]
    assert abs(float(vector @ vector) - 1.0) <= 1e-12


def test_measure_sites_consumes_one_uniform_per_site_in_order():
    # uniform [i, j] decides the site at positions[i, j], nothing else
    sites = np.full((2, 3), site(Basis.DIAGONAL, 0), dtype=np.uint8)
    positions = np.array([[0, 2], [1, 2]])
    uniforms = np.array([[0.1, 0.9], [0.5, 0.2]])
    index = (np.arange(2)[:, None], positions)
    outcomes = measure_sites(sites, index, Basis.RECTILINEAR, uniforms)
    assert outcomes.tolist() == [[0, 1], [1, 0]]
    assert sites.tolist() == [[0, 2, 1], [2, 1, 0]]


def test_measure_sites_matches_scalar_semantics():
    # deterministic case: eigenstates measured in their own bases
    sites = np.array([site(0, 0), site(0, 1), site(1, 0), site(1, 1)], dtype=np.uint8)
    before = sites.copy()
    outcomes = measure_sites(
        sites, np.arange(4), np.array([0, 0, 1, 1]), rng_for(4).random(4)
    )
    assert outcomes.tolist() == [0, 1, 0, 1]
    assert np.array_equal(sites, before)


def test_measure_sites_collapses_in_place():
    sites = np.full(3, site(Basis.DIAGONAL, 0), dtype=np.uint8)
    outcomes = measure_sites(sites, np.array([1]), Basis.RECTILINEAR, rng_for(5).random(1))
    assert sites[1] == site(Basis.RECTILINEAR, outcomes[0])
    assert sites[0] == sites[2] == site(Basis.DIAGONAL, 0)


INDEX_FORMS = {
    # one state's positions, as a list and as an array
    "list": ((6,), [0, 2, 5]),
    "array": ((6,), np.array([1, 3, 4])),
    # (rows, columns) of a batch, different columns per row
    "rows-columns": ((3, 5), (np.arange(3)[:, None], np.array([[0, 3], [4, 1], [2, 0]]))),
    # the engine's trap block, and every site
    "block": ((3, 5), np.s_[:, :2]),
    "all": ((3, 5), ...),
}


@pytest.mark.parametrize("form", sorted(INDEX_FORMS))
@pytest.mark.parametrize(
    "basis", [*Basis, "per-site"], ids=["rectilinear", "diagonal", "per-site"]
)
def test_measure_sites_applies_the_rule_site_by_site(form, basis):
    shape, index = INDEX_FORMS[form]
    rng = rng_for(7)
    sites = rng.integers(0, 4, shape, dtype=np.uint8)
    # the flat site id of every measured entry, in the outcomes' shape
    ids = np.arange(sites.size).reshape(shape)[index]
    u = rng.random(ids.shape)
    bases = rng.integers(0, 2, ids.shape, dtype=np.uint8) if basis == "per-site" else basis

    expected_sites = sites.copy().ravel()
    expected = np.empty(ids.shape, dtype=np.uint8)
    per_site = np.broadcast_to(np.asarray(bases), ids.shape)
    for j in np.ndindex(ids.shape):
        stored, b = int(expected_sites[ids[j]]), int(per_site[j])
        expected[j] = stored & 1 if stored >> 1 == b else int(u[j] >= 0.5)
        expected_sites[ids[j]] = 2 * b + expected[j]

    measured = sites.copy()
    outcomes = measure_sites(measured, index, bases, u)
    assert outcomes.dtype == np.uint8
    assert np.array_equal(outcomes, expected)
    assert np.array_equal(measured.ravel(), expected_sites)
    if index is Ellipsis:
        every = sites.copy()
        assert np.array_equal(measure_all_sites(every, bases, u), outcomes)
        assert np.array_equal(every, measured)
