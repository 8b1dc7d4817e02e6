import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdel.bounds import (
    cert_exact,
    cert_exact_fraction,
    firstbit_advantage,
    firstbit_cert,
    firstbit_conditional_success,
    hoeffding_bound,
    hypergeom_mean,
)

HALF = Fraction(1, 2)


def brute_force_cert(m, n, r):
    """Fully expanded branch enumeration with exact rationals.

    Traps occupy the first n positions (placement is irrelevant to a
    uniform position choice). For every r-subset, every assignment of trap
    values on the measured traps and every tuple of probe outcomes, the
    verifier re-measures each collapsed trap; a collapsed rectilinear
    state matches the diagonal trap value with probability 1/2 per trap.
    """
    total = Fraction(0)
    count = 0
    for subset in itertools.combinations(range(m + n), r):
        hit = [p for p in subset if p < n]
        k = len(hit)
        branch_total = Fraction(0)
        for trap_values in itertools.product((0, 1), repeat=k):
            for outcomes in itertools.product((0, 1), repeat=k):
                weight = HALF ** len(trap_values)  # trap values are uniform
                weight *= HALF ** len(outcomes)  # probe outcomes are 50/50
                match = HALF ** len(outcomes)  # verifier match per touched trap
                branch_total += weight * match
        count += 1
        total += branch_total
    return total / count


@pytest.mark.parametrize(
    "m,n,r,expected",
    [
        (5, 3, 0, Fraction(1)),
        (2, 1, 1, Fraction(5, 6)),
        (0, 1, 1, Fraction(1, 2)),
        (1, 1, 2, Fraction(1, 2)),
        (0, 3, 3, Fraction(1, 8)),
    ],
)
def test_exact_law_hand_values(m, n, r, expected):
    assert cert_exact_fraction(m, n, r) == expected
    assert cert_exact(m, n, r) == pytest.approx(float(expected), abs=1e-12)


def test_exact_law_matches_full_branch_enumeration():
    for total in range(1, 8):
        for n in range(0, total + 1):
            m = total - n
            for r in range(0, total + 1):
                assert cert_exact_fraction(m, n, r) == brute_force_cert(m, n, r)


def test_log_space_matches_rationals_up_to_thirty_positions():
    for total in (12, 21, 30):
        for n in (1, total // 3, total - 1):
            m = total - n
            for r in range(0, total + 1, 3):
                exact = cert_exact_fraction(m, n, r)
                assert cert_exact(m, n, r) == pytest.approx(
                    float(exact), rel=1e-12, abs=1e-300
                )


def test_exact_law_monotone_in_r_and_n():
    for m in (50, 100, 200):
        for n in (10, 20):
            values = [cert_exact(m, n, r) for r in range(m + n + 1)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    for m in (50, 100):
        for r in (10, 40):
            values = [cert_exact(m, n, r) for n in range(1, 30)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_domain_validation():
    with pytest.raises(ValueError):
        cert_exact(5, 5, 11)
    with pytest.raises(ValueError):
        cert_exact(-1, 5, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(5, 5, 5, 0.0)


def test_hypergeom_mean_values():
    assert hypergeom_mean(9, 9, 4) == pytest.approx(2.0)
    assert hypergeom_mean(2, 1, 1) == pytest.approx(1 / 3)
    assert hypergeom_mean(10, 5, 0) == 0.0


def test_bound_dominates_the_exact_law_where_meaningful():
    compared = 0
    for m in (50, 100, 200):
        for n in (10, 20):
            for r in range(0, m + n + 1):
                exact = cert_exact(m, n, r)
                for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
                    raw = hoeffding_bound(m, n, r, eps).raw
                    assert raw >= min(1.0, exact) or raw > 1.0
                    if raw <= 1.0:
                        compared += 1
                        assert exact <= raw
    assert compared > 50


def test_bound_clamping_and_r_zero():
    raw, clamped = hoeffding_bound(50, 10, 0, 0.5)
    assert raw == pytest.approx(2**0.5)
    assert clamped == 1.0
    assert cert_exact(50, 10, 0) == 1.0
    raw_large, clamped_large = hoeffding_bound(50, 10, 3, 5.0)
    assert clamped_large <= 1.0 <= raw_large or raw_large == clamped_large


def test_firstbit_closed_forms():
    assert firstbit_cert(90, 10) == pytest.approx(0.95)
    assert firstbit_advantage(90, 10) == pytest.approx(0.225)
    assert firstbit_cert(7, 7) == pytest.approx(0.75)
    assert firstbit_advantage(7, 7) == pytest.approx(0.125)
    # vanishing trap fraction: perfect certification, quarter advantage
    assert firstbit_cert(10**9, 1) == pytest.approx(1.0, abs=1e-8)
    assert firstbit_advantage(10**9, 1) == pytest.approx(0.25, abs=1e-8)


def test_firstbit_conditional_success_probability_tree():
    # independent derivation with exact fractions: position 0 is a trap
    # with probability t; a measured trap certifies half the time and the
    # guess is then a coin, otherwise the first bit is read exactly and
    # only a dummy whose first bit collides misleads the guess
    m, n = 90, 10
    t = Fraction(n, m + n)
    p_accept = 1 - t * HALF
    p_correct_and_accept = (1 - t) * Fraction(3, 4) + t * HALF * HALF
    expected = p_correct_and_accept / p_accept
    assert firstbit_conditional_success(m, n) == pytest.approx(float(expected))
    assert expected - HALF == Fraction(9, 38)
    # the certification-weighted advantage collapses to the closed form
    product = p_accept * (expected - HALF)
    assert product == Fraction(m, 4 * (m + n))


@given(st.integers(1, 10**6), st.integers(1, 10**4))
@settings(max_examples=200, deadline=None)
def test_firstbit_identities(m, n):
    cert = firstbit_cert(m, n)
    conditional = firstbit_conditional_success(m, n)
    assert conditional - 0.5 >= firstbit_advantage(m, n) - 1e-12
    assert cert * (conditional - 0.5) == pytest.approx(firstbit_advantage(m, n))


def test_security_product_stays_bounded_at_fixed_ratio():
    # non-negligibility witness: constant along m = 9n
    for n in (10, 100, 1000, 10**5):
        m = 9 * n
        product = firstbit_cert(m, n) * (
            firstbit_conditional_success(m, n) - 0.5
        )
        assert product == pytest.approx(0.225)
