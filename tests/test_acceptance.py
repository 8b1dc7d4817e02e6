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

import pytest

from privdel import acceptance, bounds
from privdel.encoding import key_length_bits


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


def test_enumeration_oracle_is_the_exact_law():
    for total in range(1, 9):
        for n in range(total + 1):
            for r in range(total + 1):
                assert acceptance.enumerated_cert_fraction(
                    total - n, n, r
                ) == bounds.cert_exact_fraction(total - n, n, r)
