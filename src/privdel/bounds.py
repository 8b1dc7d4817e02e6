"""Closed-form detection analytics for the trap-bit protocols.

An intercept-resend adversary that measures r of the m+n positions in the
rectilinear basis hits K traps, where K is hypergeometric, and each hit
survives verification with probability 1/2. That gives an exact
certification probability (a finite sum), an explicit tail-style upper
bound, and closed forms for the single-bit probe attack. These are the
analytic references the Monte-Carlo experiments are checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

LN2 = math.log(2.0)


def _check_mnr(m: int, n: int, r: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if not 0 <= r <= m + n:
        raise ValueError(f"need 0 <= r <= m+n, got r={r}, m+n={m + n}")


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k); -inf when the coefficient is zero."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def cert_exact(m: int, n: int, r: int) -> float:
    """Exact certification probability under r-position rectilinear sampling.

    sum_k 2^(-k) C(n,k) C(m,r-k) / C(m+n,r), evaluated in log space with
    compensated summation; terms whose coefficients vanish are dropped.
    Holds for both the storage and the erasure variant.
    """
    _check_mnr(m, n, r)
    log_den = log_binomial(m + n, r)
    terms = [
        math.exp(
            log_binomial(n, k) + log_binomial(m, r - k) - log_den - k * LN2
        )
        for k in range(max(0, r - m), min(r, n) + 1)
    ]
    return math.fsum(terms)


def cert_exact_fraction(m: int, n: int, r: int) -> Fraction:
    """`cert_exact` in exact rational arithmetic, as a cross-check route."""
    _check_mnr(m, n, r)
    den = math.comb(m + n, r)
    total = Fraction(0)
    for k in range(max(0, r - m), min(r, n) + 1):
        total += Fraction(math.comb(n, k) * math.comb(m, r - k), (1 << k) * den)
    return total


class HoeffdingBound(NamedTuple):
    raw: float
    clamped: float


def hoeffding_bound(m: int, n: int, r: int, epsilon: float) -> HoeffdingBound:
    """Upper bound 2^(-rn/(m+n)+eps) + 2 exp(-2 eps^2 / r) on `cert_exact`.

    epsilon is an absolute deviation of the trap-hit count K: on the event
    K >= mean - eps the acceptance probability is at most 2^(-mean + eps),
    and the complement has probability at most 2 exp(-2 eps^2 / r) by the
    sampling-without-replacement tail inequality applied to K/r. (Writing
    the tail as 2 exp(-2 eps^2 r) would pair a per-draw deviation with an
    absolute-deviation exponent; that product is not a valid bound and the
    exact sum falsifies it already at desk scale.)

    At r = 0 the deviation event is empty and the raw bound is 2^eps. The
    raw value can exceed 1 since it bounds a probability, so a clamped
    copy is reported alongside.
    """
    _check_mnr(m, n, r)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tail = 0.0 if r == 0 else 2.0 * math.exp(-2.0 * epsilon * epsilon / r)
    raw = 2.0 ** (-hypergeom_mean(m, n, r) + epsilon) + tail
    return HoeffdingBound(raw, min(1.0, raw))


def hypergeom_mean(m: int, n: int, r: int) -> float:
    """Mean trap-hit count r*n/(m+n) of the hypergeometric overlap."""
    _check_mnr(m, n, r)
    if m + n == 0:
        return 0.0
    return r * n / (m + n)


def firstbit_cert(m: int, n: int) -> float:
    """Certification probability 1 - n/(2(n+m)) against the first-bit probe."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return 1.0 - n / (2.0 * (n + m))


def firstbit_advantage(m: int, n: int) -> float:
    """Discrimination-advantage bound (1 - n/(n+m))/4 for the first-bit probe.

    The match-the-known-first-bit guessing rule meets this with equality as
    the certification-weighted product; its conditional advantage is
    slightly larger (see `firstbit_conditional_success`).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return (1.0 - n / (n + m)) / 4.0


def firstbit_conditional_success(m: int, n: int) -> float:
    """Exact P[correct guess | certificate accepted] for the first-bit probe.

    With t = n/(m+n): the guess is right with probability 3/4 when position
    0 is a message bit (probability 1-t) and 1/2 when it is a trap; a trap
    is the only way certification can fail, and it fails half the time, so
    conditioning keeps all of the message-bit mass but only half of the
    trap mass: (3/4 - t/2) / (1 - t/2).
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    t = n / (m + n)
    return (0.75 - 0.5 * t) / (1.0 - 0.5 * t)


def analytic_cert_probability(m, n, strategy) -> float | None:
    """Exact acceptance probability for a strategy, when a closed form exists.

    The strategy supplies its own closed form (`analytic_cert`): no-op,
    rectilinear sampling and the first-bit probe have one; key-dependent
    custom strategies return None.
    """
    return strategy.analytic_cert(m, n)


BOUNDS_TABLE_COLUMNS = (
    "m",
    "n",
    "r",
    "epsilon",
    "exact",
    "hoeffding_raw",
    "hoeffding_clamped",
    "mean_K",
)


def bounds_table(m: int, n: int, r_values, epsilons) -> list[dict]:
    """Rows comparing the exact law with the bound over an (r, epsilon) grid."""
    rows = []
    for r in r_values:
        exact = cert_exact(m, n, r)
        mean_k = hypergeom_mean(m, n, r)
        for eps in epsilons:
            bound = hoeffding_bound(m, n, r, eps)
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "r": int(r),
                    "epsilon": float(eps),
                    "exact": exact,
                    "hoeffding_raw": bound.raw,
                    "hoeffding_clamped": bound.clamped,
                    "mean_K": mean_k,
                }
            )
    return rows
