"""Output gate: closed forms written independently of privdel, and the checks.

Every Monte-Carlo estimate is compared with its closed form at a fixed
multiple of the binomial standard deviation; honest no-op estimates must be
exactly 1. The closed forms here use exact integer arithmetic and share no
code with `privdel.bounds`, so a defect there cannot hide one in the engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Allowed distance of an estimate from its closed form, in standard
#: deviations. At 5 sigma a correct engine trips the gate about once in
#: 1.7 million estimates.
SIGMAS = 5.0


def cert_exact(m: int, n: int, r: int) -> float:
    """P[accept] when r of the m+n positions are read rectilinearly.

    sum_k C(n,k) C(m,r-k) 2^-k / C(m+n,r): K traps are hit, each survives
    with probability 1/2.
    """
    den = math.comb(m + n, r)
    total = Fraction(0)
    for k in range(max(0, r - m), min(r, n) + 1):
        total += Fraction(math.comb(n, k) * math.comb(m, r - k), den << k)
    return float(total)


def firstbit_cert(m: int, n: int) -> float:
    """P[accept] when only position 0 is read rectilinearly: 1 - t/2, t = n/(m+n)."""
    return 1.0 - n / (2.0 * (m + n))


def firstbit_conditional(m: int, n: int) -> float:
    """P[first-bit guess correct | accepted] = (3/4 - t/2) / (1 - t/2)."""
    t = n / (m + n)
    return (0.75 - 0.5 * t) / (1.0 - 0.5 * t)


def within(successes: int, trials: int, p: float) -> bool:
    """True iff successes/trials is within SIGMAS binomial sd of p.

    At p in {0, 1} the estimate must equal p exactly.
    """
    if trials <= 0:
        return False
    if p in (0.0, 1.0):
        return successes == p * trials
    sd = math.sqrt(p * (1.0 - p) / trials)
    return abs(successes / trials - p) <= SIGMAS * sd


def count_of(rate: float, trials: int) -> int:
    """Recover the integer count behind a rate reported over `trials`."""
    return round(rate * trials)


def same_reference(reported, expected: float) -> bool:
    """The report's own analytic reference agrees with the closed form."""
    return reported is not None and math.isclose(reported, expected, rel_tol=1e-9)


class Tally:
    """Pooled successes and trials per key, checked once at the end of a run."""

    def __init__(self) -> None:
        self.cells: dict[object, list] = {}

    def add(self, key, p: float, successes: int, trials: int) -> None:
        cell = self.cells.setdefault(key, [p, 0, 0])
        cell[1] += successes
        cell[2] += trials

    def failures(self) -> list[str]:
        return [
            f"{key}: {s}/{t} vs closed form {p:.6f}"
            for key, (p, s, t) in self.cells.items()
            if not within(s, t, p)
        ]
