"""Exact single-qubit mechanics for conjugate-coding states.

Every state occurring in the trap-bit protocols is one of the four
conjugate-coding states, so a site is held symbolically as one uint8,
``2*basis + bit``: an exact single-qubit stabilizer description
(Aaronson & Gottesman, quant-ph/0406196). Measuring a site in its own
basis returns its bit; measuring it in the other basis returns a fair
coin. Either way the site collapses to the measured eigenstate.
Superpositions other than the four eigenstates, complex phases and
multi-qubit states are deliberately out of scope.

The rule draws nothing itself: each measured site comes with one coin
bit, the outcome in case the bases differ. The caller draws it from its
seeded stream (the per-instance API as ``u >= 1/2`` of a uniform, the
engine as a packed fair bit), or, in an exact enumeration, sets it.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

SQRT_HALF = math.sqrt(0.5)


class Basis(IntEnum):
    """Preparation/measurement basis.

    Rectilinear eigenstates encode the classical bits 0 and 1 directly.
    Diagonal eigenstates are identified with bits as plus -> 0, minus -> 1
    (any consistent convention is equivalent; this one is fixed here).
    """

    RECTILINEAR = 0
    DIAGONAL = 1


# EIGENSTATES[basis, bit] is that eigenstate as a real 2-vector in the
# computational basis. The simulator never reads it: it is the geometry
# that the measurement rule is checked against.
EIGENSTATES = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]],
    ]
)
EIGENSTATES.setflags(write=False)


def measure_sites(sites: np.ndarray, index, bases, coins: np.ndarray) -> np.ndarray:
    """Measure the sites ``sites[index]``, collapsing them in place.

    `index` is any numpy index that names each site at most once: the
    positions of one state, or ``...`` for every site of a state or of a
    batch's site array. `bases` broadcasts against ``sites[index]``, and
    `coins` holds one bit (0/1 or bool) per measured site, in that shape.
    The outcome is the stored bit in its own basis, else the coin. Returns
    the outcomes as a uint8 array of that shape.
    """
    shifted = np.asarray(bases, dtype=np.uint8) << 1
    # a site XOR its measured basis shifted up: its bit in its own basis, else 2 or 3
    stored = sites[index] ^ shifted
    outcomes = np.where(stored < 2, stored, coins).astype(np.uint8, copy=False)
    sites[index] = shifted | outcomes
    return outcomes


def measure_all_sites(sites: np.ndarray, basis: Basis, coins: np.ndarray) -> np.ndarray:
    """`measure_sites` over every site, in one basis; kept for the span tracer."""
    return measure_sites(sites, ..., basis, coins)
