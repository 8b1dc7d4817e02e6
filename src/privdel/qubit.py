"""Exact single-qubit mechanics for conjugate-coding states.

Every state occurring in the trap-bit protocols is one of the four
conjugate-coding states, so a site is held symbolically as one uint8,
``2*basis + bit``: an exact single-qubit stabilizer description
(Aaronson & Gottesman, quant-ph/0406196). Measuring a site in its own
basis returns its bit; measuring it in the other basis returns a fair
coin. Either way the site collapses to the measured eigenstate.
Superpositions other than the four eigenstates, complex phases and
multi-qubit states are deliberately out of scope.

The rule draws nothing itself: each measured site comes with one uniform
variate in [0, 1), which the caller draws from its seeded stream (or, in
an exact enumeration, sets to a chosen branch).
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


def _outcomes(stored: np.ndarray, bases, u: np.ndarray) -> np.ndarray:
    """The measurement rule: the stored bit in its own basis, else `u >= 1/2`."""
    same = (stored >> 1) == bases
    return np.where(same, stored & 1, u >= 0.5).astype(np.uint8)


def measure_sites(sites: np.ndarray, index, bases, u: np.ndarray) -> np.ndarray:
    """Measure the sites ``sites[index]``, collapsing them in place.

    `index` is any numpy index that names each site at most once: the
    positions of one state, ``(rows, columns)`` of a batch, a block such as
    ``np.s_[:, :n]``, or ``...`` for every site. `bases` broadcasts against
    ``sites[index]``, and `u` holds one uniform variate per measured site,
    in that shape. Returns the outcomes as a uint8 array of that shape.
    """
    bases = np.asarray(bases, dtype=np.uint8)
    outcomes = _outcomes(sites[index], bases, u)
    sites[index] = 2 * bases + outcomes
    return outcomes


def measure_all_sites(sites: np.ndarray, basis: Basis, u: np.ndarray) -> np.ndarray:
    """`measure_sites` over every site, in one basis.

    The package itself calls `measure_sites`; this name stays because the
    span tracer in ``perfbench/tracer.py`` wraps it.
    """
    return measure_sites(sites, ..., basis, u)
