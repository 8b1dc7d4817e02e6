"""Exact single-qubit mechanics for conjugate-coding states.

Every state occurring in the trap-bit protocols is one of the four
conjugate-coding states, so a site is held symbolically as one uint8,
``2*basis + bit``: an exact single-qubit stabilizer description
(Aaronson & Gottesman, quant-ph/0406196). Measuring a site in its own
basis returns its bit; measuring it in the other basis returns a fair
coin. Either way the site collapses to the measured eigenstate.
Superpositions other than the four eigenstates, complex phases and
multi-qubit states are deliberately out of scope.

All randomness is drawn from an injected ``numpy.random.Generator`` so
that every run is reproducible from its seed.
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


def measure_sites(
    sites: np.ndarray,
    positions: np.ndarray,
    bases,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure selected sites of a site array, collapsing it in place.

    `sites` has shape (..., N); `positions` has shape (..., k) and indexes
    the site axis; `bases` broadcasts against `positions`. One uniform
    variate is consumed per measured site, in array order. Returns the
    outcomes as a uint8 array of the same shape as `positions`.
    """
    pos = np.asarray(positions, dtype=np.intp)
    b = np.broadcast_to(np.asarray(bases, dtype=np.uint8), pos.shape)
    stored = np.take_along_axis(sites, pos, axis=-1)
    outcomes = _outcomes(stored, b, rng.random(pos.shape))
    np.put_along_axis(sites, pos, 2 * b + outcomes, axis=-1)
    return outcomes


def measure_all_sites(
    sites: np.ndarray, basis: Basis, rng: np.random.Generator
) -> np.ndarray:
    """Measure every site of an (..., N) site array in one basis.

    Collapses in place; returns outcomes with shape (..., N). Equivalent to
    `measure_sites` over all positions but avoids building an index array.
    """
    outcomes = _outcomes(sites, int(basis), rng.random(sites.shape))
    sites[...] = 2 * int(basis) + outcomes
    return outcomes
