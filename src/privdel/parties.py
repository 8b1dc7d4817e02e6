"""Protocol roles: verifier, prover and eavesdropper, for both variants.

A run is: the verifier encodes the message with a fresh key, the
eavesdropper may measure some positions in transit (intercept-resend;
collapse in place is physically identical to resending the measured
eigenstate), the prover produces a certificate, and the verifier checks
the traps. In the storage variant the certificate is the returned state;
in the erasure variant it is the public announcement of a full
diagonal-basis measurement.

These functions run one instance on its whole state. `_engine.run_batch`
runs t of them at once through the same pieces (the measurement rule in
`qubit`, the subset sampler, each adversary strategy's own `sites` draw
and `guess_legit`, the one guessing rule) but holds only each run's trap
and attacked sites and draws its stream in another order. So a batch
agrees with these runs in law; fed the draws of one of them, its kernel
returns that run's verdict and attack outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from . import bounds
from .encoding import (
    EncodedState,
    Message,
    SecretKey,
    as_bits,
    bits_to_string,
    decode_non_trap,
    uniform_subsets,
)
from .qubit import Basis, measure_sites


class Task(Enum):
    STORAGE = "storage"
    ERASURE = "erasure"

    def __str__(self) -> str:
        return self.value


class PositionChoice(Enum):
    UNIFORM_WITHOUT_REPLACEMENT = "uniform"
    PREFIX = "prefix"


# --------------------------------------------------------------------------
# adversary strategies
#
# A strategy is the one place that knows what it attacks: `sites(t, total,
# rng)` draws (t, k) row-sorted positions and their bases for t runs, or
# returns None when nothing is attacked. It also carries its report `label`,
# its `attacked` count and its closed-form references, where known.

AttackSites = Optional[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True, slots=True)
class NoOp:
    """Touch nothing."""

    label = "noop"
    attacked = 0

    def sites(self, t: int, total: int, rng: np.random.Generator) -> AttackSites:
        return None

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return 1.0

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return 0.5


@dataclass(frozen=True, slots=True)
class RectilinearSample:
    """Measure r distinct positions in the rectilinear basis.

    Positions are a uniform r-subset by default, or the first r positions
    with the prefix choice. Either way the overlap with the uniformly
    placed traps follows the same hypergeometric law.
    """

    r: int
    position_choice: PositionChoice = PositionChoice.UNIFORM_WITHOUT_REPLACEMENT

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("r must be non-negative")

    @property
    def label(self) -> str:
        return f"sample(r={self.r},{self.position_choice.value})"

    @property
    def attacked(self) -> int:
        return self.r

    def sites(self, t: int, total: int, rng: np.random.Generator) -> AttackSites:
        if self.r > total:
            raise ValueError(f"r={self.r} exceeds state length {total}")
        if self.r == 0:
            return None
        if self.position_choice is PositionChoice.PREFIX:
            positions = np.arange(self.r, dtype=np.intp)[None].repeat(t, axis=0)
        else:
            positions = uniform_subsets(t, total, self.r, rng)
        return positions, np.zeros((t, self.r), dtype=np.uint8)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        # any position choice made independently of the key gives the same
        # hypergeometric overlap law
        return bounds.cert_exact(m, n, self.r)

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return None


@dataclass(frozen=True, slots=True)
class FirstBit:
    """Measure only position 0 in the rectilinear basis."""

    label = "firstbit"
    attacked = 1

    def sites(self, t: int, total: int, rng: np.random.Generator) -> AttackSites:
        return np.zeros((t, 1), dtype=np.intp), np.zeros((t, 1), dtype=np.uint8)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return bounds.firstbit_cert(m, n)

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return bounds.firstbit_conditional_success(m, n)


@dataclass(slots=True, eq=False)
class Custom:
    """Measure an explicit set of positions, each in its own basis.

    Positions not listed are skipped. Only the rectilinear and diagonal
    bases are allowed. Used for planted diagnostics (for example measuring
    exactly the non-trap positions). Its acceptance law depends on the key,
    so it has no closed-form references.
    """

    positions: np.ndarray
    bases: np.ndarray

    def __init__(self, positions, bases) -> None:
        pos = np.asarray(positions, dtype=np.intp)
        b = np.asarray([Basis(x) for x in np.atleast_1d(bases)], dtype=np.uint8)
        if b.size == 1 and pos.size > 1:
            b = np.full(pos.size, b[0], dtype=np.uint8)
        if pos.size != b.size:
            raise ValueError("positions and bases must have equal length")
        if pos.size != np.unique(pos).size:
            raise ValueError("custom positions must be distinct")
        order = np.argsort(pos)
        self.positions = pos[order]
        self.bases = b[order]

    @property
    def label(self) -> str:
        return f"custom({self.positions.size})"

    @property
    def attacked(self) -> int:
        return self.positions.size

    def sites(self, t: int, total: int, rng: np.random.Generator) -> AttackSites:
        if self.positions.size and self.positions[-1] >= total:
            raise ValueError("custom position out of range")
        positions = self.positions[None].repeat(t, axis=0)
        return positions, self.bases[None].repeat(t, axis=0)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return None

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return None


AdversaryStrategy = Union[NoOp, RectilinearSample, FirstBit, Custom]


@dataclass(slots=True)
class EavesdropRecord:
    """Everything the adversary learned: positions (increasing), bases and outcomes."""

    measured_positions: np.ndarray
    measured_bases: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return self.measured_positions.size


_EMPTY_RECORD_ARGS = (
    np.empty(0, dtype=np.intp),
    np.empty(0, dtype=np.uint8),
    np.empty(0, dtype=np.uint8),
)


def adversary_intervene(
    state: EncodedState, strategy: AdversaryStrategy, rng: np.random.Generator
) -> tuple[EncodedState, EavesdropRecord]:
    """Apply an intercept-resend attack, disturbing the state in place.

    Each attacked position is measured once in the strategy's basis; the
    collapse is the resent state. Untouched positions pass through
    unchanged. Returns the (same) state and the adversary's record. The
    attack is row 0 of the strategy's t=1 draw.
    """
    attack = strategy.sites(1, len(state), rng)
    if attack is None:
        return state, EavesdropRecord(*_EMPTY_RECORD_ARGS)
    positions, bases = attack[0][0], attack[1][0]
    outcomes = measure_sites(state.sites, positions, bases, rng.random(positions.shape))
    return state, EavesdropRecord(positions, bases, outcomes)


# --------------------------------------------------------------------------
# prover strategies and certificates


@dataclass(frozen=True, slots=True)
class Honest:
    """Follow the protocol: return the state, or measure-and-announce."""


@dataclass(frozen=True, slots=True)
class BlindErasureGuess:
    """Fabricate an erasure announcement without touching the state.

    Announces uniform bits; passes verification with probability 2^-n.
    Exists to exercise the blind-guess floor, not as a protocol role.
    """


ProverStrategy = Union[Honest, BlindErasureGuess]

HONEST = Honest()


@dataclass(slots=True)
class StorageCert:
    returned: EncodedState


@dataclass(slots=True)
class ErasureCert:
    announced: np.ndarray


Certificate = Union[StorageCert, ErasureCert]


def prover_respond(
    state: EncodedState,
    strategy: ProverStrategy,
    task: Task,
    rng: np.random.Generator,
) -> Certificate:
    """Produce the privacy certificate for the given task.

    Honest storage returns the (possibly adversary-disturbed) state
    untouched. Honest erasure measures every position once in the diagonal
    basis and announces all outcomes in position order, as a single atomic
    announcement.
    """
    if isinstance(strategy, Honest):
        if task is Task.STORAGE:
            return StorageCert(state)
        sites = state.sites
        u = rng.random(sites.shape)
        return ErasureCert(measure_sites(sites, ..., Basis.DIAGONAL, u))
    if isinstance(strategy, BlindErasureGuess):
        if task is not Task.ERASURE:
            raise ValueError("BlindErasureGuess only applies to the erasure task")
        return ErasureCert(rng.integers(0, 2, len(state), dtype=np.uint8))
    raise TypeError(f"unknown prover strategy: {strategy!r}")


class VerifyResult(NamedTuple):
    accepted: bool
    recovered: Optional[Message]


def verify(
    certificate: Certificate, key: SecretKey, rng: np.random.Generator
) -> VerifyResult:
    """Check the certificate against the key.

    Storage: measure each trap position of the returned state in the
    diagonal basis, traps before anything else; accept iff all n outcomes
    equal the trap values, and only then decode the message positions.
    Erasure: accept iff the announced bits at the trap positions equal the
    trap values; all non-trap announcements are ignored.
    """
    if isinstance(certificate, StorageCert):
        state = certificate.returned
        if len(state) != key.total_length:
            raise ValueError("certificate length does not match key")
        positions = key.trap_positions
        outcomes = measure_sites(
            state.sites, positions, Basis.DIAGONAL, rng.random(positions.shape)
        )
        if not np.array_equal(outcomes, key.trap_values):
            return VerifyResult(False, None)
        return VerifyResult(True, decode_non_trap(state, key, rng))
    if isinstance(certificate, ErasureCert):
        announced = as_bits(certificate.announced)
        if announced.size != key.total_length:
            raise ValueError("certificate length does not match key")
        ok = bool(np.array_equal(announced[key.trap_positions], key.trap_values))
        return VerifyResult(ok, None)
    raise TypeError(f"unknown certificate type: {certificate!r}")


# --------------------------------------------------------------------------
# discrimination guessing

def guess_legit(
    positions: np.ndarray,
    bases: np.ndarray,
    outcomes: np.ndarray,
    first_bit: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The guessing rule over a trailing attack axis, one guess per leading index.

    A run that measured position 0 in the rectilinear basis guesses
    "legitimate" iff that outcome equals the candidate's first bit; any
    other run flips a fair coin. One uint8 coin per run is drawn, and only
    when some run needs one. Positions increase along the attack axis, as
    every strategy draws them, so position 0 can only be the first entry.
    """
    # size None draws the one coin of a single run as a scalar: same stream
    shape = positions.shape[:-1] or None
    if positions.shape[-1] == 0:
        return rng.integers(0, 2, shape, dtype=np.uint8).astype(bool)
    saw_zero = (positions[..., 0] == 0) & (bases[..., 0] == int(Basis.RECTILINEAR))
    guess = outcomes[..., 0] == first_bit
    if saw_zero.all():
        return guess
    coins = rng.integers(0, 2, shape, dtype=np.uint8).astype(bool)
    return np.where(saw_zero, guess, coins)


def discr_guess(
    record: EavesdropRecord, legit: Message, rng: np.random.Generator
) -> bool:
    """Guess whether the run carried the known candidate message (`guess_legit`)."""
    return bool(
        guess_legit(
            record.measured_positions,
            record.measured_bases,
            record.outcomes,
            int(legit[0]),
            rng,
        )
    )


# --------------------------------------------------------------------------
# transcript serialization

def adversary_label(strategy: AdversaryStrategy) -> str:
    return strategy.label


def record_to_json(record: EavesdropRecord) -> dict:
    return {
        "positions": [int(p) for p in record.measured_positions],
        "bases": "".join(
            "R" if b == Basis.RECTILINEAR else "D" for b in record.measured_bases
        ),
        "outcomes": bits_to_string(record.outcomes),
    }


def transcript_row(
    task: Task,
    seed: int,
    m: int,
    n: int,
    adversary: AdversaryStrategy,
    accepted: bool,
    record: EavesdropRecord,
) -> dict:
    """One protocol run as a JSON-lines ready object."""
    return {
        "task": task.value,
        "seed": int(seed),
        "m": int(m),
        "n": int(n),
        "adversary": adversary_label(adversary),
        "accepted": bool(accepted),
        "record": record_to_json(record),
    }
