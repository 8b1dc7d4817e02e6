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
returns that run's verdict and attack outcomes. A strategy's `sites` may
read the traps the engine has just drawn; here the attack has no key,
so a strategy that needs the traps (`NonTraps`) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from . import bounds
from .encoding import (
    Message,
    SecretKey,
    as_bits,
    bits_to_string,
    complement_subsets,
    decode_non_trap,
    uniform_subsets,
)
from .qubit import Basis, measure_sites


class Task(Enum):
    STORAGE = "storage"
    ERASURE = "erasure"


class PositionChoice(Enum):
    UNIFORM_WITHOUT_REPLACEMENT = "uniform"
    PREFIX = "prefix"


# --------------------------------------------------------------------------
# adversary strategies
#
# A strategy is the one place that knows what it attacks: `sites(t, total,
# rng, traps)` draws (t, k) row-sorted positions and their bases for t runs,
# or returns None when nothing is attacked. `traps` holds the runs' (t, n)
# row-sorted trap positions, or None when the attacker runs without a key;
# only a planted diagnostic reads them. A strategy also carries its report
# `label`, its `attacked(m, n)` count and its closed-form references, where
# known.

AttackSites = Optional[tuple[np.ndarray, np.ndarray]]
Traps = Optional[np.ndarray]


@dataclass(frozen=True, slots=True)
class NoOp:
    """Touch nothing."""

    label = "noop"

    def attacked(self, m: int, n: int) -> int:
        return 0

    def sites(
        self, t: int, total: int, rng: np.random.Generator, traps: Traps
    ) -> AttackSites:
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

    def attacked(self, m: int, n: int) -> int:
        return self.r

    def sites(
        self, t: int, total: int, rng: np.random.Generator, traps: Traps
    ) -> AttackSites:
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

    def attacked(self, m: int, n: int) -> int:
        return 1

    def sites(
        self, t: int, total: int, rng: np.random.Generator, traps: Traps
    ) -> AttackSites:
        return np.zeros((t, 1), dtype=np.intp), np.zeros((t, 1), dtype=np.uint8)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return bounds.firstbit_cert(m, n)

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return bounds.firstbit_conditional_success(m, n)


@dataclass(slots=True, eq=False)
class Custom:
    """Measure an explicit set of positions, each in its own basis.

    Positions not listed are skipped. Only the rectilinear and diagonal
    bases are allowed. Used for planted diagnostics at fixed positions.
    Each run draws a fresh key: a trap measured diagonally is never
    disturbed, and the fixed rectilinear positions hit a hypergeometric
    number of traps, so acceptance follows `cert_exact` over the count of
    rectilinear positions. The guess has no closed form.
    """

    positions: np.ndarray
    bases: np.ndarray

    def __init__(self, positions, bases) -> None:
        pos, b = np.asarray(positions), np.asarray(bases)
        if pos.ndim != 1 or b.ndim > 1:
            raise ValueError("custom positions must be 1-D, and bases 1-D or one basis")
        if pos.size and pos.dtype.kind not in "iu":
            raise ValueError("custom positions must be integers")
        b = np.asarray([Basis(x) for x in b.reshape(-1)], dtype=np.uint8)
        if b.size == 1:  # one basis, for every position, however many
            b = np.full(pos.size, b[0], dtype=np.uint8)
        if pos.size != b.size:
            raise ValueError("positions and bases must have equal length")
        order = np.argsort(pos)
        ordered = pos[order]
        if np.count_nonzero(ordered[1:] == ordered[:-1]):
            raise ValueError("custom positions must be distinct")
        if ordered.size and ordered[0] < 0:
            raise ValueError("custom positions must be non-negative")
        self.positions = ordered.astype(np.intp, copy=False)
        self.bases = b[order]

    @property
    def label(self) -> str:
        return f"custom({self.positions.size})"

    def attacked(self, m: int, n: int) -> int:
        return self.positions.size

    def sites(
        self, t: int, total: int, rng: np.random.Generator, traps: Traps
    ) -> AttackSites:
        if self.positions.size and self.positions[-1] >= total:
            raise ValueError("custom position out of range")
        positions = self.positions[None].repeat(t, axis=0)
        return positions, self.bases[None].repeat(t, axis=0)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return bounds.cert_exact(m, n, np.count_nonzero(self.bases == Basis.RECTILINEAR))

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return None


@dataclass(frozen=True, slots=True)
class NonTraps:
    """Measure the m non-trap positions of each run in the rectilinear basis.

    A planted diagnostic that knows the key: it reads the runs' traps, so
    only the engine, which has drawn them, can run it. It reads every
    message bit and, as the traps go untouched, is never detected.
    """

    label = "nontraps"

    def attacked(self, m: int, n: int) -> int:
        return m

    def sites(
        self, t: int, total: int, rng: np.random.Generator, traps: Traps
    ) -> AttackSites:
        if traps is None:
            raise ValueError("NonTraps must know the traps, and this attack has no key")
        positions = complement_subsets(traps, total)
        return positions, np.zeros(positions.shape, dtype=np.uint8)

    def analytic_cert(self, m: int, n: int) -> Optional[float]:
        return 1.0

    def analytic_discr(self, m: int, n: int) -> Optional[float]:
        return None


AdversaryStrategy = Union[NoOp, RectilinearSample, FirstBit, Custom, NonTraps]


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
    state: np.ndarray, strategy: AdversaryStrategy, rng: np.random.Generator
) -> tuple[np.ndarray, EavesdropRecord]:
    """Apply an intercept-resend attack, disturbing the state in place.

    Each attacked position is measured once in the strategy's basis; the
    collapse is the resent state. Untouched positions pass through
    unchanged. Returns the (same) state and the adversary's record. The
    attack is row 0 of the strategy's t=1 draw, made without the key, so a
    strategy that reads the traps (`NonTraps`) raises ValueError.
    """
    attack = strategy.sites(1, len(state), rng, None)
    if attack is None:
        return state, EavesdropRecord(*_EMPTY_RECORD_ARGS)
    positions, bases = attack[0][0], attack[1][0]
    outcomes = measure_sites(state, positions, bases, rng.random(positions.shape) >= 0.5)
    return state, EavesdropRecord(positions, bases, outcomes)


# --------------------------------------------------------------------------
# the prover and its certificates


@dataclass(frozen=True, slots=True)
class Honest:
    """Follow the protocol: return the state, or measure-and-announce."""


HONEST = Honest()


@dataclass(slots=True)
class StorageCert:
    returned: np.ndarray


@dataclass(slots=True)
class ErasureCert:
    announced: np.ndarray


Certificate = Union[StorageCert, ErasureCert]


def prover_respond(
    state: np.ndarray,
    strategy: Honest,
    task: Task,
    rng: np.random.Generator,
) -> Certificate:
    """Produce the privacy certificate for the given task.

    The prover follows the protocol (`HONEST`, the one strategy). Storage
    returns the (possibly adversary-disturbed) state untouched. Erasure
    measures every position once in the diagonal basis and announces all
    outcomes in position order, as a single atomic announcement.
    """
    if task is Task.STORAGE:
        return StorageCert(state)
    coins = rng.random(state.shape) >= 0.5
    return ErasureCert(measure_sites(state, ..., Basis.DIAGONAL, coins))


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
            state, positions, Basis.DIAGONAL, rng.random(positions.shape) >= 0.5
        )
        if not (outcomes == key.trap_values).all():
            return VerifyResult(False, None)
        return VerifyResult(True, decode_non_trap(state, key, rng))
    if isinstance(certificate, ErasureCert):
        announced = as_bits(certificate.announced)
        if announced.size != key.total_length:
            raise ValueError("certificate length does not match key")
        ok = bool((announced[key.trap_positions] == key.trap_values).all())
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
    rectilinear = int(Basis.RECTILINEAR)  # a numpy scalar == an IntEnum takes microseconds
    if positions.ndim == 1:  # one run, read as scalars; its coin is drawn as one
        if positions.size and positions[0] == 0 and bases[0] == rectilinear:
            return outcomes[0] == first_bit
        return rng.integers(0, 2, dtype=np.uint8) == 1
    shape = positions.shape[:-1]
    if positions.shape[-1] == 0:
        return rng.integers(0, 2, shape, dtype=np.uint8).astype(bool)
    saw_zero = (positions[..., 0] == 0) & (bases[..., 0] == rectilinear)
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
        "positions": np.asarray(record.measured_positions).tolist(),
        "bases": np.where(
            np.asarray(record.measured_bases) == Basis.RECTILINEAR, b"R", b"D"
        ).tobytes().decode("ascii"),
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
