"""Protocol roles: verifier, prover and eavesdropper, for both variants.

A run is: the verifier encodes the message with a fresh key, the
eavesdropper may measure some positions in transit (intercept-resend;
collapse in place is physically identical to resending the measured
eigenstate), the prover produces a certificate, and the verifier checks
the traps. In the storage variant the certificate is the returned state;
in the erasure variant it is the public announcement of a full
diagonal-basis measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .encoding import (
    EncodedState,
    Message,
    SecretKey,
    as_bits,
    bits_to_string,
    decode_non_trap,
)
from .qubit import Basis, measure_all_sites, measure_sites


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


@dataclass(frozen=True, slots=True)
class NoOp:
    """Touch nothing."""


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


@dataclass(frozen=True, slots=True)
class FirstBit:
    """Measure only position 0 in the rectilinear basis."""


@dataclass(slots=True, eq=False)
class Custom:
    """Measure an explicit set of positions, each in its own basis.

    Positions not listed are skipped. Only the rectilinear and diagonal
    bases are allowed. Used for planted diagnostics (for example measuring
    exactly the non-trap positions).
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


AdversaryStrategy = Union[NoOp, RectilinearSample, FirstBit, Custom]


@dataclass(slots=True)
class EavesdropRecord:
    """Everything the adversary learned: positions, bases and outcomes."""

    measured_positions: np.ndarray
    measured_bases: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return self.measured_positions.size

    def rectilinear_outcome_at(self, position: int) -> Optional[int]:
        """The recorded rectilinear outcome at `position`, if one exists."""
        hit = np.flatnonzero(
            (self.measured_positions == position)
            & (self.measured_bases == Basis.RECTILINEAR)
        )
        if hit.size == 0:
            return None
        return int(self.outcomes[hit[0]])


_EMPTY_RECORD_ARGS = (
    np.empty(0, dtype=np.intp),
    np.empty(0, dtype=np.uint8),
    np.empty(0, dtype=np.uint8),
)


def attack_sites(
    strategy: AdversaryStrategy, total_length: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a strategy to (positions, bases) for a state of the given length."""
    if isinstance(strategy, NoOp):
        return _EMPTY_RECORD_ARGS[0], _EMPTY_RECORD_ARGS[1]
    if isinstance(strategy, FirstBit):
        if total_length < 1:
            raise ValueError("state is empty")
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.uint8)
    if isinstance(strategy, RectilinearSample):
        if strategy.r > total_length:
            raise ValueError(f"r={strategy.r} exceeds state length {total_length}")
        if strategy.position_choice is PositionChoice.PREFIX:
            pos = np.arange(strategy.r, dtype=np.intp)
        else:
            pos = np.sort(rng.permutation(total_length)[: strategy.r]).astype(np.intp)
        return pos, np.zeros(strategy.r, dtype=np.uint8)
    if isinstance(strategy, Custom):
        if strategy.positions.size and strategy.positions[-1] >= total_length:
            raise ValueError("custom position out of range")
        return strategy.positions, strategy.bases
    raise TypeError(f"unknown adversary strategy: {strategy!r}")


def adversary_intervene(
    state: EncodedState, strategy: AdversaryStrategy, rng: np.random.Generator
) -> tuple[EncodedState, EavesdropRecord]:
    """Apply an intercept-resend attack, disturbing the state in place.

    Each attacked position is measured once in the strategy's basis; the
    collapse is the resent state. Untouched positions pass through
    unchanged. Returns the (same) state and the adversary's record.
    """
    positions, bases = attack_sites(strategy, len(state), rng)
    if positions.size == 0:
        return state, EavesdropRecord(*_EMPTY_RECORD_ARGS)
    outcomes = measure_sites(state.sites, positions, bases, rng)
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
        return ErasureCert(measure_all_sites(state.sites, Basis.DIAGONAL, rng))
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
        outcomes = measure_sites(
            state.sites, key.trap_positions, Basis.DIAGONAL, rng
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

def discr_guess(
    record: EavesdropRecord, legit: Message, rng: np.random.Generator
) -> bool:
    """Guess whether the run carried the known candidate message.

    Rule: if position 0 was measured in the rectilinear basis, guess
    "legitimate" iff the recorded outcome equals the candidate's first bit,
    otherwise guess "dummy". Without that measurement the record carries no
    usable information here and the guess is a fair coin.
    """
    outcome = record.rectilinear_outcome_at(0)
    if outcome is None:
        return bool(rng.integers(0, 2))
    return outcome == int(legit[0])


# --------------------------------------------------------------------------
# transcript serialization

def adversary_label(strategy: AdversaryStrategy) -> str:
    if isinstance(strategy, NoOp):
        return "noop"
    if isinstance(strategy, RectilinearSample):
        return f"sample(r={strategy.r},{strategy.position_choice.value})"
    if isinstance(strategy, FirstBit):
        return "firstbit"
    if isinstance(strategy, Custom):
        return f"custom({strategy.positions.size})"
    return repr(strategy)


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
