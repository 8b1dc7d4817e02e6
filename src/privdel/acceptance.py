"""Acceptance suite: every headline property checked at its stated tolerance.

Each criterion is a function returning a `CriterionResult`; `select`
picks them by name, in run order. The same checks back the CLI `--check`
flag and the test suite, so one command reproduces all the headline
numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import auth, bounds
from ._engine import random_bits
from .encoding import key_length_bits
from .experiments import (
    ExperimentConfig,
    batches,
    run_cert,
    run_discr,
    runs_test_pvalue,
    stream_rng,
)
from .qubit import EIGENSTATES, Basis, measure_sites
from .parties import FirstBit, NonTraps, RectilinearSample, Task

SEED = 20260810


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


# --------------------------------------------------------------------------
# 1. noiseless correctness: honest runs always accept


def check_honest_correctness(trials: int = 100_000) -> CriterionResult:
    failures = []
    for m, n in ((10, 2), (100, 20), (1000, 50)):
        for task in (Task.STORAGE, Task.ERASURE):
            report = run_cert(
                ExperimentConfig(
                    m=m, n=n, task=task, trials=trials, seed=SEED + m + n
                )
            )
            if report.estimate != 1.0:
                failures.append((m, n, task.value, report.estimate))
    detail = (
        f"honest accepts {trials}/{trials} for all 6 (m,n,task) configurations"
        if not failures
        else f"non-unit acceptance at {failures}"
    )
    return CriterionResult("honest_correctness", not failures, detail)


# --------------------------------------------------------------------------
# 2. exact detection law for uniform rectilinear sampling


def _snap_probability(value: float) -> Fraction:
    """Map a squared overlap of conjugate-coding states to its exact value."""
    for exact in (Fraction(0), Fraction(1, 2), Fraction(1)):
        if abs(value - float(exact)) < 1e-9:
            return exact
    raise AssertionError(f"unexpected overlap probability {value!r}")


@functools.cache
def _trap_survival_factor() -> Fraction:
    """P[one measured trap still verifies], from the state geometry alone.

    Averages over the trap value and the adversary's outcome branches:
    branch probability |<rect_o|diag_t>|^2, then verifier match
    probability |<diag_t|rect_o>|^2. A constant, so it is computed once.
    """
    total = Fraction(0)
    for trap_value in (0, 1):
        trap_state = EIGENSTATES[Basis.DIAGONAL, trap_value]
        for outcome in (0, 1):
            rect_state = EIGENSTATES[Basis.RECTILINEAR, outcome]
            branch = _snap_probability(float(np.dot(rect_state, trap_state)) ** 2)
            match = _snap_probability(float(np.dot(trap_state, rect_state)) ** 2)
            total += Fraction(1, 2) * branch * match
    return total


@functools.cache
def _subset_counts(total: int) -> np.ndarray:
    """Read-only counts[n, r, h]: r-subsets of range(total) with h of its first
    n positions, from one walk over every subset as a bitmask."""
    side = total + 1
    bits = np.arange(1 << total)[:, None] >> np.arange(total) & 1
    hits = np.pad(bits.cumsum(axis=1), ((0, 0), (1, 0)))  # column n: hits among the first n
    cells = (np.arange(side) * side + hits[:, -1:]) * side + hits
    counts = np.bincount(cells.ravel(), minlength=side**3).reshape(side, side, side)
    counts.setflags(write=False)
    return counts


def enumerated_cert_fraction(m: int, n: int, r: int) -> Fraction:
    """Brute-force acceptance probability: every position choice, every branch.

    Traps sit at the first n positions (the uniform adversary choice makes
    the placement irrelevant); each r-subset contributes the product of
    per-trap survival factors, each factor itself enumerated from the
    Born-rule geometry. Exact integers, over the denominator q^(m+n) of p/q.
    """
    p, q = _trap_survival_factor().as_integer_ratio()
    per_hits = _subset_counts(m + n)[n, r].tolist()
    weighted = sum(c * p**h * q ** (m + n - h) for h, c in enumerate(per_hits))
    return Fraction(weighted, q ** (m + n) * sum(per_hits))


def check_sampling_exact_law(trials: int = 100_000) -> CriterionResult:
    problems = []
    # Monte Carlo against the closed form, 3 sigma at the exact p
    for m in (50, 100):
        for n in (10, 20):
            total = m + n
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                r = round(frac * total)
                p = bounds.cert_exact(m, n, r)
                sigma = math.sqrt(p * (1.0 - p) / trials)
                report = run_cert(
                    ExperimentConfig(
                        m=m,
                        n=n,
                        adversary=RectilinearSample(r),
                        trials=trials,
                        seed=SEED + 7 * m + 13 * n + r,
                    )
                )
                if abs(report.estimate - p) > 3.0 * sigma:
                    problems.append(
                        f"MC m={m} n={n} r={r}: {report.estimate} vs {p} (3s={3*sigma:.2e})"
                    )
    # exhaustive enumeration oracle, exact match for all m+n <= 12
    checked = 0
    for total in range(1, 13):
        for n in range(0, total + 1):
            m = total - n
            for r in range(0, total + 1):
                expected = enumerated_cert_fraction(m, n, r)
                if bounds.cert_exact_fraction(m, n, r) != expected:
                    problems.append(f"rational mismatch at m={m} n={n} r={r}")
                if abs(bounds.cert_exact(m, n, r) - float(expected)) > 1e-12:
                    problems.append(f"float mismatch at m={m} n={n} r={r}")
                checked += 1
    detail = (
        f"20 grid points within 3 sigma of the exact law; "
        f"enumeration oracle matched exactly at {checked} small instances"
        if not problems
        else "; ".join(problems[:4])
    )
    return CriterionResult("sampling_exact_law", not problems, detail)


# --------------------------------------------------------------------------
# 3. tail bound dominates the exact law


def check_sampling_tail_bound() -> CriterionResult:
    problems = []
    compared = 0
    for m in (50, 100):
        for n in (10, 20):
            total = m + n
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                r = round(frac * total)
                exact = bounds.cert_exact(m, n, r)
                for eps in (0.1, 0.5, 1.0, 2.0, 5.0):
                    raw = bounds.hoeffding_bound(m, n, r, eps).raw
                    if raw <= 1.0:
                        compared += 1
                        if exact > raw:
                            problems.append(
                                f"m={m} n={n} r={r} eps={eps}: exact {exact} > bound {raw}"
                            )
    detail = (
        f"exact law dominated by the raw bound at all {compared} non-vacuous grid points"
        if not problems
        else "; ".join(problems[:4])
    )
    return CriterionResult("sampling_tail_bound", not problems, detail)


# --------------------------------------------------------------------------
# 4. first-bit probe: acceptance, conditional advantage, security product


def check_firstbit_attack(trials: int = 1_000_000) -> CriterionResult:
    m, n = 90, 10
    legit = "0" * m
    report = run_discr(
        ExperimentConfig(
            m=m, n=n, adversary=FirstBit(), trials=trials, seed=SEED + 4
        ),
        legit,
    )
    cert_expected = bounds.firstbit_cert(m, n)  # 0.95
    adv_expected = bounds.firstbit_conditional_success(m, n) - 0.5  # 9/38
    product_expected = bounds.firstbit_advantage(m, n)  # 0.225, met with equality
    advantage = report.estimate - 0.5
    problems = []
    if abs(report.cert_estimate - cert_expected) > 0.01:
        problems.append(f"cert {report.cert_estimate:.4f} != {cert_expected} +-0.01")
    if abs(advantage - adv_expected) > 0.01:
        problems.append(f"advantage {advantage:.4f} != {adv_expected:.4f} +-0.01")
    if advantage < product_expected:
        # the conditional advantage must clear the closed-form floor
        problems.append(f"advantage {advantage:.4f} below floor {product_expected}")
    if abs(report.security_product - product_expected) > 0.01:
        problems.append(
            f"product {report.security_product:.4f} != {product_expected} +-0.01"
        )
    detail = (
        f"cert {report.cert_estimate:.4f} (ref {cert_expected}), "
        f"conditional advantage {advantage:.4f} (ref {adv_expected:.4f}), "
        f"security product {report.security_product:.4f} (ref {product_expected}); "
        f"{trials} trials"
        if not problems
        else "; ".join(problems)
    )
    return CriterionResult("firstbit_attack", not problems, detail)


# --------------------------------------------------------------------------
# 5. rectilinear transparency: reading every message bit goes undetected


def check_rectilinear_transparency(trials: int = 100_000) -> CriterionResult:
    """Storage runs at (100, 20) under `NonTraps`, through the engine.

    Every run must (a) read its whole message, (b) be accepted and (c)
    leave sites from which a rectilinear decode returns the message. The
    first failing run, and its first failing check, is reported by its
    trial index over all batches.
    """
    config = ExperimentConfig(100, 20, Task.STORAGE, NonTraps(), trials, SEED + 5)
    for start, rng, (inputs, accepted, outcomes, sites, _) in batches(config):
        coins = random_bits(rng, *sites.shape)
        decoded = measure_sites(sites, ..., Basis.RECTILINEAR, coins)
        # the message is the bits at the attacked positions, here all m of them
        failed = np.stack(
            [
                (outcomes != inputs.bits).any(axis=1),
                ~accepted,
                (decoded != inputs.bits).any(axis=1),
            ]
        )
        if failed.any():
            row = int(failed.any(axis=0).argmax())
            problem = ("adversary misread M", "rejected", "verifier misread M")[
                int(failed[:, row].argmax())
            ]
            return CriterionResult(
                "rectilinear_transparency", False, f"{problem} at trial {start + row}"
            )
    return CriterionResult(
        "rectilinear_transparency",
        True,
        f"adversary read M and passed certification in {trials}/{trials} runs",
    )


# --------------------------------------------------------------------------
# 6. honest erasure announcements are uniform off the traps


def check_erasure_randomness(pooled_bits: int = 1_000_000) -> CriterionResult:
    """Erasure runs at (100, 20) under `NonTraps`, through the engine.

    The snoop leaves every message site as it was (criterion 5), so the
    prover's diagonal announcements of the m attacked sites, with coins drawn
    after each batch off its stream, are an honest run's off the traps.
    """
    m, n = 100, 20
    trials = (pooled_bits + m - 1) // m
    chunks = []
    config = ExperimentConfig(m, n, Task.ERASURE, NonTraps(), trials, SEED + 6)
    for start, rng, (_, accepted, _, sites, _) in batches(config):
        if not accepted.all():
            return CriterionResult(
                "erasure_randomness",
                False,
                f"honest run rejected at trial {start + int(accepted.argmin())}",
            )
        coins = random_bits(rng, *sites.shape)
        chunks.append(measure_sites(sites, ..., Basis.DIAGONAL, coins))
    pool = np.concatenate(chunks, axis=None)[:pooled_bits]
    ones = float(pool.mean())
    tol = 3.0 / (2.0 * math.sqrt(pooled_bits))
    pvalue = runs_test_pvalue(pool)
    passed = abs(ones - 0.5) <= tol and pvalue >= 0.01
    return CriterionResult(
        "erasure_randomness",
        passed,
        f"ones fraction {ones:.5f} (0.5 +- {tol:.5f}), runs test p={pvalue:.3f} "
        f"over {pooled_bits} pooled bits",
    )


# --------------------------------------------------------------------------
# 7. key length accounting


def check_key_length() -> CriterionResult:
    m, n = 10**6, 32
    exact, approx = key_length_bits(m, n)
    oracle = n + math.log2(math.comb(m + n, n))  # exact integer arithmetic
    rel = abs(exact - oracle) / oracle
    approx_rel = abs(approx - exact) / exact
    zero = key_length_bits(m, 0).exact_bits
    problems = []
    if rel > 1e-9:
        problems.append(f"log-gamma value off by {rel:.2e} relative to integer oracle")
    if approx_rel > 0.08:
        # The shorthand n*log2(m) exceeds the exact length by
        # (log2(n!) - n) / exact, which is 15.5% at these sizes; the 8%
        # gate is kept as pinned and cannot pass before m ~ 1e11 at n=32.
        problems.append(
            f"shorthand n*log2(m) = {approx:.1f} is {approx_rel:.2%} from the exact "
            f"{exact:.1f} bits (gate: 8%)"
        )
    if zero != 0.0:
        problems.append(f"n=0 gave {zero}")
    detail = (
        f"exact {exact:.6f} bits vs integer oracle {oracle:.6f} "
        f"(rel {rel:.1e}); shorthand {approx:.1f} within {approx_rel:.2%}; n=0 -> 0"
        if not problems
        else "; ".join(problems)
    )
    return CriterionResult("key_length", not problems, detail)


# --------------------------------------------------------------------------
# 8. one-time MAC: exhaustive forgery bound and round trip


def _pack_rows(hashes: np.ndarray) -> np.ndarray:
    """One uint64 per row of 16 s=4 hashes: the hash under key k at nibble k."""
    shifts = np.arange(0, 64, 4, dtype=np.uint64)
    return np.bitwise_or.reduce(hashes.astype(np.uint64) << shifts, axis=1)


_NIBBLE_ONES = np.uint64(0x1111_1111_1111_1111)
_NIBBLE_LOW3 = np.uint64(0x7777_7777_7777_7777)
_NIBBLE_HIGH = np.uint64(0x8888_8888_8888_8888)


def _max_multiplicity_ok(pa: np.ndarray, pb: np.ndarray, limit: int) -> bool:
    """True iff no packed row pa[i] ^ pb[j] holds any nibble value more than `limit` times.

    A nibble of x is non-zero iff the high bit of ((x & 0x77..) + 0x77..) | x
    is set, so the nibbles equal to v in a row number 16 minus the popcount
    of those high bits in row ^ v*0x11..1.
    """
    for start in range(0, pa.size, 64):  # 64-row chunks: 2 MB temporaries at L=3
        y = pa[start : start + 64, None] ^ pb[None, :]
        for v in range(16):
            x = y ^ np.uint64(v) * _NIBBLE_ONES
            nonzero = ((x & _NIBBLE_LOW3) + _NIBBLE_LOW3 | x) & _NIBBLE_HIGH
            if (np.bitwise_count(nonzero) < 16 - limit).any():
                return False
    return True


def check_wegman_carter() -> CriterionResult:
    problems = []
    # every message of L = 1, 2, 3 data blocks: its blocks, the length block
    # 4L, then zeros up to 4 columns (trailing zero blocks leave a Horner
    # hash unchanged); packed[L] holds the hashes of the L-block messages
    classes = []
    for L in (1, 2, 3):
        blocks = np.zeros((16**L, 4), np.uint64)
        blocks[:, :L] = np.indices((16,) * L).reshape(L, -1).T
        blocks[:, L] = 4 * L
        classes.append(blocks)
    matrix = np.concatenate(classes)
    hashes = np.stack([auth.poly_hash(matrix, k, 4) for k in range(16)], axis=1)
    packed = dict(zip((1, 2, 3), np.split(_pack_rows(hashes), [16, 16 + 16**2])))

    # the sweeps take one row per class, so they rest on linearity: row i of
    # class L is its row 0 XOR (L=3 row i*16^(3-L) XOR L=3 row 0), and those
    # differences are XOR-spanned by the twelve one-bit L=3 rows
    data = packed[3] ^ packed[3][0]
    span = np.zeros(1, np.uint64)
    for bit in range(12):
        span = np.concatenate([span, span ^ data[1 << bit]])
    shared = all((packed[L] ^ packed[L][0] == data[:: 16 ** (3 - L)]).all() for L in (1, 2))
    if (span != data).any() or not shared:
        problems.append("poly_hash is not GF(2)-linear in the data blocks")

    # equal block counts: difference polynomials have degree <= L, so any
    # forgery (M', delta) succeeds for at most L of the 16 hash keys; the
    # all-zero message's row (the shared length term) against every other
    # row gives every nonzero data difference, by linearity
    for L in (1, 2, 3):
        if not _max_multiplicity_ok(packed[L][:1], packed[L][1:], L):
            problems.append(f"equal-length forgery beats {L}/16 bound at L={L}")

    # different block counts: the length blocks sit at different degrees,
    # so the difference has degree at most max(L)+1; by linearity, the
    # shorter class's row 0 gives the differences of each of its rows
    for l_small, l_big in ((1, 2), (1, 3), (2, 3)):
        limit = l_big + 1
        if not _max_multiplicity_ok(packed[l_small][:1], packed[l_big], limit):
            problems.append(
                f"cross-length forgery beats {limit}/16 bound at ({l_small},{l_big})"
            )

    # round-trip completeness at s=64, 1,000 pairs a batch: three draws (the
    # lengths, all the message bits, the keys), one tag and one verify call;
    # one batch of all 10,000 held ~5 MB more heap, on which the next
    # criterion's peak stacked
    rng = stream_rng(SEED + 8, 1)
    for start in range(0, 10_000, 1_000):
        ends = np.cumsum(rng.integers(1, 257, 1_000)).tolist()
        bits = rng.integers(0, 2, ends[-1], dtype=np.uint8)
        messages = [bits[begin:end] for begin, end in zip([0, *ends], ends)]
        keys = auth.generate_auth_key(64, rng, 1_000)
        verified = auth.verify_tag(messages, auth.tag(messages, keys), keys)
        if not verified.all():
            first = start + int(np.argmin(verified))
            problems.append(f"round trip failed at instance {first}")
            break

    # key size is two field elements regardless of message length
    rng = stream_rng(SEED + 8, 2)
    key = auth.generate_auth_key(64, rng)
    short_tag = auth.tag(np.ones(64, dtype=np.uint8), key)
    long_tag = auth.tag(np.ones(4096, dtype=np.uint8), key)
    if len(auth.auth_key_to_hex(key)) * 4 != 128 or short_tag.s != long_tag.s:
        problems.append("key material size depends on message length")

    detail = (
        "exhaustive s=4 forgery sweep respects the degree/16 key-fraction "
        "bound (L<=3, equal and mixed lengths); 10000/10000 round trips at "
        "s=64; key is 2 field elements for any message length"
        if not problems
        else "; ".join(problems[:4])
    )
    return CriterionResult("wegman_carter", not problems, detail)


# --------------------------------------------------------------------------

ALL_CHECKS: tuple[Callable[[], CriterionResult], ...] = (
    check_key_length,
    check_sampling_tail_bound,
    check_wegman_carter,
    check_sampling_exact_law,
    check_honest_correctness,
    check_rectilinear_transparency,
    check_erasure_randomness,
    check_firstbit_attack,
)


def select(names: Optional[Iterable[str]] = None) -> list[Callable[[], CriterionResult]]:
    """The criteria called `names`, in run order; every criterion when None."""
    if names is None:
        return list(ALL_CHECKS)
    wanted = set(names)
    checks = [c for c in ALL_CHECKS if c.__name__.removeprefix("check_") in wanted]
    if not checks:
        raise ValueError(f"no criteria match {sorted(wanted)}")
    return checks
