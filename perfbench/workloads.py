"""The four workloads: inputs from the seed, one cycle of requests, the gate.

A workload is a closed loop with one client: the benchmark sends the next
request of the cycle only when the previous one has returned. A cycle is a
fixed list of requests, so its wall time is comparable between runs and
commits. Each request is one public privdel call, or one protocol instance
made of several; its output is checked after the cycle's clock stops.

Why each workload exists is recorded in BENCHMARK.json under "workloads".
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import gate


@dataclass
class Request:
    label: str
    fn: Callable
    args: tuple
    #: protocol runs the request completes
    runs: int
    check: Callable[[object], bool]


class Workload:
    """Base: subclasses build `cycle(k)`; the gate pools into `tally`."""

    name = ""
    #: True when each request is one protocol run, so that its latency is a
    #: trial's latency; otherwise a trial's latency is its share of a cycle.
    #: Requests of the batched workloads mix configurations of unequal cost,
    #: and a percentile over them lands on the boundary between two of them.
    per_request_latency = False

    def __init__(self, pd: SimpleNamespace, seed: int) -> None:
        self.pd = pd
        self.seed = seed
        self.tally = gate.Tally()
        #: seconds spent inside requests on the benchmark's own untraced work
        self.glue_s = 0.0

    def cycle(self, k: int) -> list[Request]:
        raise NotImplementedError

    def warmup(self) -> None:
        request = self.cycle(0)[0]
        request.fn(*request.args)

    def _config_seed(self, k: int, j: int) -> int:
        return int(np.random.SeedSequence((self.seed, k, j)).generate_state(1)[0])


class _Batched(Workload):
    """Engine workloads: each request is one run_cert/run_discr of one batch."""

    m = n = 0
    #: trials per request, fixed here rather than read from the program so
    #: that every commit does the same work; equal to BATCH_TRIALS today
    trials = 4096

    def _cert(self, k, j, task, adversary, p) -> Request:
        ex = self.pd.experiments
        config = ex.ExperimentConfig(
            m=self.m,
            n=self.n,
            task=task,
            adversary=adversary,
            trials=self.trials,
            seed=self._config_seed(k, j),
        )
        key = ("cert", task.value, self.pd.parties.adversary_label(adversary))

        def check(report) -> bool:
            accepted = gate.count_of(report.estimate, report.trials)
            self.tally.add(key, p, accepted, report.trials)
            return (
                report.trials == self.trials
                and gate.same_reference(report.analytic_reference, p)
                and gate.within(accepted, report.trials, p)
            )

        return Request(
            f"{task.value}/{key[2]}", ex.run_cert, (config,), self.trials, check
        )


class Wide(_Batched):
    name = "wide"
    m, n, r = 1000, 50, 105

    def cycle(self, k: int) -> list[Request]:
        parties = self.pd.parties
        adversaries = (
            (parties.NoOp(), 1.0),
            (parties.RectilinearSample(self.r), gate.cert_exact(self.m, self.n, self.r)),
            (parties.FirstBit(), gate.firstbit_cert(self.m, self.n)),
        )
        requests = []
        for task in (parties.Task.STORAGE, parties.Task.ERASURE):
            for adversary, p in adversaries:
                requests.append(self._cert(k, len(requests), task, adversary, p))
        return requests


class Narrow(_Batched):
    name = "narrow"
    m, n, r = 90, 10, 50

    def __init__(self, pd, seed) -> None:
        super().__init__(pd, seed)
        self.legit = "0" * self.m
        self.p_cert = gate.firstbit_cert(self.m, self.n)
        self.p_cond = gate.firstbit_conditional(self.m, self.n)
        self.p_sample = gate.cert_exact(self.m, self.n, self.r)

    def _discr(self, k: int) -> Request:
        ex = self.pd.experiments
        config = ex.ExperimentConfig(
            m=self.m,
            n=self.n,
            adversary=self.pd.parties.FirstBit(),
            trials=self.trials,
            seed=self._config_seed(k, 0),
        )

        def check(report) -> bool:
            accepted = report.accepted_trials
            correct = gate.count_of(report.estimate, accepted)
            self.tally.add("discr/cert", self.p_cert, accepted, report.trials)
            self.tally.add("discr/conditional", self.p_cond, correct, accepted)
            return (
                gate.same_reference(report.analytic_reference, self.p_cond)
                and gate.within(accepted, report.trials, self.p_cert)
                and gate.within(correct, accepted, self.p_cond)
            )

        return Request(
            "discr/firstbit", ex.run_discr, (config, self.legit), self.trials, check
        )

    def cycle(self, k: int) -> list[Request]:
        parties = self.pd.parties
        return [
            self._discr(k),
            self._cert(k, 1, parties.Task.STORAGE, parties.RectilinearSample(self.r), self.p_sample),
            self._cert(k, 2, parties.Task.ERASURE, parties.NoOp(), 1.0),
        ]


class Instance(Workload):
    """Per-instance API, one `stream_rng(seed, i)` per protocol instance."""

    name = "instance"
    per_request_latency = True
    m, n, r = 100, 20, 24
    #: instances per cycle: a multiple of 4 adversaries x 2 tasks
    block = 256

    def __init__(self, pd, seed) -> None:
        super().__init__(pd, seed)
        parties = self.pd.parties
        t = self.n / (self.m + self.n)
        sampled = self.r / (self.m + self.n)
        reads_first = 1.0 - t / 2.0  # P[guess "legit"] when position 0 is read
        # (label, strategy or None for the non-trap snoop, P[accept], P[guess legit])
        self.adversaries = (
            ("noop", parties.NoOp(), 1.0, 0.5),
            (
                "sample",
                parties.RectilinearSample(self.r),
                gate.cert_exact(self.m, self.n, self.r),
                sampled * reads_first + (1.0 - sampled) * 0.5,
            ),
            ("firstbit", parties.FirstBit(), gate.firstbit_cert(self.m, self.n), reads_first),
            ("snoop", None, 1.0, reads_first),
        )
        self.tasks = (parties.Task.STORAGE, parties.Task.ERASURE)

    def run_instance(self, i: int):
        pd = self.pd
        enc, parties = pd.encoding, pd.parties
        strategy = self.adversaries[i % 4][1]
        task = self.tasks[(i // 4) % 2]
        rng = pd.experiments.stream_rng(self.seed, i)
        message = enc.random_message(self.m, rng)
        key = enc.generate_key(self.m, self.n, rng)
        state = enc.encode(message, key)
        if strategy is None:
            start = time.perf_counter()
            strategy = parties.Custom(key.non_trap_positions(), pd.qubit.Basis.RECTILINEAR)
            self.glue_s += time.perf_counter() - start
        state, record = parties.adversary_intervene(state, strategy, rng)
        cert = parties.prover_respond(state, parties.HONEST, task, rng)
        result = parties.verify(cert, key, rng)
        guess = parties.discr_guess(record, message, rng)
        return message, record, task, result, guess

    def _check(self, i: int) -> Callable[[object], bool]:
        label, _, p_accept, p_guess = self.adversaries[i % 4]

        def check(output) -> bool:
            message, record, task, result, guess = output
            accepted = bool(result.accepted)
            self.tally.add(("accept", label, task.value), p_accept, int(accepted), 1)
            self.tally.add(("guess", label), p_guess, int(bool(guess)), 1)
            if label == "snoop" and not np.array_equal(record.outcomes, message):
                return False
            if label in ("noop", "snoop"):
                if not accepted:
                    return False
                if task is self.tasks[0]:
                    return np.array_equal(result.recovered, message)
            return True

        return check

    def cycle(self, k: int) -> list[Request]:
        first = k * self.block
        return [
            Request(self.adversaries[i % 4][0], self.run_instance, (i,), 1, self._check(i))
            for i in range(first, first + self.block)
        ]


class Check(Workload):
    """Every acceptance criterion at a fixed size; the criteria fix their own seeds."""

    name = "check"
    #: size argument per criterion; each passes at these sizes, as at the
    #: defaults, except key_length, which has no size and is red by design
    SIZES = {
        "honest_correctness": {"trials": 4096},
        "sampling_exact_law": {"trials": 4096},
        "firstbit_attack": {"trials": 65536},
        "rectilinear_transparency": {"trials": 1000},
        "erasure_randomness": {"pooled_bits": 100_000},
    }
    #: protocol runs each criterion makes at SIZES
    RUNS = {
        "honest_correctness": 6 * 4096,
        "sampling_exact_law": 20 * 4096,
        "firstbit_attack": 65536,
        "rectilinear_transparency": 1000,
        "erasure_randomness": 1000,
    }
    EXPECTED_RED = frozenset({"key_length"})

    def __init__(self, pd, seed) -> None:
        super().__init__(pd, seed)
        self.names = [c.__name__.removeprefix("check_") for c in pd.acceptance.ALL_CHECKS]

    def cycle(self, k: int) -> list[Request]:
        acceptance = self.pd.acceptance
        requests = []
        for name in self.names:
            expected = name not in self.EXPECTED_RED

            def check(result, name=name, expected=expected) -> bool:
                return result.name == name and result.passed == expected

            fn = functools.partial(getattr(acceptance, "check_" + name), **self.SIZES.get(name, {}))
            requests.append(Request(name, fn, (), self.RUNS.get(name, 0), check))
        return requests


WORKLOADS = {w.name: w for w in (Wide, Narrow, Instance, Check)}
