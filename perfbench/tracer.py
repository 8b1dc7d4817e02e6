"""Span tracer that times calls into privdel's public functions from outside.

Each traced function is wrapped at every module attribute that binds it
(the defining module, each caller module that imported it by name, and the
package namespace), so calls made inside the package are caught as well as
calls made by the benchmark. `Tracer.restore` puts every original back.

A span records name, start, end, parent span and op id. Busy time is end
minus start; self time is busy time minus the busy time of the span's
direct children. Aggregates cover every span; the span log itself keeps
the first `SPAN_LOG_LIMIT` spans so memory stays bounded on long runs.
Work counts are taken from a call's arguments and result after its span
closes, so their small cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Spans kept verbatim for the log written at exit; aggregates see all spans.
SPAN_LOG_LIMIT = 50_000

#: (layer, defining module, function) for every traced function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiments", "privdel.experiments", "run_cert"),
    ("experiments", "privdel.experiments", "run_discr"),
    ("experiments", "privdel.experiments", "stream_rng"),
    ("engine", "privdel._engine", "run_batch"),
    ("qubit", "privdel.qubit", "measure_sites"),
    ("qubit", "privdel.qubit", "measure_all_sites"),
    ("encoding", "privdel.encoding", "random_message"),
    ("encoding", "privdel.encoding", "generate_key"),
    ("encoding", "privdel.encoding", "encode"),
    ("encoding", "privdel.encoding", "decode_non_trap"),
    ("parties", "privdel.parties", "adversary_intervene"),
    ("parties", "privdel.parties", "prover_respond"),
    ("parties", "privdel.parties", "verify"),
    ("parties", "privdel.parties", "discr_guess"),
    ("bounds", "privdel.bounds", "cert_exact"),
    ("bounds", "privdel.bounds", "cert_exact_fraction"),
    ("bounds", "privdel.bounds", "analytic_cert_probability"),
    ("auth", "privdel.auth", "tag"),
    ("auth", "privdel.auth", "verify_tag"),
    ("auth", "privdel.auth", "poly_hash"),
    ("acceptance", "privdel.acceptance", "check_honest_correctness"),
    ("acceptance", "privdel.acceptance", "check_sampling_exact_law"),
    ("acceptance", "privdel.acceptance", "check_sampling_tail_bound"),
    ("acceptance", "privdel.acceptance", "check_firstbit_attack"),
    ("acceptance", "privdel.acceptance", "check_rectilinear_transparency"),
    ("acceptance", "privdel.acceptance", "check_erasure_randomness"),
    ("acceptance", "privdel.acceptance", "check_key_length"),
    ("acceptance", "privdel.acceptance", "check_wegman_carter"),
    ("acceptance", "privdel.acceptance", "enumerated_cert_fraction"),
)


@dataclass
class FnStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class Counters:
    """Work counts taken from the arguments and results at layer boundaries."""

    engine_trials: int = 0
    batches: int = 0
    sites_measured: int = 0
    decisive_sites: int = 0
    instance_trials: int = 0
    state_bytes: int = 0
    state_trials: int = 0


@dataclass
class _Frame:
    span_id: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder; wraps module attributes until `restore`."""

    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, FnStats] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    spans: list[tuple] = field(default_factory=list)
    spans_dropped: int = 0
    top_busy_s: float = 0.0
    counter_failures: int = 0
    absent: list[str] = field(default_factory=list)
    op_id: int = 0
    _stack: list[_Frame] = field(default_factory=list)
    _next_span: int = 0
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- span arithmetic --------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run fn under a span named `name`; self time excludes child spans."""
        stats = self.stats[name]
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1].span_id if self._stack else -1
        frame = _Frame(span_id)
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stats.errors += 1
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            busy = end - start
            stats.calls += 1
            stats.busy_s += busy
            stats.self_s += busy - frame.child_s
            if self._stack:
                self._stack[-1].child_s += busy
            else:
                self.top_busy_s += busy
            if len(self.spans) < SPAN_LOG_LIMIT:
                self.spans.append((name, start, end, parent, self.op_id))
            else:
                self.spans_dropped += 1

    # -- installing wrappers ---------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every binding of each target in loaded privdel modules.

        A target that no longer exists is recorded in `absent` and skipped.
        """
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "privdel" or name.startswith("privdel."))
        ]
        for layer, module_name, fn_name in targets:
            name = f"{layer}.{fn_name}"
            home = sys.modules.get(module_name)
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self.stats[name] = FnStats()
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put back every original binding replaced by `install`."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if count is not None:
                try:
                    count(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # a changed signature leaves the counter short, not the run broken
                    tracer.counter_failures += 1
            return result

        return traced

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                out.write(json.dumps(span) + "\n")
            if self.spans_dropped:
                out.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


# -- counters at layer boundaries -------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _attacked(strategy) -> int:
    kind = type(strategy).__name__
    if kind == "FirstBit":
        return 1
    if kind == "RectilinearSample":
        return int(strategy.r)
    if kind == "Custom":
        return int(strategy.positions.size)
    return 0


def _count_run_batch(c: Counters, args, kwargs, result) -> None:
    n = _arg(args, kwargs, 1, "n")
    t = _arg(args, kwargs, 4, "t")
    c.engine_trials += t
    c.decisive_sites += t * (n + _attacked(_arg(args, kwargs, 3, "adversary")))


def _count_measure_sites(c: Counters, args, kwargs, result) -> None:
    amplitudes = _arg(args, kwargs, 0, "amplitudes")
    c.sites_measured += int(result.size)
    c.state_bytes += amplitudes.nbytes
    c.state_trials += math.prod(amplitudes.shape[:-2])  # 1 for one unbatched state


def _count_encode(c: Counters, args, kwargs, result) -> None:
    c.instance_trials += 1
    c.decisive_sites += _arg(args, kwargs, 1, "key").num_traps


def _count_intervene(c: Counters, args, kwargs, result) -> None:
    c.decisive_sites += len(result[1])


def _count_batches(c: Counters, args, kwargs, result) -> None:
    trials = _arg(args, kwargs, 0, "config").trials
    c.batches += -(-trials // sys.modules["privdel.experiments"].BATCH_TRIALS)


_COUNT_HOOKS = {
    "engine.run_batch": _count_run_batch,
    "qubit.measure_sites": _count_measure_sites,
    "qubit.measure_all_sites": _count_measure_sites,
    "encoding.encode": _count_encode,
    "parties.adversary_intervene": _count_intervene,
    "experiments.run_cert": _count_batches,
    "experiments.run_discr": _count_batches,
}
