"""privdel benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports privdel from its
`src/`; it exits with code 2 when that is missing. With `--trace 0` the last
stdout line is the JSON result with every end-to-end metric; with
`--trace 1` the run spends half its time untraced and half traced and the
last line has every per-layer metric. Lines before it list every metric by
name with its unit, the provenance and the gate's verdicts. `--workload all`
runs each workload in a fresh process and writes `.perfbench/BENCH_*.json`.
Metric definitions are in BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded, before numpy is imported

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("experiments", "_engine", "qubit", "encoding", "parties", "bounds", "auth", "acceptance")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: gate failures kept for printing; all of them are counted
MAX_ERRORS_SHOWN = 20
#: fresh-process budget per workload in `--workload all`
CHILD_TIMEOUT_S = 180


# -- set-up -----------------------------------------------------------------


def load_privdel() -> SimpleNamespace:
    """Import privdel afresh from the checkout's src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "privdel" or n.startswith("privdel.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("privdel")
    if Path(package.__file__).resolve().parent != SRC / "privdel":
        raise ImportError(f"privdel imported from {package.__file__}, not from {SRC}")
    pd = SimpleNamespace(package=package)
    for name in MODULES:
        try:
            setattr(pd, name.lstrip("_"), importlib.import_module(f"privdel.{name}"))
        except ModuleNotFoundError:
            pass  # a removed module shows as absent layer metrics
    return pd


def set_up(name: str, seed: int):
    """Import, build the inputs and make one warm-up call, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pd = load_privdel()
        workload = WORKLOADS[name](pd, seed)
        workload.warmup()
        times.append(time.perf_counter() - start)
    return pd, workload, statistics.median(times)


# -- timed body -----------------------------------------------------------------


class Phase:
    """Cycles run in a closed loop until `seconds` have passed."""

    def __init__(self) -> None:
        # latencies are packed doubles so that peak RSS does not grow with
        # the number of requests a faster program fits into the run
        self.cycle_wall: list[float] = []
        self.cycle_runs: list[int] = []
        self.trial_s = array("d")
        self.cycle_p50: list[float] = []
        self.by_label: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: the benchmark's own time inside cycles, timed directly: the loop
        #: around the requests plus the workload's `glue_s`
        self.bench_s = 0.0

    def run(self, workload, seconds: float, first_cycle: int, trace=None) -> int:
        clock = time.perf_counter
        k = first_cycle
        glue_start = workload.glue_s
        deadline = clock() + seconds
        while True:
            requests = workload.cycle(k)
            outputs = []
            cycle_start = clock()
            for op, request in enumerate(requests):
                if trace is not None:
                    trace.op_id = k * len(requests) + op
                start = clock()
                try:
                    out = request.fn(*request.args)
                except Exception as exc:  # noqa: BLE001 - a raising request is a failed operation
                    out = exc
                outputs.append((clock() - start, out))
            wall = clock() - cycle_start
            runs = sum(r.runs for r in requests)
            self.bench_s += wall - sum(latency for latency, _ in outputs)
            self.cycle_wall.append(wall)
            self.cycle_runs.append(runs)
            if workload.per_request_latency:
                latencies = [latency for latency, _ in outputs]
                self.trial_s.extend(latencies)
                self.cycle_p50.append(statistics.median(latencies))
            else:
                self.trial_s.append(wall / runs)
                self.cycle_p50.append(wall / runs)
            for request, (latency, out) in zip(requests, outputs):
                self.attempted += 1
                self.by_label.setdefault(request.label, array("d")).append(latency)
                if not self._passes(request, out):
                    self.failed += 1
            k += 1
            if clock() >= deadline:
                self.bench_s += workload.glue_s - glue_start
                return k

    def _passes(self, request, out) -> bool:
        if isinstance(out, Exception):
            return self._fail(f"{request.label}: {type(out).__name__}: {out}")
        try:
            ok = bool(request.check(out))
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its gate
            return self._fail(f"{request.label}: gate raised {type(exc).__name__}: {exc}")
        return ok or self._fail(f"{request.label}: output outside the gate")

    def _fail(self, message: str) -> bool:
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)
        return False

    def mean_wall(self) -> float:
        """Timed body per cycle. A mean, not a median: on a shared host the
        machine's speed shifts for tens of seconds at a time, and a mean over
        the run blends those spells where a median would jump between them."""
        return sum(self.cycle_wall) / len(self.cycle_wall)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    """p50 is each cycle's median averaged over the run, as wall_s is a mean;
    p99 needs the whole run's samples to keep ten beyond it."""
    p99 = np.percentile(np.asarray(phase.trial_s), 99)
    return {
        "trials_per_s": (sum(phase.cycle_runs) / sum(phase.cycle_wall), "1/s"),
        "wall_s": (phase.mean_wall(), "s"),
        "trial_us_p50": (statistics.fmean(phase.cycle_p50) * 1e6, "us"),
        "trial_us_p99": (float(p99) * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(trace: tracing.Tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    """Per-layer metrics, per traced cycle; also per-function errors for print only
    (failed calls reach the result line through `attempted` and `failed`)."""
    cycles = len(traced.cycle_wall)
    metrics: dict = {}
    errors: dict = {}
    for layer, _, fn in tracing.TARGETS:
        name = f"{layer}.{fn}"
        stats = trace.stats.get(name)
        if stats is None:
            continue
        metrics[f"{name}.calls"] = (stats.calls / cycles, "count")
        metrics[f"{name}.busy_s"] = (stats.busy_s / cycles, "s")
        metrics[f"{name}.self_s"] = (stats.self_s / cycles, "s")
        errors[f"{name}.errors"] = (stats.errors / cycles, "count")
    c = trace.counters
    trials = c.engine_trials + c.instance_trials
    metrics["engine.trials"] = (c.engine_trials / cycles, "count")
    metrics["experiments.batches"] = (c.batches / cycles, "count")
    metrics["qubit.sites_per_trial"] = (c.sites_measured / trials if trials else 0.0, "count")
    metrics["qubit.state_bytes_per_trial"] = (
        c.state_bytes / c.state_trials if c.state_trials else 0.0,
        "B",
    )
    metrics["qubit.decisive_site_ratio"] = (
        c.decisive_sites / c.sites_measured if c.sites_measured else 0.0,
        "ratio",
    )
    for layer, _, fn in tracing.TARGETS:
        if fn.startswith("check_"):
            criterion = fn.removeprefix("check_")
            samples = traced.by_label.get(criterion)
            metrics[f"acceptance.{criterion}.s"] = (statistics.median(samples) if samples else 0.0, "s")
    # what is left of the traced wall time after the self times and the
    # benchmark's own timed glue is the wrappers' time outside their spans
    # and any untimed code in the requests; accounted_frac shows its size
    wall_total = sum(traced.cycle_wall)
    self_total = sum(s.self_s for s in trace.stats.values())
    metrics["trace.wall_s"] = (traced.mean_wall(), "s")
    metrics["trace.overhead_s"] = (traced.mean_wall() - untraced.mean_wall(), "s")
    metrics["trace.bench_s"] = (traced.bench_s / cycles, "s")
    metrics["trace.accounted_frac"] = ((self_total + traced.bench_s) / wall_total, "ratio")
    return metrics, errors


# -- provenance and output ---------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, pd) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "batch_trials": getattr(getattr(pd, "experiments", None), "BATCH_TRIALS", None),
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")


# -- entry points ---------------------------------------------------------------


def run_one(args) -> int:
    if not (SRC / "privdel" / "__init__.py").is_file():
        sys.stderr.write(f"no privdel source under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    pd, workload, setup_s = set_up(args.workload, args.seed)
    print("provenance " + json.dumps(provenance(args, pd)))

    if not args.trace:
        phase = Phase()
        phase.run(workload, args.seconds, 0)
        metrics = end_to_end(phase, setup_s)
        extra = {}
    else:
        untraced = Phase()
        next_cycle = untraced.run(workload, args.seconds / 2.0, 0)
        trace = tracing.Tracer()
        trace.install()
        try:
            phase = Phase()
            phase.run(workload, args.seconds / 2.0, next_cycle, trace)
        finally:
            trace.restore()
        phase.attempted += untraced.attempted
        phase.failed += untraced.failed
        phase.errors += untraced.errors
        metrics, extra = per_layer(trace, phase, untraced)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        trace.write_spans(spans)
        print(f"spans {len(trace.spans)} kept, {trace.spans_dropped} dropped -> {spans}")
        print("absent " + json.dumps(trace.absent))
        print(f"counter hooks that failed: {trace.counter_failures}")

    final = workload.tally.failures()
    attempted = phase.attempted + len(workload.tally.cells)  # each pooled estimate is one more
    failed = phase.failed + len(final)
    correct = failed == 0
    print(f"{args.workload}: {len(phase.cycle_wall)} cycles, {len(phase.trial_s)} latency samples")
    for label, latencies in phase.by_label.items():
        print(f"  request {label:<40} median {statistics.median(latencies):.6g} s x{len(latencies)}")
    print_metrics({**metrics, **extra})
    print(f"  {'failed_frac':<52} {failed / attempted:>16.6g} ratio")
    for line in phase.errors + final:
        print(f"  gate: {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric; a BENCH file."""
    results = {}
    sources = {}
    status = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n")
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        sources[name] = next(
            (json.loads(line[11:]) for line in lines if line.startswith("provenance ")), None
        )
        status |= not results[name]["correct"]
    print(f"{'workload':<10} {'metric':<52} {'value':>16} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<52} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:<10} {'failed_frac':<52} {result['failed'] / result['attempted']:>16.6g} ratio")
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    bench = OUT / f"BENCH_{stamp}.json"
    record = {name: {"provenance": sources[name], **results[name]} for name in results}
    bench.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {bench}")
    print(json.dumps({
        "correct": not status,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
