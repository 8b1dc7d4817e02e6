"""Command line front end: experiments, bound tables, key-length math, demos.

Subcommands
-----------
cert          Monte-Carlo estimate of P[certificate accepted]
discr         discrimination game, conditional on certification; optional
              n-grid mode that fits how the security product scales with n
erasure-demo  one annotated provable-deletion session (plus repeats)
bounds        exact-law/bound table, or the first-bit closed forms
keylen        exact and shorthand key length
sweep         grid of certification experiments to CSV/JSONL

A top-level `--check` runs the acceptance suite and prints one line per
criterion, with each criterion's elapsed seconds on stderr. Outputs are
written atomically; identical invocations produce byte-identical files.
Exit codes: 0 success, 1 degenerate result, 2 flag errors.

This module parses flags, enforces which flags go together, and prints.
Domain checks live in the library, and `main` turns its `ValueError` into
exit 2. The checks kept here guard a case the library accepts on purpose
or must run before `erasure-demo` starts narrating.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import acceptance, bounds
from .auth import auth_key_to_hex, generate_auth_key, tag, tag_to_hex
from .encoding import (
    as_bits,
    bits_to_string,
    encode,
    generate_key,
    key_from_json,
    key_length_bits,
    key_to_json,
    random_message,
)
from .experiments import (
    ExperimentConfig,
    REPORT_COLUMNS,
    report_row,
    run_cert,
    run_discr,
    stream_rng,
    sweep,
)
from .parties import (
    FirstBit,
    HONEST,
    NoOp,
    PositionChoice,
    RectilinearSample,
    Task,
    adversary_intervene,
    adversary_label,
    prover_respond,
    transcript_row,
    verify,
)

OUT_DIR_ENV = "PRIVDEL_OUT_DIR"


def _resolve_out(path_text: str) -> Path:
    path = Path(path_text)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _atomic_write(path: Path, text: str) -> None:
    """Write through a uniquely named sibling temp file, then rename over `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(out.fileno(), 0o666 & ~umask)  # the mode a plain open() gives
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render_rows(rows: list[dict], columns: Sequence[str], fmt: str) -> str:
    if fmt == "jsonl":
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(_resolve_out(out), text)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",") if x != ""]


def _add_common(
    parser: argparse.ArgumentParser, trials_default: int, sizes_required: bool = True
) -> None:
    parser.add_argument(
        "--m", type=int, required=sizes_required, help="message length"
    )
    parser.add_argument(
        "--n", type=int, required=sizes_required, help="number of trap bits"
    )
    parser.add_argument("--trials", type=int, default=trials_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--adversary",
        choices=("noop", "sample", "firstbit"),
        default=None,
        help="defaults to sample when --r is given, else noop",
    )
    parser.add_argument("--r", type=int, default=None, help="positions attacked by sample")
    parser.add_argument(
        "--prefix",
        action="store_true",
        help="sample the first r positions instead of a uniform subset",
    )
    parser.add_argument(
        "--task",
        choices=("storage", "erasure"),
        default="storage",
    )
    parser.add_argument("--out", default=None, help="output path (else stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _check_mn(parser: argparse.ArgumentParser, m: int, n: int) -> None:
    if m < 1 or n < 1:
        parser.error(f"need --m >= 1 and --n >= 1, got m={m}, n={n}")


def _adversary_from_args(parser: argparse.ArgumentParser, args) -> object:
    name = args.adversary
    if name is None:
        name = "sample" if args.r is not None else "noop"
    if name == "noop":
        return NoOp()
    if name == "firstbit":
        return FirstBit()
    if args.r is None:
        parser.error("--adversary sample requires --r")
    if args.r < 0 or args.r > args.m + args.n:
        parser.error(f"--r must lie in [0, m+n] = [0, {args.m + args.n}]")
    choice = (
        PositionChoice.PREFIX
        if args.prefix
        else PositionChoice.UNIFORM_WITHOUT_REPLACEMENT
    )
    return RectilinearSample(args.r, choice)


# --------------------------------------------------------------------------
# subcommands


def _config_from_args(parser, args) -> ExperimentConfig:
    return ExperimentConfig(
        m=args.m,
        n=args.n,
        task=Task(args.task),
        adversary=_adversary_from_args(parser, args),
        trials=args.trials,
        seed=args.seed,
    )


def _cmd_cert(parser, args) -> int:
    config = _config_from_args(parser, args)
    report = run_cert(config)
    _emit(_render_rows([report_row(config, report)], REPORT_COLUMNS, args.format), args.out)
    return 0


def _cmd_discr(parser, args) -> int:
    if args.n_grid:
        return _discr_grid(parser, args)
    if args.m is None or args.n is None:
        parser.error("--m and --n are required outside --n-grid mode")
    config = _config_from_args(parser, args)
    legit = args.legit if args.legit is not None else "0" * args.m
    report = run_discr(config, legit)
    row = report_row(config, report)
    row.update(
        {
            "conditioned_on": report.conditioned_on,
            "cert": report.cert_estimate,
            "unconditioned": report.unconditioned_estimate,
            "accepted_trials": report.accepted_trials,
        }
    )
    columns = list(REPORT_COLUMNS) + [
        "conditioned_on",
        "cert",
        "unconditioned",
        "accepted_trials",
    ]
    _emit(_render_rows([row], columns, args.format), args.out)
    return 1 if report.degenerate else 0


def _discr_grid(parser, args) -> int:
    """Fit how the security product scales with n at a fixed m/n ratio.

    Negligibility cannot be tested at a single n; instead the product is
    measured over an n-grid with m = ratio*n and a log-log slope is fitted.
    The protocol is insecure in the tested-attack sense when the product
    does not decay faster than n^(-c)."""
    given = [
        f"--{name}"
        for name in ("m", "n", "legit", "adversary", "r", "prefix")
        if getattr(args, name) != parser.get_default(name)
    ]
    if given:
        parser.error(f"--n-grid mode does not take {', '.join(given)}")
    ns = args.n_grid
    if len(set(ns)) < 2:
        parser.error("--n-grid needs at least two distinct n values")
    configs = [
        ExperimentConfig(
            m=args.ratio * n,
            n=n,
            task=Task(args.task),
            adversary=FirstBit(),
            trials=args.trials,
            seed=args.seed + index,
        )
        for index, n in enumerate(ns)
    ]
    rows = []
    products = []
    for config in configs:
        report = run_discr(config, "0" * config.m)
        if report.degenerate or not report.security_product or report.security_product <= 0:
            sys.stdout.write(f"degenerate point at n={config.n}; cannot fit\n")
            return 1
        products.append(report.security_product)
        rows.append(report_row(config, report))
    slope = float(np.polyfit(np.log(ns), np.log(products), 1)[0])
    decays_fast = slope < -args.negl_exponent
    _emit(_render_rows(rows, REPORT_COLUMNS, args.format), args.out)
    sys.stdout.write(
        f"security product ~ n^{slope:.3f} over n={ns} at m/n={args.ratio}; "
        f"{'decays faster' if decays_fast else 'does NOT decay faster'} "
        f"than n^-{args.negl_exponent}\n"
    )
    return 0


def _cmd_demo(parser, args) -> int:
    """Run annotated provable-deletion sessions, printing as they go.

    The first session is narrated step by step; with --repeat > 1 the rest
    run silently and an aggregate acceptance line is printed. A persisted
    key (and optionally a message) can be replayed instead of drawing
    fresh ones. --key-out writes the narrated session's key.
    """
    fixed_key = None
    if args.key_in is not None:
        given = [f"--{name}" for name in ("m", "n") if getattr(args, name) is not None]
        if given:
            parser.error(f"--key-in does not take {', '.join(given)}; the key sets m and n")
        fixed_key = key_from_json(json.loads(_resolve_out(args.key_in).read_text()))
        args.m, args.n = fixed_key.message_length, fixed_key.num_traps
    else:
        args.m = 16 if args.m is None else args.m
        args.n = 4 if args.n is None else args.n
    if args.message is not None and len(args.message) != args.m:
        parser.error(f"--message must have length m={args.m}")
    adversary = _adversary_from_args(parser, args)
    m, n, seed, repeat = args.m, args.n, args.seed, args.repeat
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    transcripts = []
    accepted_count = 0
    # the narrated session's tag is printed as it goes; the others are
    # tagged after the loop, in one batch
    messages, auth_keys = [], []
    for index in range(repeat):
        rng = stream_rng(seed, index)
        verbose = index == 0
        message = (
            as_bits(args.message) if args.message is not None else random_message(m, rng)
        )
        key = fixed_key if fixed_key is not None else generate_key(m, n, rng)
        auth_key = generate_auth_key(64, rng)
        messages.append(message)
        auth_keys.append(auth_key)
        if verbose:
            first_key = key
            narrated_tag = tag(message, auth_key)
            print(f"provable-deletion session: m={m} n={n} seed={seed}")
            print(f"  1. upload: message {bits_to_string(message)}")
            print(
                f"     key: trap positions {list(map(int, key.trap_positions))}, "
                f"trap values {bits_to_string(key.trap_values)}"
            )
            print(
                f"     integrity tag {tag_to_hex(narrated_tag)} "
                f"(one-time key {auth_key_to_hex(auth_key)}, kept by the user)"
            )
        state = encode(message, key)
        if verbose:
            print(
                f"  2. encoded {m + n} qubits: traps in the diagonal basis, "
                "message bits rectilinear; state handed to the server"
            )
        state, record = adversary_intervene(state, adversary, rng)
        if verbose:
            if len(record) == 0:
                print("  3. channel: no eavesdropping")
            else:
                print(
                    f"  3. eavesdropper [{adversary_label(adversary)}] measured "
                    f"positions {list(map(int, record.measured_positions))} -> "
                    f"outcomes {bits_to_string(record.outcomes)}"
                )
        cert = prover_respond(state, HONEST, Task.ERASURE, rng)
        if verbose:
            print(
                "  4. deletion: server measures every qubit in the diagonal "
                f"basis and announces {bits_to_string(cert.announced)}"
            )
        accepted, _ = verify(cert, key, rng)
        accepted_count += accepted
        if verbose:
            shown = bits_to_string(cert.announced[key.trap_positions])
            expected = bits_to_string(key.trap_values)
            verdict = "ACCEPTED" if accepted else "REJECTED"
            print(
                f"  5. verify: announced trap bits {shown} vs key {expected} "
                f"-> {verdict}"
            )
            if accepted:
                print(
                    "     the rectilinear message content is destroyed and the "
                    "public announcement carries no trace of it"
                )
        transcripts.append(
            transcript_row(Task.ERASURE, seed, m, n, adversary, accepted, record)
        )
    auth_tags = [narrated_tag]
    if repeat > 1:
        auth_tags += tag(messages[1:], auth_keys[1:])
    for row, auth_key, auth_tag in zip(transcripts, auth_keys, auth_tags, strict=True):
        row["auth"] = {"tag": tag_to_hex(auth_tag), "key": auth_key_to_hex(auth_key)}
    if repeat > 1:
        print(
            f"{repeat} sessions: accepted {accepted_count}, "
            f"rejected fraction {1 - accepted_count / repeat:.4f}"
        )
    if args.key_out is not None:
        _emit(json.dumps(key_to_json(first_key), sort_keys=True) + "\n", args.key_out)
    if args.out is not None:
        _emit(_render_rows(transcripts, (), "jsonl"), args.out)
    return 0


def _cmd_bounds(parser, args) -> int:
    _check_mn(parser, args.m, args.n)
    if args.firstbit:
        cert = bounds.firstbit_cert(args.m, args.n)
        advantage = bounds.firstbit_advantage(args.m, args.n)
        conditional = bounds.firstbit_conditional_success(args.m, args.n)
        sys.stdout.write(
            f"firstbit m={args.m} n={args.n}: cert={cert:.6g} "
            f"advantage={advantage:.6g} conditional_success={conditional:.6g} "
            f"product={cert * (conditional - 0.5):.6g}\n"
        )
        return 0
    total = args.m + args.n
    r_values = args.r_list if args.r_list else list(range(0, total + 1, max(1, total // 10)))
    epsilons = args.epsilon if args.epsilon else [0.1, 0.5, 1.0, 2.0, 5.0]
    rows = bounds.bounds_table(args.m, args.n, r_values, epsilons)
    _emit(_render_rows(rows, bounds.BOUNDS_TABLE_COLUMNS, args.format), args.out)
    return 0


def _cmd_keylen(parser, args) -> int:
    if args.m == 0 and args.n > 0:
        parser.error("--m must be >= 1 when --n >= 1: n*log2(m) is undefined at m=0")
    exact, approx = key_length_bits(args.m, args.n)
    rel = abs(approx - exact) / exact if exact else 0.0
    sys.stdout.write(
        f"keylen m={args.m} n={args.n}: exact_bits={exact!r} "
        f"approx_bits={approx!r} approx_rel_error={rel:.6f}\n"
    )
    return 0


def _cmd_sweep(parser, args) -> int:
    configs = [
        ExperimentConfig(
            m=m,
            n=n,
            task=Task(args.task),
            adversary=RectilinearSample(r),
            trials=args.trials,
        )
        for m in args.m_list
        for n in args.n_list
        for r in (args.r_list or sorted({round(f * (m + n)) for f in args.r_fracs}))
    ]
    rows = [report_row(c, rep) for c, rep in sweep(configs, master_seed=args.seed)]
    _emit(_render_rows(rows, REPORT_COLUMNS, args.format), args.out)
    return 0


def _run_check(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="privdel --check", description="run the acceptance suite"
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        help="criterion name (repeatable); default all",
    )
    args = parser.parse_args([a for a in argv if a != "--check"])
    try:
        checks = acceptance.select(args.only)
    except ValueError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    results = []
    for check in checks:
        start = time.perf_counter()
        results.append(check())
        sys.stderr.write(f"{results[-1].name}: {time.perf_counter() - start:.3f} s\n")
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status} {result.name}: {result.detail}\n")
    failed = sum(not r.passed for r in results)
    sys.stdout.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privdel",
        description="trap-qubit privacy certification: experiments and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("cert", help="estimate P[certificate accepted]")
    _add_common(p_cert, trials_default=100_000)

    p_discr = sub.add_parser("discr", help="discrimination game estimate")
    _add_common(p_discr, trials_default=200_000, sizes_required=False)
    p_discr.add_argument("--legit", default=None, help="candidate message bits")
    p_discr.add_argument(
        "--n-grid", type=_int_list, default=None, help="fit product decay over these n"
    )
    p_discr.add_argument("--ratio", type=int, default=9, help="m = ratio*n in grid mode")
    p_discr.add_argument(
        "--negl-exponent",
        type=_finite_float,
        default=1.0,
        help="compare the fitted decay against n^-c",
    )

    p_demo = sub.add_parser("erasure-demo", help="annotated provable-deletion session")
    p_demo.add_argument("--m", type=int, default=None, help="default 16; not with --key-in")
    p_demo.add_argument("--n", type=int, default=None, help="default 4; not with --key-in")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--adversary", choices=("noop", "sample", "firstbit"), default=None
    )
    p_demo.add_argument("--r", type=int, default=None)
    p_demo.add_argument("--prefix", action="store_true")
    p_demo.add_argument("--repeat", type=int, default=1)
    p_demo.add_argument("--out", default=None, help="write transcripts as JSON lines")
    p_demo.add_argument("--key-out", default=None, help="persist the session key as JSON")
    p_demo.add_argument("--key-in", default=None, help="replay a persisted key")
    p_demo.add_argument("--message", default=None, help="fixed message bits to encode")

    p_bounds = sub.add_parser("bounds", help="exact law and tail bound table")
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--r-list", type=_int_list, default=None)
    p_bounds.add_argument("--epsilon", type=_float_list, default=None)
    p_bounds.add_argument(
        "--firstbit", action="store_true", help="print the first-bit closed forms"
    )
    p_bounds.add_argument("--out", default=None)
    p_bounds.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_keylen = sub.add_parser("keylen", help="exact and shorthand key length")
    p_keylen.add_argument("--m", type=int, required=True)
    p_keylen.add_argument("--n", type=int, required=True)

    p_sweep = sub.add_parser("sweep", help="grid of certification experiments")
    p_sweep.add_argument("--m-list", type=_int_list, required=True)
    p_sweep.add_argument("--n-list", type=_int_list, required=True)
    p_sweep.add_argument("--r-list", type=_int_list, default=None)
    p_sweep.add_argument(
        "--r-fracs", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0]
    )
    p_sweep.add_argument("--trials", type=int, default=100_000)
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed")
    p_sweep.add_argument("--task", choices=("storage", "erasure"), default="storage")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    # each command reports flag errors against its own usage and prog
    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


_COMMANDS = {
    "cert": _cmd_cert,
    "discr": _cmd_discr,
    "erasure-demo": _cmd_demo,
    "bounds": _cmd_bounds,
    "keylen": _cmd_keylen,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--check" in argv:
        return _run_check(argv)
    args = build_parser().parse_args(argv)
    parser = args.command_parser
    try:
        return _COMMANDS[args.command](parser, args)
    except (ValueError, OSError) as exc:
        # domain errors from bad flag values or unusable files: exit 2, no traceback
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except MemoryError as exc:
        # a batch under the size estimate can still outgrow this machine's memory
        parser.exit(2, f"{parser.prog}: error: {str(exc) or 'out of memory'}\n")


if __name__ == "__main__":
    raise SystemExit(main())
