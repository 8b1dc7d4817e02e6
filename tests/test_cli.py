import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privdel
from privdel.cli import main


# Full outputs of seeded runs, pinned so that a reworded, reordered or
# re-rolled line fails a test, not only a missing substring.
DEMO_GOLDEN_STDOUT = """\
provable-deletion session: m=8 n=2 seed=3
  1. upload: message 11111010
     key: trap positions [7, 8], trap values 00
     integrity tag 58ec64918d018796 (one-time key 46a6e42832b300b1893f0dbcff405e08, kept by the user)
  2. encoded 10 qubits: traps in the diagonal basis, message bits rectilinear; state handed to the server
  3. eavesdropper [sample(r=4,uniform)] measured positions [3, 4, 5, 6] -> outcomes 1101
  4. deletion: server measures every qubit in the diagonal basis and announces 0100110001
  5. verify: announced trap bits 00 vs key 00 -> ACCEPTED
     the rectilinear message content is destroyed and the public announcement carries no trace of it
3 sessions: accepted 2, rejected fraction 0.3333
"""

DEMO_GOLDEN_JSONL = """\
{"accepted": true, "adversary": "sample(r=4,uniform)", "auth": {"key": "46a6e42832b300b1893f0dbcff405e08", "tag": "58ec64918d018796"}, "m": 8, "n": 2, "record": {"bases": "RRRR", "outcomes": "1101", "positions": [3, 4, 5, 6]}, "seed": 3, "task": "erasure"}
{"accepted": true, "adversary": "sample(r=4,uniform)", "auth": {"key": "b0e96b8de3ff8285c4eaa8dbaf2570bf", "tag": "3f004f547ce12eed"}, "m": 8, "n": 2, "record": {"bases": "RRRR", "outcomes": "0010", "positions": [2, 3, 8, 9]}, "seed": 3, "task": "erasure"}
{"accepted": false, "adversary": "sample(r=4,uniform)", "auth": {"key": "17f4f66d5de16ff8cedd560d7cc60e4a", "tag": "a8307e5524756520"}, "m": 8, "n": 2, "record": {"bases": "RRRR", "outcomes": "1010", "positions": [2, 3, 5, 7]}, "seed": 3, "task": "erasure"}
"""

SWEEP_GOLDEN = """\
m,n,task,adversary,r,trials,estimate,ci95,analytic,product,seed
10,2,storage,"sample(r=0,uniform)",0,2000,1.0,0.000958523640626467,1.0,,1926383459
10,2,storage,"sample(r=6,uniform)",6,2000,0.5315,0.021848644734557204,0.5568181818181829,,592467769
10,2,storage,"sample(r=12,uniform)",12,2000,0.2555,0.019101831095424664,0.25,,621272063
"""

BOUNDS_GOLDEN = """\
m,n,r,epsilon,exact,hoeffding_raw,hoeffding_clamped,mean_K
10,5,0,0.5,1.0,1.4142135623730951,1.0,0.0
10,5,0,2.0,1.0,4.0,1.0,0.0
10,5,5,0.5,0.378423659673659,2.2551241951420886,1.0,1.6666666666666667
10,5,5,2.0,0.378423659673659,1.663714085884184,1.0,1.6666666666666667
10,5,15,0.5,0.03125,1.978626374788171,1.0,5.0
10,5,15,2.0,0.03125,1.2982924390200636,1.0,5.0
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_keylen_output(capsys):
    code, out = run_cli(["keylen", "--m", "1000000", "--n", "32"], capsys)
    assert code == 0
    assert "exact_bits=552.147" in out
    assert "approx_bits=637.810" in out


def test_keylen_n_zero(capsys):
    code, out = run_cli(["keylen", "--m", "50", "--n", "0"], capsys)
    assert code == 0
    assert "exact_bits=0.0" in out


def test_bounds_firstbit_closed_forms(capsys):
    code, out = run_cli(["bounds", "--m", "90", "--n", "10", "--firstbit"], capsys)
    assert code == 0
    assert "cert=0.95" in out
    assert "advantage=0.225" in out


def test_bounds_table_columns(capsys):
    code, out = run_cli(
        ["bounds", "--m", "10", "--n", "5", "--r-list", "0,5,15", "--epsilon", "0.5,2"],
        capsys,
    )
    assert code == 0
    assert out == BOUNDS_GOLDEN


def test_cert_csv_row(capsys):
    code, out = run_cli(
        ["cert", "--m", "2", "--n", "1", "--r", "1", "--trials", "20000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["adversary"].startswith("sample")
    assert abs(float(row["estimate"]) - 5 / 6) < 0.02
    assert abs(float(row["analytic"]) - 5 / 6) < 1e-9


def test_cert_jsonl_format(capsys):
    code, out = run_cli(
        [
            "cert", "--m", "6", "--n", "2", "--trials", "500", "--seed", "1",
            "--format", "jsonl",
        ],
        capsys,
    )
    assert code == 0
    row = json.loads(out)
    assert row["estimate"] == 1.0
    assert row["adversary"] == "noop"


def assert_exits_two(args, capsys):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2, args
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    # the subcommand's own prog, on the usage line and the error line alike
    prog = f"privdel {args[0]}"
    if stderr.startswith("usage: "):
        assert stderr.startswith(f"usage: {prog} "), stderr
    assert re.match(rf"{re.escape(prog)}: error: ", stderr.splitlines()[-1]), stderr
    return stderr


def test_flag_errors_exit_two(capsys):
    for args in (
        ["cert", "--m", "0", "--n", "1"],
        ["cert", "--m", "4", "--n", "2", "--r", "9"],
        ["cert", "--m", "4", "--n", "2", "--adversary", "sample"],
        ["cert", "--m", "4", "--n", "2", "--adversary", "eavesdrop"],
        ["discr", "--m", "4", "--n", "2", "--legit", "0", "--trials", "10"],
        ["cert", "--m", "4", "--n", "2", "--trials", "0"],
        ["sweep", "--m-list", "4", "--n-list", "2", "--trials", "0"],
        ["discr", "--m", "4", "--n", "2", "--legit", "0102", "--trials", "10"],
        ["discr", "--n-grid", "1,2", "--ratio", "0", "--trials", "10"],
        ["bounds", "--m", "4", "--n", "2", "--epsilon", "0"],
        ["bounds", "--m", "5", "--n", "2", "--epsilon", "nan"],
        ["bounds", "--m", "5", "--n", "2", "--epsilon", "inf"],
        ["bounds", "--m", "4", "--n", "2", "--r-list", "0,7"],
        ["sweep", "--m-list", "5", "--n-list", "2", "--r-fracs", "inf", "--trials", "10"],
        ["discr", "--n-grid", "0,2", "--trials", "10"],
        ["discr", "--n-grid", "2,2", "--trials", "10"],
        ["discr", "--n-grid", "2,4", "--negl-exponent", "nan", "--trials", "10"],
        ["discr", "--n-grid", "2,4", "--negl-exponent", "inf", "--trials", "10"],
        ["keylen", "--m", "0", "--n", "3"],
        ["keylen", "--m", "-1", "--n", "3"],
        ["erasure-demo", "--repeat", "0"],
    ):
        assert_exits_two(args, capsys)


def test_batch_too_large_to_allocate_exits_two(monkeypatch, capsys):
    # refused from the size estimate alone: the shuffled sampler that would
    # allocate the (4096, m+n) rows is never reached
    from privdel import encoding

    def never_shuffle(*args):
        raise AssertionError("a refused batch must not be drawn")

    monkeypatch.setattr(encoding, "_shuffled_subsets", never_shuffle)
    for args in (
        ["cert", "--m", "1000000", "--n", "32", "--r", "1000000", "--trials", "4096"],
        # the sweep fails before its first, small point would draw
        ["sweep", "--m-list", "8,1000000", "--n-list", "32", "--trials", "4096"],
    ):
        assert_exits_two(args, capsys)


def test_out_of_memory_exits_two(monkeypatch, capsys):
    # a batch under the size estimate can still fail to allocate on a small machine
    from privdel import cli

    for error in (MemoryError(), MemoryError("Unable to allocate 2.00 GiB")):

        def run_cert(config, error=error):
            raise error

        monkeypatch.setattr(cli, "run_cert", run_cert)
        stderr = assert_exits_two(["cert", "--m", "90", "--n", "10", "--trials", "10"], capsys)
        assert stderr == f"privdel cert: error: {str(error) or 'out of memory'}\n"


@pytest.mark.parametrize(
    "content",
    [
        None,  # missing file
        "{not json",
        '{"m": 8, "n": 2, "trap_positions": [1, 4]}',
        '{"m": 8, "n": 2, "trap_positions": [1, 10], "trap_values": "01"}',
        '{"m": 8, "n": 2, "trap_positions": [-1, 4], "trap_values": "01"}',
        '[1, 4]',
        '{"m": 8, "n": 2, "trap_positions": [1.5, 4], "trap_values": "01"}',
        '{"m": 8, "n": 2, "trap_positions": ["1", "4"], "trap_values": "01"}',
        '{"m": 8, "n": 2, "trap_positions": [true, 4], "trap_values": "01"}',
        '{"m": 8.7, "n": 2, "trap_positions": [1, 4], "trap_values": "01"}',
    ],
    ids=[
        "missing", "bad-json", "missing-field", "past-end", "negative", "not-object",
        "float-position", "string-position", "bool-position", "float-m",
    ],
)
def test_bad_key_file_exits_two(tmp_path, capsys, content):
    key_path = tmp_path / "key.json"
    if content is not None:
        key_path.write_text(content)
    stderr = assert_exits_two(["erasure-demo", "--key-in", str(key_path)], capsys)
    assert len(stderr.splitlines()) == 1  # no usage block


def test_discr_reports_conditional_columns(capsys):
    code, out = run_cli(
        [
            "discr", "--m", "20", "--n", "4", "--adversary", "firstbit",
            "--trials", "4000", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(out.splitlines()))
    assert row["conditioned_on"] == "CERT"
    assert 0.0 <= float(row["estimate"]) <= 1.0
    assert int(row["accepted_trials"]) > 0


def test_discr_degenerate_exits_one(capsys):
    code, _ = run_cli(
        [
            "discr", "--m", "1", "--n", "20", "--adversary", "sample",
            "--r", "21", "--trials", "1", "--seed", "8",
        ],
        capsys,
    )
    assert code == 1


def test_discr_grid_rejects_single_point_flags(capsys):
    stderr = assert_exits_two(
        ["discr", "--n-grid", "2,4", "--adversary", "sample", "--r", "3", "--trials", "100"],
        capsys,
    )
    assert stderr.splitlines()[-1].endswith("does not take --adversary, --r")
    stderr = assert_exits_two(
        ["discr", "--n-grid", "2,4", "--m", "18", "--n", "2", "--legit", "0", "--prefix"],
        capsys,
    )
    assert stderr.splitlines()[-1].endswith("does not take --m, --n, --legit, --prefix")


def test_discr_grid_fits_the_product(capsys):
    code, out = run_cli(
        [
            "discr", "--n-grid", "2,4,8",
            "--ratio", "9", "--trials", "4000", "--seed", "5",
        ],
        capsys,
    )
    assert code == 0
    assert "security product ~ n^" in out
    assert "does NOT decay faster" in out


def test_demo_accepts_honestly(capsys):
    code, out = run_cli(["erasure-demo", "--m", "12", "--n", "3", "--seed", "5"], capsys)
    assert code == 0
    assert "ACCEPTED" in out
    assert "provable-deletion session" in out


def test_demo_transcript_file(tmp_path, capsys):
    out_path = tmp_path / "transcripts.jsonl"
    code, _ = run_cli(
        [
            "erasure-demo", "--m", "8", "--n", "2", "--seed", "1",
            "--repeat", "5", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 5
    row = json.loads(lines[0])
    assert set(row) == {"task", "seed", "m", "n", "adversary", "accepted", "record", "auth"}
    assert row["task"] == "erasure"
    assert len(row["auth"]["tag"]) == 16 and len(row["auth"]["key"]) == 32


def test_demo_golden_session_and_first_key(tmp_path, capsys):
    out_path = tmp_path / "transcripts.jsonl"
    key_path = tmp_path / "key.json"
    code, out = run_cli(
        [
            "erasure-demo", "--m", "8", "--n", "2", "--seed", "3", "--r", "4",
            "--repeat", "3", "--out", str(out_path), "--key-out", str(key_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == DEMO_GOLDEN_STDOUT
    assert out_path.read_text() == DEMO_GOLDEN_JSONL
    # the narrated first session's key, not a later session's
    assert key_path.read_text() == (
        '{"m": 8, "n": 2, "trap_positions": [7, 8], "trap_values": "00"}\n'
    )


def test_demo_key_persist_and_replay(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    code, out = run_cli(
        ["erasure-demo", "--m", "8", "--n", "2", "--seed", "3",
         "--key-out", str(key_path)],
        capsys,
    )
    assert code == 0
    persisted = json.loads(key_path.read_text())
    assert set(persisted) == {"m", "n", "trap_positions", "trap_values"}
    # the persisted key is the one the narrated session ran under
    assert f"trap positions {persisted['trap_positions']}, " in out
    code, out = run_cli(
        ["erasure-demo", "--key-in", str(key_path), "--seed", "3",
         "--message", "10110100"],
        capsys,
    )
    assert code == 0
    assert f"trap positions {persisted['trap_positions']}" in out
    assert "message 10110100" in out
    assert "ACCEPTED" in out


def test_demo_key_in_rejects_size_flags(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    key_path.write_text('{"m": 8, "n": 2, "trap_positions": [1, 4], "trap_values": "01"}')
    stderr = assert_exits_two(
        ["erasure-demo", "--key-in", str(key_path), "--m", "99", "--n", "7"], capsys
    )
    assert stderr.splitlines()[-1].endswith(
        "--key-in does not take --m, --n; the key sets m and n"
    )


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    args = [
        "sweep", "--m-list", "10", "--n-list", "2",
        "--r-list", "0,6,12", "--trials", "2000", "--seed", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text() == SWEEP_GOLDEN


def test_cert_reruns_a_sweep_row_from_its_own_columns(capsys):
    # each row carries the derived seed its point ran under
    for row in csv.DictReader(SWEEP_GOLDEN.splitlines()):
        code, out = run_cli(
            [
                "cert", "--m", row["m"], "--n", row["n"], "--r", row["r"],
                "--trials", row["trials"], "--seed", row["seed"],
            ],
            capsys,
        )
        assert code == 0
        assert next(csv.DictReader(out.splitlines())) == row


def test_sweep_rejects_a_bad_point_before_writing(tmp_path, capsys):
    out_path = tmp_path / "F"
    assert_exits_two(
        ["sweep", "--m-list", "4", "--n-list", "2", "--r-list", "9", "--out", str(out_path)],
        capsys,
    )
    assert not out_path.exists()


def test_out_writes_past_a_stale_temp_path(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").mkdir()  # debris where a fixed temp name would go
    code, _ = run_cli(
        ["cert", "--m", "4", "--n", "2", "--trials", "200", "--seed", "0",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.read_text().startswith("m,n,task,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIVDEL_OUT_DIR", str(tmp_path))
    code, _ = run_cli(
        ["cert", "--m", "4", "--n", "2", "--trials", "200", "--seed", "0",
         "--out", "report.csv"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "report.csv").exists()


def test_check_single_green_criterion(capsys):
    code, out = run_cli(["--check", "--only", "sampling_tail_bound"], capsys)
    assert code == 0
    assert out.startswith("PASS sampling_tail_bound")
    assert "1/1 criteria passed" in out


def test_check_single_red_criterion(capsys):
    code = main(["--check", "--only", "key_length"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "FAIL key_length: shorthand n*log2(m) = 637.8 is 15.51% from the exact "
        "552.1 bits (gate: 8%)",
        "0/1 criteria passed",
    ]
    # the elapsed time goes to stderr only, so stdout stays byte-identical
    assert re.fullmatch(r"key_length: \d+\.\d{3} s\n", captured.err)


def test_check_unknown_criterion(capsys):
    code = main(["--check", "--only", "nonsense"])
    assert code == 2
    assert capsys.readouterr().err == (
        "privdel --check: error: no criteria match ['nonsense']\n"
    )


def test_python_dash_m_runs_from_a_source_tree():
    # the directory holding the imported package, installed or not
    paths = [str(Path(privdel.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "privdel", "keylen", "--m", "10", "--n", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("keylen m=10 n=2: exact_bits=")


# -- the exit-code contract as a property ---------------------------------
#
# argv drawn from a grammar of every subcommand except --check, with small
# sizes and a bounded trial count; about one value in ten is a malformed
# token (empty, fractional, nan, inf, hex, a bare comma). The file flags
# (--out, --key-out, --key-in) name paths in a fresh temporary directory:
# a new file, a missing one, a directory in place of a file (the tests may
# run as root, who reads a chmod-000 file), a path under a file, malformed
# JSON and a valid key file.

_BAD = st.sampled_from(["", "x", "1.5", "nan", "inf", "-inf", "1e3", ",", "0x1"])


def _value(good, bad=_BAD):
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def _int(lo, hi):
    # mostly positive, sometimes lo..0
    return _value(st.integers(1, hi), st.integers(lo, 0))


def _ints(lo, hi):
    return _value(_int(lo, hi).map(str))


def _int_lists(lo, hi):
    items = st.lists(_int(lo, hi), min_size=1, max_size=3)
    return _value(items.map(lambda xs: ",".join(map(str, xs))))


def _choices(*names):
    return _value(st.sampled_from(names))


_FLOATS = ("0", "0.25", "0.5", "1", "2", "-1", "nan", "inf")
_FLOAT_LISTS = _value(
    st.lists(st.sampled_from(_FLOATS), min_size=1, max_size=3).map(",".join)
)
_BITS = _value(st.text("01", max_size=12))
_M, _N, _SEED, _TRIALS = _ints(-1, 12), _ints(-1, 6), _ints(-1, 5), _ints(-1, 200)

_ATTACK_FLAGS = {
    "--seed": _SEED,
    "--adversary": _choices("noop", "sample", "firstbit"),
    "--r": _ints(-1, 20),
    "--prefix": None,
}
_PATHS = st.sampled_from(
    ["new.csv", "missing.json", "a_dir", "sub/new.csv", "valid.json/under_a_file",
     "malformed.json", "valid.json"]
).map(lambda name: os.path.join("{dir}", name))
_OUTPUT_FLAGS = {
    "--task": _choices("storage", "erasure"),
    "--format": _choices("csv", "jsonl"),
    "--out": _PATHS,
}
# (command, flags always given, flags drawn); --trials is always given, so
# that every run stays small
_GRAMMAR = (
    ("cert", {"--m": _M, "--n": _N, "--trials": _TRIALS}, {**_ATTACK_FLAGS, **_OUTPUT_FLAGS}),
    (
        "discr",
        {"--m": _M, "--n": _N, "--trials": _TRIALS},
        {**_ATTACK_FLAGS, **_OUTPUT_FLAGS, "--legit": _BITS},
    ),
    (
        "discr",
        {"--n-grid": _int_lists(-1, 6), "--trials": _TRIALS},
        {
            **_OUTPUT_FLAGS,
            "--seed": _SEED,
            "--ratio": _ints(-1, 4),
            "--negl-exponent": _choices(*_FLOATS),
            "--m": _M,
            "--r": _ints(-1, 20),
        },
    ),
    (
        "erasure-demo",
        {},
        {
            **_ATTACK_FLAGS,
            "--m": _M,
            "--n": _N,
            "--repeat": _ints(-1, 3),
            "--message": _BITS,
            "--out": _PATHS,
            "--key-out": _PATHS,
            "--key-in": _PATHS,
        },
    ),
    (
        "bounds",
        {"--m": _M, "--n": _N},
        {
            "--r-list": _int_lists(-1, 20),
            "--epsilon": _FLOAT_LISTS,
            "--firstbit": None,
            "--format": _choices("csv", "jsonl"),
            "--out": _PATHS,
        },
    ),
    ("keylen", {"--m": _M, "--n": _N}, {}),
    (
        "sweep",
        {"--m-list": _int_lists(-1, 8), "--n-list": _int_lists(-1, 4), "--trials": _TRIALS},
        {
            **_OUTPUT_FLAGS,
            "--r-list": _int_lists(-1, 12),
            "--r-fracs": _FLOAT_LISTS,
            "--seed": _SEED,
        },
    ),
)


@st.composite
def _argv(draw):
    command, required, optional = draw(st.sampled_from(_GRAMMAR))
    drawn = []
    if optional:
        drawn = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4))
    flags = {**required, **optional}
    argv = [command]
    for flag in list(required) + drawn:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_every_drawn_argv_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "a_dir").mkdir()
        (Path(tmp) / "malformed.json").write_text("{not json")
        (Path(tmp) / "valid.json").write_text(
            '{"m": 8, "n": 2, "trap_positions": [1, 4], "trap_values": "01"}'
        )
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
