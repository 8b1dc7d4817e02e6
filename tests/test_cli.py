import csv
import json
import re

import pytest

from privdel.cli import main


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
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 6
    assert set(rows[0]) == {
        "m",
        "n",
        "r",
        "epsilon",
        "exact",
        "hoeffding_raw",
        "hoeffding_clamped",
        "mean_K",
    }
    assert float(rows[0]["exact"]) == 1.0


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
    assert re.match(r"privdel( \S+)?: error: ", stderr.splitlines()[-1]), stderr
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
        ["keylen", "--m", "0", "--n", "3"],
        ["erasure-demo", "--repeat", "0"],
    ):
        assert_exits_two(args, capsys)


@pytest.mark.parametrize(
    "content",
    [
        None,  # missing file
        "{not json",
        '{"m": 8, "n": 2, "trap_positions": [1, 4]}',
        '{"m": 8, "n": 2, "trap_positions": [1, 10], "trap_values": "01"}',
        '{"m": 8, "n": 2, "trap_positions": [-1, 4], "trap_values": "01"}',
        '[1, 4]',
    ],
    ids=["missing", "bad-json", "missing-field", "past-end", "negative", "not-object"],
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
    rows = list(csv.DictReader(first.read_text().splitlines()))
    assert len(rows) == 3
    assert [row["r"] for row in rows] == ["0", "6", "12"]
    assert float(rows[0]["estimate"]) == 1.0


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
    code, out = run_cli(["--check", "--only", "key_length"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL key_length: shorthand n*log2(m) = 637.8 is 15.51% from the exact "
        "552.1 bits (gate: 8%)",
        "0/1 criteria passed",
    ]


def test_check_unknown_criterion(capsys):
    code, _ = run_cli(["--check", "--only", "nonsense"], capsys)
    assert code == 2
