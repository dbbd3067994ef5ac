"""End-to-end tests of the command-line harness."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sortlab
from sortlab import TrialRecord, acceptance, bench, insertion_sort, write_csv
from sortlab.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from sortlab.bench import CSV_HEADER
from sortlab.datagen import KINDS, SAMPLED

from test_gate import loses_an_item_above


def test_bench_writes_trial_csv(tmp_path):
    out = tmp_path / "runs.csv"
    code = main(
        ["bench", "--algo", "bcis", "--dist", "uniform", "--n", "50,100",
         "--trials", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 + 1  # header, 2 sizes x 2 trials, trailing newline


def test_count_mode_csv_bytes_are_pinned(tmp_path):
    # Any change to a counter, a seed or the CSV format changes this digest.
    out = tmp_path / "k_distinct.csv"
    assert main(["bench", "--algo", "bcis,qs", "--dist", "k_distinct", "--k-param", "5",
                 "--n", "64:256:2", "--trials", "3", "--seed", "99", "--mode", "count",
                 "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "30f7d486f03249fd015a76979214ebb1942252f7ff7261e423d9eb48852ec354"
    )


def test_trials_default_to_20_for_sampled_kinds_else_1(tmp_path):
    for kind in KINDS:
        out = tmp_path / f"{kind}.csv"
        k_param = ["--k-param", "5"] if kind == "k_distinct" else []
        assert main(["bench", "--algo", "is", "--dist", kind, "--n", "99", *k_param,
                     "--out", str(out)]) == EXIT_OK
        rows = [l for l in out.read_text().split("\n") if l][1:]
        assert len(rows) == (20 if kind in SAMPLED else 1), kind
        assert all(row.startswith(f"is,{kind},99,") for row in rows), kind


def test_summary_ratio(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    main(["bench", "--algo", "bcis,is", "--dist", "uniform", "--n", "300",
          "--trials", "4", "--out", str(runs)])
    out = tmp_path / "summary.csv"
    assert main(["summary", "--in", str(runs), "--ratio", "bcis:is",
                 "--metric", "comparisons", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().split("\n")
    assert lines[0] == "n,numerator,denominator,metric,ratio,trials,dispersion"
    n, num, den, metric, ratio, trials, _ = lines[1].split(",")
    assert (n, num, den, metric, trials) == ("300", "bcis", "is", "comparisons", "4")
    assert 0 < float(ratio) < 1


def test_summary_of_zero_counts_is_a_usage_error(tmp_path, capsys):
    # n = 1 costs no comparisons, so bcis:qs has a zero denominator.
    runs = tmp_path / "eq.csv"
    assert main(["bench", "--algo", "bcis,qs", "--dist", "equal", "--n", "1,2",
                 "--out", str(runs)]) == EXIT_OK
    assert main(["summary", "--in", str(runs), "--ratio", "bcis:qs",
                 "--metric", "comparisons"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: dataset ('equal', 1, None)")
    assert err.count("\n") == 1


def test_fit_prints_slope(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    main(["bench", "--algo", "is", "--dist", "uniform", "--n", "100:1600:2",
          "--trials", "3", "--out", str(runs)])
    assert main(["fit", "--in", str(runs), "--algo", "is", "--dist", "uniform",
                 "--metric", "comparisons"]) == EXIT_OK
    slope = float(capsys.readouterr().out.strip())
    assert 1.8 <= slope <= 2.2


def test_timing_mode_records_elapsed(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["bench", "--algo", "qs", "--dist", "uniform", "--n", "200",
                 "--trials", "2", "--mode", "time", "--out", str(out)]) == EXIT_OK
    lines = [l for l in out.read_text().split("\n") if l]
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] != ""  # elapsed_ns
        assert all(fields[6:11])  # the counters are recorded too


def test_usage_errors(tmp_path):
    out, missing = str(tmp_path / "x.csv"), str(tmp_path / "none.csv")
    assert main(["bench", "--algo", "nope", "--dist", "uniform", "--n", "10",
                 "--out", out]) == EXIT_USAGE
    assert main(["bench", "--algo", "bcis", "--dist", "uniform", "--n", "abc",
                 "--out", out]) == EXIT_USAGE
    assert main(["bench", "--algo", "bcis", "--dist", "best_small", "--n", "500",
                 "--out", out]) == EXIT_USAGE  # invalid dataset spec
    assert main(["summary", "--in", missing, "--ratio", "bcisis",
                 "--metric", "comparisons"]) == EXIT_USAGE
    assert main(["bench", "--algo", "bcis", "--dist", "uniform", "--n", "10",
                 "--mode", "both", "--out", out]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["--algo", "is", "--dist", "k_distinct", "--k-param", "50", "--n", "400,10",
         "--trials", "5"],
        ["--algo", "is,heapsort", "--dist", "uniform", "--n", "100"],
        ["--algo", "is", "--dist", "uniform", "--n", "16,16", "--trials", "2"],
        ["--algo", "is,qs,is", "--dist", "uniform", "--n", "16", "--trials", "2"],
    ],
    ids=["invalid-later-size", "unknown-later-algo", "repeated-size", "repeated-algo"],
)
def test_bad_grid_is_a_usage_error_before_any_trial(tmp_path, monkeypatch, capsys, argv):
    calls = []

    def counting_is(seq):
        calls.append(len(seq))
        return insertion_sort(seq)

    monkeypatch.setitem(bench.ALGORITHMS, "is", counting_is)
    out = tmp_path / "x.csv"
    assert main(["bench", *argv, "--out", str(out)]) == EXIT_USAGE
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_bench_verification_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", loses_an_item_above(1))
    out = tmp_path / "x.csv"
    assert main(["bench", "--algo", "bcis", "--dist", "uniform", "--n", "10",
                 "--trials", "1", "--out", str(out)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert err.startswith("verification failure: bcis on ") and err.count("\n") == 1
    assert not out.exists()


def test_fit_without_the_metric_is_a_usage_error(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    assert main(["bench", "--algo", "is", "--dist", "uniform", "--n", "10,20,40",
                 "--trials", "1", "--out", str(runs)]) == EXIT_OK
    assert main(["fit", "--in", str(runs), "--algo", "is", "--dist", "uniform",
                 "--metric", "elapsed_ns"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: record is/uniform/n=10 trial 0 has no elapsed_ns (wrong mode?)\n"


def test_io_errors(tmp_path):
    assert main(["summary", "--in", str(tmp_path / "missing.csv"),
                 "--ratio", "bcis:is", "--metric", "comparisons"]) == EXIT_IO
    assert main(["bench", "--algo", "bcis", "--dist", "uniform", "--n", "10",
                 "--out", str(tmp_path / "nodir" / "x.csv")]) == EXIT_IO


@pytest.mark.parametrize(
    "content",
    [
        b"a,b,c\n1,2,3\n",  # foreign header
        (CSV_HEADER + "\nbcis,uniform,10,,1,0,5\n").encode(),  # truncated row
        (CSV_HEADER + "\nbcis,uniform,ten,,1,0,5,5,0,1,false,\n").encode(),  # n not an int
        CSV_HEADER.encode() + b"\nbcis,\xff\xfe,10,,1,0,5,5,0,1,false,\n",  # not UTF-8
        (CSV_HEADER + "\nbcis,uniform,10,,1,0,5,5,0,1,True,\n").encode(),  # not true/false
        (CSV_HEADER + "\nbcis,uniform,10,,1,0,,5,0,1,false,\n").encode(),  # no comparisons
        (CSV_HEADER + "\nbcis,normal,-64,,1,0,5,5,0,1,false,\n").encode(),  # invalid dataset
        (CSV_HEADER + "\nbcis,uniform,10,,1,0,-5,5,0,1,false,\n").encode(),  # negative counter
        (CSV_HEADER + "\nbcis,uniform,1_024,,1,0,5,5,0,1,false,\n").encode(),  # n not canonical
    ],
    ids=["foreign-header", "truncated-row", "non-integer", "non-utf8", "non-boolean",
         "blank-counter", "invalid-dataset", "negative-counter", "non-canonical-integer"],
)
@pytest.mark.parametrize("command", ["summary", "fit"])
def test_malformed_csv_is_an_io_error(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    args = {
        "summary": ["summary", "--ratio", "bcis:is", "--metric", "comparisons"],
        "fit": ["fit", "--algo", "bcis", "--dist", "uniform", "--metric", "comparisons"],
    }[command]
    assert main(args + ["--in", str(bad)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_field_error_names_its_line(tmp_path, capsys):
    rows = [TrialRecord("bcis", "uniform", 10, None, 1, t, 5, 5, 0, 1, False, None)
            for t in range(3)]
    runs = tmp_path / "runs.csv"
    with open(runs, "w", encoding="utf-8", newline="") as out:
        write_csv(rows, out)
    lines = runs.read_text(encoding="utf-8").split("\n")
    lines[2] = lines[2].replace(",5,5,0,1,", ",,5,0,1,")  # blank comparisons on line 3
    runs.write_text("\n".join(lines), encoding="utf-8")
    assert main(["summary", "--in", str(runs), "--ratio", "bcis:is",
                 "--metric", "comparisons"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"io error: cannot read {runs}: line 3: comparisons: must not be blank\n"


def _joined_bench_csv(tmp_path, *argvs):
    """Run ``bench`` once per argv and join the CSVs under one header."""
    lines = []
    for i, argv in enumerate(argvs):
        part = tmp_path / f"part{i}.csv"
        assert main(["bench", *argv, "--out", str(part)]) == EXIT_OK
        lines += part.read_text(encoding="utf-8").splitlines()[(i > 0):]
    joined = tmp_path / "joined.csv"
    joined.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return joined


def test_summary_of_two_datasets_is_a_usage_error(tmp_path, capsys):
    runs = _joined_bench_csv(
        tmp_path,
        ["--algo", "bcis,qs", "--dist", "uniform", "--n", "64", "--trials", "3"],
        ["--algo", "bcis,qs", "--dist", "reverse", "--n", "64"],
    )
    assert main(["summary", "--in", str(runs), "--ratio", "bcis:qs",
                 "--metric", "comparisons"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("usage error: records cover datasets "
                   "[('reverse', None), ('uniform', None)]; reduce one at a time\n")


def test_fit_over_two_k_params_is_a_usage_error(tmp_path, capsys):
    runs = _joined_bench_csv(
        tmp_path,
        *[["--algo", "bcis", "--dist", "k_distinct", "--k-param", k, "--n", "32:128:2",
           "--trials", "2"] for k in ("2", "20")],
    )
    assert main(["fit", "--in", str(runs), "--algo", "bcis", "--dist", "k_distinct",
                 "--metric", "comparisons"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("usage error: records cover datasets "
                   "[('k_distinct', 2), ('k_distinct', 20)]; reduce one at a time\n")


def test_summary_and_fit_reject_a_repeated_trial_alike(tmp_path, capsys):
    runs = _joined_bench_csv(
        tmp_path,
        *[["--algo", "bcis,qs", "--dist", "uniform", "--n", "64,128,256", "--trials", "2",
           "--seed", seed] for seed in ("0", "1")],
    )
    for argv in (["summary", "--ratio", "bcis:qs"], ["fit", "--algo", "bcis", "--dist", "uniform"]):
        assert main([*argv, "--in", str(runs), "--metric", "comparisons"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: dataset ('uniform', 64, None) has trial 0 twice for 'bcis'\n"


def test_closed_stdout_is_an_io_error(tmp_path):
    # Enough summary rows to overflow the pipe, so the writer is still
    # writing when the reader goes away.
    rows = [
        TrialRecord(algo, "uniform", n, None, 0, 0, n, n, 0, 1, False, None)
        for n in range(1, 3001)
        for algo in ("bcis", "qs")
    ]
    runs = tmp_path / "runs.csv"
    with open(runs, "w", encoding="utf-8", newline="") as out:
        write_csv(rows, out)
    env = dict(os.environ, PYTHONPATH=str(Path(sortlab.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sortlab.cli", "summary", "--in", str(runs),
         "--ratio", "bcis:qs", "--metric", "comparisons"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == EXIT_IO
    assert err.startswith("io error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_criteria_are_registered_once_in_order():
    assert [c.number for c in acceptance.CRITERIA] == list(range(1, 13))
    names = [c.name for c in acceptance.CRITERIA]
    assert len(set(names)) == len(names)
    assert [c.number for c in acceptance.CRITERIA if c.report_only] == [11]


def test_verify_reports_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setitem(bench.ALGORITHMS, "bcis", loses_an_item_above(1))
    monkeypatch.setattr(
        acceptance, "CRITERIA", [acceptance.check_sorted_bound, acceptance.check_cost_models]
    )
    assert main(["verify"]) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("FAIL   3. sorted-array bound: verification failure: bcis ")
    assert lines[1].startswith("PASS  10. cost-model units: ")
    assert "Traceback" not in captured.out + captured.err
