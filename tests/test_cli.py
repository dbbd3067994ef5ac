"""End-to-end tests of the command-line harness."""

import pytest

from sortlab.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from sortlab.bench import CSV_HEADER


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


def test_count_mode_is_byte_reproducible(tmp_path):
    args = ["bench", "--algo", "bcis,qs", "--dist", "k_distinct", "--k-param", "5",
            "--n", "64:256:2", "--trials", "3", "--seed", "99", "--mode", "count"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_deterministic_dists_default_to_one_trial(tmp_path):
    out = tmp_path / "sorted.csv"
    assert main(["bench", "--algo", "is", "--dist", "sorted", "--n", "100",
                 "--out", str(out)]) == EXIT_OK
    lines = [l for l in out.read_text().split("\n") if l]
    assert len(lines) == 2
    assert lines[1].startswith("is,sorted,100,")


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
        assert fields[6] == ""  # comparisons blank in time mode


def test_usage_errors():
    assert main(["bench", "--algo", "nope", "--dist", "uniform", "--n", "10",
                 "--out", "/tmp/x.csv"]) == EXIT_USAGE
    assert main(["bench", "--algo", "bcis", "--dist", "uniform", "--n", "abc",
                 "--out", "/tmp/x.csv"]) == EXIT_USAGE
    assert main(["bench", "--algo", "bcis", "--dist", "best_small", "--n", "500",
                 "--out", "/tmp/x.csv"]) == EXIT_USAGE  # invalid dataset spec
    assert main(["summary", "--in", "/tmp/none.csv", "--ratio", "bcisis",
                 "--metric", "comparisons"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


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
    ],
    ids=["foreign-header", "truncated-row", "non-integer", "non-utf8"],
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
