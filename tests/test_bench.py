"""Unit tests for the benchmark harness."""

import io
import re
from dataclasses import replace

import pytest

from sortlab import (
    ALGORITHMS,
    CSV_HEADER,
    DatasetSpec,
    SummaryRow,
    TrialRecord,
    VerificationError,
    bcis_sort,
    bench,
    fit_scaling_exponent,
    ratio_table,
    read_csv,
    run_suite,
    run_trial,
    write_csv,
)
from sortlab.bench import _verify


def _record(algo="bcis", n=100, trial=0, comparisons=10, assignments=5, **kw):
    defaults = dict(
        algo=algo,
        dist="uniform",
        n=n,
        k_param=None,
        seed=1,
        trial=trial,
        comparisons=comparisons,
        assignments=assignments,
        swaps=1,
        sort_trips=2,
        terminated_by_equal=False,
        elapsed_ns=None,
    )
    defaults.update(kw)
    return TrialRecord(**defaults)


class TestRunTrial:
    def test_time_mode(self, monkeypatch):
        # A time trial records what the count trial of the same spec does,
        # plus its elapsed time; each trial, in either mode, sorts once.
        spec = DatasetSpec("k_distinct", 200, k_param=5, seed=1)
        for algo, sort in list(ALGORITHMS.items()):
            calls = []

            def counted(seq, sort=sort):
                calls.append(len(seq))
                return sort(seq)

            monkeypatch.setitem(bench.ALGORITHMS, algo, counted)
            timed = run_trial(algo, spec, "time")
            assert calls == [200]
            assert timed.elapsed_ns is not None and timed.elapsed_ns > 0
            assert replace(timed, elapsed_ns=None) == run_trial(algo, spec, "count")
            assert calls == [200, 200]

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            run_trial("heapsort", DatasetSpec("uniform", 10), "count")

    def test_verifier_catches_corruption(self):
        with pytest.raises(VerificationError, match="^bcis on uniform 3: "):
            _verify([1, 2, 3], [3, 2, 1], "bcis on uniform 3")
        with pytest.raises(VerificationError, match="^bcis on uniform 3: "):
            _verify([1, 2, 3], [1, 2, 4], "bcis on uniform 3")


class TestRunSuite:
    def test_trial_seeds_distinct(self):
        records = run_suite([("bcis", DatasetSpec("uniform", 50), 3)])
        assert len(records) == 3
        assert len({r.seed for r in records}) == 3
        assert [r.trial for r in records] == [0, 1, 2]

    def test_deterministic(self):
        grid = [("is", DatasetSpec("uniform", 80), 2)]
        assert run_suite(grid, base_seed=7) == run_suite(grid, base_seed=7)
        assert run_suite(grid, base_seed=7) != run_suite(grid, base_seed=8)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            run_suite([])

    @pytest.mark.parametrize(
        "bad, mode",
        [
            (("heapsort", DatasetSpec("uniform", 10), 1), "count"),
            (("bcis", DatasetSpec("uniform", 10), 0), "count"),
            (("bcis", DatasetSpec("uniform", 10), 1), "both"),
            (("bcis", DatasetSpec("uniform", 50, seed=3), 1), "count"),
        ],
        ids=["unknown-algo", "no-trials", "unknown-mode", "repeated-cell"],
    )
    def test_bad_grid_runs_no_trial(self, monkeypatch, bad, mode):
        calls = []

        def counting_bcis(seq):
            calls.append(len(seq))
            return bcis_sort(seq)

        monkeypatch.setitem(bench.ALGORITHMS, "bcis", counting_bcis)
        with pytest.raises(ValueError):
            run_suite([("bcis", DatasetSpec("uniform", 50), 2), bad], mode=mode)
        assert calls == []


class TestRatioTable:
    def test_identical_records_give_unit_ratio(self):
        records = [_record(algo=a, trial=t) for a in ("bcis", "is") for t in range(4)]
        rows = ratio_table(records, "bcis", "is", "comparisons")
        assert len(rows) == 1
        assert rows[0].ratio == 1.0
        assert rows[0].trials == 4
        assert rows[0].dispersion == 0.0

    def test_symmetry(self):
        records = [
            _record(algo=a, trial=t, comparisons=c)
            for a, cs in (("bcis", (10, 12, 9)), ("is", (100, 95, 105)))
            for t, c in enumerate(cs)
        ]
        fwd = ratio_table(records, "bcis", "is", "comparisons")[0].ratio
        back = ratio_table(records, "is", "bcis", "comparisons")[0].ratio
        assert abs(fwd * back - 1) < 1e-9

    def test_missing_counterpart(self):
        with pytest.raises(ValueError):
            ratio_table([_record(algo="bcis")], "bcis", "is", "comparisons")

    def test_missing_metric(self):
        # Count records carry no elapsed_ns.
        records = [_record(algo=a) for a in ("bcis", "is")]
        with pytest.raises(ValueError, match="has no elapsed_ns"):
            ratio_table(records, "bcis", "is", "elapsed_ns")

    def test_pairs_trials_by_id(self):
        records = [
            _record(algo="bcis", trial=t, comparisons=c)
            for t, c in ((0, 10), (1, 20), (2, 30))
        ] + [_record(algo="is", trial=t, comparisons=10) for t in (1, 2, 3)]
        (row,) = ratio_table(records, "bcis", "is", "comparisons")
        assert row.ratio == 2.0  # means over every record of each side
        assert row.trials == 2  # trial ids 1 and 2: ratios 2 and 3
        assert row.dispersion == pytest.approx(0.5**0.5)

    def test_repeated_trial_id(self):
        records = [_record(algo="bcis"), _record(algo="bcis"), _record(algo="is")]
        with pytest.raises(ValueError, match="trial 0 twice"):
            ratio_table(records, "bcis", "is", "comparisons")

    @pytest.mark.parametrize(
        "datasets, named",
        [
            ((("uniform", None), ("reverse", None)), "('reverse', None), ('uniform', None)"),
            ((("k_distinct", 2), ("k_distinct", 20)), "('k_distinct', 2), ('k_distinct', 20)"),
        ],
        ids=["two-dists", "two-k-params"],
    )
    def test_mixed_datasets(self, datasets, named):
        records = [
            _record(algo=a, dist=d, k_param=k) for a in ("bcis", "is") for d, k in datasets
        ]
        with pytest.raises(ValueError, match=re.escape(f"records cover datasets [{named}]")):
            ratio_table(records, "bcis", "is", "comparisons")
        # Records of an algorithm outside the ratio are not selected.
        other = [_record(algo="qs", dist="sorted")]
        one_dataset = [r for r in records if (r.dist, r.k_param) == datasets[0]]
        assert len(ratio_table(one_dataset + other, "bcis", "is", "comparisons")) == 1

    def test_end_to_end_counts(self):
        grid = [
            (algo, DatasetSpec("uniform", n), 5)
            for algo in ("bcis", "is")
            for n in (200, 400)
        ]
        rows = ratio_table(run_suite(grid), "bcis", "is", "comparisons")
        assert [r.n for r in rows] == [200, 400]
        assert all(0 < r.ratio < 1 for r in rows)


class TestFitScalingExponent:
    def test_exact_square(self):
        assert fit_scaling_exponent([(10, 100), (100, 10**4), (1000, 10**6)]) == pytest.approx(2.0)

    def test_exact_linear(self):
        assert fit_scaling_exponent([(2, 2), (4, 4), (8, 8)]) == pytest.approx(1.0)

    def test_model_slope(self):
        from sortlab import models

        points = [(2**e, models.bcis_avg_comparisons(2**e)) for e in range(10, 21)]
        slope = fit_scaling_exponent(points)
        # the negative lower-order terms push the fit a hair above 1.5
        assert 1.45 <= slope <= 1.51

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            fit_scaling_exponent([(1, 1), (2, 0), (3, 3)])


class TestCsv:
    def test_header_only_for_empty(self):
        buf = io.StringIO()
        write_csv([], buf)
        assert buf.getvalue() == CSV_HEADER + "\n"

    def test_one_record_two_lines(self):
        buf = io.StringIO()
        write_csv([_record()], buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 and lines[2] == ""

    def test_round_trip(self):
        records = run_suite(
            [("bcis", DatasetSpec("k_distinct", 60, k_param=4), 2),
             ("qs", DatasetSpec("equal", 10), 1)]
        )
        buf = io.StringIO()
        write_csv(records, buf)
        assert read_csv(io.StringIO(buf.getvalue())) == records

    def test_inapplicable_fields_empty(self):
        buf = io.StringIO()
        write_csv([_record(k_param=None, elapsed_ns=None)], buf)
        row = buf.getvalue().split("\n")[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("k_param")] == ""
        assert row[header.index("elapsed_ns")] == ""
        assert row[header.index("terminated_by_equal")] == "false"

    def test_summary_rows(self):
        buf = io.StringIO()
        write_csv(
            [SummaryRow(100, "bcis", "is", "comparisons", 0.5, 3, 0.01)], buf
        )
        assert buf.getvalue().startswith("n,numerator,denominator,metric,ratio,trials,dispersion\n")

    def test_rejects_mixed_row_types(self):
        summary = SummaryRow(100, "bcis", "is", "comparisons", 0.5, 3, 0.01)
        with pytest.raises(TypeError):
            write_csv([_record(), summary], io.StringIO())
        with pytest.raises(TypeError):
            write_csv([("bcis", "uniform", 10)], io.StringIO())

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_rejects_short_row_naming_its_line(self):
        buf = io.StringIO()
        write_csv([_record(), _record()], buf)
        text = buf.getvalue().rsplit(",", 1)[0] + "\n"  # drop the last field
        with pytest.raises(ValueError, match="line 3"):
            read_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "column, text, message",
        [
            ("comparisons", "", "must not be blank"),
            ("n", "ten", "invalid literal for int"),
            ("terminated_by_equal", "True", "must be true or false, got 'True'"),
            ("comparisons", "-591", "must be nonnegative, got -591$"),
            ("trial", "-1", "must be nonnegative, got -1$"),
            ("n", "1_024", "must be a canonical integer, got '1_024'$"),
            ("n", " 64", "must be a canonical integer, got ' 64'$"),
            ("n", "+64", r"must be a canonical integer, got '\+64'$"),
            ("n", "\u0666\u0664", "must be a canonical integer, got '\u0666\u0664'$"),
            ("seed", "-0", "must be a canonical integer, got '-0'$"),
            ("comparisons", "007", "must be a canonical integer, got '007'$"),
            ("algo", "bcsi", r"must be one of \('bcis', 'is', 'qs'\), got 'bcsi'$"),
        ],
    )
    def test_bad_field_names_its_line_and_column(self, column, text, message):
        buf = io.StringIO()
        write_csv([_record(trial=t) for t in range(3)], buf)
        lines = buf.getvalue().split("\n")
        fields = lines[2].split(",")
        fields[CSV_HEADER.split(",").index(column)] = text
        lines[2] = ",".join(fields)  # the second row, on line 3
        with pytest.raises(ValueError, match=f"^line 3: {column}: {message}"):
            read_csv(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"dist": "normal", "n": "-64"}, "kind must be one of"),
            ({"n": "-64"}, "n must be nonnegative, got -64$"),
            ({"seed": "-7"}, "seed must be nonnegative, got -7$"),
            ({"dist": "k_distinct"}, "k_distinct requires k_param$"),
            ({"k_param": "5"}, "k_param only applies to k_distinct, got kind='uniform'$"),
        ],
        ids=["unknown-dist", "negative-n", "negative-seed", "k-distinct-without-k",
             "k-param-on-uniform"],
    )
    def test_invalid_dataset_names_its_line(self, edits, message):
        buf = io.StringIO()
        write_csv([_record(trial=t) for t in range(3)], buf)
        lines = buf.getvalue().split("\n")
        fields = lines[2].split(",")
        for column, text in edits.items():
            fields[CSV_HEADER.split(",").index(column)] = text
        lines[2] = ",".join(fields)  # the second row, on line 3
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            read_csv(io.StringIO("\n".join(lines)))
