"""CLI behaviour: wiring, warnings, determinism, and error paths."""

import ast
import json
import logging
import operator
import os
import subprocess
import sys
import tempfile
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexirank
from lexirank import (
    Imputation, JudgmentSet, Preference, RankedList, degrade_judgments, make_method, project_runs,
)
from lexirank.analytics import stable_seed
from lexirank.cli import _load_collection, build_parser, main

import reference
from conftest import interpreters_without_numpy, subprocess_env

FIXTURES = Path(__file__).parent / "fixtures"
RUNS = [str(FIXTURES / name) for name in ("run_a.txt", "run_b.txt", "run_c.txt")]
QRELS = str(FIXTURES / "qrels.txt")


def run_cli(args) -> int:
    return main([str(a) for a in args])


def data_args(out, runs=RUNS):
    args = []
    for run in runs:
        args += ["--runs", run]
    return args + ["--qrels", QRELS, "--corpus-size", "50", "--out", str(out)]


class TestEval:
    def test_scores_and_warnings(self, tmp_path, caplog):
        # In-process, pytest's handlers make main's logging.basicConfig a no-op.
        out = tmp_path / "eval.tsv"
        with caplog.at_level(logging.WARNING):
            code = run_cli(["eval", *data_args(out), "--metric", "TSE", "--metric", "AP"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "request_id\trun\tmetric\tvalue"
        table = {tuple(line.split("\t")[:3]): line.split("\t")[3] for line in lines[1:]}
        assert table[("q1", "sysA", "TSE")] == "0.125"
        err = caplog.text
        assert "skipped 1 requests" in err
        assert "no judgments" in err
        assert "missing run entries" in err

    def test_identical_runs_identical_rows(self, tmp_path):
        duplicate = tmp_path / "dup.txt"
        duplicate.write_text(Path(RUNS[0]).read_text())
        out = tmp_path / "eval.tsv"
        code = run_cli(
            ["eval", *data_args(out, runs=[RUNS[0], str(duplicate)]), "--metric", "AP"]
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        by_run = {}
        for line in lines:
            request_id, run, metric, value = line.split("\t")
            by_run.setdefault(run, []).append((request_id, metric, value))
        first, second = by_run.values()
        assert first == second

    def test_depth_truncates_before_projection(self, tmp_path):
        out = tmp_path / "eval.tsv"
        code = run_cli(["eval", *data_args(out), "--metric", "TSE", "--depth", "3"])
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        table = {tuple(line.split("\t")[:3]): line.split("\t")[3] for line in lines}
        # Only ranks 2 and 3 of q1/sysA survive; the third hit imputes to 50.
        assert table[("q1", "sysA", "TSE")] == "0.02"

    def test_metrics_that_differ_past_six_digits_keep_their_rows(self, tmp_path):
        out = tmp_path / "eval.tsv"
        argv = ["eval", *data_args(out), "--metric", "rbp:0.8", "--metric", "rbp:0.8000001"]
        assert run_cli(argv) == 0
        labels = {line.split("\t")[2] for line in out.read_text().splitlines()[1:]}
        assert labels == {"RBP(0.8)", "RBP(0.8000001)"}

    def test_loaded_runs_share_their_ids(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("q1 Q0 doc-1 1 2 ta\nq1 Q0 doc-2 2 1 ta\n")
        second.write_text("q1 Q0 doc-2 1 2 tb\nq1 Q0 doc-3 2 1 tb\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 doc-2 1\n")
        argv = ["degrade", "--runs", str(first), "--runs", str(second), "--qrels", str(qrels)]
        _judgments, runs, _evaluable = _load_collection(
            build_parser().parse_args([*argv, "--corpus-size", "10"])
        )
        a, b = runs["ta"]["q1"], runs["tb"]["q1"]
        assert a.items[1] == b.items[0] == "doc-2"
        assert a.items[1] is b.items[0]
        assert a.request_id is b.request_id

    def test_json_output(self, tmp_path):
        out = tmp_path / "eval.json"
        code = run_cli(["eval", *data_args(out), "--metric", "AP", "--format", "json"])
        assert code == 0
        assert out.read_text().startswith("[")

    def test_optimistic_imputation_flag(self, tmp_path):
        # sysB retrieves 2 of 3 for q1 in a 10-deep list; the optimistic
        # placement at rank 11 scores far above the pessimistic bottom.
        # sysC does not rank q5 (m = 3): under either imputation its relevant
        # items take positions 48-50 of 50, not ranks 1-3 of an empty ranking.
        values = {}
        for mode in ("pessimistic", "optimistic"):
            out = tmp_path / f"{mode}.tsv"
            code = run_cli(
                ["eval", *data_args(out), "--metric", "TSE", "--metric", "AP", "--imputation", mode]
            )
            assert code == 0
            for line in out.read_text().splitlines()[1:]:
                request_id, run, metric, value = line.split("\t")
                values[(mode, request_id, run, metric)] = value
        assert float(values[("optimistic", "q1", "sysB", "TSE")]) == pytest.approx(1 / 11)
        assert float(values[("pessimistic", "q1", "sysB", "TSE")]) == pytest.approx(1 / 50)
        for mode in ("pessimistic", "optimistic"):
            assert values[(mode, "q5", "sysC", "TSE")] == "0.02"
            assert values[(mode, "q5", "sysC", "AP")] == "0.0405499"


class TestCollection:
    """``eval``, ``compare`` and ``degrade`` read and report a collection alike."""

    COMMANDS = [
        ["eval"],
        ["compare", "--method", "lexirecall"],
        ["compare", "--method", "metric:AP", "--hsd"],
        ["degrade", "--samples", "2"],
    ]

    def test_each_command_reports_the_same_warnings(self, tmp_path):
        expected = [
            "warning: skipped 1 requests with no relevant items",
            "warning: 1 ranked requests have no judgments",
            "warning: 1 missing run entries scored with every relevant item at the bottom"
            " of the corpus",
        ]
        for command in self.COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "lexirank", *command, *data_args(tmp_path / "x.tsv")],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines() == expected, command

    def test_no_evaluable_request_fails_every_command(self, tmp_path, capsys):
        unjudged = tmp_path / "qrels.txt"
        unjudged.write_text(Path(QRELS).read_text().replace(" 1\n", " 0\n"))
        out = tmp_path / "x.tsv"
        for command in self.COMMANDS:
            argv = data_args(out)
            argv[argv.index("--qrels") + 1] = unjudged
            assert run_cli([*command, *argv]) == 1, command
            assert capsys.readouterr().err == "error: no evaluable requests\n"
            assert not out.exists()


# Files of the load-order table. In a corpus of 3, ``ta`` ranks all three
# items for q1 but not q1's relevant d4, a cell that cannot be imputed; ``ok``
# projects, and ``q2deep`` ranks all three for q2 but neither of q2's relevant
# d5 and d1, so its q2 cell cannot be imputed either.
_LOAD_QRELS = "q1 0 d4 1\nq2 0 d5 1\nq2 0 d1 1\n"
_LOAD_FILES = {
    "ta": "q1 Q0 d1 1 3 ta\nq1 Q0 d2 2 2 ta\nq1 Q0 d3 3 1 ta\n",
    "ok": "q1 Q0 d4 1 3 ok\nq2 Q0 d5 1 2 ok\n",
    "malformed": "q1 Q0 d4 1 3 tb\nq1 Q0 d2 2\n",
    "same-tag": "q1 Q0 d4 1 3 ta\n",
    "q2deep": "q1 Q0 d4 1 3 tc\nq2 Q0 d2 1 3 tc\nq2 Q0 d3 2 2 tc\nq2 Q0 d4 3 1 tc\n",
}


_MISSING = "1 missing run entries scored with every relevant item at the bottom of the corpus"


class TestLoadOrder:
    """Errors of a collection load come in one order, whichever projects when:
    parse and tag errors in file order, then the collection's warnings and
    errors, then the first cell that fails to project in (request, run)
    order."""

    @pytest.mark.parametrize(
        "files,command,warnings,error",
        [
            (["ta", "malformed"], ["eval"], [],
             "expected 6 whitespace-separated fields, got 4 [{malformed}:2]"),
            (["ta", "same-tag"], ["eval"], ["duplicate run tag 'ta'; using file stem 'ta'"] * 2,
             "cannot disambiguate run tag 'ta'"),
            (["ta", "ok"], ["eval"], [_MISSING],
             "cannot impute 1 items below a prefix of 3 in a corpus of 3"),
            (["q2deep", "ta"], ["eval"], [_MISSING],
             "cannot impute 1 items below a prefix of 3 in a corpus of 3"),
            (["ta"], ["compare"], [_MISSING], "compare needs at least two runs"),
            (["ta"], ["degrade"], [_MISSING], "degrade needs at least two runs"),
            (["ta", "ok"], ["eval", "--imputation", "optimistic"], [_MISSING],
             "cannot place 1 items after a prefix of 3 in a corpus of 3"),
        ],
        ids=[
            "parse-error", "tag-error", "projection", "request-order", "two-runs",
            "degrade-two-runs", "optimistic",
        ],
    )
    def test_errors_keep_their_order(
        self, tmp_path, capsys, caplog, files, command, warnings, error
    ):
        paths = {}
        for name in files:
            # The same-tag file's stem is the tag it repeats.
            path = tmp_path / name / f"{'ta' if name == 'same-tag' else name}.txt"
            path.parent.mkdir()
            path.write_text(_LOAD_FILES[name])
            paths[name] = path
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(_LOAD_QRELS)
        argv = [*command, "--qrels", qrels, "--corpus-size", "3", "--out", tmp_path / "x.tsv"]
        for path in paths.values():
            argv += ["--runs", path]
        with caplog.at_level(logging.WARNING):
            assert run_cli(argv) == 1
        assert [record.getMessage() for record in caplog.records] == warnings
        assert capsys.readouterr().err == f"error: {error.format(**paths)}\n"
        assert not (tmp_path / "x.tsv").exists()


class TestLoader:
    @settings(max_examples=60, deadline=None)
    @given(reference.collections())
    def test_vectors_projected_per_file_equal_project_runs(self, collection):
        with tempfile.TemporaryDirectory() as work:
            _paths, _qrels, flags = reference.write(collection, work)
            args = build_parser().parse_args(["eval", *flags])
            mode = Imputation(args.imputation)
            judgments, projected, evaluable = _load_collection(args, mode)
            # A degrade load keeps the rankings the projection was made from.
            _judgments, runs, _evaluable = _load_collection(
                build_parser().parse_args(["degrade", *flags])
            )
        assert projected == project_runs(runs, judgments, evaluable, mode)

    def test_vectors_of_a_request_share_their_tail_ints(self, tmp_path):
        # Files are projected one after another, so the cells of q1 are built
        # with q2's between them; positions above 256 are not cached ints.
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 r1 1\nq1 0 r2 1\nq2 0 r3 1\nq2 0 r4 1\nq2 0 r5 1\n")
        argv = ["eval", "--qrels", str(qrels), "--corpus-size", "1000"]
        for tag in ("ta", "tb"):
            run = tmp_path / f"{tag}.txt"
            run.write_text(f"q1 Q0 x1 1 2 {tag}\nq2 Q0 x2 1 2 {tag}\n")
            argv += ["--runs", str(run)]
        args = build_parser().parse_args(argv)
        _judgments, projected, _evaluable = _load_collection(args, Imputation.PESSIMISTIC)
        for request_id in ("q1", "q2"):
            a, b = projected[request_id]["ta"].positions, projected[request_id]["tb"].positions
            assert a == b and a[0] > 256
            assert all(map(operator.is_, a, b))


class TestCompare:
    def test_self_comparison_is_all_ties(self, tmp_path):
        duplicate = tmp_path / "same.txt"
        duplicate.write_text(Path(RUNS[0]).read_text())
        out = tmp_path / "cmp.tsv"
        code = run_cli(
            ["compare", *data_args(out, runs=[RUNS[0], str(duplicate)]), "--method", "lexirecall"]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split("\t")
        header = out.read_text().splitlines()[0].split("\t")
        record = dict(zip(header, row))
        assert record["wins_a"] == "0" and record["wins_b"] == "0"
        assert record["win_rate_a"] == "0.5"
        assert record["p_value"] == "1"

    def test_dominated_pair_is_significant(self, tmp_path):
        # 100 requests, one run always one position better on the only
        # relevant item: every comparison is decisive in the same direction.
        runs = {"good": [], "bad": []}
        qrels_lines = []
        for qi in range(100):
            q = f"q{qi:03d}"
            qrels_lines.append(f"{q} 0 rel 1")
            runs["good"].append(f"{q} Q0 rel 1 9.0 good")
            runs["good"].append(f"{q} Q0 fillA 2 8.0 good")
            runs["bad"].append(f"{q} Q0 fillB 1 9.0 bad")
            runs["bad"].append(f"{q} Q0 rel 2 8.0 bad")
        good = tmp_path / "good.txt"
        bad = tmp_path / "bad.txt"
        qrels = tmp_path / "qrels.txt"
        good.write_text("\n".join(runs["good"]) + "\n")
        bad.write_text("\n".join(runs["bad"]) + "\n")
        qrels.write_text("\n".join(qrels_lines) + "\n")
        out = tmp_path / "cmp.tsv"
        code = run_cli(
            [
                "compare",
                "--runs", good, "--runs", bad,
                "--qrels", qrels,
                "--corpus-size", "20",
                "--method", "lexirecall",
                "--out", out,
            ]
        )
        assert code == 0
        header, row = (line.split("\t") for line in out.read_text().splitlines())
        record = dict(zip(header, row))
        assert record["significant"] == "true"
        assert float(record["p_holm"]) < 0.05

    def test_positional_method_decides_at_most_as_often_as_refinement(self, tmp_path):
        counts = {}
        for method in ("tse", "lexirecall"):
            out = tmp_path / f"{method}.tsv"
            assert run_cli(["compare", *data_args(out), "--method", method]) == 0
            decisive = 0
            lines = out.read_text().splitlines()
            header = lines[0].split("\t")
            for line in lines[1:]:
                record = dict(zip(header, line.split("\t")))
                decisive += int(record["wins_a"]) + int(record["wins_b"])
            counts[method] = decisive
        assert counts["lexirecall"] >= counts["tse"]

    def test_hsd_with_preference_method_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "cmp.tsv"
        code = run_cli(["compare", *data_args(out), "--method", "lexirecall", "--hsd"])
        assert code == 1
        assert "per-request scores" in capsys.readouterr().err

    def test_tse_hsd_pairs_sign_test_with_tse_scores(self, tmp_path, capsys):
        def table(*method):
            out = tmp_path / "cmp.tsv"
            assert run_cli(["compare", *data_args(out), "--method", *method]) == 0
            header, *rows = (line.split("\t") for line in out.read_text().splitlines())
            return [dict(zip(header, row)) for row in rows]

        tse_hsd = table("tse", "--hsd")
        plain = table("tse")
        scored = table("metric:TSE", "--hsd")
        assert [row["method"] for row in tse_hsd] == ["tse"] * 3
        # p_value is the sign test of the tse preference, as without --hsd ...
        assert [{k: v for k, v in row.items() if k != "p_hsd"} for row in tse_hsd] == plain
        # ... and p_hsd is Tukey HSD over per-request TSE scores.
        assert [row["p_hsd"] for row in tse_hsd] == [row["p_hsd"] for row in scored]
        out = tmp_path / "x.tsv"
        assert run_cli(["compare", *data_args(out), "--method", "lexirecall", "--hsd"]) == 1
        assert "per-request scores" in capsys.readouterr().err

    def test_metric_method_with_one_request_sets_p_to_one(self, tmp_path, caplog):
        # The paired t-test and Tukey HSD need two requests: one warning
        # each, as for the undefined sign test, and not an error.
        qrels = tmp_path / "one.txt"
        qrels.write_text("".join(
            line for line in Path(QRELS).read_text().splitlines(keepends=True)
            if line.startswith("q1 ")
        ))
        out = tmp_path / "cmp.json"
        argv = [*data_args(out), "--method", "metric:AP", "--format", "json"]
        argv[argv.index("--qrels") + 1] = qrels
        with caplog.at_level(logging.WARNING):
            assert run_cli(["compare", *argv]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert {(row["p_value"], row["p_holm"]) for row in rows} == {(1.0, 1.0)}
        assert [r.message for r in caplog.records if "t-test" in r.message] == [
            "one evaluable request: no paired t-test; p set to 1"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run_cli(["compare", *argv, "--hsd"]) == 0
        assert {row["p_hsd"] for row in json.loads(out.read_text())} == {1.0}
        assert [r.message for r in caplog.records if "HSD" in r.message] == [
            "one evaluable request: no Tukey HSD; p_hsd set to 1"
        ]

    def test_hsd_with_metric_method(self, tmp_path):
        out = tmp_path / "cmp.tsv"
        code = run_cli(["compare", *data_args(out), "--method", "metric:AP", "--hsd"])
        assert code == 0
        assert "p_hsd" in out.read_text().splitlines()[0]


class TestOtherCommands:
    def test_ties_analytic(self, tmp_path):
        out = tmp_path / "ties.tsv"
        code = run_cli(
            ["ties", "--mode", "analytic", "--corpus-size", "1000", "--m", "10", "--out", out]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5

    def test_ties_analytic_at_a_cutoff_beyond_the_corpus(self, tmp_path):
        # The default --k 1000 on a corpus of 500 is recall@500, which always ties.
        out = tmp_path / "ties.tsv"
        assert run_cli(["ties", "--corpus-size", "500", "--m", "10", "--out", out]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert ["500", "10", "recall@1000", "1"] in rows

    def test_ties_analytic_rejects_depth(self, tmp_path, capsys):
        # The closed forms are for full rankings; a depth would be ignored.
        out = tmp_path / "ties.tsv"
        argv = ["ties", "--corpus-size", "1000", "--m", "10", "--depth", "50", "--out", out]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: --depth applies to --mode empirical\n"
        assert not out.exists()

    def test_ties_empirical(self, tmp_path):
        out = tmp_path / "ties.tsv"
        code = run_cli(
            [
                "ties", "--mode", "empirical", "--corpus-size", "100",
                "--m-range", "3", "5", "--pairs", "200", "--seed", "5",
                "--depth", "10", "--out", out,
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_ties_empirical_rejects_gapped_m_list(self, tmp_path, capsys):
        def ties(out, *m_flags):
            return run_cli(
                [
                    "ties", "--mode", "empirical", "--corpus-size", "100", *m_flags,
                    "--pairs", "200", "--seed", "5", "--out", out,
                ]
            )

        assert ties(tmp_path / "gap.tsv", "--m", "5", "--m", "200") == 1
        assert "--m-range" in capsys.readouterr().err
        assert not (tmp_path / "gap.tsv").exists()
        # A single --m, or a list without gaps, is the same range as --m-range.
        assert ties(tmp_path / "one.tsv", "--m", "10") == 0
        assert ties(tmp_path / "range.tsv", "--m-range", "10", "10") == 0
        assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "range.tsv").read_bytes()
        assert ties(tmp_path / "list.tsv", "--m", "4", "--m", "3", "--m", "5") == 0
        assert ties(tmp_path / "span.tsv", "--m-range", "3", "5") == 0
        assert (tmp_path / "list.tsv").read_bytes() == (tmp_path / "span.tsv").read_bytes()

    def test_simulate_agreement(self, tmp_path):
        out = tmp_path / "agr.tsv"
        code = run_cli(
            [
                "simulate-agreement", "--corpus-size", "500",
                "--pairs", "500", "--seed", "2", "--out", out,
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        record = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert record["metric"] == "TSE" and record["agreement"] == "1"

    def test_orientation(self, tmp_path):
        out = tmp_path / "orient.tsv"
        code = run_cli(
            ["orientation", "--corpus-size", "200", "--m-range", "1", "4", "--out", out]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4 * 7

    def test_orientation_with_equal_exposure_at_m_and_d_fails_cleanly(self, tmp_path, capsys):
        # geometric(0.8) exposure underflows to 0.0 from about position 3340.
        argv = ["orientation", "--corpus-size", "100000", "--m-range", "3400", "3400",
                "--metric", "tse:geometric:0.8", "--out", tmp_path / "o.tsv"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            "error: TSE[geometric(0.8)] has no orientation at m=3400:"
            " its exposure at m and D=100000 is equal\n"
        )
        assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize(
        "argv,column,labels",
        [
            (["eval", *data_args("-")], "metric",
             ["AP", "NDCG", "recall@1000", "RPrecision", "TSE"]),
            (["simulate-agreement", "--corpus-size", "200", "--pairs", "50"], "metric",
             ["TSE", "recall@1000", "RPrecision", "AP", "NDCG", "random"]),
            (["orientation", "--corpus-size", "200", "--m-range", "1", "1"], "metric",
             ["RR", "NDCG", "AP", "recall@1000", "RPrecision", "RBP(0.8)", "TSE"]),
            (["degrade", *data_args("-"), "--samples", "1", "--fractions", "0"], "method",
             ["lexirecall", "AP", "recall@1000"]),
        ],
        ids=["eval", "simulate-agreement", "orientation", "degrade"],
    )
    def test_default_list_runs_without_its_flag(self, tmp_path, argv, column, labels):
        out = tmp_path / "out.json"
        assert run_cli([*argv, "--format", "json", "--out", out]) == 0
        rows = json.loads(out.read_text())
        assert list(dict.fromkeys(row[column] for row in rows)) == labels

    def test_degrade(self, tmp_path):
        out = tmp_path / "deg.tsv"
        code = run_cli(
            [
                "degrade", *data_args(out),
                "--fractions", "0,0.5", "--samples", "2", "--seed", "7",
                "--method", "lexirecall",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split("\t")
        first = dict(zip(header, lines[1].split("\t")))
        assert first["fraction"] == "0" and first["agreement_with_full"] == "1"

    def test_degrade_reads_metrics_with_the_corpus_size(self, tmp_path):
        # Linear exposure needs D; degrade used to parse its methods without it.
        out = tmp_path / "deg.tsv"
        argv = ["degrade", *data_args(out), "--fractions", "0,0.5", "--samples", "2",
                "--method", "metric:tse:linear"]
        assert run_cli(argv) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [(fraction, method) for fraction, method, *_ in rows] == [
            ("0", "TSE[linear(50)]"), ("0.5", "TSE[linear(50)]")
        ]


class TestDeterminismAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ties", "--mode", "empirical", "--corpus-size", "300", "--m-range", "2", "6",
             "--pairs", "150", "--seed", "11"],
            ["simulate-agreement", "--corpus-size", "400", "--pairs", "300", "--seed", "11"],
            ["degrade", "--runs", RUNS[0], "--runs", RUNS[1], "--qrels", QRELS,
             "--corpus-size", "50", "--fractions", "0,0.5", "--samples", "2", "--seed", "11"],
        ],
        ids=["ties", "agreement", "degrade"],
    )
    def test_seeded_commands_are_byte_identical(self, tmp_path, argv):
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        assert run_cli(argv + ["--out", out1]) == 0
        assert run_cli(argv + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "command",
        [["eval"], ["compare", "--method", "metric:AP", "--hsd"]],
        ids=["eval", "compare"],
    )
    def test_run_order_does_not_change_output(self, tmp_path, command):
        out1 = tmp_path / "forward.tsv"
        out2 = tmp_path / "reversed.tsv"
        assert run_cli([*command, *data_args(out1)]) == 0
        assert run_cli([*command, *data_args(out2, runs=RUNS[::-1])]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_labels_do_not_depend_on_run_order(self, tmp_path, capsys):
        # x and y both carry the tag S, so each goes by its stem in every order.
        shared = []
        for stem, source in (("x", RUNS[0]), ("y", RUNS[1])):
            lines = Path(source).read_text().splitlines()
            path = tmp_path / f"{stem}.txt"
            path.write_text("".join(line.rsplit(" ", 1)[0] + " S\n" for line in lines))
            shared.append(str(path))
        outputs = set()
        for runs in permutations([*shared, RUNS[2]]):
            assert run_cli(["eval", *data_args("-", runs=runs), "--metric", "AP"]) == 0
            outputs.add(capsys.readouterr().out)
        [output] = outputs
        assert {line.split("\t")[1] for line in output.splitlines()[1:]} == {"x", "y", "sysC"}

    @pytest.mark.parametrize("where", ["absent-directory", "directory"])
    @pytest.mark.parametrize(
        "command", [["eval"], ["degrade", "--samples", "2"]], ids=["eval", "degrade"]
    )
    def test_unwritable_out_fails_before_the_command_runs(
        self, tmp_path, capsys, caplog, command, where
    ):
        # Loading the fixtures would warn three times before the output is written.
        if where == "directory":
            out, error = tmp_path, f"[Errno 21] Is a directory: '{os.path.realpath(tmp_path)}'"
        else:
            out = tmp_path / "absent" / "x.tsv"
            error = f"[Errno 2] No such file or directory: '{out}'"
        assert run_cli([*command, *data_args(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not caplog.records
        assert list(tmp_path.iterdir()) == []
        existing = tmp_path / "existing.tsv"
        existing.write_text("old\n")
        assert run_cli([*command, *data_args(existing)]) == 0
        assert existing.read_text().startswith(("request_id\t", "fraction\t"))

    def test_missing_file_fails_without_traceback(self, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        code = run_cli(
            ["eval", "--runs", tmp_path / "missing.txt", "--qrels", QRELS,
             "--corpus-size", "50", "--out", out]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "kind,bad_line",
        [("runs", b"q9 Q0 d\xff 1 1.0 sysA\n"), ("qrels", b"q9 0 d\xff 1\n")],
        ids=["runs", "qrels"],
    )
    def test_undecodable_bytes_fail_with_file_and_line(self, tmp_path, capsys, kind, bad_line):
        good = Path(RUNS[0] if kind == "runs" else QRELS).read_bytes()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(good + bad_line)
        out = tmp_path / "x.tsv"
        argv = data_args(out, runs=[bad, RUNS[1]]) if kind == "runs" else data_args(out)
        if kind == "qrels":
            argv[argv.index("--qrels") + 1] = bad
        assert run_cli(["eval", *argv]) == 1
        line = good.count(b"\n") + 1
        assert capsys.readouterr().err == f"error: line is not valid UTF-8 [{bad}:{line}]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "prefix", [b"\xef\xbb\xbf", b"\xef\xbb\xbf\n"], ids=["glued", "own-line"]
    )
    @pytest.mark.parametrize("kind", ["runs", "qrels"])
    @pytest.mark.parametrize(
        "command",
        [["eval"], ["compare", "--method", "lexirecall"], ["degrade", "--samples", "2"]],
        ids=["eval", "compare", "degrade"],
    )
    def test_byte_order_mark_fails_at_line_one(self, tmp_path, capsys, command, kind, prefix):
        # A mark glued to the first id used to read as part of it, exit 0.
        bad = tmp_path / "bom.txt"
        bad.write_bytes(prefix + Path(RUNS[0] if kind == "runs" else QRELS).read_bytes())
        out = tmp_path / "x.tsv"
        argv = data_args(out, runs=[bad, *RUNS[1:]]) if kind == "runs" else data_args(out)
        if kind == "qrels":
            argv[argv.index("--qrels") + 1] = bad
        assert run_cli([*command, *argv]) == 1
        assert capsys.readouterr().err == f"error: file starts with a byte-order mark [{bad}:1]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,column,text",
        [
            ("runs", 4, "9_0.0"),  # float() reads 90.0
            ("runs", 4, "\uff19.0"),  # a full-width digit: float() reads 9.0
            ("runs", 3, "0_2"),
            ("runs", 3, "\u0662"),  # an Arabic-Indic digit: int() reads 2
            ("qrels", 3, "0_1"),
            ("qrels", 3, "\u0661"),
        ],
        ids=["score-underscore", "score-fullwidth", "rank-underscore", "rank-arabic-indic",
             "grade-underscore", "grade-arabic-indic"],
    )
    @pytest.mark.parametrize(
        "command",
        [["eval"], ["compare", "--method", "lexirecall"], ["degrade", "--samples", "2"]],
        ids=["eval", "compare", "degrade"],
    )
    def test_numerals_are_ascii_without_underscores(
        self, tmp_path, capsys, command, kind, column, text
    ):
        # Python's int and float read each as a number; trec_eval's C reader does not.
        lines = Path(RUNS[0] if kind == "runs" else QRELS).read_text().splitlines()
        fields = lines[1].split()
        fields[column] = text
        lines[1] = " ".join(fields)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "x.tsv"
        argv = data_args(out, runs=[bad, *RUNS[1:]]) if kind == "runs" else data_args(out)
        if kind == "qrels":
            argv[argv.index("--qrels") + 1] = bad
        assert run_cli([*command, *argv]) == 1
        field = "rank/score" if kind == "runs" else "grade"
        message = f"bad {field}: {text!r} is not an ASCII numeral"
        assert capsys.readouterr().err == f"error: {message} [{bad}:2]\n"
        assert not out.exists()

    def test_ids_are_free_form(self, tmp_path):
        # The numeral check leaves ids alone: "_" and non-ASCII letters read as written.
        renamed = []
        for source in [*RUNS, QRELS]:
            target = tmp_path / Path(source).name
            target.write_text(Path(source).read_text().replace(" d02 ", " d02_\u00e9 "))
            renamed.append(str(target))
        outputs = []
        for runs, qrels in ((RUNS, QRELS), (renamed[:-1], renamed[-1])):
            out = tmp_path / "eval.tsv"
            argv = data_args(out, runs=runs)
            argv[argv.index("--qrels") + 1] = qrels
            assert run_cli(["eval", *argv]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_depth_fails_before_any_run_is_read(self, tmp_path, capsys, caplog):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "x.tsv"
        absent = data_args(out, runs=[tmp_path / "absent.txt"])
        absent[absent.index("--qrels") + 1] = tmp_path / "absent-qrels.txt"
        for argv in (data_args(out, runs=[empty]), absent):
            assert run_cli(["eval", *argv, "--depth", "0"]) == 1
            assert capsys.readouterr().err == "error: depth must be positive, got 0\n"
            assert not caplog.records
            assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
    @pytest.mark.parametrize("command", [["eval"], ["compare", "--method", "lexirecall"], ["degrade"]])
    def test_empty_run_file_fails_with_its_path(self, tmp_path, capsys, text, command):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        out = tmp_path / "x.tsv"
        assert run_cli([*command, *data_args(out, runs=[RUNS[0], empty])]) == 1
        assert capsys.readouterr().err == f"error: run file {empty} is empty\n"
        assert not out.exists()

    def test_missing_output_directory_names_the_destination(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.tsv"
        assert run_cli(["eval", *data_args(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    def test_unknown_metric_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        code = run_cli(["eval", *data_args(out), "--metric", "made-up"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["rbp:abc", "recall@x", "mlr:abc", "tse:geometric:abc"])
    def test_malformed_metric_parameter_fails_cleanly(self, tmp_path, capsys, metric):
        out = tmp_path / "x.tsv"
        assert run_cli(["eval", *data_args(out), "--metric", metric]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(metric) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fractions", ["0,abc", "", ","])
    def test_malformed_degrade_fractions_fail_cleanly(self, tmp_path, capsys, fractions):
        out = tmp_path / "x.tsv"
        assert run_cli(["degrade", *data_args(out), "--fractions", fractions]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--fractions" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "methods,label",
        [(["lexirecall", "lexirecall"], "lexirecall"), (["metric:AP", "AP"], "AP")],
        ids=["lexirecall-twice", "AP-two-spellings"],
    )
    def test_repeated_degrade_method_fails_cleanly(self, tmp_path, capsys, methods, label):
        # Each label owns one row per fraction; a repeat used to fold both
        # methods' samples into it and report agreement_with_full 2.
        out = tmp_path / "x.tsv"
        argv = ["degrade", *data_args(out)]
        for method in methods:
            argv += ["--method", method]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(label) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", *data_args("-"), "--metric", "AP", "--metric", "ap"],
            ["simulate-agreement", "--corpus-size", "1000", "--pairs", "50",
             "--metric", "AP", "--metric", "ap"],
            ["orientation", "--corpus-size", "1000", "--m-range", "1", "3",
             "--metric", "AP", "--metric", "map"],
        ],
        ids=["eval", "simulate-agreement", "orientation"],
    )
    def test_repeated_metric_fails_cleanly(self, capsys, argv):
        # A repeated label used to compute and print every one of its rows twice.
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: metric 'AP' given more than once\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["degrade", *data_args("-"), "--fractions", "0.5,.50"], "fraction 0.5"),
            (["simulate-agreement", "--corpus-size", "500", "--corpus-size", "500",
              "--pairs", "50"], "corpus size 500"),
        ],
        ids=["degrade-fractions", "simulate-agreement-corpus-size"],
    )
    def test_repeated_value_fails_cleanly(self, capsys, argv, message):
        # Compared as numbers: "0.5" and ".50" name one fraction.
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message} given more than once\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--fractions", "0,abc"], "--fractions takes comma-separated numbers, got '0,abc'"),
            (["--fractions", "0.5,1"], "fractions must lie in [0, 1), got 1.0"),
            (["--fractions", "0.5,.50"], "fraction 0.5 given more than once"),
            (["--fractions", "0.5,0.5000001"], "fractions 0.5 and 0.5000001 both print as 0.5"),
            (["--method", "AP", "--method", "metric:AP"],
             "comparison method 'AP' given more than once"),
            (["--method", "made-up"], "unknown metric 'made-up'"),
            (["--method", "metric:tse:linear", "--method", "TSE:linear"],
             "comparison method 'TSE[linear(50)]' given more than once"),
            (["--tolerance", "-1"], "tolerance must be a finite non-negative number, got -1.0"),
            (["--samples", "0"], "samples must be positive, got 0"),
            (["--samples", "-3"], "samples must be positive, got -3"),
        ],
        ids=["malformed-fraction", "fraction-range", "repeated-fraction", "fractions-print-alike",
             "repeated-method", "unknown-method", "repeated-corpus-size-method", "tolerance",
             "samples-zero", "samples-negative"],
    )
    def test_degrade_checks_flags_before_reading_files(
        self, tmp_path, capsys, caplog, flags, message
    ):
        # The run file does not exist, so reading it would fail with another error.
        out = tmp_path / "x.tsv"
        argv = ["degrade", *data_args(out, runs=[tmp_path / "absent.txt"]), *flags]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not caplog.records
        assert not out.exists()

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        argv = ["ties", "--mode", "empirical", "--corpus-size", "100", "--seed", "-1"]
        assert run_cli([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["compare", "--method", "metric:mlr"], ["compare", "--method", "metric:AP"],
         ["compare", "--method", "lexirecall"], ["degrade", "--method", "lexirecall"],
         ["simulate-agreement"], ["simulate-agreement", "--metric", "random"],
         ["ties", "--mode", "analytic"]],
        ids=["compare-mlr", "compare-AP", "compare-lexirecall", "degrade-lexirecall",
             "simulate-agreement", "simulate-agreement-random", "ties-analytic"],
    )
    def test_bad_tolerance_fails_cleanly(self, tmp_path, capsys, command, tolerance):
        out = tmp_path / "x.tsv"
        if command[0] in ("compare", "degrade"):
            argv = [*command, *data_args(out)]
        elif command[0] == "ties":
            argv = [*command, "--corpus-size", "200", "--out", out]
        else:
            argv = [*command, "--corpus-size", "200", "--pairs", "50", "--out", out]
        assert run_cli([*argv, f"--tolerance={tolerance}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tolerance" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["ties", "--mode", "analytic"], ["ties", "--mode", "empirical"], ["orientation"]],
        ids=["ties-analytic", "ties-empirical", "orientation"],
    )
    def test_reversed_m_range_fails_cleanly(self, tmp_path, capsys, command):
        out = tmp_path / "x.tsv"
        argv = [*command, "--corpus-size", "100", "--m-range", "5", "3", "--out", out]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--m-range" in err and "Traceback" not in err
        assert not out.exists()


def _outputs(runs, qrels, directory):
    """Bytes written by ``eval`` and ``compare --method lexirecall``."""
    data = []
    for run in runs:
        data += ["--runs", run]
    data += ["--qrels", qrels, "--corpus-size", "50"]
    outputs = []
    for name, command in (("eval", ["eval"]), ("compare", ["compare", "--method", "lexirecall"])):
        out = Path(directory) / f"{name}.tsv"
        assert run_cli([*command, *data, "--out", out]) == 0
        outputs.append(out.read_bytes())
    return outputs


class TestLineOrderIndependence:
    @settings(max_examples=8, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_input_lines_give_identical_output(self, random):
        with tempfile.TemporaryDirectory() as work:
            expected = _outputs(RUNS, QRELS, work)
            shuffled = []
            for source in [*RUNS, QRELS]:
                lines = Path(source).read_text().splitlines()
                random.shuffle(lines)
                target = Path(work) / Path(source).name
                target.write_text("\n".join(lines) + "\n")
                shuffled.append(str(target))
            assert _outputs(shuffled[:-1], shuffled[-1], work) == expected


@st.composite
def pair_cells(draw):
    """Runs and qrels over a corpus of 12 items: 2-5 runs, 1-8 requests.

    Each request draws one to three rankings and every run takes one of
    them, so equal vectors are common, and a small corpus makes vectors tie
    under tse, recall@3 and a tolerant AP.
    """
    corpus = [f"d{i:02d}" for i in range(12)]
    tags = [f"run{r}" for r in range(draw(st.integers(2, 5)))]
    rankings = st.permutations(corpus).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda depth: order[:depth])
    )
    runs = {tag: {} for tag in tags}
    judgments = {}
    # One request in a fixed share of examples: there a metric method has no
    # paired t-test.
    for q in (f"q{i}" for i in range(draw(st.just(1) | st.integers(2, 8)))):
        relevant = draw(st.sets(st.sampled_from(corpus), min_size=1, max_size=5))
        judgments[q] = JudgmentSet(q, relevant)
        pool = draw(st.lists(rankings, min_size=1, max_size=3))
        for tag in tags:
            runs[tag][q] = RankedList(q, tuple(draw(st.sampled_from(pool))), len(corpus), tag)
    return runs, judgments


def _write_cells(runs, judgments, directory) -> list[str]:
    """The ``--runs`` and ``--qrels`` flags of ``runs`` and ``judgments`` written out."""
    flags = []
    for tag, ranked in runs.items():
        path = Path(directory) / f"{tag}.txt"
        path.write_text("".join(
            f"{q} Q0 {item} {rank} {100 - rank} {tag}\n"
            for q, rl in ranked.items()
            for rank, item in enumerate(rl.items, start=1)
        ))
        flags += ["--runs", str(path)]
    qrels = Path(directory) / "qrels.txt"
    qrels.write_text("".join(
        f"{q} 0 {item} 1\n" for q, judgment in judgments.items() for item in judgment.relevant_ids
    ))
    return [*flags, "--qrels", str(qrels), "--corpus-size", "12", "--format", "json"]


class TestRunPairPreferences:
    """``compare`` and ``degrade`` tally the preferences a plain nested loop
    over the method's function gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        pair_cells(),
        st.sampled_from(["lexirecall", "tse", "metric:AP", "metric:recall@3"]),
        st.floats(0.001, 0.2),
        st.sampled_from([0.25, 0.5]),
        st.integers(0, 2**16),
    )
    def test_tallies_equal_a_nested_loop(self, cells, method, tolerance, fraction, seed):
        runs, judgments = cells
        _name, fn = make_method(method, tolerance)
        requests = sorted(judgments)
        pairs = list(combinations(sorted(runs), 2))
        full = project_runs(runs, judgments, requests)
        degraded = project_runs(runs, {
            q: degrade_judgments(judgments[q], fraction, stable_seed(seed, 0, q)) for q in requests
        }, requests)
        wins = {pair: [0, 0, 0] for pair in pairs}  # wins_a, wins_b, ties
        column = {Preference.FIRST: 0, Preference.SECOND: 1, Preference.TIE: 2}
        ties = agree = strict = 0
        for a, b in pairs:
            for q in requests:
                pref = fn(full[q][a], full[q][b])
                wins[a, b][column[pref]] += 1
                thinned = fn(degraded[q][a], degraded[q][b])
                ties += thinned is Preference.TIE
                if pref is not Preference.TIE:
                    strict += 1
                    agree += thinned is pref
        with tempfile.TemporaryDirectory() as work:
            flags = [*_write_cells(runs, judgments, work), "--tolerance", str(tolerance)]
            out = Path(work) / "out.json"
            assert run_cli(["compare", *flags, "--method", method, "--out", out]) == 0
            compared = {
                (r["run_a"], r["run_b"]): [r["wins_a"], r["wins_b"], r["ties"]]
                for r in json.loads(out.read_text())
            }
            assert compared == wins
            assert run_cli([
                "degrade", *flags, "--method", method, "--fractions", str(fraction),
                "--samples", "1", "--seed", str(seed), "--out", out,
            ]) == 0
            [row] = json.loads(out.read_text())
        assert row["tie_fraction"] == ties / (len(pairs) * len(requests))
        assert row["agreement_with_full"] == (agree / strict if strict else 1.0)


def _modules_after(code):
    """Names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    listing = "import sys; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _modules_run(code, interpreter=sys.executable):
    """The ``lexirank`` modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter, and those among them whose code has run: a module registered
    to load on first use is of a ``types.ModuleType`` subclass until then."""
    listing = (
        "import sys, types\n"
        "names = [n for n in sys.modules if n.split('.')[0] == 'lexirank']\n"
        "print(' '.join(names))\n"
        "print(' '.join(n for n in names if type(sys.modules[n]) is types.ModuleType))"
    )
    proc = subprocess.run(
        [interpreter, "-c", f"{code}\n{listing}"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, f"{interpreter}: {proc.stderr}"
    registered, ran = proc.stdout.splitlines()
    return set(registered.split()), set(ran.split())


def _main_code(argv, out) -> str:
    """``import lexirank.cli``, then ``argv`` run to success when it is not empty."""
    code = "import lexirank.cli"
    if argv:
        code += f"\nassert lexirank.cli.main({[*argv, '--out', str(out)]!r}) == 0"
    return code


_PUBLIC_NAMES = (
    "EnumerationBudgetError", "ExposureKind", "ExposureModel", "Imputation", "JudgmentSet",
    "LexirankError", "MetricId", "MetricKind", "NormalizationModel", "ParseError", "Preference",
    "RankedList", "RelevantPositions", "SimulationConfig", "UndefinedResultError",
    "UnevaluableRequestError", "UserSubset", "UtilityVector", "ValidationError",
    "agreement_with_worst_case", "binomial_sign_test", "degradation_study", "degrade_judgments",
    "enumerate_users", "evaluate", "holm_bonferroni", "leximin_compare", "lexirecall_compare",
    "make_method", "metric_compare", "metric_lexirecall", "optimal_ranker_worst_case",
    "orientation", "paired_t_test", "parse_qrels", "parse_run_file", "project_and_impute",
    "project_runs", "provider_utility", "simulate_pairs", "studentized_range_cdf",
    "tie_fractions", "tie_probability", "tse", "tse_compare", "tukey_hsd", "user_utility",
    "worst_case_provider", "worst_case_user", "write_table",
)
_TIES_ANALYTIC = ["ties", "--mode", "analytic", "--corpus-size", "1000000", "--m-range", "1", "4"]
_EVAL = ["eval", "--runs", RUNS[0], "--runs", RUNS[1], "--qrels", QRELS, "--corpus-size", "50"]
_COMPARE_LEXIRECALL = ["compare", "--method", "lexirecall", *_EVAL[1:]]


class TestImports:
    @pytest.mark.parametrize(
        "argv",
        [[], _TIES_ANALYTIC,
         ["orientation", "--corpus-size", "1000", "--m-range", "1", "3"],
         _EVAL,
         _COMPARE_LEXIRECALL,
         ["degrade", *_EVAL[1:], "--samples", "2", "--fractions", "0,0.5"]],
        ids=["import", "ties-analytic", "orientation", "eval", "compare-lexirecall", "degrade"],
    )
    def test_closed_forms_never_run_numpy(self, tmp_path, argv):
        loaded = _modules_after(_main_code(argv, tmp_path / "x.tsv"))
        assert not {name for name in loaded if name.startswith("numpy.")}

    @pytest.mark.parametrize(
        "argv", [_EVAL, _COMPARE_LEXIRECALL, _TIES_ANALYTIC],
        ids=["eval", "compare-lexirecall", "ties-analytic"],
    )
    def test_unseeded_tsv_commands_load_no_hashlib_or_json(self, tmp_path, argv):
        # OpenSSL's _hashlib costs each process a few MB; only seeded
        # commands need it, and only JSON output needs json.
        loaded = _modules_after(_main_code(argv, tmp_path / "x.tsv"))
        assert not {"_hashlib", "json"} & (loaded - _modules_after("pass"))

    @pytest.mark.parametrize(
        "argv", [[], _EVAL, _TIES_ANALYTIC], ids=["import", "eval", "ties-analytic"]
    )
    def test_value_types_and_label_free_commands_load_no_dataclasses_or_sampler(
        self, tmp_path, argv
    ):
        # dataclasses and the inspect it imports cost each process about 10 ms.
        loaded = _modules_after(_main_code(argv, tmp_path / "x.tsv"))
        unused = {"dataclasses", "inspect", "lexirank._pcg64"}
        assert not unused & (loaded - _modules_after("pass"))

    def test_missing_numpy_fails_only_where_it_is_used(self, tmp_path):
        # find_spec stands in for an interpreter without numpy.
        out = tmp_path / "x.tsv"
        argv = [str(a) for a in ["compare", "--method", "metric:AP", "--hsd", *data_args(out)]]
        code = (
            "import importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, *a: (\n"
            "    None if name == 'numpy' else find_spec(name, *a))\n"
            "import lexirank, lexirank.cli\n"
            "[getattr(lexirank, name) for name in lexirank.__all__]\n"
            "assert 'numpy' not in sys.modules\n"
            f"sys.exit(lexirank.cli.main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines()[-1] == "error: No module named 'numpy'"
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,used",
        [(_EVAL, {"core", "errors", "io", "metrics"}),
         (_COMPARE_LEXIRECALL, {"core", "errors", "io", "metrics", "prefs", "stats"})],
        ids=["eval", "compare-lexirecall"],
    )
    def test_commands_run_only_the_modules_they_call(self, tmp_path, argv, used):
        # LazyLoader keeps a module's class until its load ends from Python
        # 3.12 on, so the interpreters without numpy (3.10 to 3.13) run this too.
        exported = {f"lexirank.{name}" for name in lexirank._EXPORTS}
        for interpreter in (sys.executable, *interpreters_without_numpy()):
            registered, ran = _modules_run(_main_code(argv, tmp_path / "x.tsv"), interpreter)
            assert exported <= registered, interpreter
            assert exported & ran == {f"lexirank.{name}" for name in used}, interpreter

    def test_public_names_are_unchanged(self):
        # The names an eager import of every module gave.
        code = (
            "import json, lexirank\n"
            "star = {}\n"
            "exec('from lexirank import *', star)\n"
            "print(json.dumps([lexirank.__all__, dir(lexirank), sorted(star)]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        public, listed, star = json.loads(proc.stdout)
        assert public == sorted(_PUBLIC_NAMES)
        module_attributes = [
            "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
            "__package__", "__path__", "__spec__", "_EXPORTS", "__all__", "__version__",
            "_numpy", "analytics", "core", "errors", "io", "metrics", "prefs", "robustness",
            "stats",
        ]
        assert listed == sorted([*module_attributes, *_PUBLIC_NAMES])
        assert star == sorted(["__builtins__", *_PUBLIC_NAMES])

    def test_rebound_function_is_seen_by_the_cli_and_the_package(self, tmp_path):
        # The benchmark's tracer rebinds module functions after this import,
        # before the module has run.
        argv = [*_TIES_ANALYTIC, "--out", str(tmp_path / "x.tsv")]
        code = (
            "import sys, lexirank, lexirank.cli\n"
            "analytics = sys.modules['lexirank.analytics']\n"
            "original, calls = analytics.tie_probability, []\n"
            "def traced(*args, **kwargs):\n"
            "    calls.append(args)\n"
            "    return original(*args, **kwargs)\n"
            "analytics.tie_probability = traced\n"
            "assert lexirank.tie_probability is traced\n"
            f"assert lexirank.cli.main({argv!r}) == 0\n"
            "assert len(calls) == 4 * 4, calls\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_every_module(self):
        # The benchmark's tracer looks the traced modules up in sys.modules.
        traced = ("io", "core", "metrics", "prefs", "stats", "analytics", "robustness")
        assert {f"lexirank.{name}" for name in traced} <= _modules_after("import lexirank.cli")


def test_only_main_prints():
    # Warnings go through logging; the one print is main's error line.
    prints = []
    for path in sorted(Path(lexirank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                scope = parents[node]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                prints.append((path.name, getattr(scope, "name", None), ast.unparse(node)))
    assert prints == [("cli.py", "main", "print(f'error: {exc}', file=sys.stderr)")]
