"""Parsers, writers, and the end-to-end projection of a parsed collection."""

import io
import json
import logging
from pathlib import Path

import pytest

from lexirank import (
    ParseError,
    ValidationError,
    parse_qrels,
    parse_ratings_csv,
    parse_run_file,
    project_and_impute,
    write_table,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseRunFile:
    def test_single_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d42 1 14.89 tagA\n")
        runs = parse_run_file(path, corpus_size=100)
        assert runs["q1"].items == ("d42",)
        assert runs["q1"].system_tag == "tagA"
        assert runs["q1"].corpus_size == 100

    def test_score_descending_with_id_tiebreak(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "q1 Q0 dB 1 5.0 t\n"
            "q1 Q0 dA 2 5.0 t\n"
            "q1 Q0 dC 3 7.0 t\n"
        )
        runs = parse_run_file(path, corpus_size=10)
        assert runs["q1"].items == ("dC", "dA", "dB")

    def test_field_count_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 5.0 t\nq1 Q0 d2 2 4.0\n")
        with pytest.raises(ParseError) as err:
            parse_run_file(path, corpus_size=10)
        assert err.value.line == 2

    def test_duplicate_items_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 5.0 t\nq1 Q0 d1 2 4.0 t\n")
        with pytest.raises(ParseError):
            parse_run_file(path, corpus_size=10)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 high t\n")
        with pytest.raises(ParseError):
            parse_run_file(path, corpus_size=10)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_scores_rejected_in_either_line_order(self, tmp_path, bad):
        # Non-finite scores have no order, so any ranking of these lines would
        # depend on their order in the file.
        scores = zip("abcd", [bad, bad, "1.0", bad])
        lines = [f"q1 Q0 {item} 1 {score} t" for item, score in scores]
        for order in (lines, lines[::-1]):
            path = tmp_path / "run.txt"
            path.write_text("\n".join(order) + "\n")
            with pytest.raises(ParseError) as err:
                parse_run_file(path, corpus_size=10)
            assert (err.value.path, err.value.line) == (str(path), 1)

    def test_mixed_system_tags_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 5.0 tagA\nq2 Q0 d1 1 5.0 tagA\nq2 Q0 d2 2 4.0 tagB\n")
        with pytest.raises(ParseError) as err:
            parse_run_file(path, corpus_size=10)
        assert err.value.line == 3
        assert "tagB" in str(err.value)

    def test_rank_mismatch_warns_but_parses(self, tmp_path, caplog):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 2 9.0 t\nq1 Q0 d2 1 5.0 t\n")
        with caplog.at_level(logging.WARNING):
            runs = parse_run_file(path, corpus_size=10)
        assert runs["q1"].items == ("d1", "d2")
        assert any("rank" in record.message for record in caplog.records)

    def test_reserialization_preserves_order(self, tmp_path):
        original = parse_run_file(FIXTURES / "run_a.txt", corpus_size=50)
        rewritten = tmp_path / "copy.txt"
        with open(rewritten, "w") as fh:
            for request_id in sorted(original):
                ranking = original[request_id]
                for rank, item in enumerate(ranking.items, start=1):
                    score = len(ranking.items) - rank + 1
                    fh.write(f"{request_id} Q0 {item} {rank} {score} re\n")
        reparsed = parse_run_file(rewritten, corpus_size=50)
        for request_id, ranking in original.items():
            assert reparsed[request_id].items == ranking.items


class TestParseQrels:
    def test_default_threshold(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 2\n")
        judgments = parse_qrels(path)
        assert judgments["q1"].relevant_ids == frozenset({"d1"})
        assert judgments["q2"].relevant_ids == frozenset({"d3"})

    def test_rating_threshold(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 4\nq1 0 d2 3\nq1 0 d3 5\n")
        judgments = parse_qrels(path, binarize_threshold=4)
        assert judgments["q1"].relevant_ids == frozenset({"d1", "d3"})

    @pytest.mark.parametrize("first,last", [("1", "0"), ("0", "1"), ("2", "1")])
    def test_conflicting_duplicate_rejected_in_either_line_order(self, tmp_path, first, last):
        # Keeping either grade would make the judgments depend on line order.
        lines = [f"q1 0 d02 {first}", "q1 0 d03 1", f"q1 0 d02 {last}"]
        for order in (lines, [lines[2], lines[1], lines[0]]):
            path = tmp_path / "qrels.txt"
            path.write_text("\n".join(order) + "\n")
            with pytest.raises(ParseError) as err:
                parse_qrels(path)
            assert (err.value.path, err.value.line) == (str(path), 3)
            assert "d02" in str(err.value)

    def test_identical_duplicates_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq1 0 d1 1\nq1 0 d2 0\n")
        with caplog.at_level(logging.WARNING):
            judgments = parse_qrels(path)
        assert judgments["q1"].relevant_ids == frozenset({"d1"})
        assert any("2 duplicate" in r.message for r in caplog.records)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 d1 1\n")
        with pytest.raises(ParseError) as err:
            parse_qrels(path)
        assert err.value.line == 2

    def test_threshold_can_empty_a_request(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\n")
        judgments = parse_qrels(path, binarize_threshold=3)
        assert not judgments["q1"].evaluable


class TestParseRatings:
    def test_threshold_rule(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("user,item,rating\nu1,i9,4.5\nu1,i7,3.9\nu2,i9,4.0\n")
        judgments = parse_ratings_csv(path, threshold=4)
        assert judgments["u1"].relevant_ids == frozenset({"i9"})
        assert judgments["u2"].relevant_ids == frozenset({"i9"})

    def test_empty_after_header(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("user,item,rating\n")
        assert parse_ratings_csv(path) == {}

    def test_bad_rating_line_number(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("user,item,rating\nu1,i1,good\n")
        with pytest.raises(ParseError) as err:
            parse_ratings_csv(path)
        assert err.value.line == 2

    def test_header_required(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("who,what,score\nu1,i1,4\n")
        with pytest.raises(ParseError):
            parse_ratings_csv(path)


class TestWriteTable:
    def test_tsv_single_row(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_table([{"a": 1, "b": 0.123456789}], ["a", "b"], path)
        assert path.read_text() == "a\tb\n1\t0.123457\n"

    def test_tsv_header_only(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_table([], ["x", "y"], path)
        assert path.read_text() == "x\ty\n"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        rows = [{"name": "r1", "value": 0.1234567890123}, {"name": "r2", "value": 2}]
        write_table(rows, ["name", "value"], path, fmt="json")
        assert json.loads(path.read_text()) == rows

    def test_missing_column_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_table([{"a": 1}], ["a", "b"], tmp_path / "out.tsv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_table([], ["a"], tmp_path / "out.x", fmt="xml")

    def test_failed_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_bytes(b"a\tb\n1\t2\n")
        with pytest.raises(ValidationError):
            write_table([{"a": 1, "b": 2}, {"a": 3}], ["a", "b"], path)
        assert path.read_bytes() == b"a\tb\n1\t2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    def test_replacing_keeps_the_file_mode(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old\n")
        path.chmod(0o640)
        write_table([{"a": 1}], ["a"], path)
        assert path.read_text() == "a\n1\n"
        assert path.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    def test_stream_destination_written_directly(self):
        buffer = io.StringIO()
        write_table([{"a": 1}], ["a"], buffer)
        assert buffer.getvalue() == "a\n1\n"


class TestEndToEndProjection:
    def test_partial_retrieval_reaches_bottom_imputation(self, tmp_path):
        # A 10-deep run holding 3 of 6 relevant items at ranks 2, 3, 8 in a
        # corpus of 20 must project to (2, 3, 8, 18, 19, 20).
        run_path = tmp_path / "run.txt"
        lines = []
        items = ["x1", "r1", "r2", "x2", "x3", "x4", "x5", "r3", "x6", "x7"]
        for rank, item in enumerate(items, start=1):
            lines.append(f"q9 Q0 {item} {rank} {20 - rank}.0 sys")
        run_path.write_text("\n".join(lines) + "\n")
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text(
            "".join(f"q9 0 {item} 1\n" for item in ["r1", "r2", "r3", "u1", "u2", "u3"])
        )
        runs = parse_run_file(run_path, corpus_size=20)
        judgments = parse_qrels(qrels_path)
        rp = project_and_impute(runs["q9"], judgments["q9"])
        assert rp.positions == (2, 3, 8, 18, 19, 20)

    def test_bundled_fixture_parses(self):
        runs = parse_run_file(FIXTURES / "run_a.txt", corpus_size=50)
        judgments = parse_qrels(FIXTURES / "qrels.txt")
        assert set(runs) == {"q1", "q2", "q3", "q4", "q5", "q7"}
        assert not judgments["q6"].evaluable
        rp = project_and_impute(runs["q1"], judgments["q1"])
        assert rp.positions == (2, 3, 8)

    def test_ratings_feed_the_scoring_pipeline(self, tmp_path):
        # Per-user judgment sets from a rating export score a recommendation
        # list end to end.
        from lexirank import MetricId, RankedList, evaluate

        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "user,item,rating\n"
            "u1,i1,5\nu1,i2,3.5\nu1,i3,4\n"
            "u2,i2,4.5\nu2,i3,2\n"
        )
        judgments = parse_ratings_csv(ratings, threshold=4)
        run = RankedList("u1", ("i2", "i1", "i4", "i3"), corpus_size=10)
        rp = project_and_impute(run, judgments["u1"])
        assert rp.positions == (2, 4)
        assert evaluate(MetricId.ap(), rp) == pytest.approx(0.5)
