"""Parsers, writers, and the end-to-end projection of a parsed collection."""

import io
import json
import logging
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexirank.io
from lexirank import (
    ParseError,
    RankedList,
    ValidationError,
    parse_qrels,
    parse_run_file,
    project_and_impute,
    write_table,
)
from lexirank.io import _read_lines

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
        # A traceback shows no error of the failed bulk parse.
        assert err.value.__context__ is None or err.value.__suppress_context__

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

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes(b"q1 Q0 d1 1 2.0 t\nq1 Q0 d\xe9 2 1.0 t\nq1 Q0 d3 3 0.5 t\n")
        with pytest.raises(ParseError) as err:
            parse_run_file(path, corpus_size=10)
        assert (err.value.path, err.value.line) == (str(path), 2)
        assert "UTF-8" in str(err.value)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
    def test_empty_and_blank_only_files_hold_no_ranking(self, tmp_path, text):
        path = tmp_path / "run.txt"
        path.write_text(text)
        assert parse_run_file(path, corpus_size=10) == {}

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


# Run-file pieces for the bulk/line-loop property: score spellings with ties
# (0.0 against -0.0 among them), every ASCII separator str.split() knows,
# both line ends, blank lines, and one non-ASCII item id. The non-ASCII
# separators split fields for str.split() but do not end a line when a file
# is read.
_REQUESTS = ["q1", "q2", "q10"]
_ITEMS = ["d1", "d2", "d3", "d10", "D2", "d-4", "d\u00e9"]
_SCORES = ["0.0", "-0.0", "0", "-0", "1.5", "+1.5", "1.50", "2", "-3e-2", "7"]
# Rank spellings: the usual numerals, and others int() reads as the same rank.
_RANKS = ["1", "2", "3", "4", "01", "+2", "0", "1_0"]
_SEPARATORS = [" ", "   ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \t"]
_NON_ASCII_SEPARATORS = ["\u3000", "\x85", "\u2028"]
_PADDING = ["", " ", "\t "]
_LINE_ENDS = ["\n", "\r\n"]
_BLANK_LINES = ["", "   ", "\t"]
# Characters per block of the bulk reader: one line per block, a few lines,
# and the production size.
_BLOCK_SIZES = [1, 60, lexirank.io._BLOCK_CHARS]


@st.composite
def _run_lines(draw, ascii_only: bool) -> list[list[str]]:
    """Fields of the lines of a valid run file, requests interleaved."""
    items = [i for i in _ITEMS if i.isascii()] if ascii_only else _ITEMS
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(_REQUESTS), st.sampled_from(items)),
            min_size=1,
            max_size=25,
            unique=True,
        )
    )
    return [
        [request, "Q0", item, draw(st.sampled_from(_RANKS)), draw(st.sampled_from(_SCORES)), "tg"]
        for request, item in keys
    ]


# Line orders that the parser treats differently: as drawn (requests
# interleaved); grouped by request in order of first appearance; grouped and
# sorted by descending score, equal scores (0.0 and -0.0 among them) left in
# drawn order, so that a request without ties is already ranked; and grouped
# and sorted with one request split into two runs of lines.
_ARRANGEMENTS = ["drawn", "grouped", "score-sorted", "split"]


def _arrange(draw, rows: list[list[str]], arrangement: str) -> list[list[str]]:
    """The lines of a valid run file in one of the ``_ARRANGEMENTS``."""
    if arrangement == "drawn":
        return rows
    first = {}
    for fields in rows:
        first.setdefault(fields[0], len(first))
    if arrangement == "grouped":
        return sorted(rows, key=lambda fields: first[fields[0]])
    rows = sorted(rows, key=lambda fields: (first[fields[0]], -float(fields[4])))
    splittable = [q for q in first if sum(fields[0] == q for fields in rows) > 1]
    if arrangement == "score-sorted" or len(first) < 2 or not splittable:
        return rows
    request = draw(st.sampled_from(splittable))
    own = [fields for fields in rows if fields[0] == request]
    cut = draw(st.integers(1, len(own) - 1))
    return own[:cut] + [fields for fields in rows if fields[0] != request] + own[cut:]


@st.composite
def _layout(draw, rows: list[list[str]], ascii_only: bool = True) -> bytes:
    """Serialise rows with drawn separators, padding, line ends and blank lines."""
    separators = _SEPARATORS if ascii_only else _SEPARATORS + _NON_ASCII_SEPARATORS
    out = []
    for fields in rows:
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(_BLANK_LINES)) + draw(st.sampled_from(_LINE_ENDS)))
        text = fields[0]
        for field in fields[1:]:
            text += draw(st.sampled_from(separators)) + field
        pad = st.sampled_from(_PADDING)
        out.append(draw(pad) + text + draw(pad) + draw(st.sampled_from(_LINE_ENDS)))
    if draw(st.booleans()):  # a last line without its line end
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode("utf-8")


_MALFORMATIONS = ["fields", "rank", "score", "tag", "duplicate", "corpus"]


def _break(draw, rows: list[list[str]], count: int = 1) -> tuple[list[list[str]], int]:
    """``count`` malformations of different kinds at drawn lines, and the
    corpus size to parse with."""
    rows = [list(fields) for fields in rows]
    kinds = st.lists(st.sampled_from(_MALFORMATIONS), min_size=count, max_size=count, unique=True)
    corpus_size = 100
    # A field split last, so that every other kind finds six fields at its line.
    for kind in sorted(draw(kinds), key="fields".__eq__):
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "fields":
            # A line break one field early or late: 5 and 7 fields on adjacent
            # lines keep the token total a multiple of 6 and the columns aligned.
            joined = rows[at] + [rows[at][0], "Q0", "d99", "1", "0.5", "tg"]
            cut = draw(st.sampled_from([5, 7]))
            rows[at : at + 1] = [joined[:cut], joined[cut:]]
        elif kind == "rank":
            rows[at][3] = draw(st.sampled_from(["x1", "1.0", "99999999999999999999"]))
        elif kind == "score":
            rows[at][4] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "high"]))
        elif kind == "tag":
            rows[at][5] = "other"
        elif kind == "duplicate":
            rows.insert(draw(st.integers(at + 1, len(rows))), list(rows[at]))
        else:  # one item more than the corpus holds in the deepest request
            deepest = max(sum(fields[0] == request for fields in rows) for request in _REQUESTS)
            corpus_size = max(1, deepest - 1)
    return rows, corpus_size


class _Warnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _outcome(parse, path: Path, corpus_size: int):
    """What a parse returns (rankings and warnings) or raises, comparably."""
    handler = _Warnings()
    logger = logging.getLogger("lexirank.io")
    logger.addHandler(handler)
    try:
        runs = parse(path, corpus_size)
    except ValidationError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None))
    finally:
        logger.removeHandler(handler)
    rankings = [(q, r.request_id, r.items, r.corpus_size, r.system_tag) for q, r in runs.items()]
    return rankings, handler.messages


def _parse_run_lines(
    path: str | Path, corpus_size: int
) -> tuple[dict[str, RankedList], int]:
    """Rankings and rank-mismatch count, one line at a time.

    The reference for ``parse_run_file``: it builds every ranking from its
    own records and raises at the first bad line in file order.
    """
    spath = str(path)
    records: dict[str, list[tuple[float, str, int]]] = {}
    seen: set[tuple[str, str]] = set()
    system_tag: str | None = None
    for number, line in _read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(
                f"expected 6 whitespace-separated fields, got {len(fields)}",
                path=spath,
                line=number,
            )
        request_id, _q0, item_id, rank_text, score_text, tag = fields
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError as exc:
            raise ParseError(f"bad rank/score: {exc}", path=spath, line=number) from exc
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", path=spath, line=number)
        if tag != system_tag:
            if system_tag is not None:
                raise ParseError(
                    f"system tag {tag!r} differs from the file's tag {system_tag!r}",
                    path=spath,
                    line=number,
                )
            system_tag = tag
        key = (request_id, item_id)
        if key in seen:
            raise ParseError(
                f"duplicate item {item_id!r} for request {request_id!r}",
                path=spath,
                line=number,
            )
        seen.add(key)
        records.setdefault(request_id, []).append((-score, item_id, rank))

    out: dict[str, RankedList] = {}
    rank_mismatches = 0
    for request_id, recs in records.items():
        # Score descending, then item id; ids are unique, so the rank never decides.
        recs.sort()
        for position, (_, _, rank) in enumerate(recs, start=1):
            if rank != position:
                rank_mismatches += 1
        out[request_id] = RankedList(
            request_id=request_id,
            items=tuple(item_id for _, item_id, _ in recs),
            corpus_size=corpus_size,
            system_tag=system_tag,
        )
    return out, rank_mismatches


def _line_loop(path: Path, corpus_size: int):
    """The line loop, warning as ``parse_run_file`` does: the reference."""
    runs, rank_mismatches = _parse_run_lines(path, corpus_size)
    if rank_mismatches:
        logging.getLogger("lexirank.io").warning(
            "%s: %d rank fields disagree with score order; scores are authoritative",
            str(path),
            rank_mismatches,
        )
    return runs


class TestBulkParserMatchesLineLoop:
    """``parse_run_file`` against the line loop: rankings, warnings and errors."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        ascii_only=st.booleans(),
        block=st.sampled_from(_BLOCK_SIZES),
        arrangement=st.sampled_from(_ARRANGEMENTS),
    )
    def test_valid_files(self, tmp_path_factory, data, ascii_only, block, arrangement):
        rows = _arrange(data.draw, data.draw(_run_lines(ascii_only)), arrangement)
        path = tmp_path_factory.mktemp("bulk") / "run.txt"
        path.write_bytes(data.draw(_layout(rows, ascii_only)))
        # Non-ASCII text and blank lines never send a valid file to the check loop.
        with mock.patch.object(lexirank.io, "_BLOCK_CHARS", block), mock.patch.object(
            lexirank.io, "_raise_at_bad_line", side_effect=AssertionError
        ):
            assert _outcome(parse_run_file, path, 100) == _outcome(_line_loop, path, 100)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        block=st.sampled_from(_BLOCK_SIZES),
        arrangement=st.sampled_from(_ARRANGEMENTS),
    )
    def test_malformed_files(self, tmp_path_factory, data, block, arrangement):
        rows = _arrange(data.draw, data.draw(_run_lines(ascii_only=True)), arrangement)
        rows, corpus_size = _break(data.draw, rows)
        path = tmp_path_factory.mktemp("bulk") / "run.txt"
        path.write_bytes(data.draw(_layout(rows)))
        with mock.patch.object(lexirank.io, "_BLOCK_CHARS", block):
            got = _outcome(parse_run_file, path, corpus_size)
        assert got == _outcome(_line_loop, path, corpus_size)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), block=st.sampled_from(_BLOCK_SIZES[:2]))
    def test_two_malformations_report_the_earliest(self, tmp_path_factory, data, block):
        # The bulk path may fail at a later line than the first bad one: a
        # repeated item surfaces only once every block is read.
        rows, corpus_size = _break(data.draw, data.draw(_run_lines(ascii_only=True)), count=2)
        path = tmp_path_factory.mktemp("bulk") / "run.txt"
        path.write_bytes(data.draw(_layout(rows)))
        with mock.patch.object(lexirank.io, "_BLOCK_CHARS", block):
            got = _outcome(parse_run_file, path, corpus_size)
        assert got == _outcome(_line_loop, path, corpus_size)

    def test_zero_and_negative_zero_tie_by_item_id(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 dB 1 -0.0 t\nq1 Q0 dC 2 1 t\nq1 Q0 dA 3 0.0 t\n")
        assert parse_run_file(path, corpus_size=10)["q1"].items == ("dC", "dA", "dB")

    def test_nul_and_undecodable_bytes_match_the_line_loop(self, tmp_path):
        path = tmp_path / "run.txt"
        # NUL is neither ASCII whitespace nor a line end: an ordinary item id.
        path.write_bytes(b"q1 Q0 d\x001 1 1.0 t\n")
        assert _outcome(parse_run_file, path, 10) == _outcome(_line_loop, path, 10)
        assert parse_run_file(path, 10)["q1"].items == ("d\x001",)
        # A bad line, then undecodable bytes past the first 8 KB decoding
        # chunk but inside the first 64 KB block: the line loop reports the
        # bad line, and so must parse_run_file.
        path.write_bytes(b"q1 Q0 d1 1 1.0\n" + b"q1 Q0 d2 2 0.5 t\n" * 1000 + b"\xff\n")
        assert _outcome(parse_run_file, path, 10**6) == _outcome(_line_loop, path, 10**6)


class TestSharedIds:
    """One ``ids`` dict across the files of a collection."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        files=st.integers(2, 4),
        arrangement=st.sampled_from(_ARRANGEMENTS),
        disjoint=st.booleans(),
        broken=st.none() | st.integers(0, 3),
        block=st.sampled_from(_BLOCK_SIZES),
    )
    def test_shared_ids_parse_as_each_file_alone(
        self, tmp_path_factory, data, files, arrangement, disjoint, broken, block
    ):
        directory = tmp_path_factory.mktemp("shared")
        paths = []
        for index in range(files):
            rows = data.draw(_run_lines(ascii_only=True))
            if disjoint:
                rows = [[*fields[:2], f"{fields[2]}-{index}", *fields[3:]] for fields in rows]
            rows = _arrange(data.draw, rows, arrangement)
            corpus_size = 100
            if index == broken:
                rows, corpus_size = _break(data.draw, rows)
            path = directory / f"run{index}.txt"
            path.write_bytes(data.draw(_layout(rows)))
            paths.append((path, corpus_size))
        ids: dict[str, str] = {}
        with mock.patch.object(lexirank.io, "_BLOCK_CHARS", block):
            alone = [_outcome(parse_run_file, path, size) for path, size in paths]
            shared = [
                _outcome(lambda p, c: parse_run_file(p, c, ids), path, size)
                for path, size in paths
            ]
        assert shared == alone
        kept: dict[str, str] = {}
        for outcome in shared:
            if outcome[0] == "error":
                continue
            for key, request_id, items, _corpus_size, _tag in outcome[0]:
                for text in (key, request_id, *items):
                    assert kept.setdefault(text, text) is text

    def test_without_a_dict_ids_are_shared_within_the_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 doc-1 1 2 t\nq2 Q0 doc-1 1 2 t\nq1 Q0 doc-2 2 1 t\n")
        runs = parse_run_file(path, corpus_size=10)
        assert runs["q1"].items[0] is runs["q2"].items[0]
        assert next(iter(runs)) is runs["q1"].request_id


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

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_bytes(b"q1 0 d1 1\n\nq1 0 d2 \xff\n")
        with pytest.raises(ParseError) as err:
            parse_qrels(path)
        assert (err.value.path, err.value.line) == (str(path), 3)
        assert "UTF-8" in str(err.value)

    def test_threshold_can_empty_a_request(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\n")
        judgments = parse_qrels(path, binarize_threshold=3)
        assert not judgments["q1"].evaluable


def _format_cell(value: object) -> str:
    """How a TSV cell prints: the reference for ``write_table``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _reference_tsv(rows, columns) -> str:
    lines = ["\t".join(columns)]
    lines += ["\t".join(_format_cell(row[c]) for c in columns) for row in rows]
    return "".join(line + "\n" for line in lines)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0, 1e-7])
_CELLS = [
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-(10**20), 10**20),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(max_size=5).filter(lambda t: "\t" not in t),
    st.none(),
    st.fractions(),
]


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), columns=st.lists(st.text("abc", min_size=1), max_size=4, unique=True))
    def test_tsv_matches_the_cell_reference(self, data, columns):
        # A column is of one type or of mixed types.
        kinds = {
            c: data.draw(st.sampled_from(_CELLS) | st.just(st.one_of(_CELLS)), label=c)
            for c in columns
        }
        row = st.fixed_dictionaries({c: kinds[c] for c in columns})
        rows = data.draw(st.lists(row, max_size=8), label="rows")
        buffer = io.StringIO()
        write_table(rows, columns, buffer)
        assert buffer.getvalue() == _reference_tsv(rows, columns)

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
        # Per-user judgment sets from a rating export, written as qrels with
        # integer grades and binarized at 4, score a recommendation list end
        # to end.
        from lexirank import MetricId, RankedList, evaluate

        ratings = tmp_path / "ratings.qrels"
        ratings.write_text("u1 0 i1 5\nu1 0 i2 3\nu1 0 i3 4\nu2 0 i2 5\nu2 0 i3 2\n")
        judgments = parse_qrels(ratings, binarize_threshold=4)
        run = RankedList("u1", ("i2", "i1", "i4", "i3"), corpus_size=10)
        rp = project_and_impute(run, judgments["u1"])
        assert rp.positions == (2, 4)
        assert evaluate(MetricId.ap(), rp) == pytest.approx(0.5)
