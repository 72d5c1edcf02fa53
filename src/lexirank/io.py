"""File parsers and tabular writers.

Run files are the usual six-column whitespace format
``request Q0 item rank score tag``; qrels are ``request iter item grade``.
Within a request, the ranking order is score-descending with item-id
ascending as the tiebreak; the rank column is validated but never trusted.
Scores must be finite, and every line of a run file must carry the same
system tag.

Run files are parsed in bulk: blocks of lines are split at once and their
columns converted and ordered in numpy. Any line the bulk path cannot vouch
for sends the whole file to the plain line loop, which raises the error with
its file and line. Both paths give the same rankings, warnings and errors.
"""

from __future__ import annotations

import json
import logging
import math
import os
import stat
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .core import JudgmentSet, RankedList
from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Characters per block of the bulk run-file reader. A whole-file read would
# keep the token arenas pinned by the item strings that outlive the split.
_BLOCK_CHARS = 1 << 16

# The ASCII characters str.split() splits on: \t \n \v \f \r, the
# separators \x1c-\x1f and the space.
_ASCII_WHITESPACE = np.zeros(256, dtype=bool)
_ASCII_WHITESPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_ASCII_WHITESPACE.setflags(write=False)


def _read_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield number, line


def parse_run_file(path: str | Path, corpus_size: int) -> dict[str, RankedList]:
    """Parse a run file into per-request rankings, in order of first appearance.

    ``corpus_size`` is attached to every ranking; it is configuration, not
    file content. Rank columns that disagree with the score ordering are
    reported as a warning because the scores are authoritative. A malformed
    line, a non-finite score, a second system tag or a repeated item of a
    request is a ``ParseError`` with its file and line.

    The file is read in blocks of lines, each split once and checked for
    six fields per line and one tag; ranks and scores are converted per
    column and the rankings ordered with a stable numpy sort. Anything else
    (non-ASCII text, a conversion that fails or overflows int64, a
    non-finite score, a ranking ``RankedList`` refuses) reparses the whole
    file with the line loop, which raises the first error in line order. So
    the result, the warning and every error are the same on both paths.
    """
    if corpus_size < 1:
        raise ValidationError(f"corpus_size must be positive, got {corpus_size}")
    parsed = _parse_run_bulk(path, corpus_size)
    if parsed is None:
        parsed = _parse_run_lines(path, corpus_size)
    runs, rank_mismatches = parsed
    if rank_mismatches:
        logger.warning(
            "%s: %d rank fields disagree with score order; scores are authoritative",
            str(path),
            rank_mismatches,
        )
    return runs


def _fields_per_line(text: str) -> np.ndarray:
    """Number of ``str.split()`` fields on each line of ASCII ``text``."""
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    space = _ASCII_WHITESPACE.take(buf)
    field_start = ~space
    field_start[1:] &= space[:-1]
    line_ends = np.append(np.flatnonzero(buf == ord("\n")), len(buf))
    return np.diff(np.searchsorted(np.flatnonzero(field_start), line_ends), prepend=0)


def _parse_run_bulk(
    path: str | Path, corpus_size: int
) -> tuple[dict[str, RankedList], int] | None:
    """Rankings and rank-mismatch count, or ``None`` to defer to the line loop."""
    codes: dict[str, int] = {}  # request id -> order of first appearance
    code_blocks: list[np.ndarray] = []
    rank_blocks: list[np.ndarray] = []
    score_blocks: list[np.ndarray] = []
    items: list[str] = []
    tag = None
    # Undecodable bytes become surrogates, which are not ASCII, so the line
    # loop meets them in line order and raises as it always did.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.readlines(_BLOCK_CHARS):
            text = "".join(block)
            if not text.isascii():
                return None
            fields = _fields_per_line(text)
            if not ((fields == 0) | (fields == 6)).all():
                return None
            tokens = text.split()
            if not tokens:
                continue
            tags = tokens[5::6]
            if tag is None:
                tag = tags[0]
            if tags.count(tag) != len(tags):
                return None
            requests = tokens[0::6]
            for request_id in dict.fromkeys(requests):
                codes.setdefault(request_id, len(codes))
            n = len(requests)
            try:
                rank_blocks.append(np.fromiter(map(int, tokens[3::6]), np.int64, n))
                score_blocks.append(np.fromiter(map(float, tokens[4::6]), np.float64, n))
            except (ValueError, OverflowError):  # a bad rank or score, a rank past int64
                return None
            code_blocks.append(np.fromiter(map(codes.__getitem__, requests), np.intp, n))
            items += tokens[2::6]
    if not items:
        return {}, 0
    code = np.concatenate(code_blocks)
    score = np.concatenate(score_blocks)
    if not np.isfinite(score).all():
        return None
    order = np.lexsort((-score, code))
    code, score = code[order], score[order]
    # The stable sort leaves equal scores in file order; break those ties by
    # item id, as the line loop's sort key does.
    group_starts = np.flatnonzero(
        np.concatenate(([True], (code[1:] != code[:-1]) | (score[1:] != score[:-1])))
    )
    bounds = np.append(group_starts, len(order))
    tied = np.flatnonzero(np.diff(bounds) > 1)
    for lo, hi in zip(bounds[tied].tolist(), bounds[tied + 1].tolist()):
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=items.__getitem__)
    ranked = list(map(items.__getitem__, order.tolist()))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(code, minlength=len(codes)))))
    position = np.arange(1, len(ranked) + 1) - offsets[code]
    rank_mismatches = int(np.count_nonzero(np.concatenate(rank_blocks)[order] != position))
    edges = offsets.tolist()
    try:
        runs = {
            request_id: RankedList(request_id, tuple(ranked[lo:hi]), corpus_size, tag)
            for request_id, lo, hi in zip(codes, edges, edges[1:])
        }
    except ValidationError:  # a repeated item, or more items than corpus_size
        return None
    return runs, rank_mismatches


def _parse_run_lines(
    path: str | Path, corpus_size: int
) -> tuple[dict[str, RankedList], int]:
    """Rankings and rank-mismatch count, one line at a time.

    The reference for the bulk path, and the path that reports errors: it
    raises at the first bad line in file order.
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


def parse_qrels(
    path: str | Path, binarize_threshold: int = 1
) -> dict[str, JudgmentSet]:
    """Parse qrels; items with grade >= threshold count as relevant.

    The default threshold of 1 matches conventional binary qrels; graded
    rating exports typically use 4. A repeated (request, item) line with
    the same grade is dropped with a warning; one with a different grade
    raises ``ParseError`` at the repeated line, since keeping either grade
    would make the judgments depend on line order. Requests where nothing
    clears the threshold yield an empty, unevaluable judgment set so that
    callers can count and skip them.
    """
    spath = str(path)
    grades: dict[str, dict[str, int]] = {}
    duplicates = 0
    for number, line in _read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 whitespace-separated fields, got {len(fields)}",
                path=spath,
                line=number,
            )
        request_id, _iteration, item_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError as exc:
            raise ParseError(f"bad grade: {exc}", path=spath, line=number) from exc
        per_request = grades.setdefault(request_id, {})
        previous = per_request.get(item_id)
        if previous is None:
            per_request[item_id] = grade
        elif previous == grade:
            duplicates += 1
        else:
            raise ParseError(
                f"item {item_id!r} of request {request_id!r} graded {previous} "
                f"earlier and {grade} here",
                path=spath,
                line=number,
            )
    if duplicates:
        logger.warning("%s: %d duplicate judgments with equal grades ignored", spath, duplicates)
    return {
        request_id: JudgmentSet(
            request_id=request_id,
            relevant_ids=frozenset(
                item for item, grade in items.items() if grade >= binarize_threshold
            ),
        )
        for request_id, items in grades.items()
    }


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _write_rows(
    rows: Iterable[Mapping[str, object]], columns: Sequence[str], fh: IO[str], fmt: str
) -> None:
    materialized = [dict(row) for row in rows]
    for row in materialized:
        missing = [c for c in columns if c not in row]
        if missing:
            raise ValidationError(f"row is missing columns {missing}")
    if fmt == "tsv":
        fh.write("\t".join(columns) + "\n")
        for row in materialized:
            fh.write("\t".join(_format_cell(row[c]) for c in columns) + "\n")
    else:
        payload = [{c: row[c] for c in columns} for row in materialized]
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_table(
    rows: Iterable[Mapping[str, object]],
    columns: Sequence[str],
    destination: str | Path | IO[str],
    fmt: str = "tsv",
) -> None:
    """Write rows as TSV (floats at 6 significant digits) or lossless JSON.

    A path is replaced atomically: the table is written to a temporary file
    in the same directory and renamed over the path only once complete, so a
    failed write leaves an existing file as it was. Streams, and paths that
    exist but are not regular files (``/dev/stdout``, a pipe), are written
    directly.
    """
    if fmt not in ("tsv", "json"):
        raise ValidationError(f"unknown format {fmt!r}; use tsv or json")
    if not isinstance(destination, (str, Path)):
        _write_rows(rows, columns, destination, fmt)
        return
    target = os.path.realpath(destination)
    existing = os.stat(target) if os.path.exists(target) else None
    if existing is not None and not stat.S_ISREG(existing.st_mode):
        with open(target, "w", encoding="utf-8") as fh:
            _write_rows(rows, columns, fh, fmt)
        return
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    # Created like open(path, "w") would create it: mode 0o666 less the umask.
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the destination, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, str(destination)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_rows(rows, columns, fh, fmt)
        if existing is not None:
            os.chmod(temp, stat.S_IMODE(existing.st_mode))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
