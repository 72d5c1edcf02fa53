"""File parsers and tabular writers.

Run files are the usual six-column whitespace format
``request Q0 item rank score tag``; qrels are ``request iter item grade``;
rating files are ``user,item,rating`` CSVs. Within a request, the ranking
order is score-descending with item-id ascending as the tiebreak; the rank
column is validated but never trusted. Scores must be finite, and every line
of a run file must carry the same system tag.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import stat
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .core import JudgmentSet, RankedList
from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)


class RunFileRecord(NamedTuple):
    item_id: str
    rank: int
    score: float


def _read_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield number, line


def parse_run_file(path: str | Path, corpus_size: int) -> dict[str, RankedList]:
    """Parse a run file into per-request rankings.

    ``corpus_size`` is attached to every ranking; it is configuration, not
    file content. Rank columns that disagree with the score ordering are
    reported as a warning because the scores are authoritative. Non-finite
    scores and a second system tag are errors, reported with their line.
    """
    if corpus_size < 1:
        raise ValidationError(f"corpus_size must be positive, got {corpus_size}")
    spath = str(path)
    records: dict[str, list[RunFileRecord]] = {}
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
        records.setdefault(request_id, []).append(
            RunFileRecord(item_id, rank, score)
        )

    out: dict[str, RankedList] = {}
    rank_mismatches = 0
    for request_id, recs in records.items():
        recs.sort(key=lambda r: (-r.score, r.item_id))
        for position, rec in enumerate(recs, start=1):
            if rec.rank != position:
                rank_mismatches += 1
        out[request_id] = RankedList(
            request_id=request_id,
            items=tuple(rec.item_id for rec in recs),
            corpus_size=corpus_size,
            system_tag=system_tag,
        )
    if rank_mismatches:
        logger.warning(
            "%s: %d rank fields disagree with score order; scores are authoritative",
            spath,
            rank_mismatches,
        )
    return out


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


def parse_ratings_csv(path: str | Path, threshold: float = 4.0) -> dict[str, JudgmentSet]:
    """Parse a ``user,item,rating`` CSV into per-user judgment sets."""
    spath = str(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty ratings file", path=spath, line=1)
        if [h.strip().lower() for h in header] != ["user", "item", "rating"]:
            raise ParseError(
                f"expected header user,item,rating, got {','.join(header)}",
                path=spath,
                line=1,
            )
        relevant: dict[str, set[str]] = {}
        for number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(
                    f"expected 3 comma-separated fields, got {len(row)}",
                    path=spath,
                    line=number,
                )
            user, item, rating_text = (field.strip() for field in row)
            try:
                rating = float(rating_text)
            except ValueError as exc:
                raise ParseError(f"bad rating: {exc}", path=spath, line=number) from exc
            bucket = relevant.setdefault(user, set())
            if rating >= threshold:
                bucket.add(item)
    return {
        user: JudgmentSet(request_id=user, relevant_ids=frozenset(items))
        for user, items in relevant.items()
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
