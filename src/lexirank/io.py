"""File parsers and tabular writers.

Run files are the usual six-column whitespace format
``request Q0 item rank score tag``; qrels are ``request iter item grade``.
Within a request, the ranking order is score-descending with item-id
ascending as the tiebreak; the rank column is validated but never trusted.
Scores must be finite, and every line of a run file must carry the same
system tag.

Run files are parsed in bulk, in plain Python and without numpy. Each block
of lines is split once, with every line end marked by a token of its own, so
that one count shows whether every line has six fields; a block that fails
it is split line by line, dropping blank lines. The columns are stride
slices; scores are converted with ``float``, and rank fields are compared as
text with the positions and converted with ``int`` only in a request where
they differ. One stable sort groups the lines by request, and one per
request orders it by score, with item ids breaking ties only where scores
are equal. ``RankedList`` refuses a repeated item and a ranking longer than
the corpus. Every way this can fail ends in one handler, which reads the
file again with a check-only line loop that builds nothing and raises the
error of the first bad line in file order. A file with no bad line can fail
only for a ranking longer than the corpus, the one error without a line.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import re
import stat
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .core import JudgmentSet, RankedList
from .errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Characters per block of the bulk run-file reader, which ends each block at a
# line end. A whole-file read would keep the token arenas pinned by the item
# strings that outlive the split.
_BLOCK_CHARS = 1 << 16

# Stands in for every line end before a block is split, so that each line
# ends in a token of its own. A block that holds it is split line by line.
_END = "\x00"

# What undecodable bytes become when a file is read with surrogateescape.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _read_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    """Numbered non-blank lines, stripped; ``ParseError`` at one that is not UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.isascii() and _UNDECODABLE.search(raw):
                raise ParseError("line is not valid UTF-8", path=str(path), line=number)
            line = raw.strip()
            if line:
                yield number, line


def parse_run_file(path: str | Path, corpus_size: int) -> dict[str, RankedList]:
    """Parse a run file into per-request rankings, in order of first appearance.

    ``corpus_size`` is attached to every ranking; it is configuration, not
    file content. Rank columns that disagree with the score ordering are
    reported as a warning because the scores are authoritative. A malformed
    line, bytes that are not UTF-8, a non-finite score, a second system tag
    or a repeated item of a request is a ``ParseError`` with its file and
    line; the first in file order is reported. A ranking longer than
    ``corpus_size`` is a ``ValidationError``.

    One bulk parse builds the rankings (see the module docstring); when it
    fails, ``_raise_at_bad_line`` only names the line.
    """
    if corpus_size < 1:
        raise ValidationError(f"corpus_size must be positive, got {corpus_size}")
    requests: list[str] = []
    items: list[str] = []
    rank_texts: list[str] = []
    scores: list[float] = []
    tag = None
    runs = {}
    rank_mismatches = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while text := fh.read(_BLOCK_CHARS):
                tokens = _block_fields(text + fh.readline())
                if not tokens:
                    continue
                tags = tokens[5::7]
                if tag is None:
                    tag = tags[0]
                if tags.count(tag) != len(tags):
                    raise ValueError("a second system tag")
                requests += tokens[0::7]
                items += tokens[2::7]
                rank_texts += tokens[3::7]
                scores += map(float, tokens[4::7])
        if not all(map(math.isfinite, scores)):
            raise ValueError("a non-finite score")
        # Row indices grouped by request, requests in order of first appearance.
        lines_per_request = Counter(requests)
        code = dict(zip(lines_per_request, range(len(lines_per_request))))
        order = sorted(range(len(requests)), key=list(map(code.__getitem__, requests)).__getitem__)
        # The rank fields of a request that agree with its order, as usually written.
        numerals = list(map(str, range(1, max(lines_per_request.values(), default=0) + 1)))
        hi = 0
        for request_id, count in lines_per_request.items():
            lo, hi = hi, hi + count
            rows = order[lo:hi]
            rows.sort(key=scores.__getitem__, reverse=True)
            ranked_scores = list(map(scores.__getitem__, rows))
            if any(map(operator.eq, ranked_scores, ranked_scores[1:])):
                # Equal scores, left in file order by the stable sort: order
                # by item id, then again by score.
                rows.sort(key=items.__getitem__)
                rows.sort(key=scores.__getitem__, reverse=True)
            ranked_texts = list(map(rank_texts.__getitem__, rows))
            if ranked_texts != numerals[:count]:  # int() also rejects a bad rank
                positions = range(1, count + 1)
                rank_mismatches += sum(map(operator.ne, map(int, ranked_texts), positions))
            ranked = tuple(map(items.__getitem__, rows))
            runs[request_id] = RankedList(request_id, ranked, corpus_size, tag)
    except (ValueError, ValidationError):  # UnicodeDecodeError is a ValueError
        _raise_at_bad_line(path)
        raise  # no bad line: a ranking longer than corpus_size
    if rank_mismatches:
        logger.warning(
            "%s: %d rank fields disagree with score order; scores are authoritative",
            str(path),
            rank_mismatches,
        )
    return runs


def _block_fields(text: str) -> list[str]:
    """Seven tokens per line that is not blank: its six fields, then ``_END``.

    ``ValueError`` if a line that is not blank has other than six fields.
    """
    if _END not in text:
        tokens = text.replace("\n", f" {_END} ").split()
        # As many end marks as lines, each 7th token one: six fields a line.
        # A file's last line without its line end fails this: split by line.
        lines = text.count("\n")
        if len(tokens) == 7 * lines and tokens[6::7].count(_END) == lines:
            return tokens
    tokens = []
    for line in text.split("\n"):
        fields = line.split()
        if len(fields) == 6:
            tokens += fields
            tokens.append(_END)
        elif fields:
            raise ValueError("a line without six fields")
    return tokens


def _raise_at_bad_line(path: str | Path) -> None:
    """Raise the ``ParseError`` of a run file's first bad line, if it has one.

    The checks run in this order on each line, and nothing is built: six
    fields, an ``int`` rank and a ``float`` score, a finite score, the file's
    one system tag, an item not yet seen for its request. Its errors replace
    the bulk parse's, so they do not carry that one as their context.
    """
    spath = str(path)
    seen: set[tuple[str, str]] = set()
    system_tag: str | None = None
    for number, line in _read_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(
                f"expected 6 whitespace-separated fields, got {len(fields)}",
                path=spath,
                line=number,
            ) from None
        request_id, _q0, item_id, rank_text, score_text, tag = fields
        try:
            int(rank_text)
            score = float(score_text)
        except ValueError as exc:
            raise ParseError(f"bad rank/score: {exc}", path=spath, line=number) from exc
        if not math.isfinite(score):
            message = f"non-finite score {score_text!r}"
            raise ParseError(message, path=spath, line=number) from None
        if system_tag is None:
            system_tag = tag
        elif tag != system_tag:
            raise ParseError(
                f"system tag {tag!r} differs from the file's tag {system_tag!r}",
                path=spath,
                line=number,
            ) from None
        key = (request_id, item_id)
        if key in seen:
            raise ParseError(
                f"duplicate item {item_id!r} for request {request_id!r}",
                path=spath,
                line=number,
            ) from None
        seen.add(key)


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
