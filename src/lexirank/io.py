"""File parsers and tabular writers.

Run files are the usual six-column whitespace format
``request Q0 item rank score tag``; qrels are ``request iter item grade``.
Within a request, the ranking order is score-descending with item-id
ascending as the tiebreak; the rank column is validated but never trusted.
Scores must be finite, and every line of a run file must carry the same
system tag. Ranks, scores and grades are ASCII numerals without ``_``; ids
are free-form.

Run files are parsed in bulk, in plain Python and without numpy. Each block
of lines is split once, with every line end marked by a token of its own, so
that one count shows whether every line has six fields; a block that fails
it is split line by line, dropping blank lines. The columns are stride
slices. A caller that keeps the rankings of many files may pass a dict of
the ids already read: every request and item id then goes through it, so
each id is held as one string however many lines and files name it, and
memory grows with the distinct ids, not with runs times requests times
depth. Without one, ids are the strings the split made, and cost nothing
beyond it. Scores are converted with ``float``, and rank fields are compared
as text with the positions and converted with ``int`` only in a request
where they differ. Run files are usually written as trec_eval reads them,
each request's lines together in descending score order, so a request that
is one run of lines with strictly decreasing scores is ranked as written:
its ranking is a slice of the columns. If a request has two runs of lines,
one pass over the request column groups the rows in a dict of lists, one
list per request. A request not ranked as written is sorted by score, with
item ids breaking ties only where scores are equal. ``RankedList`` refuses a
repeated item and a ranking longer than the corpus. Every way this can fail
ends in one handler, which reads the file again with a check-only line loop
that builds nothing and raises the error of the first bad line in file
order. A file with no bad line can fail only for a ranking longer than the
corpus, the one error without a line.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import re
import stat
from itertools import chain, compress, count, islice
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

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

# A UTF-8 byte-order mark, which would otherwise read as part of the first id.
_BOM = "\ufeff"

# What undecodable bytes become when a file is read with surrogateescape.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _read_lines(path: str | Path) -> Iterable[tuple[int, str]]:
    """Numbered non-blank lines, stripped; ``ParseError`` at one that is not
    UTF-8, and at line 1 if the file starts with a byte-order mark."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.isascii():
                if _UNDECODABLE.search(raw):
                    raise ParseError("line is not valid UTF-8", path=str(path), line=number)
                if number == 1 and raw.startswith(_BOM):
                    raise ParseError("file starts with a byte-order mark", path=str(path), line=1)
            line = raw.strip()
            if line:
                yield number, line


def parse_run_file(
    path: str | Path, corpus_size: int, ids: dict[str, str] | None = None
) -> dict[str, RankedList]:
    """Parse a run file into per-request rankings, in order of first appearance.

    ``corpus_size`` is attached to every ranking; it is configuration, not
    file content. Rank columns that disagree with the score ordering are
    reported as a warning because the scores are authoritative. A malformed
    line, bytes that are not UTF-8, a leading byte-order mark, a rank or
    score that is not an ASCII numeral without ``_``, a non-finite score, a
    second system tag or a repeated item of a request is a
    ``ParseError`` with its file and line; the first in file order is
    reported. A ranking longer than ``corpus_size`` is a ``ValidationError``.

    ``ids`` maps each request and item id to the one string kept for it.
    Every request and item id read goes through it; pass one dict to the
    files of a collection whose rankings are all kept, so that they share
    one string per id. With ``None`` there is no dict: each id is the string
    the split made, and equal ids of one file are not shared. That suits a
    caller that projects each file's rankings and drops them.

    One bulk parse builds the rankings (see the module docstring); when it
    fails, ``_raise_at_bad_line`` only names the line.
    """
    if corpus_size < 1:
        raise ValidationError(f"corpus_size must be positive, got {corpus_size}")
    keep = None if ids is None else ids.setdefault
    requests: list[str] = []
    items: list[str] = []
    rank_texts: list[str] = []
    scores: list[float] = []
    tag = None
    runs = {}
    rank_mismatches = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.read(1) == _BOM:
                raise ValueError("a byte-order mark")
            fh.seek(0)
            while text := fh.read(_BLOCK_CHARS):
                text += fh.readline()
                tokens = _block_fields(text)
                if not tokens:
                    continue
                if not text.isascii() or "_" in text:
                    # Ids are free-form; only ranks and scores must be numerals.
                    _check_numeral("".join(chain(tokens[3::7], tokens[4::7])))
                tags = tokens[5::7]
                if tag is None:
                    tag = tags[0]
                if tags.count(tag) != len(tags):
                    raise ValueError("a second system tag")
                if keep is None:
                    requests += tokens[0::7]
                    items += tokens[2::7]
                else:
                    requests += map(keep, tokens[0::7], tokens[0::7])
                    items += map(keep, tokens[2::7], tokens[2::7])
                rank_texts += tokens[3::7]
                scores += map(float, tokens[4::7])
        if not all(map(math.isfinite, scores)):
            raise ValueError("a non-finite score")
        groups = _rows_by_request(requests)
        # The rank fields of a request that agree with its order, as usually written.
        numerals = list(map(str, range(1, max(map(len, groups.values()), default=0) + 1)))
        for request_id, rows in groups.items():
            depth = len(rows)
            # A range is one run of lines; a list of rows gets the empty span.
            lo, hi = (rows.start, rows.stop) if type(rows) is range else (0, 0)
            if hi and all(map(operator.gt, scores[lo:hi], scores[lo + 1 : hi])):
                # One run of lines with strictly decreasing scores, as usually
                # written: the file order is the ranking.
                ranked_texts = rank_texts[lo:hi]
                ranked = tuple(items[lo:hi])
            else:
                rows = list(rows)
                rows.sort(key=scores.__getitem__, reverse=True)
                ranked_scores = list(map(scores.__getitem__, rows))
                if any(map(operator.eq, ranked_scores, ranked_scores[1:])):
                    # Equal scores, left in file order by the stable sort:
                    # order by item id, then again by score.
                    rows.sort(key=items.__getitem__)
                    rows.sort(key=scores.__getitem__, reverse=True)
                ranked_texts = list(map(rank_texts.__getitem__, rows))
                ranked = tuple(map(items.__getitem__, rows))
            if ranked_texts != numerals[:depth]:  # int() also rejects a bad rank
                positions = range(1, depth + 1)
                rank_mismatches += sum(map(operator.ne, map(int, ranked_texts), positions))
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


def _fields(line: str, expected: int, path: str, number: int) -> list[str]:
    """The whitespace-separated fields of a line that must have ``expected``."""
    fields = line.split()
    if len(fields) != expected:
        message = f"expected {expected} whitespace-separated fields, got {len(fields)}"
        raise ParseError(message, path=path, line=number) from None
    return fields


def _check_numeral(text: str) -> str:
    """``text``, if it is ASCII with no ``_``. ``int`` and ``float`` also read
    ``1_0`` and other scripts' digits, which trec_eval does not."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII numeral")
    return text


def _rows_by_request(requests: list[str]) -> dict[str, range | list[int]]:
    """Each request's rows in file order, requests in order of first
    appearance: a span each while every request is one run of lines, else a
    list each, built in one pass. A run ends where the request id changes;
    the appended ``None`` ends the last."""
    ends = compress(count(1), map(operator.ne, requests, chain(islice(requests, 1, None), [None])))
    groups = {}
    lo = 0
    for hi in ends:
        if requests[lo] in groups:  # a second run of lines
            lists: dict[str, list[int]] = {}
            for row, request_id in enumerate(requests):
                lists.setdefault(request_id, []).append(row)
            return lists
        groups[requests[lo]] = range(lo, hi)
        lo = hi
    return groups


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
    fields, an ``int`` rank and a ``float`` score written as ASCII numerals, a
    finite score, the file's one system tag, an item not yet seen for its
    request. Its errors replace the bulk parse's, so they do not carry that
    one as their context.
    """
    spath = str(path)
    seen: set[tuple[str, str]] = set()
    system_tag: str | None = None
    for number, line in _read_lines(path):
        request_id, _q0, item_id, rank_text, score_text, tag = _fields(line, 6, spath, number)
        try:
            int(_check_numeral(rank_text))
            score = float(_check_numeral(score_text))
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
    callers can count and skip them. Bytes that are not UTF-8 and a leading
    byte-order mark are each a ``ParseError`` at their line, and so is a
    grade that is not an ASCII numeral without ``_``.
    """
    spath = str(path)
    grades: dict[str, dict[str, int]] = {}
    duplicates = 0
    for number, line in _read_lines(path):
        request_id, _iteration, item_id, grade_text = _fields(line, 4, spath, number)
        try:
            grade = int(_check_numeral(grade_text))
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


def _cell_formatter(kind: type) -> Callable[[object], str]:
    """How a TSV cell of type ``kind`` prints: a ``bool`` as ``true`` or
    ``false``, any ``float`` (``numpy.float64`` too) at 6 significant digits,
    anything else as ``str``."""
    if kind is bool:
        return {True: "true", False: "false"}.__getitem__
    if issubclass(kind, float):
        return "{:.6g}".format
    return str


def _column_texts(values: list[object]) -> list[str]:
    """The TSV text of a column's cells, one formatter looked up per type."""
    formatters = {kind: _cell_formatter(kind) for kind in set(map(type, values))}
    return [formatters[type(value)](value) for value in values]


def _write_rows(
    rows: Iterable[Mapping[str, object]], columns: Sequence[str], fh: IO[str], fmt: str
) -> None:
    materialized = [dict(row) for row in rows]
    for row in materialized:
        missing = [c for c in columns if c not in row]
        if missing:
            raise ValidationError(f"row is missing columns {missing}")
    if fmt == "tsv":
        texts = [_column_texts([row[c] for row in materialized]) for c in columns]
        lines = map("\t".join, zip(*texts)) if columns else [""] * len(materialized)
        fh.write("\t".join(columns) + "\n")
        fh.writelines(map("{}\n".format, lines))
    else:
        import json  # only the JSON format needs it
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
