#!/usr/bin/env python3
"""Check that metric scores, labels and parsed run files are the same under every local Python.

Usage, from the repository root:

    python3 scripts/cross_python_sums.py [INTERPRETER ...]

Each interpreter imports the package from ``src/``, which needs no numpy,
and the parts checked here run no numpy code. A seeded sample of 3000
position vectors (m from 5 to 200 in a corpus of 10^6) is scored with
``metrics.evaluate`` under this interpreter and under each INTERPRETER, and
the ``repr`` of every score is compared. Each interpreter scores every
vector twice, metrics in forward order and then in reverse, with one
``MetricId`` object per metric: the second pass opens with the metric the
first pass ended on, so it reads the scores the vectors stored. Both passes
must give the same reprs.
Each interpreter also parses a seeded run file (shuffled lines, tied scores,
non-ASCII item ids and separators, blank lines) with ``io.parse_run_file``.
Its rankings, and the rank-mismatch count its warning reports, must equal
the reference's. So must the error, its type, message and line, for a copy
of the file with one rank that ``int`` refuses three quarters of the way in;
the message quotes ``int``'s own. It then parses the file, a second
seeded file, which shares about a fifth of its item ids, and a third seeded
file in the TREC layout (each request's lines together and in descending
score order, a quarter of the requests with equal scores) with one ``ids``
dict: the rankings must equal the reference's and each file's parse alone,
and every equal request or item id must be one string.
Metric labels are output too (the ``metric`` column), so each interpreter
also parses every spelling in ``tests/golden/metric_names.json`` with
``MetricId.parse`` and reports its label and orientation, or its error; they
must equal the reference's.
The generic summation form, ``robustness.user_utility``, needs numpy and is
pinned to a left-to-right reference by the test suite instead.
Without arguments, every ``python3.N`` on PATH (pyenv's shims excepted) and
every pyenv version from 3.10 on is tried, each once; one that cannot import
the package is reported and skipped.
The exit status is 1 when any score, ranking, error or label differs. The test
suite runs it under the local interpreters that lack numpy, and skips that
test when there is none.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging.handlers
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC_NAMES = ROOT / "tests" / "golden" / "metric_names.json"
CORPUS_SIZE = 10**6
VECTORS = 3000
SEED = 20231
METRICS = ("AP", "NDCG", "rbp:0.8", "RR", "recall@1000", "RPrecision", "TSE", "tse:log2")
RUN_FILE = "run.txt"
MALFORMED_RUN_FILE = "malformed.txt"
SECOND_RUN_FILE = "run2.txt"
TREC_RUN_FILE = "trec.txt"
RUN_LINES = 5000


def seeded_run_lines(seed: int) -> list[str]:
    """The lines of a valid run file whose order the parser must undo: 40
    requests in shuffled lines, scores from a few values so that most of them
    tie, ranks that often disagree with them, non-ASCII ids and separators,
    blank lines."""
    rng = random.Random(seed)
    items = ["d", "D", "d\u00e9", "\u6587\u6863", "doc-"]
    separators = [" ", "\t", "  ", "\u3000", "\x85"]
    lines = []
    for n in range(RUN_LINES):
        request = f"q{n % 40}"
        fields = [request, "Q0", f"{rng.choice(items)}{n}", str(rng.randint(1, 200)),
                  rng.choice(["0.5", "1", "-0.0", "0.0", "2.25", f"{rng.random():.3f}"]), "tag"]
        line = fields[0]
        for field in fields[1:]:
            line += rng.choice(separators) + field
        lines.append(line + "\n")
    lines += ["\n", "  \n"]
    rng.shuffle(lines)
    return lines


def seeded_trec_lines(seed: int) -> list[str]:
    """The lines of a valid run file in the TREC layout: 40 requests of 1 to
    200 lines each, written together with ranks 1, 2, ... in descending score
    order. Every fourth request draws its scores from a few values, so they
    tie, 0.0 and -0.0 left in drawn order; the others strictly decrease."""
    rng = random.Random(seed)
    lines = []
    for q in range(40):
        depth = rng.randint(1, 200)
        if q % 4:
            scores = [f"{v / 1e6:.6f}" for v in sorted(rng.sample(range(10**6), depth), reverse=True)]
        else:
            drawn = [rng.choice(["2", "1", "0.5", "0.0", "-0.0"]) for _ in range(depth)]
            scores = sorted(drawn, key=float, reverse=True)
        docs = rng.sample(range(RUN_LINES), depth)
        lines += [f"q{q} Q0 d{doc} {rank} {score} trec\n"
                  for rank, (doc, score) in enumerate(zip(docs, scores), start=1)]
    return lines


def write_run_files(parent: str) -> None:
    """The seeded run file; a copy with one line more, whose rank ``int``
    refuses; a second file from another seed, which names the same requests
    and about a fifth of the first file's item ids; and a file in the TREC
    layout, whose item ids are drawn from the first file's numbers."""
    lines = seeded_run_lines(SEED)
    Path(parent, RUN_FILE).write_text("".join(lines), encoding="utf-8")
    lines.insert(len(lines) * 3 // 4, "q7 Q0 d-bad 1e3 0.5 tag\n")
    Path(parent, MALFORMED_RUN_FILE).write_text("".join(lines), encoding="utf-8")
    Path(parent, SECOND_RUN_FILE).write_text("".join(seeded_run_lines(SEED + 1)), encoding="utf-8")
    Path(parent, TREC_RUN_FILE).write_text("".join(seeded_trec_lines(SEED + 2)), encoding="utf-8")


def rankings(runs) -> list:
    return [[q, list(ranking.items)] for q, ranking in runs.items()]


def pooled_parse(io, work_dir: str) -> dict:
    """The three valid files parsed with one ``ids`` dict: their rankings, how
    many differ from parsing each file alone, and how many ids are held by a
    string other than the first one seen with their text."""
    paths = [os.path.join(work_dir, name) for name in (RUN_FILE, SECOND_RUN_FILE, TREC_RUN_FILE)]
    ids: dict[str, str] = {}
    pooled = [io.parse_run_file(path, CORPUS_SIZE, ids) for path in paths]
    alone = [io.parse_run_file(path, CORPUS_SIZE) for path in paths]
    kept: dict[str, str] = {}
    unshared = sum(
        kept.setdefault(text, text) is not text
        for runs in pooled
        for q, ranking in runs.items()
        for text in (q, ranking.request_id, *ranking.items)
    )
    return {
        "rankings": [rankings(runs) for runs in pooled],
        "differ_from_alone": sum(rankings(a) != rankings(p) for a, p in zip(alone, pooled)),
        "unshared": unshared,
    }


def name_record(metrics, text: str, corpus_size: int | None) -> str:
    """What ``MetricId.parse`` makes of one spelling: label and orientation, or the error."""
    try:
        metric = metrics.MetricId.parse(text, corpus_size)
        return f"{metric.label} {metric.higher_is_better}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def score(work_dir: str) -> None:
    """Worker: read vectors as JSON on stdin and the run files in ``work_dir``,
    write score reprs, parses and labels on stdout."""
    sys.path.insert(0, str(ROOT / "src"))
    from lexirank import core, io, metrics

    vectors = [core.RelevantPositions.from_positions(v, CORPUS_SIZE) for v in json.load(sys.stdin)]
    metric_ids = {name: metrics.MetricId.parse(name) for name in METRICS}
    forward, backward = (
        {name: [repr(metrics.evaluate(metric_ids[name], rp)) for rp in vectors] for name in order}
        for order in (METRICS, METRICS[::-1])
    )
    repeats = sum(a != b for name in METRICS for a, b in zip(forward[name], backward[name]))
    warnings = logging.handlers.BufferingHandler(capacity=100)
    io.logger.addHandler(warnings)
    runs = io.parse_run_file(os.path.join(work_dir, RUN_FILE), CORPUS_SIZE)
    found = [re.search(r": (\d+) rank fields disagree", r.getMessage()) for r in warnings.buffer]
    try:
        io.parse_run_file(os.path.join(work_dir, MALFORMED_RUN_FILE), CORPUS_SIZE)
        error = None
    except Exception as exc:
        error = [type(exc).__name__, str(exc), getattr(exc, "line", None)]
    parsed = {
        "rankings": rankings(runs),
        "rank_mismatches": [int(m.group(1)) if m else None for m in found],
        "error": error,
        "pooled": pooled_parse(io, work_dir),
    }
    ledger = json.loads(METRIC_NAMES.read_text(encoding="utf-8"))
    spellings = [row for row in ledger if "text" in row]
    json.dump(
        {
            "version": sys.version.split()[0],
            "scores": forward,
            "repeat_differing": repeats,
            "parsed": parsed,
            "labels": [name_record(metrics, row["text"], row["corpus_size"]) for row in spellings],
        },
        sys.stdout,
    )


def sample() -> list[list[int]]:
    rng = random.Random(SEED)
    return [
        sorted(rng.sample(range(1, CORPUS_SIZE + 1), rng.randint(5, 200))) for _ in range(VECTORS)
    ]


def local_interpreters() -> list[str]:
    search = os.environ.get("PATH", os.defpath)
    versions: list[str] = []
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        for minor in range(10, 20):
            versions += sorted(glob.glob(os.path.join(root, "versions", f"3.{minor}.*", "bin", "python3")))
        # A shim only dispatches to one of those versions or to a later PATH
        # entry, and fails when several versions provide the same command.
        shims = os.path.realpath(os.path.join(root, "shims"))
        search = os.pathsep.join(d for d in search.split(os.pathsep) if os.path.realpath(d) != shims)
    found = [shutil.which(f"python3.{minor}", path=search) for minor in range(10, 20)] + versions
    this = os.path.realpath(sys.executable)
    paths = dict.fromkeys(os.path.realpath(p) for p in found if p)
    return [p for p in paths if p != this]


def run(interpreter: str, work_dir: str, vectors_json: str) -> dict | str:
    proc = subprocess.run(
        [interpreter, __file__, "--worker", work_dir],
        input=vectors_json,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        lines = (proc.stderr or proc.stdout).strip().splitlines()
        return lines[-1] if lines else f"exit status {proc.returncode}"
    return json.loads(proc.stdout)


def ranking_differences(ref: list, got: list) -> int:
    return sum(a != b for a, b in zip(ref, got)) + abs(len(ref) - len(got))


def parse_differences(reference: dict, result: dict) -> int:
    """Requests of the run file ranked unlike the reference, one more for a
    different rank-mismatch warning, and one for a different error from the
    malformed copy. Then, for the three files parsed with one ``ids`` dict,
    requests ranked unlike the reference, files ranked unlike their parse
    alone, and ids not shared."""
    ref, got = reference["parsed"], result["parsed"]
    differing = ranking_differences(ref["rankings"], got["rankings"])
    differing += ref["rank_mismatches"] != got["rank_mismatches"]
    differing += ref["error"] != got["error"]
    ref_pool, got_pool = ref["pooled"], got["pooled"]
    for ref_file, got_file in zip(ref_pool["rankings"], got_pool["rankings"]):
        differing += ranking_differences(ref_file, got_file)
    return differing + got_pool["differ_from_alone"] + got_pool["unshared"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("interpreters", nargs="*", help="default: local python3.N and pyenv")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        score(args.worker)
        return 0

    vectors_json = json.dumps(sample())
    with tempfile.TemporaryDirectory() as work_dir:
        write_run_files(work_dir)
        reference = run(sys.executable, work_dir, vectors_json)
        if isinstance(reference, str):
            print(f"reference {sys.executable} failed: {reference}")
            return 2
        parsed = reference["parsed"]
        if len(parsed["rank_mismatches"]) != 1 or parsed["error"] is None:
            print(f"reference {sys.executable} parsed with warnings {parsed['rank_mismatches']}"
                  f" and error {parsed['error']}; expected one rank warning and an error")
            return 2
        differing = reference["repeat_differing"] + parse_differences(reference, reference)
        print(
            f"reference: Python {reference['version']} ({sys.executable}), {VECTORS} vectors, "
            f"{RUN_LINES} run lines, {len(reference['labels'])} metric names, "
            f"{differing} differing"
        )
        for interpreter in args.interpreters or local_interpreters():
            result = run(interpreter, work_dir, vectors_json)
            if isinstance(result, str):
                print(f"skipped {interpreter}: {result}")
                continue
            counts = {
                name: sum(a != b for a, b in zip(reference["scores"][name], result["scores"][name]))
                for name in reference["scores"]
            }
            counts["second pass"] = result["repeat_differing"]
            counts["run file"] = parse_differences(reference, result)
            counts["labels"] = sum(a != b for a, b in zip(reference["labels"], result["labels"]))
            counts["labels"] += abs(len(reference["labels"]) - len(result["labels"]))
            differing += sum(counts.values())
            detail = ", ".join(f"{name} {n}" for name, n in counts.items())
            print(f"Python {result['version']} ({interpreter}): {sum(counts.values())} differing ({detail})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
