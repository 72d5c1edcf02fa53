"""A second implementation of ``eval``, ``compare`` and ``degrade``, from the
definitions.

It reads run files and qrels with its own readers and projects each
(request, run) cell by scanning the ranking, in plain loops. It imports
neither ``lexirank.io`` nor ``lexirank.core``: from lexirank it takes only
the scoring, preference and test functions, which are pinned elsewhere,
and applies them to the vectors its callers build from ``project``; and
``degrade_judgments``, which draws ``degrade``'s label samples from a
relevant set.

- A ranking orders a request's lines by descending score, equal scores by
  item id; ``depth`` keeps its first entries.
- Relevant items are those graded at least the threshold; a request with
  none is not evaluable.
- Retrieved relevant items keep their ranks. Pessimistic imputation puts
  the others at the last positions of the corpus, optimistic imputation
  directly below the retrieved prefix.
- A run that does not rank a request is scored with every relevant item at
  the bottom of the corpus, whichever the imputation.
- ``degrade`` re-judges each request of each sample with
  ``degrade_judgments(..., fraction, stable_seed(seed, sample, request))``
  and projects the rankings again against the labels left.

``collections`` draws small collections to check the commands against it.
"""

from __future__ import annotations

from itertools import combinations, compress
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from lexirank import JudgmentSet, prefs, stats
from lexirank.analytics import degrade_judgments, stable_seed
from lexirank.errors import UndefinedResultError
from lexirank.metrics import MetricId, evaluate


def read_run(path) -> tuple[str, dict[str, list[tuple[str, float]]]]:
    """The system tag of a run file and each request's (item, score) lines."""
    tag = None
    lines: dict[str, list[tuple[str, float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if not fields:
            continue
        request_id, _q0, item_id, _rank, score, tag = fields
        lines.setdefault(request_id, []).append((item_id, float(score)))
    return tag, lines


def read_qrels(path, threshold: int) -> dict[str, set[str]]:
    """Each judged request's items graded at least ``threshold``."""
    relevant: dict[str, set[str]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if not fields:
            continue
        request_id, _iteration, item_id, grade = fields
        relevant.setdefault(request_id, set())
        if int(grade) >= threshold:
            relevant[request_id].add(item_id)
    return relevant


def ranking(lines: list[tuple[str, float]], depth: int | None) -> list[str]:
    """Item ids by descending score, equal scores by item id, cut at ``depth``."""
    ordered = []
    for item_id, score in lines:
        ordered.append((-score, item_id))
    ordered.sort()
    items = []
    for _key, item_id in ordered:
        if depth is not None and len(items) == depth:
            break
        items.append(item_id)
    return items


def positions(items: list[str] | None, relevant: set[str], corpus_size: int, mode: str):
    """The sorted positions of ``relevant`` in a ranking, imputed. ``items``
    is ``None`` for a run that does not rank the request."""
    ranks = []
    if items is not None:
        for rank, item_id in enumerate(items, start=1):
            if item_id in relevant:
                ranks.append(rank)
    missing = len(relevant) - len(ranks)
    if items is None or mode == "pessimistic":
        first = corpus_size - missing + 1
    else:
        first = len(items) + 1
    for offset in range(missing):
        ranks.append(first + offset)
    return tuple(ranks)


def read_collection(run_paths, qrels_path, threshold=1, depth=None):
    """Each judged request's relevant items, the sorted evaluable requests,
    the sorted run tags, and the ranking of each (request, tag) cell, ``None``
    where the run does not rank the request."""
    relevant = read_qrels(qrels_path, threshold)
    evaluable = sorted(q for q in relevant if relevant[q])
    runs = dict(read_run(path) for path in run_paths)
    tags = sorted(runs)
    rankings = {}
    for request_id in evaluable:
        for tag in tags:
            lines = runs[tag].get(request_id)
            rankings[request_id, tag] = None if lines is None else ranking(lines, depth)
    return relevant, evaluable, tags, rankings


def project(rankings, relevant, corpus_size: int, mode: str) -> dict:
    """The positions of each (request, tag) cell of ``rankings`` against the
    relevant items of its request."""
    out = {}
    for (request_id, tag), items in rankings.items():
        out[request_id, tag] = positions(items, relevant[request_id], corpus_size, mode)
    return out


def eval_rows(vectors, tags, evaluable, metrics: list[MetricId]) -> list[dict]:
    """``eval``'s rows; ``vectors`` maps each (request, tag) to its vector."""
    rows = []
    for request_id in evaluable:
        for tag in tags:
            for metric in metrics:
                value = evaluate(metric, vectors[request_id, tag])
                rows.append({"request_id": request_id, "run": tag, "metric": metric.label,
                             "value": value})
    return rows


def compare_rows(vectors, tags, evaluable, method: str, corpus_size: int, tolerance: float,
                 alpha: float = 0.05, hsd: bool = False) -> list[dict]:
    """``compare``'s rows for one method spec, with ``p_hsd`` when ``hsd``."""
    parsed = prefs.parse_method(method, corpus_size)
    name, prefer = prefs.make_method(parsed, tolerance=tolerance)
    is_metric = isinstance(parsed, MetricId)
    scored = parsed if is_metric else MetricId.tse()
    values = []
    for tag in tags:
        values.append([evaluate(scored, vectors[q, tag]) for q in evaluable])
    grid = stats.tukey_hsd(np.array(values)) if hsd else None
    rows = []
    for i, j in combinations(range(len(tags)), 2):
        wins_a = wins_b = ties = 0
        for q in evaluable:
            preference = prefer(vectors[q, tags[i]], vectors[q, tags[j]])
            if preference is prefs.Preference.FIRST:
                wins_a += 1
            elif preference is prefs.Preference.SECOND:
                wins_b += 1
            else:
                ties += 1
        if is_metric:
            p = stats.paired_t_test(values[i], values[j]) if len(evaluable) > 1 else 1.0
        else:
            try:
                p = stats.binomial_sign_test(wins_a, wins_b)
            except UndefinedResultError:
                p = 1.0
        row = {"run_a": tags[i], "run_b": tags[j], "method": name, "wins_a": wins_a,
               "wins_b": wins_b, "ties": ties,
               "win_rate_a": (wins_a + ties / 2) / len(evaluable), "p_value": p}
        if hsd:
            row["p_hsd"] = float(grid[i, j])
        rows.append(row)
    adjusted = stats.holm_bonferroni([row["p_value"] for row in rows])
    for row, p_holm in zip(rows, adjusted):
        row["p_holm"] = p_holm
        row["significant"] = p_holm < alpha
    return rows


def degrade_rows(vectors_of, relevant, evaluable, tags, fractions, methods, corpus_size: int,
                 samples: int, seed: int, tolerance: float) -> list[dict]:
    """``degrade``'s rows. ``vectors_of`` maps each request's relevant items to
    the vector of each (request, tag) cell; ``relevant`` holds the full labels."""
    resolved = [prefs.make_method(prefs.parse_method(method, corpus_size), tolerance=tolerance)
                for method in methods]

    def preferences(vectors, prefer):
        return [prefer(vectors[q, a], vectors[q, b])
                for q in evaluable for a, b in combinations(tags, 2)]

    full = vectors_of(relevant)
    rows = []
    for fraction in fractions:
        ties = [0.0] * len(resolved)
        agree = [0.0] * len(resolved)
        for sample in range(samples):
            labels = {}
            for q in evaluable:
                judged = JudgmentSet(q, relevant[q])
                kept = degrade_judgments(judged, fraction, stable_seed(seed, sample, q))
                labels[q] = set(kept.relevant_ids)
            degraded = vectors_of(labels)
            for index, (_name, prefer) in enumerate(resolved):
                before, after = preferences(full, prefer), preferences(degraded, prefer)
                tied = strict = agreed = 0
                for was, now in zip(before, after):
                    tied += now is prefs.Preference.TIE
                    if was is not prefs.Preference.TIE:
                        strict += 1
                        agreed += now is was
                ties[index] += tied / len(after)
                agree[index] += agreed / strict if strict else 1.0
        for (name, _prefer), tied, agreed in zip(resolved, ties, agree):
            rows.append({"fraction": fraction, "method": name, "tie_fraction": tied / samples,
                         "agreement_with_full": agreed / samples})
    return rows


# --- generated collections ---------------------------------------------------

# Score spellings with ties, 0.0 against -0.0 among them.
_TIED_SCORES = ["3", "2.5", "2.50", "1", "0.0", "-0.0", "0", "-1.5"]


@st.composite
def collections(draw):
    """A small collection: the text of each run file and of the qrels, and
    the flags to read it with.

    2-5 runs over 1-8 judged requests and up to 2 orphan (ranked, unjudged)
    requests; rankings up to 40 deep, with tied scores or strictly
    decreasing ones, each request's lines together or all lines shuffled;
    cells left out; qrels with grades 0-3, equal-grade duplicate lines and
    requests that nothing relevant may leave unevaluable. The corpus holds
    40 positions more than the pool of items, so no cell fails to impute.
    """
    pool = [f"d{i}" for i in range(draw(st.integers(3, 60)))]
    corpus_size = draw(st.integers(len(pool) + 40, 200))
    threshold = draw(st.integers(1, 3))
    judged = [f"q{i}" for i in range(draw(st.integers(1, 8)))]
    orphans = [f"o{i}" for i in range(draw(st.integers(0, 2)))]
    qrels = []
    for index, request_id in enumerate(judged):
        graded = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
        for item_id in graded:
            # The first request always has a relevant item.
            grade = 3 if index == 0 else draw(st.integers(0, 3))
            qrels.append(f"{request_id} 0 {item_id} {grade}")
            if draw(st.integers(0, 9)) == 0:
                qrels.append(qrels[-1])
    random = draw(st.randoms(use_true_random=False))
    random.shuffle(qrels)
    runs = {}
    for r in range(draw(st.integers(2, 5))):
        tag = f"run{r}"
        requests = [*judged, *orphans]
        ranked = [draw(st.integers(0, 4)) > 0 for _ in requests]  # else a missing cell
        if not any(ranked):
            ranked[draw(st.integers(0, len(requests) - 1))] = True
        lines = []
        for request_id in compress(requests, ranked):
            items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True))
            if draw(st.booleans()):
                scores = [draw(st.sampled_from(_TIED_SCORES)) for _ in items]
            else:
                scores = [str(len(items) - rank) for rank in range(len(items))]
            lines += [f"{request_id} Q0 {item_id} {rank} {score} {tag}"
                      for rank, (item_id, score) in enumerate(zip(items, scores), start=1)]
        if draw(st.booleans()):
            random.shuffle(lines)
        runs[tag] = "\n".join(lines) + "\n"
    flags = ["--corpus-size", str(corpus_size), "--binarize-threshold", str(threshold),
             "--imputation", draw(st.sampled_from(["pessimistic", "optimistic"]))]
    depth = draw(st.none() | st.integers(1, 40))
    if depth is not None:
        flags += ["--depth", str(depth)]
    return runs, "\n".join(qrels) + "\n", flags


def write(collection, directory) -> tuple[list[str], str, list[str]]:
    """Write a drawn collection to ``directory``: run paths, qrels path and the
    flags of every file command."""
    runs, qrels, flags = collection
    paths = []
    for tag, text in runs.items():
        path = Path(directory) / f"{tag}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    qrels_path = Path(directory) / "qrels.txt"
    qrels_path.write_text(qrels, encoding="utf-8")
    argv = [f"--runs={path}" for path in paths]
    return paths, str(qrels_path), [*argv, "--qrels", str(qrels_path), *flags]


def options(collection) -> dict:
    """The corpus size, threshold, depth and imputation that a drawn
    collection's flags set."""
    flags = collection[2]
    values = dict(zip(flags[::2], flags[1::2]))
    depth = values.get("--depth")
    return {
        "corpus_size": int(values["--corpus-size"]),
        "threshold": int(values["--binarize-threshold"]),
        "depth": None if depth is None else int(depth),
        "mode": values["--imputation"],
    }
