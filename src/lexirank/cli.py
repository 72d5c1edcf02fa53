"""Command-line surface for reproducible evaluation experiments.

Subcommands: ``eval`` (per-request scores), ``compare`` (pairwise run
preferences with significance), ``ties`` (analytic or empirical tie rates),
``simulate-agreement`` (worst-case agreement over simulated pairs),
``orientation`` (precision/recall sensitivity sweeps), and ``degrade``
(label-removal stability). Every seeded subcommand is byte-identical across
repeated invocations, and output order never depends on the order of
``--runs``. ``eval``, ``compare`` and ``degrade`` read a collection through
one loader. Every warning goes through ``logging``, and ``main`` prints each
as one ``warning: `` line on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

# Modules that not every command runs are reached as attributes, so each
# runs on first use (see ``_numpy.lazy_import``).
from . import analytics, io as tables, prefs, stats
from ._numpy import np
from .core import Imputation, Preference, RankedList, RelevantPositions, _project_cell
from .errors import LexirankError, UndefinedResultError, ValidationError, check_distinct
from .metrics import MetricId, evaluate

logger = logging.getLogger(__name__)

_DEFAULT_EVAL_METRICS = ("AP", "NDCG", "recall@1000", "RPrecision", "TSE")
_DEFAULT_AGREEMENT_METRICS = ("TSE", "recall@1000", "RPrecision", "AP", "NDCG", "random")
_DEFAULT_ORIENTATION_METRICS = ("RR", "NDCG", "AP", "recall@1000", "RPrecision", "RBP", "TSE")
_DEFAULT_DEGRADE_METHODS = ("lexirecall", "metric:AP", "metric:recall@1000")


def _load_runs(
    paths: Sequence[str], corpus_size: int, depth: int | None = None, project: Callable | None = None
) -> dict[str, object]:
    """Parse run files keyed by system tag; tag collisions fall back to stems.

    ``depth`` truncates every ranking to its top entries before projection,
    which is how retrieval-depth studies are driven on real collections.
    Without ``project``, the files share one string per id and each tag maps
    to its rankings. With it, each file's rankings go to ``project(tag,
    rankings)`` and are dropped before the next file is parsed, and each tag
    maps to the ids of the requests it ranks.
    """
    runs: dict[str, object] = {}
    ids: dict[str, str] | None = {} if project is None else None
    for path in paths:
        parsed = tables.parse_run_file(path, corpus_size, ids)
        if not parsed:
            raise ValidationError(f"run file {path} is empty")
        if depth is not None:
            parsed = {
                request_id: ranked._replace(items=ranked.items[:depth])
                for request_id, ranked in parsed.items()
            }
        tag = next(iter(parsed.values())).system_tag or Path(path).stem
        if tag in runs:
            fallback = Path(path).stem
            logger.warning("duplicate run tag %r; using file stem %r", tag, fallback)
            tag = fallback
        if tag in runs:
            raise ValidationError(f"cannot disambiguate run tag {tag!r}")
        if project is not None:
            project(tag, parsed)
            parsed = set(parsed)
        runs[tag] = parsed
        del parsed  # not alive while the next file is parsed
    return runs


def _load_collection(
    args, mode: Imputation | None = None, pairwise: bool = False
) -> tuple[dict, dict, list[str]]:
    """The judgments, the runs and the sorted evaluable requests of a collection.

    The qrels are parsed first. With a ``mode``, each run file is projected
    as soon as it is parsed, and the runs are the vectors ``project_runs``
    gives, per evaluable request and tag; without, each tag's rankings.

    Requests with no relevant item, ranked requests with no judgments and
    evaluable requests that a run does not rank are each reported once as a
    warning. A collection with no evaluable request is an error, and so is a
    ``--depth`` below 1, which is checked before any file is read, and, if
    ``pairwise``, one with fewer than two runs. Parse and tag errors come
    first, in file order, then these, then the first cell that fails to
    project in (request, run) order.
    """
    if args.depth is not None and args.depth < 1:
        raise ValidationError(f"depth must be positive, got {args.depth}")
    judgments = tables.parse_qrels(args.qrels, args.binarize_threshold)
    evaluable = sorted(q for q, j in judgments.items() if j.evaluable)
    projected: dict[str, dict[str, RelevantPositions]] = {q: {} for q in evaluable}
    # The first failed cell's request index and error. A later file's
    # failure replaces it only at an earlier request.
    failed_at, failure = len(evaluable), None

    def project(tag: str, rankings: dict[str, RankedList]) -> None:
        nonlocal failed_at, failure
        for index, request_id in enumerate(evaluable[:failed_at]):
            ranked = rankings.get(request_id)
            try:
                vector = _project_cell(ranked, judgments[request_id], args.corpus_size, mode)
            except LexirankError as exc:
                failed_at, failure = index, exc
                return
            projected[request_id][tag] = vector

    runs = _load_runs(args.runs, args.corpus_size, args.depth, None if mode is None else project)
    if not evaluable:
        raise ValidationError("no evaluable requests")
    if skipped := len(judgments) - len(evaluable):
        logger.warning("skipped %d requests with no relevant items", skipped)
    if orphans := {q for run in runs.values() for q in run if q not in judgments}:
        logger.warning("%d ranked requests have no judgments", len(orphans))
    if missing := sum(q not in run for run in runs.values() for q in evaluable):
        logger.warning(
            "%d missing run entries scored with every relevant item at the bottom of the corpus",
            missing,
        )
    if pairwise and len(runs) < 2:
        raise ValidationError(f"{args.command} needs at least two runs")
    if failure is not None:
        raise failure
    return judgments, (runs if mode is None else projected), evaluable


def _write_output(rows: list[dict], args) -> None:
    """Write ``rows`` to ``--out`` in ``--format``, columns in the first row's key order."""
    destination = sys.stdout if args.out == "-" else args.out
    tables.write_table(rows, list(rows[0]), destination, fmt=args.format)


# --- subcommands -------------------------------------------------------------

def _metrics(args) -> list[MetricId]:
    """The ``--metric`` ids, each label at most once."""
    metrics = [MetricId.parse(text, args.corpus_size) for text in args.metric]
    check_distinct([metric.label for metric in metrics], "metric")
    return metrics


def cmd_eval(args) -> int:
    metrics = _metrics(args)
    _judgments, projected, evaluable = _load_collection(args, Imputation(args.imputation))
    tags = sorted(projected[evaluable[0]])
    rows = [
        {
            "request_id": request_id,
            "run": tag,
            "metric": metric.label,
            "value": evaluate(metric, projected[request_id][tag]),
        }
        for request_id in evaluable
        for tag in tags
        for metric in metrics
    ]
    _write_output(rows, args)
    return 0


def cmd_compare(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ValidationError(f"--alpha must lie in (0, 1), got {args.alpha}")
    method = prefs.parse_method(args.method, args.corpus_size)
    if args.hsd and method == "lexirecall":
        raise ValidationError(
            "--hsd needs per-request scores; use a metric method such as metric:AP"
        )
    method_name, method_fn = prefs.make_method(method, tolerance=args.tolerance)
    mode = Imputation(args.imputation)
    _judgments, projected, evaluable = _load_collection(args, mode, pairwise=True)
    tags = sorted(projected[evaluable[0]])

    is_metric_method = isinstance(method, MetricId)
    if is_metric_method or args.hsd:
        # The tse preference is the order of the TSE metric, so HSD scores it.
        metric = method if is_metric_method else MetricId.tse()
        values = np.array(
            [[evaluate(metric, projected[q][tag]) for q in evaluable] for tag in tags]
        )

    pair_rows = []
    hsd_grid = stats.tukey_hsd(values) if args.hsd else None
    paired = len(evaluable) > 1
    if is_metric_method and not paired:
        logger.warning("one evaluable request: no paired t-test; p set to 1")
    preferences = prefs.run_pair_preferences(method_fn, projected, evaluable, tags)
    outcomes = Preference.FIRST, Preference.SECOND, Preference.TIE
    for (i, j), column in zip(combinations(range(len(tags)), 2), zip(*preferences)):
        tag_a, tag_b = tags[i], tags[j]
        wins_a, wins_b, ties = map(column.count, outcomes)
        if is_metric_method:
            p = stats.paired_t_test(values[i], values[j]) if paired else 1.0
        else:
            try:
                p = stats.binomial_sign_test(wins_a, wins_b)
            except UndefinedResultError:
                logger.warning("no decisive requests for (%s, %s); p set to 1", tag_a, tag_b)
                p = 1.0
        row = {
            "run_a": tag_a,
            "run_b": tag_b,
            "method": method_name,
            "wins_a": wins_a,
            "wins_b": wins_b,
            "ties": ties,
            "win_rate_a": (wins_a + ties / 2) / len(column),
            "p_value": p,
        }
        pair_rows.append(row)

    adjusted = stats.holm_bonferroni([row["p_value"] for row in pair_rows])
    for (i, j), row, adj in zip(combinations(range(len(tags)), 2), pair_rows, adjusted):
        row["p_holm"] = adj
        row["significant"] = adj < args.alpha
        if hsd_grid is not None:
            row["p_hsd"] = float(hsd_grid[i, j])
    _write_output(pair_rows, args)
    return 0


def _m_range(args) -> range:
    lo, hi = args.m_range
    if lo > hi:
        raise ValidationError(f"--m-range LO HI needs LO <= HI, got {lo} {hi}")
    return range(lo, hi + 1)


def _m_values(args) -> list[int]:
    return sorted(set(args.m)) if args.m else list(_m_range(args))


def cmd_ties(args) -> int:
    if args.mode == "analytic":
        rows = []
        for m in _m_values(args):
            for name in ("tse", "recall@k", "rprecision", "lexirecall"):
                prob = analytics.tie_probability(name, args.corpus_size, m, k=args.k)
                label = f"recall@{args.k}" if name == "recall@k" else name
                rows.append(
                    {
                        "D": args.corpus_size,
                        "m": m,
                        "metric": label,
                        "tie_probability": float(prob),
                    }
                )
        _write_output(rows, args)
        return 0
    m_values = _m_values(args)
    lo, hi = m_values[0], m_values[-1]
    if m_values != list(range(lo, hi + 1)):
        raise ValidationError(
            f"empirical ties draw m from one contiguous range, not {m_values}; "
            "use --m-range LO HI"
        )
    config = analytics.SimulationConfig(
        corpus_size=args.corpus_size,
        m_range=(lo, hi),
        pair_count=args.pairs,
        retrieval_depth=args.depth,
        seed=args.seed,
    )
    methods = ["tse", f"metric:recall@{args.k}", "metric:rprecision", "lexirecall"]
    fractions = analytics.tie_fractions(
        analytics.simulate_pairs(config), methods, tolerance=args.tolerance
    )
    rows = [
        {
            "D": args.corpus_size,
            "m_lo": lo,
            "m_hi": hi,
            "retrieval_depth": args.depth if args.depth else args.corpus_size,
            "method": name,
            "tie_fraction": value,
        }
        for name, value in fractions.items()
    ]
    _write_output(rows, args)
    return 0


def cmd_simulate_agreement(args) -> int:
    check_distinct(args.corpus_size, "corpus size")
    rows = []
    for D in args.corpus_size:
        metrics: list[str | MetricId] = [
            "random" if text.lower() == "random" else MetricId.parse(text, D)
            for text in args.metric
        ]
        labels = [metric if isinstance(metric, str) else metric.label for metric in metrics]
        check_distinct(labels, "metric")
        config = analytics.SimulationConfig(
            corpus_size=D,
            m_range=tuple(args.m_range),
            pair_count=args.pairs,
            seed=args.seed,
        )
        pairs = list(analytics.simulate_pairs(config))
        for metric, label in zip(metrics, labels):
            agreement, tied = analytics.agreement_with_worst_case(
                pairs,
                metric,
                tolerance=args.tolerance,
                rng=np.random.default_rng(analytics.stable_seed(args.seed, D, "coin")),
            )
            rows.append(
                {"D": D, "metric": label, "agreement": agreement, "tied_fraction": tied}
            )
    _write_output(rows, args)
    return 0


def cmd_orientation(args) -> int:
    metrics = _metrics(args)
    rows = []
    for m in _m_range(args):
        for metric in metrics:
            precision, recall = analytics.orientation(metric, args.corpus_size, m)
            rows.append(
                {
                    "D": args.corpus_size,
                    "m": m,
                    "metric": metric.label,
                    "precision_orientation": precision,
                    "recall_orientation": recall,
                }
            )
    _write_output(rows, args)
    return 0


def cmd_degrade(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"samples must be positive, got {args.samples}")
    spellings = [f for f in map(str.strip, args.fractions.split(",")) if f]
    try:
        fractions = [float(f) for f in spellings]
    except ValueError:
        raise ValidationError(
            f"--fractions takes comma-separated numbers, got {args.fractions!r}"
        ) from None
    if not fractions:
        raise ValidationError("--fractions needs at least one fraction")
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:
            raise ValidationError(f"fractions must lie in [0, 1), got {fraction}")
    check_distinct(fractions, "fraction")
    methods = [prefs.parse_method(method, args.corpus_size) for method in args.method]
    analytics._resolve_methods(methods, args.tolerance)
    # Each fraction labels its rows, so no two may print alike in a TSV cell.
    cell_text = tables._cell_formatter(float)
    printed: dict[str, str] = {}
    for spelling, fraction in zip(spellings, fractions):
        text = cell_text(fraction)
        first = printed.setdefault(text, spelling)
        if first != spelling:
            raise ValidationError(f"fractions {first} and {spelling} both print as {text}")
    judgments, runs, _evaluable = _load_collection(args)
    rows = analytics.degradation_study(
        runs,
        judgments,
        fractions=fractions,
        methods=methods,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
        mode=Imputation(args.imputation),
    )
    _write_output(rows, args)
    return 0


# --- argument wiring ----------------------------------------------------------

def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, or - for stdout")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", action="append", required=True, help="run file (repeatable)")
    parser.add_argument("--qrels", required=True)
    parser.add_argument("--corpus-size", type=int, required=True)
    parser.add_argument("--binarize-threshold", type=int, default=1)
    parser.add_argument(
        "--depth", type=int, default=None, help="truncate runs to their top entries"
    )
    parser.add_argument(
        "--imputation",
        choices=[mode.value for mode in Imputation],
        default=Imputation.PESSIMISTIC.value,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexirank",
        description="Recall-oriented ranking evaluation with worst-case guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score runs per request and metric")
    _add_data_flags(p)
    p.add_argument("--metric", action="append", help="metric id (repeatable)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="pairwise run preferences with significance")
    _add_data_flags(p)
    p.add_argument("--method", default="lexirecall", help="lexirecall, tse, or metric:<id>")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--hsd", action="store_true", help="add Tukey HSD p-values (metric methods)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ties", help="analytic or empirical tie rates")
    p.add_argument("--mode", choices=("analytic", "empirical"), default="analytic")
    p.add_argument("--corpus-size", type=int, required=True)
    p.add_argument("--m", type=int, action="append", help="relevant-set size (repeatable)")
    p.add_argument("--m-range", type=int, nargs=2, default=(10, 10), metavar=("LO", "HI"))
    p.add_argument("--k", type=int, default=1000, help="recall cutoff")
    p.add_argument("--depth", type=int, default=None, help="simulated retrieval truncation")
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-12)
    _add_output_flags(p)
    p.set_defaults(func=cmd_ties)

    p = sub.add_parser("simulate-agreement", help="agreement with the worst-case order")
    p.add_argument("--corpus-size", type=int, action="append", required=True)
    p.add_argument("--m-range", type=int, nargs=2, default=(5, 50), metavar=("LO", "HI"))
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", action="append", help="metric id or random (repeatable)")
    p.add_argument("--tolerance", type=float, default=1e-12)
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate_agreement)

    p = sub.add_parser("orientation", help="precision/recall orientation sweep")
    p.add_argument("--corpus-size", type=int, required=True)
    p.add_argument("--m-range", type=int, nargs=2, default=(1, 15), metavar=("LO", "HI"))
    p.add_argument("--metric", action="append", help="metric id (repeatable)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_orientation)

    p = sub.add_parser("degrade", help="label-degradation stability study")
    _add_data_flags(p)
    p.add_argument("--fractions", default="0,0.25,0.5,0.75", help="comma-separated fractions")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", action="append", help="comparison method (repeatable)")
    p.add_argument("--tolerance", type=float, default=1e-12)
    _add_output_flags(p)
    p.set_defaults(func=cmd_degrade)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="warning: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and not args.metric:
        args.metric = list(_DEFAULT_EVAL_METRICS)
    if args.command == "simulate-agreement" and not args.metric:
        args.metric = list(_DEFAULT_AGREEMENT_METRICS)
    if args.command == "orientation" and not args.metric:
        args.metric = list(_DEFAULT_ORIENTATION_METRICS)
    if args.command == "degrade" and not args.method:
        args.method = list(_DEFAULT_DEGRADE_METHODS)
    try:
        # Checked once here: lexirecall, the random coin and the closed forms
        # never read the tolerance, so a bad value would pass unreported.
        if "tolerance" in args and not 0 <= args.tolerance < math.inf:
            raise ValidationError(
                f"tolerance must be a finite non-negative number, got {args.tolerance}"
            )
        return args.func(args)
    except (LexirankError, OSError, ModuleNotFoundError) as exc:
        # ModuleNotFoundError: numpy is missing and the command needs it.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
