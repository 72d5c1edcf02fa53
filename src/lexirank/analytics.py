"""Exact tie combinatorics, Monte-Carlo simulators, and synthetic studies.

The simulators sample relevant-position vectors directly instead of whole
permutations: every statistic in this package is a function of the position
vector alone, and each vector corresponds to the same number of corpus
permutations, so the induced distribution is identical while million-item
corpora stay cheap.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from ._numpy import np
from .core import Imputation, JudgmentSet, RankedList, RelevantPositions, project_runs
from .errors import UndefinedResultError, ValidationError
from .metrics import MetricId, MetricKind, evaluate
from .prefs import DEFAULT_TOLERANCE, make_method, metric_compare

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for one batch of simulated ranking pairs."""

    corpus_size: int
    m_range: tuple[int, int]
    pair_count: int
    retrieval_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.m_range
        if lo < 1 or hi > self.corpus_size or lo > hi:
            raise ValidationError(
                f"m_range {self.m_range} must satisfy 1 <= lo <= hi <= D={self.corpus_size}"
            )
        if self.pair_count < 1:
            raise ValidationError(f"pair_count must be positive, got {self.pair_count}")
        if self.retrieval_depth is not None and not 1 <= self.retrieval_depth <= self.corpus_size:
            raise ValidationError(
                f"retrieval depth {self.retrieval_depth} outside [1, {self.corpus_size}]"
            )


_TIE_METRIC_NAMES = ("tse", "recall@k", "rprecision", "lexirecall")


def _tie_metric_name(metric: str | MetricId) -> tuple[str, int | None]:
    if isinstance(metric, MetricId):
        if metric.kind is MetricKind.TSE:
            return "tse", None
        if metric.kind is MetricKind.RECALL_AT_K:
            return "recall@k", metric.k
        if metric.kind is MetricKind.RPRECISION:
            return "rprecision", None
        raise ValidationError(f"no closed-form tie probability for {metric.label}")
    name = metric.strip().lower()
    if name in _TIE_METRIC_NAMES:
        return name, None
    if name.startswith(("recall@", "r@")):
        return "recall@k", int(name.split("@", 1)[1])
    raise ValidationError(f"no closed-form tie probability for {metric!r}")


def _bottom_tie_numerator(corpus_size: int, m: int) -> int:
    # sum_i C(i-1, m-1)^2 in its finite closed form
    #   sum_j C(m-1+j, m-1) C(m-1, j) C(D, m+j),  0 <= j <= min(m-1, D-m),
    # from C(x, r)^2 = sum_j C(r+j, r) C(r, j) C(x, r+j) and the hockey stick
    # sum_{x<D} C(x, r+j) = C(D, r+j+1). Both factors advance in exact integers.
    total = 0
    coef = 1  # C(m-1+j, m-1) * C(m-1, j)
    tail = math.comb(corpus_size, m)  # C(D, m+j)
    for j in range(min(m - 1, corpus_size - m) + 1):
        total += coef * tail
        coef = coef * (m + j) * (m - 1 - j) // ((j + 1) * (j + 1))
        tail = tail * (corpus_size - m - j) // (m + j + 1)
    return total


def tie_probability(
    metric: str | MetricId,
    corpus_size: int,
    m: int,
    k: int | None = None,
) -> Fraction:
    """Exact probability that two uniformly random rankings tie under a metric.

    Both rankings are full permutations of the corpus sharing the same m
    relevant items. Closed forms, all evaluated in exact integer arithmetic
    and returned as a reduced fraction:

    * bottom-position ties: sum_i C(i-1, m-1)^2 / C(D, m)^2, summed in the
      finite form sum_j C(m-1+j, m-1) C(m-1, j) C(D, m+j) over
      0 <= j <= min(m-1, D-m), so min(m, D-m+1) terms instead of D-m+1
    * recall@k ties: sum_i C(k, i)^2 C(D-k, m-i)^2 / C(D, m)^2
    * R-precision ties: the recall@k form at k = m
    * positional-identity (lexirecall) ties: 1 / C(D, m)
    """
    if not 1 <= m <= corpus_size:
        raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
    name, metric_k = _tie_metric_name(metric)
    if metric_k is not None:
        k = metric_k
    total = math.comb(corpus_size, m)
    if name == "lexirecall":
        return Fraction(1, total)
    if name == "tse":
        num = _bottom_tie_numerator(corpus_size, m)
        return Fraction(num, total * total)
    if name == "rprecision":
        k = m
    elif k is None:
        raise ValidationError("recall@k tie probability needs k")
    elif not 1 <= k <= corpus_size:
        raise ValidationError(f"need 1 <= k <= corpus_size, got k={k}, D={corpus_size}")
    num = sum(
        math.comb(k, i) ** 2 * math.comb(corpus_size - k, m - i) ** 2
        for i in range(0, m + 1)
        if i <= k and m - i <= corpus_size - k
    )
    return Fraction(num, total * total)


def _sample_sorted_positions(rng: np.random.Generator, corpus_size: int, m: int) -> tuple[int, ...]:
    """Uniform m-subset of [1..D], returned sorted.

    Three regimes, all exactly uniform (each procedure is invariant under
    relabeling positions): whole-draw rejection when collisions are rare,
    draw-and-top-up in the middle, and a permutation prefix when the subset
    is dense in the corpus. Cost stays O(m) even for million-item corpora.
    """
    if m * 2 >= corpus_size:
        picked = rng.permutation(corpus_size)[:m] + 1
        return tuple(int(v) for v in np.sort(picked))
    if m * (m - 1) <= corpus_size:
        vals = rng.integers(1, corpus_size + 1, size=m).tolist()
        while len(set(vals)) != m:
            vals = rng.integers(1, corpus_size + 1, size=m).tolist()
        return tuple(sorted(vals))
    out = np.unique(rng.integers(1, corpus_size + 1, size=m))
    while out.size < m:
        extra = rng.integers(1, corpus_size + 1, size=m - out.size)
        out = np.unique(np.concatenate([out, extra]))
    return tuple(int(v) for v in out)


PairStream = Iterable[tuple[RelevantPositions, RelevantPositions, int]]


def simulate_pairs(config: SimulationConfig) -> Iterator[tuple[RelevantPositions, RelevantPositions, int]]:
    """Stream seeded random ranking pairs as position vectors.

    Each trial draws m uniformly from the configured range, then two
    independent uniform position vectors. With a retrieval depth set,
    positions beyond the depth are pessimistically imputed, mimicking
    truncated runs. The stream is a pure function of the seed.
    """
    rng = np.random.default_rng(config.seed)
    D = config.corpus_size
    lo, hi = config.m_range
    depth = config.retrieval_depth
    truncate = depth is not None and depth < D
    for _ in range(config.pair_count):
        m = int(rng.integers(lo, hi + 1))
        px = _sample_sorted_positions(rng, D, m)
        py = _sample_sorted_positions(rng, D, m)
        if truncate:
            rpx = RelevantPositions.worst_case(m, D, [p for p in px if p <= depth])
            rpy = RelevantPositions.worst_case(m, D, [p for p in py if p <= depth])
        else:
            rpx = RelevantPositions.from_positions(px, D)
            rpy = RelevantPositions.from_positions(py, D)
        yield rpx, rpy, m


def agreement_with_worst_case(
    pairs: PairStream,
    metric: str | MetricId,
    tolerance: float = DEFAULT_TOLERANCE,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """How often a metric's strict order matches the worst-case order.

    Over the pairs whose bottom positions differ (the worst-case order is
    strict there), returns the fraction where the metric strictly agrees,
    plus the fraction of all pairs whose worst case is tied. A metric tie
    counts as disagreement. ``metric="random"`` scores a fair coin per pair
    as the chance baseline.
    """
    coin = None
    if isinstance(metric, str):
        if metric.strip().lower() == "random":
            coin = rng if rng is not None else np.random.default_rng(0)
        else:
            metric = MetricId.parse(metric)
    total = 0
    tied_worst = 0
    strict = 0
    agree = 0
    for rpx, rpy, _m in pairs:
        total += 1
        last_x, last_y = rpx.positions[-1], rpy.positions[-1]
        if last_x == last_y:
            tied_worst += 1
            continue
        strict += 1
        if coin is not None:
            agree += int(coin.random() < 0.5)
            continue
        pref = metric_compare(metric, rpx, rpy, tolerance)
        if not pref.is_tie and (pref.sign > 0) == (last_x < last_y):
            agree += 1
    if strict == 0:
        raise UndefinedResultError("no pair has a strict worst-case order")
    return agree / strict, tied_worst / total


def tie_fractions(
    pairs: PairStream,
    methods: Sequence[str | MetricId],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, float]:
    """Empirical tie fraction of each comparison method over a pair stream."""
    resolved = [make_method(m, tolerance) for m in methods]
    ties = [0] * len(resolved)
    total = 0
    for rpx, rpy, _m in pairs:
        total += 1
        for idx, (_name, fn) in enumerate(resolved):
            if fn(rpx, rpy).is_tie:
                ties[idx] += 1
    if total == 0:
        raise UndefinedResultError("empty pair stream")
    return {name: ties[idx] / total for idx, (name, _fn) in enumerate(resolved)}


def _orientation_configs(corpus_size: int, m: int) -> tuple[tuple[int, ...], ...]:
    D = corpus_size
    best_precision = tuple(sorted({1, *range(D - m + 2, D + 1)}))
    worst_precision = tuple(range(D - m + 1, D + 1))
    best_recall = tuple(range(1, m + 1))
    worst_recall = tuple(range(1, m)) + (D,)
    return best_precision, worst_precision, best_recall, worst_recall


def orientation(
    metric: MetricId, corpus_size: int, m: int
) -> tuple[float, float]:
    """Sensitivity of a metric to its precision and recall extremes.

    Precision orientation is the score drop when the single top-ranked
    relevant item falls from position 1 to the top of the bottom block, the
    other relevant items pinned at the bottom. Recall orientation is the
    drop when the deepest relevant item falls from position m to position D,
    the others pinned at the top. The bottom-position metric is min-max
    scaled by its bounds at fixed m, which makes its orientation independent
    of the exposure model.
    """
    if not 1 <= m <= corpus_size:
        raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
    if m == corpus_size:
        return 0.0, 0.0
    D = corpus_size
    best_p, worst_p, best_r, worst_r = _orientation_configs(D, m)
    values = [
        evaluate(metric, RelevantPositions.from_positions(cfg, D))
        for cfg in (best_p, worst_p, best_r, worst_r)
    ]
    if metric.kind is MetricKind.TSE:
        lower = metric.exposure.at(D)
        upper = metric.exposure.at(m)
        values = [(v - lower) / (upper - lower) for v in values]
    sign = 1.0 if metric.higher_is_better else -1.0
    return sign * (values[0] - values[1]), sign * (values[2] - values[3])


def stable_seed(*parts: int | str) -> int:
    """Deterministic 64-bit seed derived from mixed parts (process-stable)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def degrade_judgments(
    judgments: JudgmentSet, fraction: float, seed: int
) -> JudgmentSet:
    """Remove a uniformly sampled fraction of the relevant items.

    Removes round-half-up(fraction * m) items but always leaves at least
    one, so every degraded request stays evaluable. Deterministic in the
    seed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must lie in [0, 1), got {fraction}")
    m = judgments.m
    if m == 0:
        raise ValidationError("cannot degrade an empty judgment set")
    remove = min(int(math.floor(fraction * m + 0.5)), m - 1)
    if remove == 0:
        return judgments
    rng = np.random.default_rng(seed)
    ordered = sorted(judgments.relevant_ids)
    drop_idx = rng.choice(m, size=remove, replace=False)
    dropped = {ordered[i] for i in drop_idx}
    return JudgmentSet(judgments.request_id, frozenset(judgments.relevant_ids - dropped))


Runs = Mapping[str, Mapping[str, RankedList]]


def degradation_study(
    runs: Runs,
    judgments: Mapping[str, JudgmentSet],
    fractions: Sequence[float],
    methods: Sequence[str | MetricId],
    samples: int,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: Imputation = Imputation.PESSIMISTIC,
) -> list[dict[str, object]]:
    """Re-judge the collection with thinned labels and track preference drift.

    For every removal fraction and sample, relevance labels are degraded per
    request, preferences between all run pairs are recomputed, and two
    things are reported per method: the mean fraction of tied comparisons
    and the mean agreement of degraded-label preferences with the strict
    full-label preferences.
    """
    if samples < 1:
        raise ValidationError(f"samples must be positive, got {samples}")
    resolved = [make_method(m, tolerance) for m in methods]
    tags = sorted(runs)
    run_pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1 :]]
    if not run_pairs:
        raise ValidationError("need at least two runs")

    evaluable = sorted(q for q, judgment in judgments.items() if judgment.evaluable)
    skipped = len(judgments) - len(evaluable)
    if skipped:
        logger.warning("skipped %d requests with no relevant items", skipped)
    full, _missing = project_runs(runs, judgments, evaluable, mode)
    full_prefs: dict[str, list[list]] = {}
    for name, fn in resolved:
        full_prefs[name] = [
            [fn(full[q][a], full[q][b]) for (a, b) in run_pairs] for q in evaluable
        ]

    rows: list[dict[str, object]] = []
    for fraction in fractions:
        stats = {name: {"ties": 0.0, "agree": 0.0} for name, _fn in resolved}
        for sample in range(samples):
            degraded_judgments = {
                q: degrade_judgments(judgments[q], fraction, stable_seed(seed, sample, q))
                for q in evaluable
            }
            degraded, _missing = project_runs(runs, degraded_judgments, evaluable, mode)
            for name, fn in resolved:
                ties = 0
                comparisons = 0
                agree = 0
                strict_full = 0
                for qi, q in enumerate(evaluable):
                    for pi, (a, b) in enumerate(run_pairs):
                        pref = fn(degraded[q][a], degraded[q][b])
                        comparisons += 1
                        if pref.is_tie:
                            ties += 1
                        base = full_prefs[name][qi][pi]
                        if not base.is_tie:
                            strict_full += 1
                            if pref.sign == base.sign:
                                agree += 1
                stats[name]["ties"] += ties / comparisons
                stats[name]["agree"] += agree / strict_full if strict_full else 1.0
        for name, _fn in resolved:
            rows.append(
                {
                    "fraction": fraction,
                    "method": name,
                    "tie_fraction": stats[name]["ties"] / samples,
                    "agreement_with_full": stats[name]["agree"] / samples,
                }
            )
    return rows
