"""Exact tie combinatorics, Monte-Carlo simulators, and synthetic studies.

The simulators sample relevant-position vectors directly instead of whole
permutations: every statistic in this package is a function of the position
vector alone, and each vector corresponds to the same number of corpus
permutations, so the induced distribution is identical while million-item
corpora stay cheap.

Vectors are drawn in blocks. A chunk of pairs first draws its m, then one
sorted int64 (n, m) block per distinct m holding the n vectors of that m.
A chunk holds ``_CHUNK_PAIRS`` pairs, fewer when the top of the m range
would make it draw more than ``_CHUNK_VALUES`` values, so memory follows
the vector size and not the pair count.

Each block row is a uniform m-subset of [1..D] by one argument: every
regime treats the labels 1..D alike, so relabelling the
corpus maps a draw, and the decision to keep it, onto an equally likely draw
with the same decision. The distribution of a kept row is then invariant
under relabelling, and the only such distribution over m-subsets is the
uniform one. The three regimes are

* whole-row rejection where m(m-1) <= D: m independent draws, sorted, kept
  when they strictly increase, which at least half of all rows do;
* first m distinct values of a row of 2m draws, in draw order, where
  m(m-1) > D and 2m < D; a row with fewer distinct values is drawn again;
* a permutation prefix where 2m >= D: the first m of a shuffled 1..D.

A rejected row is replaced by the next accepted one, which leaves the kept
rows independent. The chunk size depends only on D and the m range, and
the last chunk is drawn in full and then cut, so a stream of n pairs is the
prefix of every longer stream with the same seed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from ._numpy import np
from .core import (
    Imputation, JudgmentSet, Preference, RankedList, Record, RelevantPositions, project_runs,
)
from .errors import UndefinedResultError, ValidationError, check_distinct
from .metrics import MetricId, MetricKind, evaluate
from .prefs import (
    DEFAULT_TOLERANCE, PreferenceFn, make_method, metric_compare, run_pair_preferences,
)


class SimulationConfig(Record):
    """Settings for one batch of simulated ranking pairs."""

    __slots__ = ("corpus_size", "m_range", "pair_count", "retrieval_depth", "seed")

    def __init__(
        self, corpus_size: int, m_range: tuple[int, int], pair_count: int,
        retrieval_depth: int | None = None, seed: int = 0,
    ) -> None:
        try:
            D = operator.index(corpus_size)
            lo, hi = map(operator.index, m_range)
            pair_count = operator.index(pair_count)
            seed = operator.index(seed)
            depth = retrieval_depth
            if depth is not None:
                depth = operator.index(depth)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"simulation sizes and seed must be integers: {exc}") from None
        if not 1 <= lo <= hi <= D:
            raise ValidationError(
                f"m_range {(lo, hi)} must satisfy 1 <= lo <= hi <= D={D}"
            )
        if pair_count < 1:
            raise ValidationError(f"pair_count must be positive, got {pair_count}")
        if depth is not None and not 1 <= depth <= D:
            raise ValidationError(f"retrieval depth {depth} outside [1, {D}]")
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "corpus_size", D)
        object.__setattr__(self, "m_range", (lo, hi))
        object.__setattr__(self, "pair_count", pair_count)
        object.__setattr__(self, "retrieval_depth", depth)
        object.__setattr__(self, "seed", seed)


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

    ``metric`` is ``tse``, ``recall@k`` (with ``k``), ``rprecision``,
    ``lexirecall``, a ``MetricId`` or any name ``MetricId.parse`` reads.
    """
    if not 1 <= m <= corpus_size:
        raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
    total = math.comb(corpus_size, m)
    if isinstance(metric, str):
        name = metric.strip().lower()
        if name == "lexirecall":
            return Fraction(1, total)
        if name == "recall@k" and k is None:
            raise ValidationError("recall@k tie probability needs k")
        metric = (
            MetricId.recall_at(k) if name == "recall@k" else MetricId.parse(metric, corpus_size)
        )
    if metric.kind is MetricKind.TSE:
        return Fraction(_bottom_tie_numerator(corpus_size, m), total * total)
    if metric.kind is MetricKind.RECALL_AT_K:
        k = min(metric.k, corpus_size)  # recall@k at k >= D is recall@D
    elif metric.kind is MetricKind.RPRECISION:
        k = m
    else:
        raise ValidationError(f"no closed-form tie probability for {metric.label}")
    num = sum(
        math.comb(k, i) ** 2 * math.comb(corpus_size - k, m - i) ** 2
        for i in range(0, m + 1)
        if i <= k and m - i <= corpus_size - k
    )
    return Fraction(num, total * total)


# Pairs whose m are drawn together, and the most values one chunk draws.
# Both are part of the draw order: changing either changes seeded streams.
_CHUNK_PAIRS = 1024
_CHUNK_VALUES = 2**20


def _row_width(corpus_size: int, m: int) -> int:
    """Values drawn per row of an m-block: D, m or 2m by regime."""
    if 2 * m >= corpus_size:
        return corpus_size
    return m if m * (m - 1) <= corpus_size else 2 * m


def _chunk_pairs(config: SimulationConfig) -> int:
    """Pairs per chunk: ``_CHUNK_PAIRS``, or fewer where the widest rows of
    the m range would draw more than ``_CHUNK_VALUES`` values, down to one.

    A chunk's blocks, and the vectors it holds before yielding, then stay
    within about ``_CHUNK_VALUES`` positions or one pair's, whatever the
    pair count.
    """
    width = _row_width(config.corpus_size, config.m_range[1])
    return max(1, min(_CHUNK_PAIRS, _CHUNK_VALUES // (2 * width)))


def _first_distinct(draws: np.ndarray, m: int) -> np.ndarray:
    """The first m distinct values of each row, in draw order, sorted.

    Rows with fewer than m distinct values are dropped.
    """
    order = np.argsort(draws, axis=1, kind="stable")  # equal values keep column order
    ranked = np.take_along_axis(draws, order, axis=1)
    new = np.ones(draws.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty_like(new)
    np.put_along_axis(first, order, new, axis=1)  # first occurrences, by column
    first &= np.cumsum(first, axis=1) <= m
    keep = first.sum(axis=1) == m
    return np.sort(draws[keep][first[keep]].reshape(-1, m), axis=1)


def _subset_block(rng: np.random.Generator, corpus_size: int, m: int, n: int) -> np.ndarray:
    """n independent uniform m-subsets of [1..D], one sorted int64 row each."""
    D = corpus_size
    if 2 * m >= D:
        rows = rng.permuted(np.tile(np.arange(1, D + 1), (n, 1)), axis=1)
        return np.sort(rows[:, :m], axis=1)
    parts = []
    need = n
    while need:
        if m * (m - 1) <= D:
            rows = np.sort(rng.integers(1, D + 1, size=(need, m)), axis=1)
            rows = rows[(rows[:, 1:] > rows[:, :-1]).all(axis=1)]
        else:
            rows = _first_distinct(rng.integers(1, D + 1, size=(need, 2 * m)), m)
        parts.append(rows)
        need -= len(rows)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _pair_blocks(
    config: SimulationConfig,
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The pair stream as blocks: one list of ``(pairs, xs, ys)`` per chunk.

    ``pairs`` holds the chunk-relative stream indices of the pairs sharing
    one m, ascending; ``xs`` and ``ys`` hold their two position vectors as
    rows of sorted int64 (len(pairs), m) blocks, already truncated. Every
    chunk draws all ``_chunk_pairs(config)`` pairs, so the last one is cut
    after drawing and a stream is a prefix of every longer one with its seed.
    """
    rng = np.random.default_rng(config.seed)
    D = config.corpus_size
    lo, hi = config.m_range
    depth = config.retrieval_depth
    truncate = depth is not None and depth < D
    chunk = _chunk_pairs(config)
    for start in range(0, config.pair_count, chunk):
        kept = min(chunk, config.pair_count - start)
        ms = rng.integers(lo, hi + 1, size=chunk)
        order = np.argsort(ms, kind="stable")
        values, firsts, counts = np.unique(ms[order], return_index=True, return_counts=True)
        groups = []
        for m, first, count in zip(values.tolist(), firsts.tolist(), counts.tolist()):
            pairs = order[first : first + count]
            block = _subset_block(rng, D, m, 2 * count)
            if truncate:
                block = np.where(block > depth, np.arange(D - m + 1, D + 1), block)
            n = int(np.searchsorted(pairs, kept))
            groups.append((pairs[:n], block[:n], block[count : count + n]))
        yield groups


PairStream = Iterable[tuple[RelevantPositions, RelevantPositions, int]]


def simulate_pairs(config: SimulationConfig) -> Iterator[tuple[RelevantPositions, RelevantPositions, int]]:
    """Stream seeded random ranking pairs as position vectors.

    Each trial draws m uniformly from the configured range, then two
    independent uniform position vectors. With a retrieval depth set,
    positions beyond the depth are pessimistically imputed, mimicking
    truncated runs. The stream is a pure function of the seed, and a
    stream of n pairs is the prefix of every longer one with the same seed.

    Pairs come in chunks (see ``_chunk_pairs``), drawn as one block of vectors
    per m by one of three exactly uniform regimes (see the module
    docstring), and are yielded in draw order. A vector at the bottom of
    the corpus, such as a truncated one with nothing retrieved, is one
    ``RelevantPositions.worst_case(m, D)`` shared by the whole stream.
    """
    D = config.corpus_size
    bottoms: dict[int, RelevantPositions] = {}
    for groups in _pair_blocks(config):
        stream: list = [None] * sum(len(pairs) for pairs, _xs, _ys in groups)
        for pairs, xs, ys in groups:
            m = xs.shape[1]
            if m not in bottoms:
                bottoms[m] = RelevantPositions.worst_case(m, D)
            wrapped = [_wrap_rows(block, D, bottoms[m]) for block in (xs, ys)]
            for i, x, y in zip(pairs.tolist(), *wrapped):
                stream[i] = (x, y, m)
        yield from stream


def _wrap_rows(block: np.ndarray, corpus_size: int, bottom: RelevantPositions) -> list:
    """One ``RelevantPositions`` per row; rows at the bottom share ``bottom``."""
    top = bottom.positions[0]
    return [
        bottom if first == top else RelevantPositions(row.tolist(), corpus_size)
        for first, row in zip(block[:, 0].tolist(), block)
    ]


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
        if pref is (Preference.FIRST if last_x < last_y else Preference.SECOND):
            agree += 1
    if strict == 0:
        raise UndefinedResultError("no pair has a strict worst-case order")
    return agree / strict, tied_worst / total


def _resolve_methods(
    methods: Sequence[str | MetricId], tolerance: float
) -> list[tuple[str, PreferenceFn]]:
    """Labelled preference functions, one per method; a repeated label is an error."""
    resolved = [make_method(m, tolerance) for m in methods]
    check_distinct([name for name, _fn in resolved], "comparison method")
    return resolved


def tie_fractions(
    pairs: PairStream,
    methods: Sequence[str | MetricId],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, float]:
    """Empirical tie fraction of each comparison method over a pair stream."""
    resolved = _resolve_methods(methods, tolerance)
    ties = [0] * len(resolved)
    total = 0
    for rpx, rpy, _m in pairs:
        total += 1
        for idx, (_name, fn) in enumerate(resolved):
            if fn(rpx, rpy) is Preference.TIE:
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
        if upper == lower:
            raise UndefinedResultError(
                f"{metric.label} has no orientation at m={m}: its exposure at m and D={D} is equal"
            )
        values = [(v - lower) / (upper - lower) for v in values]
    sign = 1.0 if metric.higher_is_better else -1.0
    return sign * (values[0] - values[1]), sign * (values[2] - values[3])


def stable_seed(*parts: int | str) -> int:
    """Deterministic 64-bit seed derived from mixed parts (process-stable)."""
    from hashlib import blake2b  # loads OpenSSL; only seeded commands need it
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def degrade_judgments(
    judgments: JudgmentSet, fraction: float, seed: int
) -> JudgmentSet:
    """Remove a uniformly sampled fraction of the relevant items.

    Removes round-half-up(fraction * m) items but always leaves at least
    one, so every degraded request stays evaluable. The removed items are
    those at the indices that numpy's seeded
    ``default_rng(seed).choice(m, size=remove, replace=False)`` picks from
    the sorted relevant ids. ``_pcg64.choice``, a plain-Python port, draws
    them, so the draw does not depend on the installed numpy, which does not
    promise that ``Generator`` streams stay the same across its versions
    (NEP 19).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must lie in [0, 1), got {fraction}")
    m = judgments.m
    if m == 0:
        raise ValidationError("cannot degrade an empty judgment set")
    remove = min(int(math.floor(fraction * m + 0.5)), m - 1)
    if remove == 0:
        return judgments
    from . import _pcg64  # only degrade draws labels

    ordered = sorted(judgments.relevant_ids)
    dropped = {ordered[i] for i in _pcg64.choice(seed, m, remove)}
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
    full-label preferences. A repeated fraction or method label, and
    judgments with no evaluable request, are errors.
    """
    if samples < 1:
        raise ValidationError(f"samples must be positive, got {samples}")
    check_distinct(fractions, "fraction")
    resolved = _resolve_methods(methods, tolerance)
    tags = sorted(runs)
    if len(tags) < 2:
        raise ValidationError("need at least two runs")

    evaluable = sorted(q for q, judgment in judgments.items() if judgment.evaluable)
    if not evaluable:
        raise ValidationError("no evaluable requests")
    full = project_runs(runs, judgments, evaluable, mode)
    full_prefs = [
        list(chain.from_iterable(run_pair_preferences(fn, full, evaluable, tags)))
        for _name, fn in resolved
    ]

    rows: list[dict[str, object]] = []
    for fraction in fractions:
        ties = [0.0] * len(resolved)
        agree = [0.0] * len(resolved)
        for sample in range(samples):
            degraded_judgments = {
                q: degrade_judgments(judgments[q], fraction, stable_seed(seed, sample, q))
                for q in evaluable
            }
            degraded = project_runs(runs, degraded_judgments, evaluable, mode)
            for idx, ((_name, fn), base) in enumerate(zip(resolved, full_prefs)):
                prefs = run_pair_preferences(fn, degraded, evaluable, tags)
                prefs = list(chain.from_iterable(prefs))
                strict = [p is was for p, was in zip(prefs, base) if was is not Preference.TIE]
                ties[idx] += prefs.count(Preference.TIE) / len(prefs)
                agree[idx] += strict.count(True) / len(strict) if strict else 1.0
            del degraded  # one degraded pass alive at a time
        rows += (
            {
                "fraction": fraction,
                "method": name,
                "tie_fraction": tied / samples,
                "agreement_with_full": agreed / samples,
            }
            for (name, _fn), tied, agreed in zip(resolved, ties, agree)
        )
    return rows
