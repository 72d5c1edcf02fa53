"""Preference relations between two rankings of the same request.

Four comparison routes with increasing resolution:

* ``tse_compare`` looks only at the lowest-ranked relevant item;
* ``lexirecall_compare`` breaks its ties at the deepest recall level where
  the positions differ;
* ``leximin_compare`` is the same bottom-up rule over sorted utility
  vectors, where the larger value wins; lexirecall is its lifting to
  positions, and the tests use it as that reference;
* ``metric_compare`` reduces any scalar metric to a preference with an
  explicit tie tolerance.

``run_pair_preferences`` applies one of them to every run pair of each
request; ``compare`` and ``degrade`` count their preferences from it.
"""

from __future__ import annotations

import math
import numbers
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .core import Preference, Record, RelevantPositions
from .errors import ValidationError
from .metrics import MetricId, MetricKind, evaluate, metric_lexirecall

DEFAULT_TOLERANCE = 1e-12


class UtilityVector(Record):
    """Utility values sorted in decreasing order."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]) -> None:
        if isinstance(values, str):
            raise ValidationError(f"utilities must be numbers, not the string {values!r}")
        vals = tuple(values)
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in vals):
            raise ValidationError(f"utilities must be finite numbers, got {vals}")
        if any(v < 0 for v in vals):
            raise ValidationError("utilities must be non-negative")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValidationError("utilities must be sorted in decreasing order")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "UtilityVector":
        return cls(tuple(sorted(values, reverse=True)))

    def __len__(self) -> int:
        return len(self.values)


def leximin_compare(x: UtilityVector, y: UtilityVector) -> Preference:
    """Compare two sorted vectors from the worst-off element upward.

    The first index (scanning from the bottom) where the values differ
    decides; the larger value wins.
    """
    if len(x) != len(y):
        raise ValidationError(f"vector lengths differ: {len(x)} vs {len(y)}")
    xs, ys = x.values, y.values
    for i in range(len(xs) - 1, -1, -1):
        a, b = xs[i], ys[i]
        if a != b:
            return Preference.FIRST if a > b else Preference.SECOND
    return Preference.TIE


def _check_same_request(rpx: RelevantPositions, rpy: RelevantPositions) -> None:
    if len(rpx.positions) != len(rpy.positions):
        raise ValidationError(
            f"rankings judge different relevant sets: m={rpx.m} vs m={rpy.m}"
        )
    if rpx.corpus_size != rpy.corpus_size:
        raise ValidationError(
            f"rankings come from different corpora: D={rpx.corpus_size} vs D={rpy.corpus_size}"
        )


def lexirecall_compare(rpx: RelevantPositions, rpy: RelevantPositions) -> Preference:
    """Bottom-up lexicographic comparison of relevant-item positions.

    Scans recall levels from the deepest one upward; at the first level where
    the positions differ, the ranking holding the relevant item higher (the
    smaller position) wins. Identical vectors tie. Only rankings for the same
    request and judgment set are comparable, hence the m and D checks.
    """
    _check_same_request(rpx, rpy)
    x, y = rpx.positions, rpy.positions
    if x == y:
        return Preference.TIE
    # Reversed, the tuples first differ at the deepest differing level, and
    # integer positions compare there exactly as the bottom-up scan does.
    return Preference.FIRST if x[::-1] < y[::-1] else Preference.SECOND


def tse_compare(rpx: RelevantPositions, rpy: RelevantPositions) -> Preference:
    """Worst-case preference: compare the exposure of the deepest relevant item.

    Exposure is strictly decreasing, so comparing the bottom positions
    directly is exact for every exposure model, which therefore takes no
    part. Rankings sharing the bottom position tie, which is what makes this
    preference coarse.
    """
    _check_same_request(rpx, rpy)
    a, b = rpx.positions[-1], rpy.positions[-1]
    if a == b:
        return Preference.TIE
    return Preference.FIRST if a < b else Preference.SECOND


def metric_compare(
    metric: MetricId,
    rpx: RelevantPositions,
    rpy: RelevantPositions,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Preference:
    """Reduce a scalar metric to a preference with an absolute tie tolerance.

    Values within ``tolerance`` of each other tie. Effort metrics (ESL3,
    recall error) are oriented so that the better ranking is still reported
    as preferred. The exact-arithmetic metric is compared as a rational, so
    ``tolerance=0`` is meaningful there. The tolerance must be a finite
    number >= 0.
    """
    if not 0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be a finite non-negative number, got {tolerance}")
    _check_same_request(rpx, rpy)
    if metric.kind is MetricKind.METRIC_LEXIRECALL:
        from fractions import Fraction  # loads decimal; only exact scores need it

        eps = metric.epsilon
        diff = metric_lexirecall(rpx, eps) - metric_lexirecall(rpy, eps)
        tol = Fraction(tolerance)
    else:
        diff = evaluate(metric, rpx) - evaluate(metric, rpy)
        tol = tolerance
    if abs(diff) <= tol:
        return Preference.TIE
    better_first = (diff > 0) == metric.higher_is_better
    return Preference.FIRST if better_first else Preference.SECOND


PreferenceFn = Callable[[RelevantPositions, RelevantPositions], Preference]


def parse_method(spec: str | MetricId, corpus_size: int | None = None) -> str | MetricId:
    """Read a comparison-method spec: a positional method name or a metric.

    Accepts ``"lexirecall"``, ``"tse"``, a :class:`MetricId`, or a string of
    the form ``metric:<name>`` (bare metric names are also accepted).
    """
    if isinstance(spec, MetricId):
        return spec
    name = spec.strip()
    low = name.lower()
    if low in ("lexirecall", "tse"):
        return low
    if low.startswith("metric:"):
        name = name.split(":", 1)[1]
    return MetricId.parse(name, corpus_size=corpus_size)


def make_method(
    spec: str | MetricId,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[str, PreferenceFn]:
    """Resolve a comparison-method spec into a labelled preference function."""
    method = parse_method(spec)
    if method == "lexirecall":
        return "lexirecall", lexirecall_compare
    if method == "tse":
        return "tse", tse_compare
    return method.label, lambda x, y: metric_compare(method, x, y, tolerance)


def run_pair_preferences(
    fn: PreferenceFn,
    vectors: Mapping[str, Mapping[str, RelevantPositions]],
    requests: Sequence[str],
    tags: Sequence[str],
) -> list[list[Preference]]:
    """``fn``'s preference for every run pair of each request: one list per
    request in ``requests`` order, pairs in ``combinations(tags, 2)`` order."""
    pairs = list(combinations(tags, 2))
    return [
        [fn(cells[a], cells[b]) for a, b in pairs] for cells in map(vectors.__getitem__, requests)
    ]
