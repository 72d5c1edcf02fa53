"""Scalar evaluation metrics over relevant-position vectors.

The central form is a sum over recall levels: given the sorted positions
``p_1 < ... < p_m`` of the relevant items, a metric is

    sum_i exposure(p_i) * normalization(i, m)

with a strictly decreasing exposure model and a metric-specific
normalization. AP, RR, NDCG, and RBP are instances of this form, which
``robustness.user_utility`` evaluates on any set of levels. Flat cutoff
metrics (recall@k, R-precision), search-length metrics (ESL3, recall
error), total search efficiency, and the exact-arithmetic bottom-weighted
average live alongside it as standalone formulas.

Everything here is a pure function of immutable inputs. Float sums are
explicit left-to-right loops: ``sum()`` compensates rounding from Python 3.12
on, which would make scores depend on the interpreter.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .core import ExposureModel, RelevantPositions
from .errors import EnumerationBudgetError, UnevaluableRequestError, ValidationError


class NormalizationKind(str, Enum):
    AP = "ap"
    RR = "rr"
    NDCG = "ndcg"
    RBP = "rbp"
    ESL3 = "esl3"
    UNIFORM = "uniform"


@lru_cache(maxsize=None)
def _ndcg_z(m: int) -> float:
    # Summed in ascending order so the ideal ranking divides out to exactly 1.0.
    z = 0.0
    for k in range(1, m + 1):
        z += 1.0 / math.log2(k + 1)
    return z


@dataclass(frozen=True)
class NormalizationModel:
    """Per-recall-level weight N(i, m), non-negative."""

    kind: NormalizationKind

    def weight(self, i: int, m: int) -> float:
        if not 1 <= i <= m:
            raise ValidationError(f"recall level {i} outside [1, {m}]")
        kind = self.kind
        if kind is NormalizationKind.AP:
            return i / m
        if kind is NormalizationKind.RR:
            return 1.0 if i == 1 else 0.0
        if kind is NormalizationKind.NDCG:
            return 1.0 / _ndcg_z(m)
        if kind is NormalizationKind.RBP:
            return 1.0
        if kind is NormalizationKind.ESL3:
            return 1.0 if i == m else 0.0
        return 1.0 / m

    @classmethod
    def ap(cls) -> "NormalizationModel":
        return cls(NormalizationKind.AP)

    @classmethod
    def rr(cls) -> "NormalizationModel":
        return cls(NormalizationKind.RR)

    @classmethod
    def ndcg(cls) -> "NormalizationModel":
        return cls(NormalizationKind.NDCG)

    @classmethod
    def rbp(cls) -> "NormalizationModel":
        return cls(NormalizationKind.RBP)

    @classmethod
    def esl3(cls) -> "NormalizationModel":
        return cls(NormalizationKind.ESL3)

    @classmethod
    def uniform(cls) -> "NormalizationModel":
        return cls(NormalizationKind.UNIFORM)


class MetricKind(str, Enum):
    AP = "ap"
    RR = "rr"
    NDCG = "ndcg"
    RBP = "rbp"
    RECALL_AT_K = "recall@k"
    RPRECISION = "rprecision"
    TSE = "tse"
    ESL3 = "esl3"
    RECALL_ERROR = "recall_error"
    METRIC_LEXIRECALL = "metric_lexirecall"


_DEFAULT_GAMMA = 0.8
_DEFAULT_K = 1000
_DEFAULT_EPSILON = Fraction(1, 2)


def _epsilon(value: Fraction | float) -> Fraction:
    """An exact epsilon in (0, 1); a float is read as its shortest decimal repr."""
    try:
        eps = Fraction(repr(float(value)) if isinstance(value, float) else value)
    except ValueError:
        raise ValidationError(f"epsilon must lie in (0,1), got {value}") from None
    if not 0 < eps < 1:
        raise ValidationError(f"epsilon must lie in (0,1), got {eps}")
    return eps


def _parameter(convert, value: str, text: str):
    """``convert(value)``, with a malformed value reported against the metric ``text``."""
    try:
        return convert(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad parameter {value!r} in metric {text!r}") from None


@dataclass(frozen=True)
class MetricId:
    """Identifier for a concrete metric instance, parameters included."""

    kind: MetricKind
    gamma: float | None = None
    k: int | None = None
    epsilon: Fraction | None = None
    exposure: ExposureModel | None = None

    def __post_init__(self) -> None:
        if self.kind is MetricKind.RBP:
            g = self.gamma if self.gamma is not None else _DEFAULT_GAMMA
            if not 0.0 < g < 1.0:
                raise ValidationError(f"RBP gamma must lie in (0,1), got {g}")
            object.__setattr__(self, "gamma", g)
        if self.kind is MetricKind.RECALL_AT_K:
            k = self.k if self.k is not None else _DEFAULT_K
            if k < 1:
                raise ValidationError(f"recall@k needs k >= 1, got {k}")
            object.__setattr__(self, "k", k)
        if self.kind is MetricKind.METRIC_LEXIRECALL:
            eps = _epsilon(self.epsilon) if self.epsilon is not None else _DEFAULT_EPSILON
            object.__setattr__(self, "epsilon", eps)
        if self.kind is MetricKind.TSE and self.exposure is None:
            object.__setattr__(self, "exposure", ExposureModel.reciprocal())

    @classmethod
    def ap(cls) -> "MetricId":
        return cls(MetricKind.AP)

    @classmethod
    def rr(cls) -> "MetricId":
        return cls(MetricKind.RR)

    @classmethod
    def ndcg(cls) -> "MetricId":
        return cls(MetricKind.NDCG)

    @classmethod
    def rbp(cls, gamma: float = _DEFAULT_GAMMA) -> "MetricId":
        return cls(MetricKind.RBP, gamma=gamma)

    @classmethod
    def recall_at(cls, k: int = _DEFAULT_K) -> "MetricId":
        return cls(MetricKind.RECALL_AT_K, k=k)

    @classmethod
    def r_precision(cls) -> "MetricId":
        return cls(MetricKind.RPRECISION)

    @classmethod
    def tse(cls, exposure: ExposureModel | None = None) -> "MetricId":
        return cls(MetricKind.TSE, exposure=exposure)

    @classmethod
    def esl3(cls) -> "MetricId":
        return cls(MetricKind.ESL3)

    @classmethod
    def recall_error(cls) -> "MetricId":
        return cls(MetricKind.RECALL_ERROR)

    @classmethod
    def metric_lexirecall(cls, epsilon: Fraction | float = _DEFAULT_EPSILON) -> "MetricId":
        return cls(MetricKind.METRIC_LEXIRECALL, epsilon=epsilon)

    @property
    def higher_is_better(self) -> bool:
        """ESL3 and recall error measure effort, so lower values win."""
        return self.kind not in (MetricKind.ESL3, MetricKind.RECALL_ERROR)

    @property
    def label(self) -> str:
        kind = self.kind
        if kind is MetricKind.AP:
            return "AP"
        if kind is MetricKind.RR:
            return "RR"
        if kind is MetricKind.NDCG:
            return "NDCG"
        if kind is MetricKind.RBP:
            return f"RBP({self.gamma:g})"
        if kind is MetricKind.RECALL_AT_K:
            return f"recall@{self.k}"
        if kind is MetricKind.RPRECISION:
            return "RPrecision"
        if kind is MetricKind.TSE:
            return "TSE" if self.exposure.kind.value == "reciprocal" else f"TSE[{self.exposure.label}]"
        if kind is MetricKind.ESL3:
            return "ESL3"
        if kind is MetricKind.RECALL_ERROR:
            return "RecallError"
        return f"MetricLexirecall({float(self.epsilon):g})"

    @classmethod
    def parse(cls, text: str, corpus_size: int | None = None) -> "MetricId":
        """Parse a CLI-style metric name like ``AP``, ``rbp:0.9``, ``recall@100``.

        TSE accepts an exposure suffix: ``tse``, ``tse:log2``,
        ``tse:geometric:0.9``, ``tse:linear`` (linear needs ``corpus_size``).
        """
        raw = text.strip()
        low = raw.lower()
        if low in ("ap", "map"):
            return cls.ap()
        if low in ("rr", "mrr"):
            return cls.rr()
        if low == "ndcg":
            return cls.ndcg()
        if low.startswith("rbp"):
            rest = low[3:].lstrip(":")
            return cls.rbp(_parameter(float, rest, text)) if rest else cls.rbp()
        if low.startswith(("recall@", "r@")):
            return cls.recall_at(_parameter(int, low.split("@", 1)[1], text))
        if low in ("rprecision", "r-precision", "rprec", "rp"):
            return cls.r_precision()
        if low.startswith("tse"):
            rest = low[3:].lstrip(":")
            if not rest or rest == "reciprocal":
                return cls.tse()
            if rest == "log2":
                return cls.tse(ExposureModel.log2())
            if rest.startswith("geometric"):
                gamma = rest.split(":", 1)[1] if ":" in rest else str(_DEFAULT_GAMMA)
                return cls.tse(ExposureModel.geometric(_parameter(float, gamma, text)))
            if rest == "linear":
                if corpus_size is None:
                    raise ValidationError("tse:linear requires a corpus size")
                return cls.tse(ExposureModel.linear(corpus_size))
            raise ValidationError(f"unknown TSE exposure {rest!r}")
        if low == "esl3":
            return cls.esl3()
        if low in ("recallerror", "recall-error", "recall_error"):
            return cls.recall_error()
        if low.startswith(("metric-lexirecall", "metric_lexirecall", "mlr")):
            rest = low.split(":", 1)
            if len(rest) == 1:
                return cls.metric_lexirecall()
            return cls.metric_lexirecall(_parameter(Fraction, rest[1], text))
        raise ValidationError(f"unknown metric {text!r}")


def tse(rp: RelevantPositions, exposure: ExposureModel) -> float:
    """Total search efficiency: the exposure of the lowest-ranked relevant item."""
    if rp.m == 0:
        raise UnevaluableRequestError("no relevant positions to score")
    return exposure.at(rp.positions[-1])


def metric_lexirecall(
    rp: RelevantPositions, epsilon: Fraction | float = _DEFAULT_EPSILON
) -> Fraction:
    """Exact-rational bottom-heavy weighted average of position allocations.

    With ``delta = 1/(D+epsilon)`` the weights are ``delta^(m-1)/(1+delta)^(m-1)``
    at the top level and ``delta^(m-i)/(1+delta)^(m+1-i)`` below it. They sum
    to exactly 1 and each weight exceeds ``(D-1)`` times the total weight above
    it, which is what makes the weighted average order vectors leximin-style.
    Scores order rankings exactly as the bottom-up positional comparison
    does. Convert to float only for reporting; float evaluation loses the
    ordering guarantee.

    With ``epsilon = a/b``, ``M = bD + a`` and ``N = M + b`` the weights are
    ``b^(m-1) N / N^m`` at the top and ``b^(m-i) M N^(i-1) / N^m`` below, so
    the score is one integer numerator over ``D N^m``.
    """
    m = rp.m
    if m == 0:
        raise UnevaluableRequestError("no relevant positions to score")
    eps = _epsilon(epsilon)
    a, b = eps.numerator, eps.denominator
    D = rp.corpus_size
    M = b * D + a
    N = M + b
    # Horner in N from the bottom level up; level i carries b^(m-i).
    numerator = 0
    b_power = 1
    for i in range(m, 0, -1):
        level_factor = M if i > 1 else N
        numerator = numerator * N + level_factor * b_power * (D - rp.positions[i - 1])
        b_power *= b
    return Fraction(numerator, D * N**m)


def evaluate(metric: MetricId, rp: RelevantPositions) -> float:
    """Dispatch a metric instance over one position vector."""
    pos = rp.positions
    m = len(pos)
    if m == 0:
        raise UnevaluableRequestError("no relevant positions to score")
    kind = metric.kind
    if kind is MetricKind.AP:
        total = 0.0
        for i, p in enumerate(pos, start=1):
            total += i / p
        return total / m
    if kind is MetricKind.RR:
        return 1.0 / pos[0]
    if kind is MetricKind.NDCG:
        # Dividing the summed gains keeps the ideal ranking at exactly 1.0.
        total = 0.0
        for p in pos:
            total += 1.0 / math.log2(p + 1)
        return total / _ndcg_z(m)
    if kind is MetricKind.RBP:
        g = metric.gamma
        total = 0.0
        for p in pos:
            total += g ** (p - 1)
        return (1.0 - g) * total
    if kind is MetricKind.RECALL_AT_K:
        return bisect_right(pos, metric.k) / m
    if kind is MetricKind.RPRECISION:
        return bisect_right(pos, m) / m
    if kind is MetricKind.TSE:
        return metric.exposure.at(pos[-1])
    if kind is MetricKind.ESL3:
        return float(pos[-1] - m)
    if kind is MetricKind.RECALL_ERROR:
        return sum(pos) / m - (m + 1) / 2
    return float(metric_lexirecall(rp, metric.epsilon))


def exact_value(metric: MetricId, rp: RelevantPositions) -> Fraction | float:
    """Metric value with exact arithmetic where the metric defines it."""
    if metric.kind is MetricKind.METRIC_LEXIRECALL:
        return metric_lexirecall(rp, metric.epsilon)
    return evaluate(metric, rp)


class TopHeavinessCheck(NamedTuple):
    holds: bool
    counterexample: tuple[tuple[int, ...], int, float, float] | None


_TOP_HEAVY_M_CAP = 12
_TOP_HEAVY_VECTOR_CAP = 2_000_000
_TOP_HEAVY_SLACK = 1e-12


def is_top_heavy(
    exposure: ExposureModel,
    normalization: NormalizationModel,
    m_max: int,
    corpus_size: int,
) -> TopHeavinessCheck:
    """Exhaustively verify the prefix-dominance inequality.

    For every position vector with up to ``m_max`` relevant items in a corpus
    of ``corpus_size`` and every split point j, the full sum must dominate the
    re-normalized tail sum. Returns the first violating configuration if one
    exists. Raises :class:`EnumerationBudgetError` when the enumeration would
    exceed the hard budget rather than silently truncating.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if m_max > _TOP_HEAVY_M_CAP:
        raise EnumerationBudgetError(
            f"check truncated: m_max {m_max} exceeds the exhaustive cap {_TOP_HEAVY_M_CAP}"
        )
    total_vectors = sum(math.comb(corpus_size, m) for m in range(1, min(m_max, corpus_size) + 1))
    if total_vectors > _TOP_HEAVY_VECTOR_CAP:
        raise EnumerationBudgetError(
            f"check truncated: {total_vectors} vectors exceed the budget {_TOP_HEAVY_VECTOR_CAP}"
        )
    for m in range(1, min(m_max, corpus_size) + 1):
        for pos in combinations(range(1, corpus_size + 1), m):
            g = [exposure.at(p) for p in pos]
            full = 0.0
            for i in range(1, m + 1):
                full += g[i - 1] * normalization.weight(i, m)
            for j in range(1, m):
                tail = 0.0
                for i in range(j + 1, m + 1):
                    tail += g[i - 1] * normalization.weight(i - j, m - j)
                if full < tail - _TOP_HEAVY_SLACK:
                    return TopHeavinessCheck(False, (pos, j, full, tail))
    return TopHeavinessCheck(True, None)
