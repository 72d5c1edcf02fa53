"""Scalar evaluation metrics over relevant-position vectors.

The central form is a sum over recall levels: given the sorted positions
``p_1 < ... < p_m`` of the relevant items, a metric is

    sum_i exposure(p_i) * normalization(i, m)

with a strictly decreasing exposure model and a metric-specific
normalization. AP, RR, NDCG, and RBP are instances of this form, which
``robustness.user_utility`` evaluates on any set of levels. Flat cutoff
metrics (recall@k, R-precision), search-length metrics (ESL3, recall
error), total search efficiency, and the exact-arithmetic bottom-weighted
average live alongside it as standalone formulas. One table, ``_KINDS``,
gives each ``MetricKind`` its label, its orientation and the plain names
``MetricId.parse`` accepts.

Everything here is a pure function of immutable inputs. Float sums are
explicit left-to-right loops: ``sum()`` compensates rounding from Python 3.12
on, which would make scores depend on the interpreter.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import ExposureModel, Record, RelevantPositions, parameter_label
from .errors import UnevaluableRequestError, ValidationError

if TYPE_CHECKING:
    from fractions import Fraction


@lru_cache(maxsize=None)
def _ndcg_z(m: int) -> float:
    # Summed in ascending order so the ideal ranking divides out to exactly 1.0.
    z = 0.0
    for k in range(1, m + 1):
        z += 1.0 / math.log2(k + 1)
    return z


# N(i, m) of each normalization, by name.
_NORMALIZATIONS = {
    "ap": lambda i, m: i / m,
    "rr": lambda i, m: 1.0 if i == 1 else 0.0,
    "ndcg": lambda i, m: 1.0 / _ndcg_z(m),
    "rbp": lambda i, m: 1.0,
    "esl3": lambda i, m: 1.0 if i == m else 0.0,
    "uniform": lambda i, m: 1.0 / m,
}


class NormalizationModel(Record):
    """Per-recall-level weight N(i, m), non-negative; ``kind`` names it."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in _NORMALIZATIONS:
            raise ValidationError(f"unknown normalization {kind!r}")
        object.__setattr__(self, "kind", kind)

    def weight(self, i: int, m: int) -> float:
        if not 1 <= i <= m:
            raise ValidationError(f"recall level {i} outside [1, {m}]")
        return _NORMALIZATIONS[self.kind](i, m)

    @classmethod
    def ap(cls) -> "NormalizationModel":
        return cls("ap")

    @classmethod
    def rr(cls) -> "NormalizationModel":
        return cls("rr")

    @classmethod
    def ndcg(cls) -> "NormalizationModel":
        return cls("ndcg")

    @classmethod
    def rbp(cls) -> "NormalizationModel":
        return cls("rbp")

    @classmethod
    def esl3(cls) -> "NormalizationModel":
        return cls("esl3")

    @classmethod
    def uniform(cls) -> "NormalizationModel":
        return cls("uniform")


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


# One row per kind: its label, a format string over k and the
# ``parameter_label`` of gamma and epsilon; whether higher values win (ESL3
# and recall error measure effort); and the names ``MetricId.parse`` accepts
# without a parameter. TSE labels a non-reciprocal exposure ``TSE[...]``, and
# the four parameterised families (rbp, recall@, tse:, mlr) are parsed by hand.
_KINDS = {
    MetricKind.AP: ("AP", True, ("ap", "map")),
    MetricKind.RR: ("RR", True, ("rr", "mrr")),
    MetricKind.NDCG: ("NDCG", True, ("ndcg",)),
    MetricKind.RBP: ("RBP({gamma})", True, ()),
    MetricKind.RECALL_AT_K: ("recall@{k}", True, ()),
    MetricKind.RPRECISION: ("RPrecision", True, ("rprecision", "r-precision", "rprec", "rp")),
    MetricKind.TSE: ("TSE", True, ()),
    MetricKind.ESL3: ("ESL3", False, ("esl3",)),
    MetricKind.RECALL_ERROR: ("RecallError", False, ("recallerror", "recall-error", "recall_error")),
    MetricKind.METRIC_LEXIRECALL: ("MetricLexirecall({epsilon})", True, ()),
}
_PLAIN_NAMES = {name: kind for kind, (_, _, names) in _KINDS.items() for name in names}


_DEFAULT_GAMMA = 0.8
_DEFAULT_K = 1000
_DEFAULT_EPSILON = 0.5  # read as exactly 1/2


def _epsilon(value: Fraction | float) -> Fraction:
    """An exact epsilon in (0, 1); a float is read as its shortest decimal repr."""
    from fractions import Fraction  # loads decimal; only exact scores need it
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


class MetricId(Record):
    """Identifier for a concrete metric instance, parameters included."""

    __slots__ = ("kind", "gamma", "k", "epsilon", "exposure")

    def __init__(
        self, kind: MetricKind, gamma: float | None = None, k: int | None = None,
        epsilon: Fraction | float | None = None, exposure: ExposureModel | None = None,
    ) -> None:
        if kind is MetricKind.RBP:
            if gamma is None:
                gamma = _DEFAULT_GAMMA
            if not isinstance(gamma, numbers.Real) or not 0.0 < gamma < 1.0:
                raise ValidationError(f"RBP gamma must lie in (0,1), got {gamma!r}")
        if kind is MetricKind.RECALL_AT_K and k is None:
            k = _DEFAULT_K
        if k is not None:
            try:
                k = operator.index(k)
            except TypeError as exc:
                raise ValidationError(f"recall@k needs an integer k: {exc}") from None
            if kind is MetricKind.RECALL_AT_K and k < 1:
                raise ValidationError(f"recall@k needs k >= 1, got {k}")
        if kind is MetricKind.METRIC_LEXIRECALL:
            epsilon = _epsilon(_DEFAULT_EPSILON if epsilon is None else epsilon)
        if kind is MetricKind.TSE and exposure is None:
            exposure = ExposureModel.reciprocal()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "exposure", exposure)

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
        return _KINDS[self.kind][1]

    @property
    def label(self) -> str:
        if self.kind is MetricKind.TSE and self.exposure.kind.value != "reciprocal":
            return f"TSE[{self.exposure.label}]"
        gamma = None if self.gamma is None else parameter_label(self.gamma)
        epsilon = None if self.epsilon is None else parameter_label(self.epsilon)
        return _KINDS[self.kind][0].format(gamma=gamma, k=self.k, epsilon=epsilon)

    @classmethod
    def parse(cls, text: str, corpus_size: int | None = None) -> "MetricId":
        """Parse a CLI-style metric name like ``AP``, ``rbp:0.9``, ``recall@100``.

        TSE accepts an exposure suffix: ``tse``, ``tse:log2``,
        ``tse:geometric:0.9``, ``tse:linear`` (linear needs ``corpus_size``).
        ``mlr``, ``metric-lexirecall`` and ``geometric`` end the name or are
        followed by ``:``, so ``mlrfoo`` fails; ``rbp0.9`` still reads a gamma.
        """
        low = text.strip().lower()
        if low in _PLAIN_NAMES:
            return cls(_PLAIN_NAMES[low])
        if low.startswith("rbp"):
            rest = low[3:].lstrip(":")
            return cls.rbp(_parameter(float, rest, text)) if rest else cls.rbp()
        if low.startswith(("recall@", "r@")):
            return cls.recall_at(_parameter(int, low.split("@", 1)[1], text))
        if low.startswith("tse"):
            rest = low[3:].lstrip(":")
            if not rest or rest == "reciprocal":
                return cls.tse()
            if rest == "log2":
                return cls.tse(ExposureModel.log2())
            name, colon, gamma = rest.partition(":")
            if name == "geometric":
                gamma = _parameter(float, gamma, text) if colon else _DEFAULT_GAMMA
                return cls.tse(ExposureModel.geometric(gamma))
            if rest == "linear":
                if corpus_size is None:
                    raise ValidationError("tse:linear requires a corpus size")
                return cls.tse(ExposureModel.linear(corpus_size))
            raise ValidationError(f"unknown TSE exposure {rest!r}")
        name, colon, epsilon = low.partition(":")
        if name in ("metric-lexirecall", "metric_lexirecall", "mlr"):
            if colon:
                from fractions import Fraction
                return cls.metric_lexirecall(_parameter(Fraction, epsilon, text))
            return cls.metric_lexirecall()
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
    from fractions import Fraction

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
    """Dispatch a metric instance over one position vector.

    The vector remembers the last value computed here in one private slot,
    and a later call with the same ``MetricId`` object (``is``, not ``==``)
    returns it. Callers that score a vector again ask for one metric at a
    time: each ``degrade`` method over all run pairs, and ``compare``'s score
    table before its pairs. One slot thus answers those repeats with O(1)
    memory per vector. A per-vector dict would grow with the metrics asked,
    on vectors that are never scored twice, and ``lru_cache`` would hash the
    whole positions tuple on every call and keep vectors alive.
    """
    stored = rp._score
    if stored is not None and stored[0] is metric:
        return stored[1]
    pos = rp.positions
    m = len(pos)
    if m == 0:
        raise UnevaluableRequestError("no relevant positions to score")
    kind = metric.kind
    if kind is MetricKind.AP:
        total = 0.0
        for i, p in enumerate(pos, start=1):
            total += i / p
        value = total / m
    elif kind is MetricKind.RR:
        value = 1.0 / pos[0]
    elif kind is MetricKind.NDCG:
        # Dividing the summed gains keeps the ideal ranking at exactly 1.0.
        total = 0.0
        for p in pos:
            total += 1.0 / math.log2(p + 1)
        value = total / _ndcg_z(m)
    elif kind is MetricKind.RBP:
        g = metric.gamma
        total = 0.0
        for p in pos:
            total += g ** (p - 1)
        value = (1.0 - g) * total
    elif kind is MetricKind.RECALL_AT_K:
        value = bisect_right(pos, metric.k) / m
    elif kind is MetricKind.RPRECISION:
        value = bisect_right(pos, m) / m
    elif kind is MetricKind.TSE:
        value = metric.exposure.at(pos[-1])
    elif kind is MetricKind.ESL3:
        value = float(pos[-1] - m)
    elif kind is MetricKind.RECALL_ERROR:
        value = sum(pos) / m - (m + 1) / 2
    else:
        value = float(metric_lexirecall(rp, metric.epsilon))
    object.__setattr__(rp, "_score", (metric, value))
    return value
