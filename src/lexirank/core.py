"""Domain types, relevance projection, and imputation.

Everything downstream (metrics, preferences, robustness oracles) consumes a
single representation: the sorted vector of 1-based rank positions of the
relevant items in a ranking, held by :class:`RelevantPositions`. This module
turns raw system output plus binary judgments into that vector, filling in
positions of unretrieved relevant items either pessimistically (bottom of the
corpus) or optimistically (directly below the retrieved prefix), one request
and run at a time (:func:`project_and_impute`) or for a whole collection
(:func:`project_runs`).

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Mapping, Sequence

from .errors import UnevaluableRequestError, ValidationError


class Imputation(str, Enum):
    """Placement rule for relevant items missing from the retrieved prefix."""

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class RankedList:
    """One system's ordered item ids for a request, top first.

    ``corpus_size`` is the total number of rankable items and is always an
    explicit input; it is never inferred from the list because imputation
    depends on it.
    """

    request_id: str
    items: tuple[str, ...]
    corpus_size: int
    system_tag: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if self.corpus_size < 1:
            raise ValidationError(f"corpus_size must be positive, got {self.corpus_size}")
        k = len(self.items)
        if k < 1:
            raise ValidationError(f"ranking for {self.request_id!r} is empty")
        if k > self.corpus_size:
            raise ValidationError(
                f"ranking for {self.request_id!r} has {k} items, "
                f"more than corpus_size {self.corpus_size}"
            )
        if len(set(self.items)) != k:
            raise ValidationError(f"ranking for {self.request_id!r} contains duplicate items")

    @property
    def depth(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class JudgmentSet:
    """The set of items judged relevant for a request.

    An empty set is representable (it happens with strict binarization
    thresholds) but such requests are unevaluable and must be skipped by
    callers; :func:`project_and_impute` raises on them.
    """

    request_id: str
    relevant_ids: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relevant_ids", frozenset(self.relevant_ids))

    @property
    def m(self) -> int:
        return len(self.relevant_ids)

    @property
    def evaluable(self) -> bool:
        return self.m > 0


@dataclass(frozen=True)
class RelevantPositions:
    """Sorted 1-based positions of the relevant items in one ranking of a corpus of D."""

    positions: tuple[int, ...]
    corpus_size: int

    def __post_init__(self) -> None:
        try:
            pos = tuple(map(operator.index, self.positions))
        except TypeError as exc:
            raise ValidationError(f"positions must be integers: {exc}") from None
        try:
            D = operator.index(self.corpus_size)
        except TypeError as exc:
            raise ValidationError(f"corpus_size must be an integer: {exc}") from None
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "corpus_size", D)
        if D < 1:
            raise ValidationError(f"corpus_size must be positive, got {D}")
        if pos and not (pos[0] > 0 and all(map(operator.lt, pos, pos[1:]))):
            raise ValidationError(f"positions must be strictly increasing, got {pos}")
        if pos and pos[-1] > D:
            raise ValidationError(f"last position {pos[-1]} exceeds corpus_size {D}")
        # The last (metric, value) that metrics.evaluate computed; not a field.
        object.__setattr__(self, "_score", None)

    def __reduce__(self):
        # Pickles and copies carry the fields only, never the stored score.
        return type(self), (self.positions, self.corpus_size)

    @property
    def m(self) -> int:
        return len(self.positions)

    @classmethod
    def from_positions(cls, positions: Iterable[int], corpus_size: int) -> "RelevantPositions":
        """Wrap a fully observed position vector (no imputation needed)."""
        return cls(positions, corpus_size)

    @classmethod
    def worst_case(
        cls, m: int, corpus_size: int, retrieved: Sequence[int] = ()
    ) -> "RelevantPositions":
        """Retrieved positions, then the other relevant items at the bottom.

        The ``m - len(retrieved)`` unretrieved relevant items take the last
        positions of the corpus. With nothing retrieved this scores a run
        that is missing a request entirely. It is the one place the
        pessimistic tail is built.
        """
        if not 1 <= m <= corpus_size:
            raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
        tail = range(corpus_size - m + len(retrieved) + 1, corpus_size + 1)
        return cls((*retrieved, *tail), corpus_size)


class ExposureKind(str, Enum):
    RECIPROCAL = "reciprocal"
    LOG2 = "log2"
    GEOMETRIC = "geometric"
    LINEAR = "linear"


@dataclass(frozen=True)
class ExposureModel:
    """Strictly decreasing position discount.

    Four families: ``reciprocal`` 1/i, ``log2`` 1/log2(i+1), ``geometric``
    (1-gamma)*gamma^(i-1), and ``linear`` 1 - i/D. The geometric family
    underflows to 0.0 in float64 at deep positions (around i=3340 for
    gamma=0.8); real-valued strict monotonicity degrades to non-increasing
    there.
    """

    kind: ExposureKind
    gamma: float | None = None
    corpus_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ExposureKind.GEOMETRIC:
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ValidationError(f"geometric exposure needs gamma in (0,1), got {self.gamma}")
        if self.kind is ExposureKind.LINEAR:
            if self.corpus_size is None or self.corpus_size < 1:
                raise ValidationError("linear exposure needs a positive corpus_size")

    @classmethod
    def reciprocal(cls) -> "ExposureModel":
        return cls(ExposureKind.RECIPROCAL)

    @classmethod
    def log2(cls) -> "ExposureModel":
        return cls(ExposureKind.LOG2)

    @classmethod
    def geometric(cls, gamma: float) -> "ExposureModel":
        return cls(ExposureKind.GEOMETRIC, gamma=gamma)

    @classmethod
    def linear(cls, corpus_size: int) -> "ExposureModel":
        return cls(ExposureKind.LINEAR, corpus_size=corpus_size)

    def at(self, position: int) -> float:
        """Exposure of a 1-based rank position."""
        if position < 1:
            raise ValidationError(f"positions are 1-based, got {position}")
        kind = self.kind
        if kind is ExposureKind.RECIPROCAL:
            return 1.0 / position
        if kind is ExposureKind.LOG2:
            return 1.0 / math.log2(position + 1)
        if kind is ExposureKind.GEOMETRIC:
            return (1.0 - self.gamma) * self.gamma ** (position - 1)
        if position > self.corpus_size:
            raise ValidationError(
                f"linear exposure undefined beyond corpus_size {self.corpus_size}, got {position}"
            )
        return 1.0 - position / self.corpus_size

    @property
    def label(self) -> str:
        if self.kind is ExposureKind.GEOMETRIC:
            return f"geometric({self.gamma:g})"
        if self.kind is ExposureKind.LINEAR:
            return f"linear({self.corpus_size})"
        return self.kind.value


class Preference(IntEnum):
    """Three-valued outcome of comparing two rankings; the value is its sign."""

    FIRST = 1
    SECOND = -1
    TIE = 0

    @property
    def sign(self) -> int:
        return int(self)

    @property
    def is_tie(self) -> bool:
        return self is Preference.TIE


def project_and_impute(
    ranked_list: RankedList,
    judgments: JudgmentSet,
    mode: Imputation = Imputation.PESSIMISTIC,
) -> RelevantPositions:
    """Project judgments onto a ranking and impute unretrieved positions.

    Retrieved relevant items keep their 1-based ranks. Unretrieved relevant
    items go to the very bottom of the corpus (pessimistic, the default) or
    directly below the retrieved prefix (optimistic).

    Raises :class:`UnevaluableRequestError` when the judgment set is empty
    and :class:`ValidationError` when the imputed block cannot fit.
    """
    if ranked_list.request_id != judgments.request_id:
        raise ValidationError(
            f"ranking is for {ranked_list.request_id!r} but judgments are for "
            f"{judgments.request_id!r}"
        )
    if not judgments.evaluable:
        raise UnevaluableRequestError(
            f"request {judgments.request_id!r} has no relevant items"
        )
    D = ranked_list.corpus_size
    m = judgments.m
    if m > D:
        raise ValidationError(f"{m} relevant items cannot fit in a corpus of {D}")

    relevant = judgments.relevant_ids
    ranks = [rank for rank, item in enumerate(ranked_list.items, start=1) if item in relevant]
    missing = m - len(ranks)
    k = ranked_list.depth

    if mode is Imputation.PESSIMISTIC:
        if missing > D - k:
            raise ValidationError(
                f"cannot impute {missing} items below a prefix of {k} in a corpus of {D}"
            )
        return RelevantPositions.worst_case(m, D, ranks)
    if k + missing > D:
        raise ValidationError(
            f"cannot place {missing} items after a prefix of {k} in a corpus of {D}"
        )
    return RelevantPositions((*ranks, *range(k + 1, k + missing + 1)), D)


def project_runs(
    runs: Mapping[str, Mapping[str, RankedList]],
    judgments: Mapping[str, JudgmentSet],
    requests: Iterable[str],
    mode: Imputation = Imputation.PESSIMISTIC,
) -> tuple[dict[str, dict[str, RelevantPositions]], int]:
    """Per request and run tag, the imputed position vector.

    ``runs`` maps run tags to per-request rankings and ``requests`` names
    evaluable requests of ``judgments``. A run with no ranking for a request
    is scored as an empty ranking, every relevant item imputed to the bottom;
    the second return value counts those cells.
    """
    corpus_sizes = {rl.corpus_size for run in runs.values() for rl in run.values()}
    if len(corpus_sizes) != 1:
        raise ValidationError(f"runs disagree on corpus_size: {sorted(corpus_sizes)}")
    (D,) = corpus_sizes
    out: dict[str, dict[str, RelevantPositions]] = {}
    missing = 0
    for request_id in requests:
        judgment = judgments[request_id]
        per_run: dict[str, RelevantPositions] = {}
        for tag, run in runs.items():
            ranked = run.get(request_id)
            if ranked is None:
                per_run[tag] = RelevantPositions.worst_case(judgment.m, D)
                missing += 1
            else:
                per_run[tag] = project_and_impute(ranked, judgment, mode)
        out[request_id] = per_run
    return out, missing
