"""Domain types, relevance projection, and imputation.

Everything downstream (metrics, preferences, robustness oracles) consumes a
single representation: the sorted vector of 1-based rank positions of the
relevant items in a ranking, held by :class:`RelevantPositions`. This module
turns raw system output plus binary judgments into that vector, filling in
positions of unretrieved relevant items either pessimistically (bottom of the
corpus) or optimistically (directly below the retrieved prefix), one request
and run at a time (:func:`project_and_impute`) or for a whole collection
(:func:`project_runs`).

All types are immutable after construction and all functions are pure. The
value types here and in the other modules derive from :class:`Record`.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from enum import Enum, IntEnum
from itertools import compress, count
from typing import Iterable, Mapping, Sequence

from .errors import UnevaluableRequestError, ValidationError


class Imputation(str, Enum):
    """Placement rule for relevant items missing from the retrieved prefix."""

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


class Record:
    """Base of the immutable value types, defined on their fields only.

    A subclass names its fields in ``__slots__``, in the order its
    ``__init__`` takes them, and its ``__init__`` checks its arguments and
    stores each field with ``object.__setattr__``. A slot whose name starts
    with ``_`` is private state, not a field. Equality, hash, ``repr`` and
    pickling follow the fields, and ``_fields`` and ``_replace`` work as on a
    namedtuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new value is."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def _integer(value, name: str) -> int:
    """``operator.index(value)``; a non-integer is a ``ValidationError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValidationError(f"{name} must be an integer: {exc}") from None


def _ids(values: Iterable[str], what: str) -> Iterable[str]:
    """``values``, unless it is one string that would read as its characters."""
    if isinstance(values, str):
        raise ValidationError(f"{what} must be a collection of ids, not the string {values!r}")
    return values


class RankedList(Record):
    """One system's ordered item ids for a request, top first.

    ``corpus_size`` is the total number of rankable items and is always an
    explicit input; it is never inferred from the list because imputation
    depends on it.
    """

    __slots__ = ("request_id", "items", "corpus_size", "system_tag")

    def __init__(
        self, request_id: str, items: Iterable[str], corpus_size: int, system_tag: str | None = None
    ) -> None:
        items = tuple(_ids(items, f"ranking for {request_id!r}"))
        corpus_size = _integer(corpus_size, "corpus_size")
        if corpus_size < 1:
            raise ValidationError(f"corpus_size must be positive, got {corpus_size}")
        k = len(items)
        if k < 1:
            raise ValidationError(f"ranking for {request_id!r} is empty")
        if k > corpus_size:
            raise ValidationError(
                f"ranking for {request_id!r} has {k} items, "
                f"more than corpus_size {corpus_size}"
            )
        if len(set(items)) != k:
            raise ValidationError(f"ranking for {request_id!r} contains duplicate items")
        object.__setattr__(self, "request_id", request_id)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "corpus_size", corpus_size)
        object.__setattr__(self, "system_tag", system_tag)

    @property
    def depth(self) -> int:
        return len(self.items)


class JudgmentSet(Record):
    """The set of items judged relevant for a request.

    An empty set is representable (it happens with strict binarization
    thresholds) but such requests are unevaluable and must be skipped by
    callers; :func:`project_and_impute` raises on them.
    """

    __slots__ = ("request_id", "relevant_ids")

    def __init__(self, request_id: str, relevant_ids: Iterable[str]) -> None:
        relevant = frozenset(_ids(relevant_ids, f"relevant ids of {request_id!r}"))
        object.__setattr__(self, "request_id", request_id)
        object.__setattr__(self, "relevant_ids", relevant)

    @property
    def m(self) -> int:
        return len(self.relevant_ids)

    @property
    def evaluable(self) -> bool:
        return self.m > 0


class RelevantPositions(Record):
    """Sorted 1-based positions of the relevant items in one ranking of a corpus of D."""

    # _score: the last (metric, value) that metrics.evaluate computed; not a
    # field, so equality, hash, repr, pickles and copies never see it.
    __slots__ = ("positions", "corpus_size", "_score")

    def __init__(self, positions: Iterable[int], corpus_size: int) -> None:
        try:
            pos = tuple(map(operator.index, positions))
        except TypeError as exc:
            raise ValidationError(f"positions must be integers: {exc}") from None
        D = _integer(corpus_size, "corpus_size")
        if D < 1:
            raise ValidationError(f"corpus_size must be positive, got {D}")
        if pos and not (pos[0] > 0 and all(map(operator.lt, pos, pos[1:]))):
            raise ValidationError(f"positions must be strictly increasing, got {pos}")
        if pos and pos[-1] > D:
            raise ValidationError(f"last position {pos[-1]} exceeds corpus_size {D}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "corpus_size", D)
        object.__setattr__(self, "_score", None)

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
        pessimistic tail is built: a slice of the bottom block, the last
        ``m`` positions, which is kept per ``(m, corpus_size)``, so the
        vectors of one request share its ints in whatever order they are
        built.
        """
        if not 1 <= m <= corpus_size:
            raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
        tail = _bottom_block(m, corpus_size)[len(retrieved) :]
        return cls((*retrieved, *tail), corpus_size)


@functools.lru_cache(maxsize=1024)  # bounded for callers that sweep many m
def _bottom_block(m: int, corpus_size: int) -> tuple[int, ...]:
    """The last ``m`` positions of a corpus of ``corpus_size``, in order."""
    return tuple(range(corpus_size - m + 1, corpus_size + 1))


def parameter_label(value) -> str:
    """A metric parameter as labels print it: ``:g`` where that reads back to
    ``value``, else the shortest float text that does, else ``a/b``.

    ``value`` is a float or a ``Fraction``, and reads back as its own type, so
    distinct parameters never share a label.
    """
    for text in (format(float(value), "g"), repr(float(value))):
        if type(value)(text) == value:
            return text
    return f"{value.numerator}/{value.denominator}"


class ExposureKind(str, Enum):
    RECIPROCAL = "reciprocal"
    LOG2 = "log2"
    GEOMETRIC = "geometric"
    LINEAR = "linear"


class ExposureModel(Record):
    """Strictly decreasing position discount.

    Four families: ``reciprocal`` 1/i, ``log2`` 1/log2(i+1), ``geometric``
    (1-gamma)*gamma^(i-1), and ``linear`` 1 - i/D. The geometric family
    underflows to 0.0 in float64 at deep positions (around i=3340 for
    gamma=0.8); real-valued strict monotonicity degrades to non-increasing
    there.
    """

    __slots__ = ("kind", "gamma", "corpus_size")

    def __init__(
        self, kind: ExposureKind, gamma: float | None = None, corpus_size: int | None = None
    ) -> None:
        if kind is ExposureKind.GEOMETRIC:
            if not isinstance(gamma, numbers.Real) or not 0.0 < gamma < 1.0:
                raise ValidationError(f"geometric exposure needs gamma in (0,1), got {gamma!r}")
        if corpus_size is not None:
            corpus_size = _integer(corpus_size, "corpus_size")
        if kind is ExposureKind.LINEAR:
            if corpus_size is None or corpus_size < 1:
                raise ValidationError("linear exposure needs a positive corpus_size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "corpus_size", corpus_size)

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
            return f"geometric({parameter_label(self.gamma)})"
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
    ranks = list(compress(count(1), map(relevant.__contains__, ranked_list.items)))
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


def _project_cell(
    ranked: RankedList | None, judgment: JudgmentSet, corpus_size: int, mode: Imputation
) -> RelevantPositions:
    """One (request, run) cell's vector: ``project_and_impute`` of a ranking.
    A run that does not rank the request (``ranked`` is ``None``) is scored
    with every relevant item at the bottom of the corpus, under either imputation."""
    if ranked is None:
        return RelevantPositions.worst_case(judgment.m, corpus_size)
    return project_and_impute(ranked, judgment, mode)


def project_runs(
    runs: Mapping[str, Mapping[str, RankedList]],
    judgments: Mapping[str, JudgmentSet],
    requests: Iterable[str],
    mode: Imputation = Imputation.PESSIMISTIC,
) -> dict[str, dict[str, RelevantPositions]]:
    """Per request and run tag, the imputed position vector.

    ``runs`` maps run tags to per-request rankings and ``requests`` names
    evaluable requests of ``judgments``. A run with no ranking for a request
    is scored with every relevant item at the bottom of the corpus.
    """
    corpus_sizes = {rl.corpus_size for run in runs.values() for rl in run.values()}
    if len(corpus_sizes) != 1:
        raise ValidationError(f"runs disagree on corpus_size: {sorted(corpus_sizes)}")
    (D,) = corpus_sizes
    return {
        request_id: {
            tag: _project_cell(run.get(request_id), judgments[request_id], D, mode)
            for tag, run in runs.items()
        }
        for request_id in requests
    }
