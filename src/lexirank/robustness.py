"""Brute-force population oracles for worst-case evaluation.

A request with m relevant items conceals up to 2^m - 1 possible users (every
non-empty subset of the relevant items could be the set someone actually
wants) and the same family of possible providers. These enumerators score a
ranking for every member of those populations so that the cheap worst-case
shortcuts used elsewhere can be checked against an exhaustive minimum.

The worst-case minima enumerate every subset, vectorised: all 2^m - 1
subsets are bitmasks scored together in numpy, with each subset's sum formed
in the same order as a scalar loop, so values and witnesses are exact.
Scalar float sums are explicit left-to-right loops, as in ``metrics``, so
results do not depend on the Python version.
Enumeration caps are unchanged: the subset population is capped at m = 20
and the optimal-ranking analysis at m = 8.
All functions are pure and deterministic, so results never depend on any
parallel schedule a caller might choose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from ._numpy import np
from .core import ExposureModel, RelevantPositions
from .errors import EnumerationBudgetError, ValidationError
from .metrics import NormalizationModel

_SUBSET_M_CAP = 20
_ARRANGEMENT_M_CAP = 8


@dataclass(frozen=True)
class UserSubset:
    """A population member, identified by the recall levels it cares about."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        lv = self.levels
        if not lv:
            raise ValidationError("a user must care about at least one relevant item")
        prev = 0
        for v in lv:
            if v <= prev:
                raise ValidationError(f"levels must be strictly increasing and 1-based, got {lv}")
            prev = v

    def __len__(self) -> int:
        return len(self.levels)


def enumerate_users(m: int) -> list[UserSubset]:
    """All non-empty level subsets of [1..m], ordered by size then lexicographically."""
    if m < 1:
        raise ValidationError(f"m must be positive, got {m}")
    if m > _SUBSET_M_CAP:
        raise EnumerationBudgetError(
            f"refusing to enumerate 2^{m}-1 subsets; the cap is m={_SUBSET_M_CAP}"
        )
    out: list[UserSubset] = []
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            out.append(UserSubset(combo))
    return out


def _check_levels(rp: RelevantPositions, subset: UserSubset) -> None:
    if subset.levels[-1] > rp.m:
        raise ValidationError(
            f"subset level {subset.levels[-1]} exceeds the {rp.m} available recall levels"
        )


def user_utility(
    rp: RelevantPositions,
    subset: UserSubset,
    exposure: ExposureModel,
    normalization: NormalizationModel,
) -> float:
    """Score the ranking for one possible user.

    The user's items are the relevant items at the selected recall levels;
    the summation form is evaluated on that sub-vector with recall levels
    renumbered 1..|subset|.
    """
    _check_levels(rp, subset)
    n = len(subset)
    pos = rp.positions
    total = 0.0
    for i, level in enumerate(subset.levels, start=1):
        total += exposure.at(pos[level - 1]) * normalization.weight(i, n)
    return total


def provider_utility(
    rp: RelevantPositions,
    exposure: ExposureModel,
    subset: UserSubset,
) -> float:
    """Cumulative exposure of a provider owning the items at these levels."""
    _check_levels(rp, subset)
    pos = rp.positions
    total = 0.0
    for level in subset.levels:
        total += exposure.at(pos[level - 1])
    return total


class WorstCase(NamedTuple):
    value: float
    witness: UserSubset


def _weight_table(normalization: NormalizationModel | None, m: int) -> np.ndarray:
    # Flat (m+1) x (m+1) table: entry n*(m+1) + r holds N(r+1, n), the weight
    # of the (r+1)-th member of a size-n subset; column m (non-members) is 0.
    # ``None`` means plain summation (the provider population).
    table = np.zeros((m + 1, m + 1))
    for n in range(1, m + 1):
        for r in range(n):
            table[n, r] = 1.0 if normalization is None else normalization.weight(r + 1, n)
    return table.ravel()


@lru_cache(maxsize=1)
def _subset_layout(m: int) -> np.ndarray:
    """Weight-table index of every item in every non-empty subset of range(m).

    Row i, column k describes item i in the subset with bitmask k + 1:
    ``size * (m+1) + rank`` for a member (rank counted from 0 in increasing
    item order), and ``size * (m+1) + m`` for a non-member.
    """
    masks = np.arange(1, 1 << m, dtype=np.int32)
    sizes = np.zeros(masks.size, dtype=np.int32)
    for i in range(m):
        sizes += masks >> i & 1
    offsets = sizes * (m + 1)
    layout = np.empty((m, masks.size), dtype=np.int16)
    rank = np.zeros(masks.size, dtype=np.int32)
    for i in range(m):
        member = (masks >> i & 1).astype(bool)
        layout[i] = offsets + np.where(member, rank, m)
        rank += member
    layout.flags.writeable = False
    return layout


def _lexicographic_min(masks: np.ndarray) -> int:
    # Among subset bitmasks, the one whose sorted index tuple is smallest:
    # fix the smallest next index shared by the survivors, and stop as soon
    # as a survivor is exactly the fixed prefix (a prefix sorts first).
    prefix = 0
    while True:
        rest = masks ^ prefix
        low = rest & -rest
        step = low.min()
        prefix |= int(step)
        masks = masks[low == step]
        if (masks == prefix).any():
            return prefix


def _min_over_subsets(
    gains: list[float], normalization: NormalizationModel | None
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum over all non-empty index subsets.

    Each subset's total accumulates ``gains[idx] * N(rank, size)`` in
    increasing index order, as a scalar loop over the subset would, so the
    values are exactly that loop's. Ties at the minimum resolve to the
    lexicographically smallest witness. ``normalization=None`` means plain
    summation (the provider population).
    """
    m = len(gains)
    table = _weight_table(normalization, m)
    totals = np.zeros((1 << m) - 1)
    for gain, row in zip(gains, _subset_layout(m)):
        totals += gain * table[row]
    value = totals.min()
    mask = _lexicographic_min(np.flatnonzero(totals == value) + 1)
    return float(value), tuple(i for i in range(m) if mask >> i & 1)


def _require_population_budget(m: int) -> None:
    if m < 1:
        raise ValidationError("need at least one relevant item")
    if m > _SUBSET_M_CAP:
        raise EnumerationBudgetError(
            f"refusing to minimize over 2^{m}-1 subsets; the cap is m={_SUBSET_M_CAP}. "
            "The bottom-position exposure gives the same value directly."
        )


def worst_case_user(
    rp: RelevantPositions,
    exposure: ExposureModel,
    normalization: NormalizationModel,
) -> WorstCase:
    """Brute-force minimum of user utility over the whole user population."""
    m = rp.m
    _require_population_budget(m)
    gains = [exposure.at(p) for p in rp.positions]
    value, combo = _min_over_subsets(gains, normalization)
    return WorstCase(value, UserSubset(tuple(i + 1 for i in combo)))


def worst_case_provider(rp: RelevantPositions, exposure: ExposureModel) -> WorstCase:
    """Brute-force minimum of provider exposure over all provider subsets."""
    m = rp.m
    _require_population_budget(m)
    gains = [exposure.at(p) for p in rp.positions]
    value, combo = _min_over_subsets(gains, None)
    return WorstCase(value, UserSubset(tuple(i + 1 for i in combo)))


class OptimalRankerWorstCase(NamedTuple):
    deterministic: float
    stochastic: float


def optimal_ranker_worst_case(
    exposure: ExposureModel,
    normalization: NormalizationModel,
    corpus_size: int,
    m: int,
) -> OptimalRankerWorstCase:
    """Worst-case user value of fixed versus uniformly sampled optimal rankings.

    An optimal ranking puts the m relevant items in the top m positions. A
    deterministic optimal ranker commits to one of the m! arrangements; its
    worst-off user is the one wanting only the item at position m. A
    stochastic optimal ranker samples an arrangement uniformly, so a user
    holding c items sees its items land on a uniformly random size-c subset
    of the top m; the mean utility is averaged over those arrangements
    (arrangements are grouped by the position subset they induce, an exact
    regrouping of the m!-term average). The minimum over users of that mean
    is the stochastic worst case.
    """
    if not 1 <= m <= corpus_size:
        raise ValidationError(f"need 1 <= m <= corpus_size, got m={m}, D={corpus_size}")
    if m > _ARRANGEMENT_M_CAP:
        raise EnumerationBudgetError(
            f"refusing to average over {m}! arrangements; the cap is m={_ARRANGEMENT_M_CAP}"
        )
    ideal = RelevantPositions.from_positions(range(1, m + 1), corpus_size)
    deterministic = worst_case_user(ideal, exposure, normalization).value

    gains = [exposure.at(p) for p in range(1, m + 1)]
    stochastic = None
    for size in range(1, m + 1):
        row = [normalization.weight(i, size) for i in range(1, size + 1)]
        total = 0.0
        count = 0
        for placement in combinations(range(m), size):
            placed = 0.0
            for i, idx in enumerate(placement):
                placed += gains[idx] * row[i]
            total += placed
            count += 1
        mean = total / count
        if stochastic is None or mean < stochastic:
            stochastic = mean
    return OptimalRankerWorstCase(deterministic, stochastic)
