"""Random scenario builders for metric property sweeps.

Each builder models one editorial move on a ranking (growing the retrieved
prefix, swapping a relevant item upward, lifting at two depths) under
pessimistic imputation, returning position vectors before and after the
move. The standing constraint D - k > m keeps imputed blocks strictly below
any retrievable prefix position.
"""

from __future__ import annotations

import numpy as np

from lexirank import RelevantPositions


def _vector(positions, corpus_size, retrieved=None):
    """The vector of ``positions``; with ``retrieved``, built as a pessimistic tail.

    ``RelevantPositions.worst_case`` places everything after the first
    ``retrieved`` positions, and the result must be the positions computed here.
    """
    positions = tuple(positions)
    if retrieved is None:
        return RelevantPositions.from_positions(positions, corpus_size)
    vec = RelevantPositions.worst_case(len(positions), corpus_size, positions[:retrieved])
    assert vec.positions == positions, (positions, retrieved)
    return vec


def retrieval_growth_case(rng: np.random.Generator, force: str | None = None):
    """A top-k run before and after appending one item.

    Returns (base, extended, appended_relevant). The appended item is
    relevant only if some relevant item was still unretrieved; pessimistic
    imputation fills the bottom block in both vectors.
    """
    m = int(rng.integers(1, 7))
    D = int(rng.integers(m + 4, 90))
    k = int(rng.integers(1, D - m))  # guarantees D - k > m
    want_relevant = force == "relevant" or (force is None and bool(rng.integers(0, 2)))
    max_retrieved = min(m - 1, k) if want_relevant else min(m, k)
    r = int(rng.integers(0, max_retrieved + 1))
    retrieved = sorted(rng.choice(np.arange(1, k + 1), size=r, replace=False).tolist())
    missing = m - r
    base_positions = tuple(retrieved) + tuple(range(D - missing + 1, D + 1))
    base = _vector(base_positions, D, retrieved=r)
    if want_relevant and missing > 0:
        extended_positions = (
            tuple(retrieved) + (k + 1,) + tuple(range(D - missing + 2, D + 1))
        )
        extended = _vector(extended_positions, D, retrieved=r + 1)
        return base, extended, True
    extended = _vector(base_positions, D, retrieved=r)
    return base, extended, False


def swap_up_case(rng: np.random.Generator):
    """A full ranking before and after moving one relevant item higher.

    Returns (worse, better, corpus_size). The target slot is a nonrelevant
    position strictly above the moved item.
    """
    while True:
        m = int(rng.integers(1, 7))
        D = int(rng.integers(m + 2, 70))
        positions = sorted(rng.choice(np.arange(1, D + 1), size=m, replace=False).tolist())
        level = int(rng.integers(0, m))
        candidates = [p for p in range(1, positions[level]) if p not in positions]
        if not candidates:
            continue
        target = int(rng.choice(candidates))
        moved = sorted(set(positions) - {positions[level]} | {target})
        return _vector(positions, D), _vector(moved, D), D


def contiguous_lift_case(rng: np.random.Generator):
    """Two placements of the same relevant item, each lifted one position.

    Returns (shallow, shallow_lifted, deep, deep_lifted) where the moved
    item sits higher in the first pair. All four vectors share every other
    position, so the score gains isolate the lift depth.
    """
    while True:
        m = int(rng.integers(1, 6))
        D = int(rng.integers(4 * m + 8, 120))
        others = sorted(
            rng.choice(np.arange(1, D + 1, 4), size=m - 1, replace=False).tolist()
        )
        anchors = [0] + others + [D + 1]
        # Find a gap wide enough for two distinct placements with headroom.
        gaps = [
            (lo, hi)
            for lo, hi in zip(anchors, anchors[1:])
            if hi - lo >= 5
        ]
        if not gaps:
            continue
        lo, hi = gaps[int(rng.integers(0, len(gaps)))]
        shallow_pos = int(rng.integers(lo + 2, hi - 2))
        deep_pos = int(rng.integers(shallow_pos + 1, hi - 1))
        base = set(others)
        return (
            _vector(sorted(base | {shallow_pos}), D),
            _vector(sorted(base | {shallow_pos - 1}), D),
            _vector(sorted(base | {deep_pos}), D),
            _vector(sorted(base | {deep_pos - 1}), D),
        )
