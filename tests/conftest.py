"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the library's summation form: they build
explicit ranked lists of item ids and compute scores by scanning and
counting, so that library values are checked against a second route.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import lexirank
from lexirank import RelevantPositions, UserSubset, user_utility


def subprocess_env() -> dict[str, str]:
    """Environment for a child ``python`` that imports this same lexirank.

    ``PYTHONPATH`` starts with the directory holding the imported package,
    so ``python -m lexirank`` works under a bare ``pytest`` from a checkout.
    """
    env = dict(os.environ)
    root = str(Path(lexirank.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


CROSS_PYTHON_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cross_python_sums.py"


@functools.cache
def interpreters_without_numpy() -> tuple[str, ...]:
    """Local interpreters the cross-Python script finds that start but cannot
    import numpy.

    They cannot run this suite, so the script and the numpy-free command
    goldens are their only checks.
    """
    spec = importlib.util.spec_from_file_location("cross_python_sums", CROSS_PYTHON_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    found = []
    for interpreter in script.local_interpreters():
        probe = subprocess.run([interpreter, "-c", "import numpy"], capture_output=True, text=True)
        if "No module named 'numpy'" in probe.stderr:
            found.append(interpreter)
    return tuple(found)


def ranking_with_relevant_at(positions: tuple[int, ...], corpus_size: int):
    """Explicit ranking of item ids with relevant items at the given ranks.

    Returns (items, relevant_ids). Relevant ids are rel0001... and fillers
    are doc0001...; the full permutation has corpus_size entries.
    """
    relevant = {p: f"rel{idx:04d}" for idx, p in enumerate(positions, start=1)}
    items = []
    filler = 0
    for rank in range(1, corpus_size + 1):
        if rank in relevant:
            items.append(relevant[rank])
        else:
            filler += 1
            items.append(f"doc{filler:04d}")
    return tuple(items), frozenset(relevant.values())


def counting_average_precision(items, relevant) -> float:
    """Mean precision at relevant ranks, computed by scanning and counting."""
    hits = 0
    total = 0.0
    for rank, item in enumerate(items, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def counting_recall_at(items, relevant, k: int) -> float:
    return len(set(items[:k]) & relevant) / len(relevant)


def counting_reciprocal_rank(items, relevant) -> float:
    for rank, item in enumerate(items, start=1):
        if item in relevant:
            return 1.0 / rank
    return 0.0


def random_positions(rng: np.random.Generator, corpus_size: int, m: int) -> RelevantPositions:
    picked = sorted(rng.choice(np.arange(1, corpus_size + 1), size=m, replace=False).tolist())
    return RelevantPositions.from_positions(picked, corpus_size)


def recall_level_form(vec: RelevantPositions, exposure, normalization) -> float:
    """The library's summation form over every recall level (not an oracle):
    the utility of the user who wants all the relevant items."""
    return user_utility(vec, UserSubset(tuple(range(1, vec.m + 1))), exposure, normalization)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
