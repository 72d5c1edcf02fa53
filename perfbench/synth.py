"""Seeded synthetic TREC-style collection with its planted truth.

Every (run, request) ranking holds its relevant items at ranks the generator
chooses and records, so the benchmark knows the pessimistically imputed
position vector of every cell without asking the code under test. Relevant
counts are stratified over the configured range and then shuffled, so two
seeds give the same total work in a different arrangement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size of a generated collection."""

    runs: int
    requests: int
    depth: int
    corpus_size: int = 1_000_000
    m_range: tuple[int, int] = (5, 200)

    @property
    def lines(self) -> int:
        return self.runs * self.requests * self.depth


@dataclass(frozen=True)
class Collection:
    """Files written for one shape and seed, plus what was planted in them."""

    shape: Shape
    run_paths: tuple[Path, ...]
    qrels_path: Path
    tags: tuple[str, ...]
    requests: tuple[str, ...]
    m: dict[str, int]
    # retrieved[tag][request] = sorted 1-based ranks of the relevant items
    retrieved: dict[str, dict[str, tuple[int, ...]]]
    digest: str

    def positions(self, tag: str, request: str) -> tuple[int, ...]:
        """Position vector with unretrieved items imputed to the corpus bottom."""
        ranks = self.retrieved[tag][request]
        missing = self.m[request] - len(ranks)
        D = self.shape.corpus_size
        return ranks + tuple(range(D - missing + 1, D + 1))


def file_digest(paths) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def generate(shape: Shape, seed: int, directory: Path) -> Collection:
    """Write ``run*.txt`` and ``qrels.txt`` under ``directory``."""
    rng = np.random.default_rng([seed, shape.runs, shape.requests, shape.depth])
    directory.mkdir(parents=True, exist_ok=True)
    D, depth = shape.corpus_size, shape.depth
    lo, hi = shape.m_range
    requests = tuple(f"q{i:04d}" for i in range(shape.requests))
    tags = tuple(f"run{j:02d}" for j in range(shape.runs))
    m_values = rng.permutation(np.linspace(lo, hi, shape.requests).round().astype(int))
    m = {q: int(v) for q, v in zip(requests, m_values)}
    skill = rng.uniform(0.1, 0.9, size=shape.runs)

    relevant_ids: dict[str, np.ndarray] = {}
    other_ids: dict[str, np.ndarray] = {}
    qrels_lines = []
    for q in requests:
        ids = rng.choice(D, size=m[q] + 2 * depth, replace=False)
        relevant_ids[q], other_ids[q] = ids[: m[q]], ids[m[q] :]
        judged = [(int(d), int(rng.integers(1, 3))) for d in relevant_ids[q]]
        judged += [(int(d), 0) for d in other_ids[q][:5]]
        for idx in rng.permutation(len(judged)):
            doc, grade = judged[idx]
            qrels_lines.append(f"{q} 0 d{doc:07d} {grade}\n")
    qrels_path = directory / "qrels.txt"
    qrels_path.write_text("".join(qrels_lines))

    scores = [f"{(depth - r) / depth:.6f}" for r in range(depth)]
    retrieved: dict[str, dict[str, tuple[int, ...]]] = {}
    run_paths = []
    for j, tag in enumerate(tags):
        lines = []
        retrieved[tag] = {}
        for q in requests:
            hits = min(int(rng.binomial(m[q], skill[j])), depth)
            ranks = np.sort(rng.choice(depth, size=hits, replace=False)) + 1
            docs = np.empty(depth, dtype=np.int64)
            hit_mask = np.zeros(depth, dtype=bool)
            hit_mask[ranks - 1] = True
            docs[hit_mask] = rng.choice(relevant_ids[q], size=hits, replace=False)
            docs[~hit_mask] = rng.choice(other_ids[q], size=depth - hits, replace=False)
            retrieved[tag][q] = tuple(int(r) for r in ranks)
            lines.extend(
                f"{q} Q0 d{doc:07d} {rank} {scores[rank - 1]} {tag}\n"
                for rank, doc in enumerate(docs.tolist(), start=1)
            )
        path = directory / f"{tag}.txt"
        path.write_text("".join(lines))
        run_paths.append(path)

    return Collection(
        shape=shape,
        run_paths=tuple(run_paths),
        qrels_path=qrels_path,
        tags=tags,
        requests=requests,
        m=m,
        retrieved=retrieved,
        digest=file_digest([*run_paths, qrels_path]),
    )


def oracle_vectors(count: int, m: int, corpus_size: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded sorted position vectors for the worst-case oracle step."""
    rng = np.random.default_rng([seed, count, m, corpus_size])
    return [
        tuple(int(p) for p in np.sort(rng.choice(corpus_size, size=m, replace=False)) + 1)
        for _ in range(count)
    ]
