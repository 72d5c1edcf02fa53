"""Byte-identical goldens for the simulation commands and the worst-case oracle.

Every golden pins its output bit for bit: the command goldens are written
with ``--format json`` (``repr``-exact floats) and ``oracle.json`` holds
``float.hex`` values with their witnesses. A change in draw order or
summation order shows up here as one reviewed golden update.
"""

import json
import random
from pathlib import Path

import pytest

from lexirank import (
    ExposureModel,
    NormalizationModel,
    RelevantPositions,
    worst_case_provider,
    worst_case_user,
)
from lexirank.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "ties_analytic.json": [
        "ties", "--mode", "analytic", "--corpus-size", "1000000", "--m-range", "1", "4",
    ],
    "ties_empirical.json": [
        "ties", "--mode", "empirical", "--corpus-size", "1000000", "--depth", "1000",
        "--m-range", "5", "200", "--pairs", "300", "--seed", "7",
    ],
    "simulate_agreement.json": [
        "simulate-agreement", "--corpus-size", "1000", "--m-range", "5", "50",
        "--pairs", "300", "--seed", "7",
    ],
    "orientation.json": ["orientation", "--corpus-size", "1000", "--m-range", "1", "15"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main([*COMMANDS[name], "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _oracle_vectors():
    # Per m: a wide vector over D = 10^6, and a deep one over D = 10^4 with a
    # few items near the top and the rest beyond position 3400, where
    # geometric(0.8) exposure underflows to 0.0 and only the witness rule
    # separates the tied subsets.
    draw = random.Random(12)
    for m in range(12, 17):
        yield sorted(draw.sample(range(1, 10**6 + 1), m)), 10**6
        shallow = draw.randint(1, 4)
        deep = draw.sample(range(3400, 10**4 + 1), m - shallow)
        yield sorted(draw.sample(range(1, 41), shallow) + deep), 10**4


def oracle_document() -> str:
    reciprocal = ExposureModel.reciprocal()
    log2 = ExposureModel.log2()
    geometric = ExposureModel.geometric(0.8)
    rows = []
    for positions, corpus_size in _oracle_vectors():
        vec = RelevantPositions.from_positions(positions, corpus_size)
        cases = {
            "user_ap": worst_case_user(vec, reciprocal, NormalizationModel.ap()),
            "user_ndcg": worst_case_user(vec, log2, NormalizationModel.ndcg()),
            "provider_reciprocal": worst_case_provider(vec, reciprocal),
            "provider_geometric": worst_case_provider(vec, geometric),
        }
        row = {"corpus_size": corpus_size, "positions": positions}
        for key, (value, witness) in cases.items():
            row[key] = {"value": value.hex(), "witness": list(witness.levels)}
        rows.append(row)
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def test_oracle_matches_golden():
    assert oracle_document() == (GOLDEN / "oracle.json").read_text(encoding="utf-8")
