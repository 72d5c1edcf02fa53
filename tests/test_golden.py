"""Byte-identical goldens for the simulation commands, the collection
commands on a generated collection, the worst-case oracle, and the metric
names.

Every golden pins its output bit for bit: the command goldens are written
with ``--format json`` (``repr``-exact floats) and ``oracle.json`` holds
``float.hex`` values with their witnesses. A change in draw order or
summation order shows up here as one reviewed golden update.
``metric_names.json`` records what ``MetricId.parse`` makes of every
accepted spelling and of malformed ones, what each factory labels, and every
``NormalizationModel`` weight as ``float.hex``. Labels do not round-trip
through ``parse`` (``RBP(0.8)``, ``TSE[log2]``), so the ledger does not
ask them to.
"""

import json
import random
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

from lexirank import (
    ExposureModel,
    MetricId,
    NormalizationModel,
    RelevantPositions,
    worst_case_provider,
    worst_case_user,
)
from lexirank.cli import main

from conftest import interpreters_without_numpy, subprocess_env

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

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


def _fixture_flags() -> list[str]:
    flags = []
    for name in ("run_a.txt", "run_b.txt", "run_c.txt"):
        flags += ["--runs", str(FIXTURES / name)]
    return flags + ["--qrels", str(FIXTURES / "qrels.txt"), "--corpus-size", "50"]


# The commands that run no numpy code, with the arguments of criterion 10 and
# of COMMANDS.
NUMPY_FREE_COMMANDS = {
    "eval.tsv": [
        "eval", *_fixture_flags(), "--metric", "AP", "--metric", "NDCG",
        "--metric", "recall@10", "--metric", "RPrecision", "--metric", "TSE",
    ],
    "compare.tsv": ["compare", *_fixture_flags(), "--method", "lexirecall"],
    "degrade.tsv": [
        "degrade", *_fixture_flags(), "--fractions", "0,0.5", "--samples", "2", "--seed", "7",
        "--method", "lexirecall", "--method", "metric:AP",
    ],
    "ties_analytic.json": [*COMMANDS["ties_analytic.json"], "--format", "json"],
    "orientation.json": [*COMMANDS["orientation.json"], "--format", "json"],
}


def test_numpy_free_commands_match_golden_under_interpreters_without_numpy(tmp_path):
    interpreters = interpreters_without_numpy()
    if not interpreters:
        pytest.skip("no local Python interpreter without numpy")
    jobs = [[*argv, "--out", str(tmp_path / name)] for name, argv in NUMPY_FREE_COMMANDS.items()]
    # Last, a command that needs numpy: one error line, and no output file.
    hsd = tmp_path / "hsd.tsv"
    jobs.append(["compare", *_fixture_flags(), "--method", "metric:AP", "--hsd", "--out", str(hsd)])
    codes = [0] * len(NUMPY_FREE_COMMANDS) + [1]
    code = f"import sys\nfrom lexirank.cli import main\nsys.exit([main(a) for a in {jobs!r}] != {codes})"
    for interpreter in interpreters:
        proc = subprocess.run(
            [interpreter, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, f"{interpreter}: {proc.stderr}"
        assert proc.stderr.splitlines()[-1] == "error: No module named 'numpy'", interpreter
        assert "Traceback" not in proc.stderr and not hsd.exists(), interpreter
        for name in NUMPY_FREE_COMMANDS:
            got = (tmp_path / name).read_bytes()
            assert got == (GOLDEN / name).read_bytes(), f"{interpreter}: {name}"
            (tmp_path / name).unlink()


def write_collection(directory: Path) -> list[str]:
    """Write a seeded collection; return its ``--runs``/``--qrels`` flags.

    Six runs of depth 30 over a corpus of 5000 and ten requests with 3 to 40
    relevant items from a pool of 120, so most position vectors end in long
    imputed tails that several runs share. Request q07 is missing from run 2.
    """
    draw = random.Random(2302)
    pool = [f"d{i:03d}" for i in range(1, 121)]
    requests = [f"q{i:02d}" for i in range(1, 11)]
    qrels = directory / "qrels.txt"
    with qrels.open("w", encoding="utf-8") as fh:
        for q in requests:
            for item in sorted(draw.sample(pool, draw.randint(3, 40))):
                fh.write(f"{q} 0 {item} 1\n")
    flags = ["--qrels", str(qrels), "--corpus-size", "5000"]
    for r in range(1, 7):
        path = directory / f"run{r}.txt"
        with path.open("w", encoding="utf-8") as fh:
            for q in requests:
                if (r, q) == (2, "q07"):
                    continue
                for rank, item in enumerate(draw.sample(pool, 30), start=1):
                    fh.write(f"{q} Q0 {item} {rank} {31 - rank}.0 sys{r}\n")
        flags += ["--runs", str(path)]
    return flags


COLLECTION_COMMANDS = {
    "compare_lexirecall.json": ["compare", "--method", "lexirecall"],
    "compare_hsd.json": ["compare", "--method", "metric:AP", "--hsd"],
    "degrade.json": [
        "degrade", "--method", "lexirecall", "--method", "metric:AP",
        "--method", "metric:recall@10", "--samples", "2", "--fractions", "0,0.5",
    ],
}


@pytest.mark.parametrize("name", sorted(COLLECTION_COMMANDS))
def test_collection_command_matches_golden(tmp_path, name):
    flags = write_collection(tmp_path)
    out = tmp_path / name
    argv = [*COLLECTION_COMMANDS[name], *flags, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
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


# Every alias in several cases and with surrounding whitespace, each
# parameterised family's quirks and bad parameters, and unknown names.
METRIC_SPELLINGS = [
    "ap", "AP", "map", "MAP", "Map", " AP ", "\tap\n",
    "rr", "RR", "mrr", "MRR", " rr ",
    "ndcg", "NDCG", "nDCG", " ndcg ",
    "rbp", "RBP", "rbp:", "rbp:0.9", "RBP:0.95", "rbp0.9", "rbp::0.5", "rbp:0.80",
    "rbp:1e-3", "rbp:0.00001", "rbp:1.5", "rbp:0", "rbp:1", "rbp:-0.5", "rbp:nan",
    "rbp:abc", "rbpx", "rbp:0.9:1",
    "recall@100", "RECALL@10", "Recall@1", "r@5", "R@5", "recall@1_0", "recall@ 5",
    "recall@+7", "recall@\u0661\u0660", "recall@0", "recall@-3", "recall@x",
    "recall@5.0", "recall@", "r@", "recall", "recall@10@2",
    "rprecision", "RPrecision", "r-precision", "R-Precision", "rprec", "RPrec", "rp", "RP",
    "rprecisionx",
    "tse", "TSE", " tse ", "tse:", "tse:reciprocal", "tsereciprocal", "tse:log2", "TSE:LOG2",
    "tselog2", "tse::log2", "tse:geometric", "tse:geometric:0.9", "tse:geometricfoo",
    "tse:geometric:", "tse:geometric:abc", "tse:geometric:1.5", "tse:linear", "tse:bogus",
    "tsex",
    "esl3", "ESL3", " esl3 ", "esl", "esl3x",
    "recallerror", "RecallError", "recall-error", "recall_error", "RECALL_ERROR",
    "mlr", "MLR", "mlr:0.25", "mlr:1/3", "mlr:0.1", "mlrfoo", "mlr:0.1:2",
    "metric-lexirecall", "metric_lexirecall:0.1", "Metric-Lexirecall:1/4",
    "MetricLexirecall", "mlr:abc", "mlr:1/0", "mlr:1.5", "mlr:0", "mlr:1", "mlr:nan",
    "nope", "", "  ", "lexirecall", "P@10", "ndcg@10", "apx", "rrx", "ap:1",
]


def _metric_record(metric: MetricId) -> dict:
    return {
        "label": metric.label,
        "higher_is_better": metric.higher_is_better,
        "kind": metric.kind.value,
        "gamma": repr(metric.gamma),
        "k": repr(metric.k),
        "epsilon": repr(metric.epsilon),
        "exposure": repr(metric.exposure),
    }


def _metric_factories():
    yield "ap()", MetricId.ap()
    yield "rr()", MetricId.rr()
    yield "ndcg()", MetricId.ndcg()
    yield "rbp()", MetricId.rbp()
    yield "rbp(0.5)", MetricId.rbp(0.5)
    yield "rbp(0.99999)", MetricId.rbp(0.99999)
    yield "recall_at()", MetricId.recall_at()
    yield "recall_at(10)", MetricId.recall_at(10)
    yield "recall_at(1)", MetricId.recall_at(1)
    yield "r_precision()", MetricId.r_precision()
    yield "tse()", MetricId.tse()
    yield "tse(log2)", MetricId.tse(ExposureModel.log2())
    yield "tse(geometric(0.9))", MetricId.tse(ExposureModel.geometric(0.9))
    yield "tse(linear(50))", MetricId.tse(ExposureModel.linear(50))
    yield "esl3()", MetricId.esl3()
    yield "recall_error()", MetricId.recall_error()
    yield "metric_lexirecall()", MetricId.metric_lexirecall()
    yield "metric_lexirecall(0.1)", MetricId.metric_lexirecall(0.1)
    yield "metric_lexirecall(Fraction(1, 3))", MetricId.metric_lexirecall(Fraction(1, 3))


NORMALIZATIONS = ("ap", "rr", "ndcg", "rbp", "esl3", "uniform")


def metric_names_document() -> str:
    rows = []
    for text in METRIC_SPELLINGS:
        for corpus_size in (None, 50):
            row = {"text": text, "corpus_size": corpus_size}
            try:
                row.update(_metric_record(MetricId.parse(text, corpus_size)))
            except Exception as exc:
                row.update(error=type(exc).__name__, message=str(exc))
            rows.append(row)
    for call, metric in _metric_factories():
        rows.append({"factory": call, **_metric_record(metric)})
    for name in NORMALIZATIONS:
        model = getattr(NormalizationModel, name)()
        for m in (1, 2, 5, 17):
            weights = [model.weight(i, m).hex() for i in range(1, m + 1)]
            rows.append({"normalization": name, "m": m, "weights": weights})
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def test_metric_names_match_golden():
    assert metric_names_document() == (GOLDEN / "metric_names.json").read_text(encoding="utf-8")
