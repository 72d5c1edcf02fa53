"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured runtime.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from lexirank import (
    ExposureModel,
    MetricId,
    NormalizationModel,
    RelevantPositions,
    SimulationConfig,
    UtilityVector,
    agreement_with_worst_case,
    enumerate_users,
    evaluate,
    leximin_compare,
    lexirecall_compare,
    metric_lexirecall,
    optimal_ranker_worst_case,
    orientation,
    provider_utility,
    simulate_pairs,
    tie_probability,
    tse,
    user_utility,
    worst_case_provider,
    worst_case_user,
)

from conftest import subprocess_env
from rank_scenarios import contiguous_lift_case, retrieval_growth_case, swap_up_case

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

METRIC_FORMS = {
    "AP": (ExposureModel.reciprocal(), NormalizationModel.ap()),
    "NDCG": (ExposureModel.log2(), NormalizationModel.ndcg()),
    "RR": (ExposureModel.reciprocal(), NormalizationModel.rr()),
    "RBP(0.8)": (ExposureModel.geometric(0.8), NormalizationModel.rbp()),
}


def _announce(name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS {name} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_worst_case_equals_bottom_exposure():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        D = int(rng.integers(max(m, 2), 51))
        positions = sorted(rng.choice(np.arange(1, D + 1), size=m, replace=False).tolist())
        vec = RelevantPositions.from_positions(positions, D)
        for exposure, normalization in METRIC_FORMS.values():
            expected = tse(vec, exposure)
            assert worst_case_user(vec, exposure, normalization).value == expected
            assert worst_case_provider(vec, exposure).value == expected
    _announce("criterion-01 worst-case user/provider equal bottom exposure", started, 10.0)


def test_criterion_02_lexicographic_lifting_exhaustive():
    started = time.perf_counter()
    D, m = 8, 3
    exposure, normalization = METRIC_FORMS["AP"]
    users = enumerate_users(m)
    vectors = [RelevantPositions.from_positions(c, D) for c in combinations(range(1, D + 1), m)]
    assert len(vectors) ** 2 == 3136
    user_vectors = {}
    provider_vectors = {}
    for vec in vectors:
        user_vectors[vec.positions] = UtilityVector.from_values(
            [user_utility(vec, u, exposure, normalization) for u in users]
        )
        provider_vectors[vec.positions] = UtilityVector.from_values(
            [provider_utility(vec, exposure, u) for u in users]
        )
    for x in vectors:
        for y in vectors:
            expected = lexirecall_compare(x, y).sign
            lifted_users = leximin_compare(
                user_vectors[x.positions], user_vectors[y.positions]
            ).sign
            lifted_providers = leximin_compare(
                provider_vectors[x.positions], provider_vectors[y.positions]
            ).sign
            assert lifted_users == expected
            assert lifted_providers == expected
    _announce("criterion-02 leximin lifting over 3136 exhaustive pairs", started, 5.0)


# Reference tie probabilities for random full permutations; printed sources
# carry occasional last-digit truncation, so two cells get a wider band.
TIE_TABLE_BY_CORPUS = {
    # D: (tse, recall@1000, rprecision, lexirecall) at m = 10
    10**3: ((0.005, 5e-4), (1.000, 5e-4), (0.825, 1.2e-3), (0.000, 5e-4)),
    10**4: ((0.001, 5e-4), (0.313, 5e-4), (0.980, 5e-4), (0.000, 5e-4)),
    10**5: ((0.000, 5e-4), (0.826, 5e-4), (0.998, 5e-4), (0.000, 5e-4)),
    10**6: ((0.000, 5e-4), (0.980, 5e-4), (1.000, 5e-4), (0.000, 5e-4)),
}
TIE_TABLE_BY_M = {
    # m: recall@1000 at D = 10^6
    1: (0.998, 5e-4),
    5: (0.990, 5e-4),
    10: (0.981, 1.2e-3),
    25: (0.952, 5e-4),
    50: (0.907, 5e-4),
}


def test_criterion_03_tie_probability_reference_tables():
    started = time.perf_counter()
    for D, cells in TIE_TABLE_BY_CORPUS.items():
        names = ("tse", "recall@k", "rprecision", "lexirecall")
        for name, (expected, tolerance) in zip(names, cells):
            value = float(tie_probability(name, D, 10, k=1000))
            assert value == pytest.approx(expected, abs=tolerance), (D, name, value)
    for m, (expected, tolerance) in TIE_TABLE_BY_M.items():
        value = float(tie_probability("recall@k", 10**6, m, k=1000))
        assert value == pytest.approx(expected, abs=tolerance), (m, value)
    _announce("criterion-03 tie probabilities match reference tables", started, 30.0)


def test_criterion_04_tie_probability_equals_enumeration():
    started = time.perf_counter()
    from collections import Counter

    for D in range(1, 13):
        for m in range(1, min(4, D) + 1):
            vectors = list(combinations(range(1, D + 1), m))
            total = len(vectors)

            def grouped(stats):
                counts = Counter(stats)
                return Fraction(sum(c * c for c in counts.values()), total * total)

            assert tie_probability("lexirecall", D, m) == grouped(vectors)
            assert tie_probability("tse", D, m) == grouped(
                v[-1] for v in vectors
            )
            assert tie_probability("rprecision", D, m) == grouped(
                sum(1 for p in v if p <= m) for v in vectors
            )
            for k in range(1, D + 1):
                assert tie_probability("recall@k", D, m, k=k) == grouped(
                    sum(1 for p in v if p <= k) for v in vectors
                )
    _announce("criterion-04 closed forms equal exhaustive enumeration", started, 60.0)


def test_criterion_05_simulated_agreement_reference_bands():
    started = time.perf_counter()
    for D in (10**3, 10**4, 10**5, 10**6):
        leg_start = time.perf_counter()
        config = SimulationConfig(corpus_size=D, m_range=(5, 50), pair_count=10000, seed=7)
        pairs = list(simulate_pairs(config))
        tse_agreement, _ = agreement_with_worst_case(pairs, MetricId.tse())
        assert tse_agreement == 1.0
        random_agreement, _ = agreement_with_worst_case(
            pairs, "random", rng=np.random.default_rng(77)
        )
        assert 0.48 <= random_agreement <= 0.52
        if D == 10**3:
            cutoff_agreement, _ = agreement_with_worst_case(pairs, MetricId.recall_at(1000))
            assert cutoff_agreement == 0.0
        if D in (10**4, 10**5):
            for name in ("AP", "NDCG"):
                value, _ = agreement_with_worst_case(pairs, MetricId.parse(name))
                assert 0.53 <= value <= 0.57, (D, name, value)
        leg = time.perf_counter() - leg_start
        assert leg < 60.0, f"corpus size {D} leg took {leg:.1f}s"
    _announce("criterion-05 simulated agreement reproduces reference bands", started)


EDIT_METRICS = [
    MetricId.ap(),
    MetricId.rr(),
    MetricId.ndcg(),
    MetricId.rbp(0.8),
]
STRICT_EDIT_METRICS = [MetricId.ap(), MetricId.ndcg(), MetricId.rbp(0.8)]
SWEEP_CASES = 10_000


def test_criterion_06_edit_property_sweeps():
    started = time.perf_counter()
    rng = np.random.default_rng(6001)
    for _ in range(SWEEP_CASES):
        base, extended, _ = retrieval_growth_case(rng)
        for metric in EDIT_METRICS:
            assert evaluate(metric, extended) >= evaluate(metric, base) - 1e-12

    rng = np.random.default_rng(6002)
    for _ in range(SWEEP_CASES):
        base, extended, relevant = retrieval_growth_case(rng, force="nonrelevant")
        assert not relevant
        for metric in EDIT_METRICS:
            assert evaluate(metric, extended) == evaluate(metric, base)

    rng = np.random.default_rng(6003)
    for _ in range(SWEEP_CASES):
        base, extended, relevant = retrieval_growth_case(rng, force="relevant")
        if not relevant:
            continue
        for metric in STRICT_EDIT_METRICS:
            assert evaluate(metric, extended) > evaluate(metric, base)

    rng = np.random.default_rng(6004)
    for _ in range(SWEEP_CASES):
        worse, better, _D = swap_up_case(rng)
        for metric in EDIT_METRICS:
            assert evaluate(metric, better) >= evaluate(metric, worse) - 1e-12
        for metric in STRICT_EDIT_METRICS:
            assert evaluate(metric, better) > evaluate(metric, worse)

    rng = np.random.default_rng(6005)
    for _ in range(SWEEP_CASES):
        shallow, shallow_up, deep, deep_up = contiguous_lift_case(rng)
        for metric in (MetricId.ap(), MetricId.rbp(0.8)):
            gain_high = evaluate(metric, shallow_up) - evaluate(metric, shallow)
            gain_low = evaluate(metric, deep_up) - evaluate(metric, deep)
            assert gain_high >= gain_low - 1e-12
    _announce(f"criterion-06 five edit-property sweeps x {SWEEP_CASES} cases", started)


def test_criterion_07_exact_metric_matches_positional_order():
    started = time.perf_counter()
    D, m = 12, 3
    vectors = [RelevantPositions.from_positions(c, D) for c in combinations(range(1, D + 1), m)]
    scores = {v.positions: metric_lexirecall(v) for v in vectors}
    for x in vectors:
        for y in vectors:
            diff = scores[x.positions] - scores[y.positions]
            sign = (diff > 0) - (diff < 0)
            assert sign == lexirecall_compare(x, y).sign
    _announce("criterion-07 exact-rational metric orders all 48400 pairs", started)


def test_criterion_08_randomized_optimal_ranker_never_worse():
    started = time.perf_counter()
    for name in ("AP", "NDCG"):
        exposure, normalization = METRIC_FORMS[name]
        for m in range(1, 9):
            result = optimal_ranker_worst_case(exposure, normalization, 30, m)
            assert result.stochastic >= result.deterministic, (name, m)
            if m >= 2:
                assert result.stochastic > result.deterministic, (name, m)
    _announce("criterion-08 stochastic optimal ranker dominates deterministic", started)


def test_criterion_09_orientation_orderings():
    started = time.perf_counter()
    D = 10**5
    contenders = ("RR", "NDCG", "AP", "recall@1000", "RPrecision")
    trio = ("recall@1000", "AP", "RPrecision")
    boundary = 2 / D
    for m in range(1, 16):
        values = {name: orientation(MetricId.parse(name), D, m) for name in contenders}
        precision = {k: v[0] for k, v in values.items()}
        recall = {k: v[1] for k, v in values.items()}
        slack = boundary if m == 1 else 0.0
        for name in contenders:
            if name != "RR":
                assert precision["RR"] >= precision[name] - slack, (m, name)
        if m >= 2:
            assert recall["RR"] == 0.0
        assert max(recall[t] for t in trio) - min(recall[t] for t in trio) <= boundary
        others = [n for n in contenders if n not in trio and n != "RR"]
        for name in others:
            assert min(recall[t] for t in trio) >= recall[name], (m, name)
        assert min(recall[t] for t in trio) >= recall["RR"] - 1e-12
        _, scaled_recall = orientation(MetricId.tse(), D, m)
        assert scaled_recall == pytest.approx(1.0, abs=1e-12)
    _announce("criterion-09 orientation orderings at reference scale", started)


def _run_cli(args, out_path):
    command = [
        sys.executable,
        "-m",
        "lexirank",
        *args,
        "--out",
        str(out_path),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return out_path.read_bytes()


def test_criterion_10_cli_golden_outputs(tmp_path):
    started = time.perf_counter()
    data = []
    for name in ("run_a.txt", "run_b.txt", "run_c.txt"):
        data += ["--runs", str(FIXTURES / name)]
    data += ["--qrels", str(FIXTURES / "qrels.txt"), "--corpus-size", "50"]

    eval_args = data + [
        "--metric", "AP", "--metric", "NDCG", "--metric", "recall@10",
        "--metric", "RPrecision", "--metric", "TSE",
    ]
    compare_args = data + ["--method", "lexirecall"]
    degrade_args = data + [
        "--fractions", "0,0.5", "--samples", "2", "--seed", "7",
        "--method", "lexirecall", "--method", "metric:AP",
    ]
    jobs = {
        "eval.tsv": ["eval", *eval_args],
        "compare.tsv": ["compare", *compare_args],
        "degrade.tsv": ["degrade", *degrade_args],
    }
    for golden_name, args in jobs.items():
        first = _run_cli(args, tmp_path / f"1-{golden_name}")
        second = _run_cli(args, tmp_path / f"2-{golden_name}")
        assert first == second, f"{args[0]} output not reproducible"
        assert first == (GOLDEN / golden_name).read_bytes(), f"{args[0]} differs from golden"
    _announce("criterion-10 CLI smoke against golden outputs", started)
