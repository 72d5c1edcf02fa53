"""Tie combinatorics vs enumeration, simulator determinism, orientation, degradation."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lexirank import (
    Imputation,
    JudgmentSet,
    MetricId,
    RankedList,
    SimulationConfig,
    UndefinedResultError,
    ValidationError,
    agreement_with_worst_case,
    degradation_study,
    degrade_judgments,
    orientation,
    simulate_pairs,
    tie_fractions,
    tie_probability,
)
from lexirank.analytics import stable_seed


class TestExactProbability:
    """Tie probabilities come back as exact, reduced fractions."""

    def test_reduction(self):
        p = tie_probability("tse", 10, 2)
        assert isinstance(p, Fraction)
        assert (p.numerator, p.denominator) == (19, 135)
        assert float(p) == pytest.approx(285 / 2025)

    def test_bounds_checked(self):
        for D in (1, 6, 40):
            for m in range(1, D + 1):
                cases = [(name, None) for name in ("tse", "rprecision", "lexirecall")]
                cases += [("recall@k", k) for k in (1, D // 2 or 1, D)]
                for name, k in cases:
                    p = tie_probability(name, D, m, k=k)
                    assert isinstance(p, Fraction)
                    assert 0 <= p <= 1, (name, D, m, k, p)
                    assert math.gcd(p.numerator, p.denominator) == 1


def _enumerated_tie_probability(name, D, m, k=None):
    """Oracle: group all position vectors by the metric's tie statistic."""
    vectors = list(combinations(range(1, D + 1), m))
    if name == "lexirecall":
        stats = vectors
    elif name == "tse":
        stats = [v[-1] for v in vectors]
    elif name == "rprecision":
        stats = [sum(1 for p in v if p <= m) for v in vectors]
    else:
        stats = [sum(1 for p in v if p <= k) for v in vectors]
    counts = Counter(stats)
    total = len(vectors)
    return Fraction(sum(c * c for c in counts.values()), total * total)


def _bottom_tie_numerator_by_recurrence(D, m):
    """Reference: sum over i of C(i-1, m-1)^2 in D-m+1 exact integer steps."""
    total = 0
    b = 1  # C(m-1, m-1)
    for i in range(m, D + 1):
        total += b * b
        b = b * i // (i - m + 1)  # advance to C(i, m-1)
    return total


class TestTieProbability:
    def test_bottom_closed_form_matches_recurrence(self):
        cases = [(D, m) for D in range(1, 61) for m in range(1, D + 1)]
        cases += [(10**4, m) for m in (1, 2, 137, 5000, 9999, 10**4)]
        for D, m in cases:
            expected = Fraction(_bottom_tie_numerator_by_recurrence(D, m), math.comb(D, m) ** 2)
            assert tie_probability("tse", D, m) == expected, (D, m)

    def test_reference_fractions(self):
        assert tie_probability("lexirecall", 10, 2) == Fraction(1, 45)
        assert tie_probability("tse", 10, 2) == Fraction(285, 2025)

    def test_matches_enumeration_small(self):
        for D in (4, 7, 9):
            for m in range(1, min(3, D) + 1):
                for name in ("lexirecall", "tse", "rprecision"):
                    expected = _enumerated_tie_probability(name, D, m)
                    assert tie_probability(name, D, m) == expected
                for k in range(1, D + 1):
                    expected = _enumerated_tie_probability("recall@k", D, m, k)
                    assert tie_probability("recall@k", D, m, k=k) == expected

    def test_accepts_metric_ids(self):
        assert (
            tie_probability(MetricId.recall_at(5), 12, 3)
            == tie_probability("recall@5", 12, 3)
        )
        assert (
            tie_probability(MetricId.tse(), 12, 3)
            == tie_probability("tse", 12, 3)
        )

    def test_cutoff_tie_rate_falls_with_more_relevant(self):
        probs = [
            float(tie_probability("recall@k", 10**6, m, k=1000))
            for m in (1, 5, 10, 25, 50)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            tie_probability("tse", 5, 6)
        with pytest.raises(ValidationError):
            tie_probability("recall@k", 10, 2)
        with pytest.raises(ValidationError):
            tie_probability("recall@k", 10, 2, k=11)
        with pytest.raises(ValidationError):
            tie_probability("ap", 10, 2)


class TestSimulatePairs:
    def test_deterministic_given_seed(self):
        config = SimulationConfig(corpus_size=100, m_range=(2, 6), pair_count=50, seed=9)
        first = [(x.positions, y.positions, m) for x, y, m in simulate_pairs(config)]
        second = [(x.positions, y.positions, m) for x, y, m in simulate_pairs(config)]
        assert first == second

    def test_full_depth_needs_no_imputation(self):
        config = SimulationConfig(
            corpus_size=50, m_range=(3, 3), pair_count=20, retrieval_depth=50, seed=1
        )
        for x, y, m in simulate_pairs(config):
            assert x.retrieved_count == m and y.retrieved_count == m
            assert x.imputation is Imputation.NONE

    def test_truncation_imputes_bottom(self):
        config = SimulationConfig(
            corpus_size=50, m_range=(5, 5), pair_count=40, retrieval_depth=10, seed=2
        )
        for x, _y, m in simulate_pairs(config):
            assert x.imputation is Imputation.PESSIMISTIC
            retrieved = [p for p in x.positions if p <= 10]
            assert x.retrieved_count == len(retrieved)
            missing = m - len(retrieved)
            assert x.positions[len(retrieved) :] == tuple(range(50 - missing + 1, 51))

    @pytest.mark.parametrize("D,m", [(4, 2), (7, 2), (12, 5)])
    def test_subset_sampling_is_uniform(self, D, m):
        # Covers all three sampling branches (permutation prefix, whole-draw
        # rejection, top-up); per-subset frequencies stay within 5 sigma.
        config = SimulationConfig(corpus_size=D, m_range=(m, m), pair_count=6000, seed=3)
        counts = Counter()
        for x, y, _m in simulate_pairs(config):
            counts[x.positions] += 1
            counts[y.positions] += 1
        total = 12000
        n_subsets = math.comb(D, m)
        p = 1 / n_subsets
        sigma = math.sqrt(total * p * (1 - p))
        assert len(counts) == n_subsets
        for count in counts.values():
            assert abs(count - total * p) < 5 * sigma

    def test_empirical_tie_rate_matches_exact_form(self):
        # Large-sample check of the positional-identity tie probability.
        D, m, pairs = 100, 3, 1_000_000
        exact = float(tie_probability("lexirecall", D, m))
        config = SimulationConfig(corpus_size=D, m_range=(m, m), pair_count=pairs, seed=11)
        ties = sum(1 for x, y, _m in simulate_pairs(config) if x.positions == y.positions)
        sigma = math.sqrt(pairs * exact * (1 - exact))
        assert abs(ties - pairs * exact) <= 3 * sigma

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(0, 5), pair_count=1)
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(2, 11), pair_count=1)
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(2, 3), pair_count=0)


def _pair(x, y, D):
    from lexirank import RelevantPositions

    return (
        RelevantPositions.from_positions(x, D),
        RelevantPositions.from_positions(y, D),
        len(x),
    )


class TestAgreement:
    def test_bottom_exposure_metric_always_agrees(self):
        pairs = [_pair((1, 5), (2, 7), 10), _pair((3, 9), (1, 4), 10)]
        agreement, tied = agreement_with_worst_case(pairs, MetricId.tse())
        assert agreement == 1.0
        assert tied == 0.0

    def test_constant_metric_never_agrees(self):
        pairs = [_pair((1, 5), (2, 7), 10), _pair((3, 9), (1, 4), 10)]
        agreement, _ = agreement_with_worst_case(pairs, MetricId.recall_at(10))
        assert agreement == 0.0

    def test_tied_pairs_are_excluded_and_counted(self):
        pairs = [_pair((1, 9), (5, 9), 10), _pair((1, 5), (2, 7), 10)]
        agreement, tied = agreement_with_worst_case(pairs, MetricId.ap())
        assert tied == 0.5
        assert agreement == 1.0

    def test_all_tied_is_undefined(self):
        pairs = [_pair((1, 9), (5, 9), 10)]
        with pytest.raises(UndefinedResultError):
            agreement_with_worst_case(pairs, MetricId.ap())

    def test_random_baseline_is_seeded(self):
        config = SimulationConfig(corpus_size=200, m_range=(3, 8), pair_count=400, seed=5)
        pairs = list(simulate_pairs(config))
        a1, _ = agreement_with_worst_case(pairs, "random", rng=np.random.default_rng(1))
        a2, _ = agreement_with_worst_case(pairs, "random", rng=np.random.default_rng(1))
        assert a1 == a2
        assert 0.3 < a1 < 0.7

    def test_empirical_tie_fractions(self):
        config = SimulationConfig(
            corpus_size=300, m_range=(4, 10), pair_count=500, retrieval_depth=20, seed=8
        )
        fractions = tie_fractions(
            simulate_pairs(config), ["tse", "lexirecall", "metric:recall@1000"]
        )
        # Truncation forces shared imputed bottoms, so the coarse method ties
        # far more often than the positional one; the saturated cutoff always ties.
        assert fractions["tse"] > fractions["lexirecall"]
        assert fractions["recall@1000"] == 1.0


class TestOrientation:
    def test_first_position_metric_has_no_recall_side(self):
        for m in range(2, 8):
            _, recall = orientation(MetricId.rr(), 10**5, m)
            assert recall == 0.0

    def test_first_position_metric_single_item(self):
        D = 10**5
        precision, recall = orientation(MetricId.rr(), D, 1)
        assert precision == pytest.approx(1 - 1 / D)
        assert recall == pytest.approx(1 - 1 / D)

    def test_scaled_bottom_metric_recall_is_one(self):
        for m in range(1, 11):
            precision, recall = orientation(MetricId.tse(), 10**4, m)
            assert recall == pytest.approx(1.0)
            if m >= 2:
                assert precision == pytest.approx(0.0)

    def test_orderings_at_reference_scale(self):
        D, m = 10**5, 10
        values = {
            name: orientation(MetricId.parse(name), D, m)
            for name in ("RR", "NDCG", "AP", "recall@1000", "RPrecision", "RBP")
        }
        precision = {k: v[0] for k, v in values.items()}
        recall = {k: v[1] for k, v in values.items()}
        trio = ("AP", "recall@1000", "RPrecision")
        assert precision["RR"] > precision["NDCG"]
        assert all(precision["NDCG"] > precision[t] for t in trio)
        assert max(precision[t] for t in trio) - min(precision[t] for t in trio) < 2 / D
        assert min(recall[t] for t in trio) > recall["NDCG"]
        assert recall["NDCG"] > recall["RBP"] > recall["RR"] == 0.0

    def test_effort_metric_orientation_is_nonnegative(self):
        precision, recall = orientation(MetricId.esl3(), 100, 5)
        assert precision >= 0.0 and recall > 0.0

    def test_degenerate_full_corpus(self):
        assert orientation(MetricId.ap(), 5, 5) == (0.0, 0.0)


class TestDegradeJudgments:
    def judgments(self, n):
        return JudgmentSet("q", frozenset(f"d{i}" for i in range(n)))

    def test_zero_fraction_unchanged(self):
        j = self.judgments(7)
        assert degrade_judgments(j, 0.0, seed=1) is j

    def test_single_item_never_removed(self):
        j = self.judgments(1)
        assert degrade_judgments(j, 0.9, seed=1).relevant_ids == j.relevant_ids

    def test_half_of_ten_removes_five(self):
        j = self.judgments(10)
        degraded = degrade_judgments(j, 0.5, seed=3)
        assert len(degraded.relevant_ids) == 5
        assert degraded.relevant_ids <= j.relevant_ids

    def test_always_leaves_one(self):
        j = self.judgments(4)
        degraded = degrade_judgments(j, 0.99, seed=3)
        assert len(degraded.relevant_ids) == 1

    def test_retention_rate_is_uniform(self):
        # Hypergeometric oracle: each item survives with rate about 1/2.
        j = self.judgments(10)
        kept = Counter()
        seeds = range(200)
        for seed in seeds:
            for item in degrade_judgments(j, 0.5, seed=seed).relevant_ids:
                kept[item] += 1
        for item in j.relevant_ids:
            assert abs(kept[item] / len(seeds) - 0.5) < 0.1

    def test_deterministic(self):
        j = self.judgments(8)
        assert (
            degrade_judgments(j, 0.4, seed=7).relevant_ids
            == degrade_judgments(j, 0.4, seed=7).relevant_ids
        )

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            degrade_judgments(self.judgments(3), 1.0, seed=0)


def _synthetic_collection(rng, n_requests=200, D=1000, k=100, m=20):
    judgments = {}
    runs = {"sysA": {}, "sysB": {}}
    item_ids = np.array([f"d{i:05d}" for i in range(1, D + 1)])
    for qi in range(n_requests):
        q = f"q{qi:03d}"
        relevant = rng.choice(item_ids, size=m, replace=False)
        judgments[q] = JudgmentSet(q, frozenset(relevant.tolist()))
        for tag in runs:
            ranking = rng.permutation(item_ids)[:k]
            runs[tag][q] = RankedList(q, tuple(ranking.tolist()), D, system_tag=tag)
    return runs, judgments


class TestDegradationStudy:
    def test_zero_fraction_baseline(self, rng):
        runs, judgments = _synthetic_collection(rng, n_requests=30)
        rows = degradation_study(
            runs, judgments, fractions=[0.0], methods=["lexirecall"], samples=2, seed=5
        )
        assert len(rows) == 1
        assert rows[0]["agreement_with_full"] == 1.0

    def test_monotone_trends(self, rng):
        runs, judgments = _synthetic_collection(rng)
        fractions = [0.0, 0.25, 0.5, 0.75]
        rows = degradation_study(
            runs,
            judgments,
            fractions=fractions,
            methods=["lexirecall", "metric:recall@1000"],
            samples=3,
            seed=17,
        )
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], []).append(row)
        lexi_agreement = [r["agreement_with_full"] for r in by_method["lexirecall"]]
        assert all(a >= b for a, b in zip(lexi_agreement, lexi_agreement[1:]))
        cutoff_ties = [r["tie_fraction"] for r in by_method["recall@1000"]]
        assert all(a <= b for a, b in zip(cutoff_ties, cutoff_ties[1:]))

    def test_needs_two_runs(self, rng):
        runs, judgments = _synthetic_collection(rng, n_requests=5)
        del runs["sysB"]
        with pytest.raises(ValidationError):
            degradation_study(runs, judgments, [0.0], ["lexirecall"], samples=1)


class TestStableSeed:
    def test_process_stable_and_distinct(self):
        assert stable_seed(1, "a") == stable_seed(1, "a")
        assert stable_seed(1, "a") != stable_seed(1, "b")
        assert stable_seed(1, 2) != stable_seed(12)
