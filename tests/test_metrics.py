"""Metric values against counting oracles, exact arithmetic, and structure checks."""

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

from lexirank import (
    EnumerationBudgetError,
    ExposureModel,
    MetricId,
    NormalizationModel,
    RelevantPositions,
    ValidationError,
    evaluate,
    lexirecall_compare,
    metric_lexirecall,
    tse,
)

from conftest import (
    counting_average_precision,
    counting_recall_at,
    counting_reciprocal_rank,
    random_positions,
    ranking_with_relevant_at,
    recall_level_form,
)


def rp(positions, corpus_size):
    return RelevantPositions.from_positions(positions, corpus_size)


def reference_lexirecall_weights(m, corpus_size, epsilon):
    """The weights of ``metric_lexirecall`` built one ``Fraction`` at a time."""
    delta = 1 / (corpus_size + epsilon)
    one_plus = 1 + delta
    weights = [delta ** (m - 1) / one_plus ** (m - 1)]
    for i in range(2, m + 1):
        weights.append(delta ** (m - i) / one_plus ** (m + 1 - i))
    return weights


def reference_metric_lexirecall(vec, epsilon):
    D = vec.corpus_size
    weights = reference_lexirecall_weights(vec.m, D, Fraction(epsilon))
    return sum(
        (w * Fraction(D - p, D) for w, p in zip(weights, vec.positions)), start=Fraction(0)
    )


class TestRecallLevelForm:
    def test_perfect_ranking_scores_one(self):
        value = recall_level_form(
            rp((1, 2), 10), ExposureModel.reciprocal(), NormalizationModel.ap()
        )
        assert value == pytest.approx(1.0)

    def test_ap_against_counting_oracle(self):
        items, relevant = ranking_with_relevant_at((2, 4), 4)
        oracle = counting_average_precision(items, relevant)
        assert oracle == pytest.approx(0.5)
        value = recall_level_form(
            rp((2, 4), 4), ExposureModel.reciprocal(), NormalizationModel.ap()
        )
        assert value == pytest.approx(oracle)

    def test_ap_three_levels(self):
        items, relevant = ranking_with_relevant_at((1, 3, 5), 10)
        oracle = counting_average_precision(items, relevant)
        value = evaluate(MetricId.ap(), rp((1, 3, 5), 10))
        assert value == pytest.approx(0.75556, abs=1e-5)
        assert value == pytest.approx(oracle)

    def test_ap_randomized_against_oracle(self, rng):
        for _ in range(200):
            D = int(rng.integers(2, 60))
            m = int(rng.integers(1, min(D, 10) + 1))
            vec = random_positions(rng, D, m)
            items, relevant = ranking_with_relevant_at(vec.positions, D)
            assert evaluate(MetricId.ap(), vec) == pytest.approx(
                counting_average_precision(items, relevant), abs=1e-12
            )

    def test_generic_form_matches_dispatch(self, rng):
        pairs = [
            (MetricId.ap(), ExposureModel.reciprocal(), NormalizationModel.ap()),
            (MetricId.rr(), ExposureModel.reciprocal(), NormalizationModel.rr()),
            (MetricId.ndcg(), ExposureModel.log2(), NormalizationModel.ndcg()),
            (MetricId.rbp(0.8), ExposureModel.geometric(0.8), NormalizationModel.rbp()),
        ]
        for _ in range(100):
            D = int(rng.integers(2, 50))
            m = int(rng.integers(1, min(D, 8) + 1))
            vec = random_positions(rng, D, m)
            for metric, exposure, normalization in pairs:
                assert recall_level_form(vec, exposure, normalization) == pytest.approx(
                    evaluate(metric, vec), abs=1e-12
                )


class TestDispatch:
    def test_reciprocal_rank(self):
        assert evaluate(MetricId.rr(), rp((3, 7), 10)) == pytest.approx(1 / 3)

    def test_recall_at_k_counts(self):
        vec = rp((2, 99, 100), 100)
        items, relevant = ranking_with_relevant_at(vec.positions, 100)
        assert evaluate(MetricId.recall_at(10), vec) == pytest.approx(1 / 3)
        assert evaluate(MetricId.recall_at(10), vec) == pytest.approx(
            counting_recall_at(items, relevant, 10)
        )

    def test_r_precision_counts(self):
        vec = rp((1, 2, 7), 10)
        items, relevant = ranking_with_relevant_at(vec.positions, 10)
        assert evaluate(MetricId.r_precision(), vec) == pytest.approx(2 / 3)
        assert evaluate(MetricId.r_precision(), vec) == pytest.approx(
            counting_recall_at(items, relevant, 3)
        )

    def test_recall_error_zero_on_ideal(self):
        assert evaluate(MetricId.recall_error(), rp((1, 2, 3), 10)) == 0.0

    def test_esl3(self):
        assert evaluate(MetricId.esl3(), rp((2, 3, 8), 30)) == 5.0

    def test_rr_matches_counting_oracle(self, rng):
        for _ in range(50):
            D = int(rng.integers(2, 40))
            m = int(rng.integers(1, min(D, 6) + 1))
            vec = random_positions(rng, D, m)
            items, relevant = ranking_with_relevant_at(vec.positions, D)
            assert evaluate(MetricId.rr(), vec) == pytest.approx(
                counting_reciprocal_rank(items, relevant)
            )

    def test_ndcg_ideal_is_exactly_one(self):
        for m in range(1, 101):
            vec = rp(tuple(range(1, m + 1)), 200)
            assert evaluate(MetricId.ndcg(), vec) == 1.0

    def test_empty_vector_is_unevaluable(self):
        from lexirank import UnevaluableRequestError

        empty = RelevantPositions((), 10)
        with pytest.raises(UnevaluableRequestError):
            evaluate(MetricId.ap(), empty)
        with pytest.raises(UnevaluableRequestError):
            tse(empty, ExposureModel.reciprocal())
        with pytest.raises(UnevaluableRequestError):
            metric_lexirecall(empty)

    def test_metric_parsing(self):
        assert MetricId.parse("AP").label == "AP"
        assert MetricId.parse("rbp:0.9").gamma == 0.9
        assert MetricId.parse("recall@100").k == 100
        assert MetricId.parse("r@5").k == 5
        assert MetricId.parse("tse:log2").exposure.kind.value == "log2"
        assert MetricId.parse("tse:linear", corpus_size=50).exposure.corpus_size == 50
        with pytest.raises(ValidationError):
            MetricId.parse("nope")
        with pytest.raises(ValidationError):
            MetricId.parse("tse:linear")
        for k in (0, 2.5, 10.0, "5"):
            with pytest.raises(ValidationError):
                MetricId.recall_at(k)
        assert MetricId.recall_at(np.int64(10)).label == "recall@10"
        for name in ("bogus", "AP", None):
            with pytest.raises(ValidationError, match="unknown normalization"):
                NormalizationModel(name)
        with pytest.raises(ValidationError):
            MetricId.rbp(1.5)
        for text in ("rbp:abc", "recall@x", "r@", "mlr:abc", "mlr:1/0", "tse:geometric:abc"):
            with pytest.raises(ValidationError, match="in metric"):
                MetricId.parse(text)
        # Junk after a family or exposure name is not read as the default.
        for text in ("mlrfoo", "metric-lexirecallx", "mlrx:0.3", "tse:geometricfoo"):
            with pytest.raises(ValidationError, match="unknown"):
                MetricId.parse(text)
        assert MetricId.parse("rbp0.9") == MetricId.parse("rbp::0.9") == MetricId.rbp(0.9)


class TestTotalSearchEfficiency:
    def test_reference_values(self):
        assert tse(rp((2, 3, 8), 30), ExposureModel.reciprocal()) == 0.125
        assert tse(rp((1, 4), 30), ExposureModel.geometric(0.8)) == pytest.approx(0.1024)
        assert tse(rp((1, 4), 30), ExposureModel.geometric(0.8)) == ExposureModel.geometric(
            0.8
        ).at(4)

    def test_single_item_collapses_to_rr(self):
        vec = rp((1,), 10)
        assert tse(vec, ExposureModel.reciprocal()) == 1.0
        assert tse(vec, ExposureModel.reciprocal()) == evaluate(MetricId.rr(), vec)

    def test_depends_only_on_bottom_position(self, rng):
        # Perturbing every position except the last leaves the value fixed;
        # the symmetric statement holds for RR and the first position.
        exposure = ExposureModel.reciprocal()
        for _ in range(50):
            a = rp((2, 5, 9), 20)
            b = rp(tuple(sorted(rng.choice(np.arange(1, 9), size=2, replace=False).tolist()) + [9]), 20)
            assert tse(a, exposure) == tse(b, exposure)
            x = rp((3, 7, 15), 20)
            y = rp((3,) + tuple(sorted(rng.choice(np.arange(4, 21), size=2, replace=False).tolist())), 20)
            assert evaluate(MetricId.rr(), x) == evaluate(MetricId.rr(), y)


class TestMetricLexirecall:
    def test_single_level_closed_form(self):
        for D, p in [(10, 3), (50, 17), (100, 100)]:
            assert metric_lexirecall(rp((p,), D)) == Fraction(D - p, D)

    def test_weights_sum_to_one_exactly(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 12))
            D = int(rng.integers(m, 500))
            eps = Fraction(int(rng.integers(1, 100)), 100)
            if eps == 1:
                eps = Fraction(99, 100)
            weights = reference_lexirecall_weights(m, D, eps)
            assert sum(weights) == 1
            assert all(weights[i] < weights[i + 1] for i in range(m - 1))

    @pytest.mark.parametrize("D,m", [(10, 2), (12, 4)])
    def test_ordering_matches_positional_comparison(self, D, m):
        vectors = [rp(c, D) for c in combinations(range(1, D + 1), m)]
        scores = {v.positions: metric_lexirecall(v, Fraction(1, 2)) for v in vectors}
        for x in vectors:
            for y in vectors:
                diff = scores[x.positions] - scores[y.positions]
                sign = (diff > 0) - (diff < 0)
                assert sign == lexirecall_compare(x, y).sign

    def test_identical_vectors_identical_scores(self):
        a = metric_lexirecall(rp((2, 5, 9), 20))
        b = metric_lexirecall(rp((2, 5, 9), 20))
        assert a == b

    def test_ordering_holds_at_large_corpus(self, rng):
        # Exact arithmetic keeps the ordering intact where floats could not
        # separate deep-position differences.
        D, m = 10**4, 5
        vectors = []
        for _ in range(60):
            picked = sorted(rng.choice(np.arange(1, D + 1), size=m, replace=False).tolist())
            vectors.append(rp(tuple(picked), D))
        scores = [metric_lexirecall(v) for v in vectors]
        for i, x in enumerate(vectors):
            for j, y in enumerate(vectors):
                diff = scores[i] - scores[j]
                sign = (diff > 0) - (diff < 0)
                assert sign == lexirecall_compare(x, y).sign

    def test_equals_fraction_weight_reference(self, rng):
        cases = [(int(rng.integers(1, 2000)), None) for _ in range(40)]
        cases += [(10**6, 200), (10**6, 50)]
        for D, m in cases:
            if m is None:
                m = int(rng.integers(1, min(D, 30) + 1))
            vec = random_positions(rng, D, m)
            for eps in (Fraction(1, 2), Fraction(1, 100), Fraction(37, 100), Fraction(99, 100)):
                assert metric_lexirecall(vec, eps) == reference_metric_lexirecall(vec, eps)
        assert metric_lexirecall(vec, 0.25) == reference_metric_lexirecall(vec, 0.25)

    def test_epsilon_validation(self):
        for eps in (Fraction(3, 2), 0, 1, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                metric_lexirecall(rp((1,), 5), eps)
            with pytest.raises(ValidationError):
                MetricId.metric_lexirecall(eps)

    def test_float_epsilon_reads_as_its_decimal(self, rng):
        from_float = MetricId.metric_lexirecall(0.1)
        parsed = MetricId.parse("mlr:0.1")
        assert from_float == parsed
        assert from_float.epsilon == Fraction(1, 10)
        vec = random_positions(rng, 10**6, 50)
        score = metric_lexirecall(vec, parsed.epsilon)
        assert metric_lexirecall(vec, from_float.epsilon) == score
        assert metric_lexirecall(vec, 0.1) == score
        assert score != metric_lexirecall(vec, Fraction(0.1))

    def test_float_view_through_dispatch(self):
        vec = rp((3,), 10)
        assert evaluate(MetricId.metric_lexirecall(), vec) == pytest.approx(0.7)


class TopHeavinessCheck(NamedTuple):
    holds: bool
    counterexample: tuple[tuple[int, ...], int, float, float] | None


_TOP_HEAVY_M_CAP = 12
_TOP_HEAVY_VECTOR_CAP = 2_000_000
_TOP_HEAVY_SLACK = 1e-12


def is_top_heavy(
    exposure: ExposureModel,
    normalization: NormalizationModel,
    m_max: int,
    corpus_size: int,
) -> TopHeavinessCheck:
    """Exhaustively verify the prefix-dominance inequality.

    For every position vector with up to ``m_max`` relevant items in a corpus
    of ``corpus_size`` and every split point j, the full sum must dominate the
    re-normalized tail sum. Returns the first violating configuration if one
    exists. Raises :class:`EnumerationBudgetError` when the enumeration would
    exceed the hard budget rather than silently truncating.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if m_max > _TOP_HEAVY_M_CAP:
        raise EnumerationBudgetError(
            f"check truncated: m_max {m_max} exceeds the exhaustive cap {_TOP_HEAVY_M_CAP}"
        )
    total_vectors = sum(math.comb(corpus_size, m) for m in range(1, min(m_max, corpus_size) + 1))
    if total_vectors > _TOP_HEAVY_VECTOR_CAP:
        raise EnumerationBudgetError(
            f"check truncated: {total_vectors} vectors exceed the budget {_TOP_HEAVY_VECTOR_CAP}"
        )
    for m in range(1, min(m_max, corpus_size) + 1):
        for pos in combinations(range(1, corpus_size + 1), m):
            g = [exposure.at(p) for p in pos]
            full = 0.0
            for i in range(1, m + 1):
                full += g[i - 1] * normalization.weight(i, m)
            for j in range(1, m):
                tail = 0.0
                for i in range(j + 1, m + 1):
                    tail += g[i - 1] * normalization.weight(i - j, m - j)
                if full < tail - _TOP_HEAVY_SLACK:
                    return TopHeavinessCheck(False, (pos, j, full, tail))
    return TopHeavinessCheck(True, None)


class _BrokenNormalization:
    """Weights that put everything on the top level of a full set only."""

    def weight(self, i, m):
        return 1.0 if (i == 1 and m == 1) else 0.0


class TestTopHeaviness:
    @pytest.mark.parametrize(
        "exposure,normalization",
        [
            (ExposureModel.reciprocal(), NormalizationModel.ap()),
            (ExposureModel.geometric(0.8), NormalizationModel.rbp()),
            (ExposureModel.reciprocal(), NormalizationModel.uniform()),
            (ExposureModel.reciprocal(), NormalizationModel.rr()),
            (ExposureModel.log2(), NormalizationModel.ndcg()),
            (ExposureModel.reciprocal(), NormalizationModel.esl3()),
        ],
        ids=["ap", "rbp", "uniform", "rr", "ndcg", "esl3"],
    )
    def test_known_instances_hold(self, exposure, normalization):
        check = is_top_heavy(exposure, normalization, m_max=4, corpus_size=8)
        assert check.holds
        assert check.counterexample is None

    def test_violation_reports_counterexample(self):
        check = is_top_heavy(ExposureModel.reciprocal(), _BrokenNormalization(), 3, 6)
        assert not check.holds
        positions, split, full, tail = check.counterexample
        assert full < tail

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            is_top_heavy(ExposureModel.reciprocal(), NormalizationModel.ap(), 13, 8)
        with pytest.raises(EnumerationBudgetError):
            is_top_heavy(ExposureModel.reciprocal(), NormalizationModel.ap(), 12, 5000)
