"""Preference relations: definitional cases, oracle equivalences, order structure."""

from itertools import combinations

import numpy as np
import pytest

from lexirank import (
    ExposureModel,
    MetricId,
    NormalizationModel,
    PreferenceOutcome,
    RelevantPositions,
    UtilityVector,
    ValidationError,
    enumerate_users,
    evaluate,
    leximin_compare,
    lexirecall_compare,
    make_method,
    metric_compare,
    tse_compare,
    user_utility,
)

from conftest import random_positions


def rp(positions, corpus_size):
    return RelevantPositions.from_positions(positions, corpus_size)


class TestLeximin:
    def test_decides_at_first_bottom_up_difference(self):
        x = UtilityVector((0.9, 0.12, 0.04, 0.01))
        y = UtilityVector((0.9, 0.07, 0.04, 0.01))
        pref = leximin_compare(x, y)
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST
        assert pref.deciding_level == 2  # third from the bottom

    def test_equal_vectors_tie(self):
        x = UtilityVector((0.5, 0.25, 0.1))
        assert leximin_compare(x, x).is_tie

    def test_bottom_element_dominates(self):
        pref = leximin_compare(UtilityVector((0.9, 0.1)), UtilityVector((0.8, 0.2)))
        assert pref.outcome is PreferenceOutcome.PREFER_SECOND
        assert pref.deciding_level == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            leximin_compare(UtilityVector((1.0,)), UtilityVector((1.0, 0.5)))

    def test_sorting_enforced(self):
        with pytest.raises(ValidationError):
            UtilityVector((0.1, 0.5))
        with pytest.raises(ValidationError):
            UtilityVector((-0.1,))
        assert UtilityVector.from_values([0.1, 0.5]).values == (0.5, 0.1)


class TestLexirecall:
    def test_definitional_cases(self):
        pref = lexirecall_compare(rp((1, 5, 9), 10), rp((2, 3, 9), 10))
        assert pref.outcome is PreferenceOutcome.PREFER_SECOND
        assert pref.deciding_level == 2

        pref = lexirecall_compare(rp((2, 3, 8), 10), rp((2, 3, 9), 10))
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST
        assert pref.deciding_level == 3

        assert lexirecall_compare(rp((2, 4), 10), rp((2, 4), 10)).is_tie

    def test_incomparable_requests_rejected(self):
        with pytest.raises(ValidationError):
            lexirecall_compare(rp((1,), 10), rp((1, 2), 10))
        with pytest.raises(ValidationError):
            lexirecall_compare(rp((1,), 10), rp((1,), 12))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_leximin_over_user_utilities(self, m):
        # Full-population oracle: the positional rule must equal leximin over
        # the 2^m - 1 per-user scores, exhaustively at D = 10.
        D = 10
        exposure, normalization = ExposureModel.reciprocal(), NormalizationModel.ap()
        users = enumerate_users(m)
        vectors = [rp(c, D) for c in combinations(range(1, D + 1), m)]
        utilities = {
            v.positions: UtilityVector.from_values(
                [user_utility(v, u, exposure, normalization) for u in users]
            )
            for v in vectors
        }
        for x in vectors:
            for y in vectors:
                expected = leximin_compare(utilities[x.positions], utilities[y.positions])
                assert lexirecall_compare(x, y).sign == expected.sign

    def test_total_preorder_structure(self, rng):
        D = 15
        vectors = [random_positions(rng, D, 4) for _ in range(60)]
        for x in vectors[:20]:
            for y in vectors[:20]:
                forward = lexirecall_compare(x, y)
                backward = lexirecall_compare(y, x)
                assert forward.sign == -backward.sign
                if forward.is_tie:
                    assert x.positions == y.positions
        ranked = sorted(vectors, key=lambda v: tuple(reversed(v.positions)))
        for a, b, c in zip(ranked, ranked[20:], ranked[40:]):
            if (
                lexirecall_compare(a, b).sign >= 0
                and lexirecall_compare(b, c).sign >= 0
            ):
                assert lexirecall_compare(a, c).sign >= 0

    def test_appending_relevant_item_strictly_improves(self, rng):
        # A top-k list that newly retrieves a relevant item beats the original.
        for _ in range(100):
            D = int(rng.integers(10, 60))
            k = int(rng.integers(1, D // 2))
            m = int(rng.integers(2, 6))
            if m > D - k - 1:
                continue
            retrieved = sorted(
                rng.choice(np.arange(1, k + 1), size=int(rng.integers(0, min(m - 1, k) + 1)), replace=False).tolist()
            )
            missing = m - len(retrieved)
            base = tuple(retrieved) + tuple(range(D - missing + 1, D + 1))
            extended = tuple(retrieved) + (k + 1,) + tuple(range(D - missing + 2, D + 1))
            pref = lexirecall_compare(rp(extended, D), rp(base, D))
            assert pref.outcome is PreferenceOutcome.PREFER_FIRST

    def test_appending_nonrelevant_item_ties(self):
        # The position vector does not change, so the comparison must tie.
        base = rp((2, 3, 28, 29, 30), 30)
        extended = rp((2, 3, 28, 29, 30), 30)
        assert lexirecall_compare(extended, base).is_tie

    def test_swap_up_never_hurts(self, rng):
        for _ in range(100):
            D = int(rng.integers(8, 50))
            m = int(rng.integers(1, 6))
            vec = random_positions(rng, D, m)
            level = int(rng.integers(0, m))
            target_choices = [
                p
                for p in range(1, vec.positions[level])
                if p not in vec.positions
            ]
            if not target_choices:
                continue
            target = int(rng.choice(target_choices))
            moved = sorted(set(vec.positions) - {vec.positions[level]} | {target})
            pref = lexirecall_compare(rp(tuple(moved), D), vec)
            assert pref.sign >= 0


class TestTseCompare:
    def test_shared_bottom_position_ties(self):
        assert tse_compare(rp((1, 9), 10), rp((5, 9), 10)).is_tie

    def test_decides_on_bottom_position(self):
        pref = tse_compare(rp((1, 8), 10), rp((5, 9), 10))
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST
        assert pref.deciding_level == 2

    def test_lexirecall_refines_it_exhaustively(self):
        D, m = 10, 3
        vectors = [rp(c, D) for c in combinations(range(1, D + 1), m)]
        for x in vectors:
            for y in vectors:
                coarse = tse_compare(x, y)
                if not coarse.is_tie:
                    assert lexirecall_compare(x, y).sign == coarse.sign


class TestMetricCompare:
    def test_identical_vectors_tie(self):
        assert metric_compare(MetricId.ap(), rp((2, 4), 10), rp((2, 4), 10)).is_tie

    def test_saturated_cutoff_always_ties(self, rng):
        metric = MetricId.recall_at(1000)
        for _ in range(50):
            x = random_positions(rng, 1000, 10)
            y = random_positions(rng, 1000, 10)
            assert metric_compare(metric, x, y).is_tie

    def test_strict_difference_decides(self):
        pref = metric_compare(MetricId.ap(), rp((1, 2), 10), rp((2, 4), 10))
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST
        assert evaluate(MetricId.ap(), rp((1, 2), 10)) == pytest.approx(1.0)
        assert evaluate(MetricId.ap(), rp((2, 4), 10)) == pytest.approx(0.5)

    def test_effort_metrics_prefer_smaller(self):
        pref = metric_compare(MetricId.esl3(), rp((1, 3), 30), rp((1, 9), 30))
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            metric_compare(MetricId.ap(), rp((1,), 5), rp((2,), 5), tolerance=-1.0)

    def test_exact_metric_compare_with_zero_tolerance(self):
        exact = MetricId.metric_lexirecall()
        pref = metric_compare(exact, rp((1, 9), 10), rp((5, 9), 10), tolerance=0.0)
        assert pref.outcome is PreferenceOutcome.PREFER_FIRST


class TestMethodResolution:
    def test_make_method_matches_direct_functions(self, rng):
        ap = lambda x, y: metric_compare(MetricId.ap(), x, y)  # noqa: E731
        cases = [
            ("lexirecall", "lexirecall", lexirecall_compare),
            ("tse", "tse", tse_compare),
            (" TSE ", "tse", tse_compare),
            ("metric:AP", "AP", ap),
            ("AP", "AP", ap),
            (MetricId.ap(), "AP", ap),
        ]
        pairs = [(random_positions(rng, 30, 4), random_positions(rng, 30, 4)) for _ in range(200)]
        pairs += [(rp((1, 2, 29, 30), 30), rp((3, 4, 29, 30), 30))]
        for spec, label, direct in cases:
            name, fn = make_method(spec)
            assert name == label, spec
            for x, y in pairs:
                assert fn(x, y) == direct(x, y), spec
        assert make_method("tse")[1] is tse_compare
        assert make_method("lexirecall")[1] is lexirecall_compare

    def test_named_methods(self):
        name, fn = make_method("lexirecall")
        assert name == "lexirecall"
        assert fn(rp((1,), 5), rp((2,), 5)).sign == 1
        name, fn = make_method("tse")
        assert name == "tse"
        name, fn = make_method("metric:AP")
        assert name == "AP"
        name, fn = make_method(MetricId.recall_at(10))
        assert name == "recall@10"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            make_method("metric:unheard-of")
