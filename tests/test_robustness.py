"""Population oracles: enumeration counts, worst-case equalities, optimal rankers."""

from itertools import combinations, permutations

import pytest

from lexirank import (
    EnumerationBudgetError,
    ExposureModel,
    NormalizationModel,
    RelevantPositions,
    UserSubset,
    ValidationError,
    enumerate_users,
    optimal_ranker_worst_case,
    provider_utility,
    tse,
    user_utility,
    worst_case_provider,
    worst_case_user,
)

from conftest import random_positions

RECIPROCAL = ExposureModel.reciprocal()
AP = NormalizationModel.ap()

METRIC_FORMS = {
    "AP": (ExposureModel.reciprocal(), NormalizationModel.ap()),
    "NDCG": (ExposureModel.log2(), NormalizationModel.ndcg()),
    "RR": (ExposureModel.reciprocal(), NormalizationModel.rr()),
    "RBP(0.8)": (ExposureModel.geometric(0.8), NormalizationModel.rbp()),
}


def rp(positions, corpus_size):
    return RelevantPositions.from_positions(positions, corpus_size)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_users(1)) == 1
        assert len(enumerate_users(3)) == 7
        assert len(enumerate_users(5)) == 31

    def test_deterministic_order(self):
        first = [u.levels for u in enumerate_users(4)]
        second = [u.levels for u in enumerate_users(4)]
        assert first == second
        assert first[0] == (1,)
        assert first[-1] == (1, 2, 3, 4)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_users(21)

    def test_subset_validation(self):
        with pytest.raises(ValidationError):
            UserSubset(())
        with pytest.raises(ValidationError):
            UserSubset((2, 2))
        with pytest.raises(ValidationError):
            UserSubset((0, 1))


class TestUtilities:
    def test_user_utility_reference_values(self):
        vec = rp((1, 3), 10)
        assert user_utility(vec, UserSubset((1,)), RECIPROCAL, AP) == 1.0
        assert user_utility(vec, UserSubset((2,)), RECIPROCAL, AP) == pytest.approx(1 / 3)
        assert user_utility(vec, UserSubset((1, 2)), RECIPROCAL, AP) == pytest.approx(5 / 6)

    def test_provider_utility_reference_values(self):
        vec = rp((1, 3), 10)
        assert provider_utility(vec, RECIPROCAL, UserSubset((1, 2))) == pytest.approx(4 / 3)
        assert provider_utility(rp((2, 4), 10), RECIPROCAL, UserSubset((1,))) == 0.5

    def test_bottom_singleton_equals_search_efficiency(self, rng):
        for _ in range(30):
            vec = random_positions(rng, 40, int(rng.integers(1, 8)))
            assert provider_utility(vec, RECIPROCAL, UserSubset((vec.m,))) == tse(
                vec, RECIPROCAL
            )

    def test_level_bounds_checked(self):
        with pytest.raises(ValidationError):
            user_utility(rp((1, 3), 10), UserSubset((3,)), RECIPROCAL, AP)


class TestWorstCase:
    def test_user_reference_cases(self):
        value, witness = worst_case_user(rp((1, 3), 10), RECIPROCAL, AP)
        assert value == pytest.approx(1 / 3)
        assert witness.levels == (2,)

        value, witness = worst_case_user(rp((2, 3, 8), 30), RECIPROCAL, AP)
        assert value == 0.125
        assert witness.levels == (3,)
        assert value == tse(rp((2, 3, 8), 30), RECIPROCAL)

    def test_single_item_collapses(self):
        value, witness = worst_case_user(rp((4,), 10), RECIPROCAL, AP)
        assert value == RECIPROCAL.at(4)
        assert witness.levels == (1,)

    def test_provider_reference_cases(self):
        value, witness = worst_case_provider(rp((1, 3), 10), RECIPROCAL)
        assert value == pytest.approx(1 / 3)
        assert witness.levels == (2,)
        value, witness = worst_case_provider(rp((5, 6, 7), 10), RECIPROCAL)
        assert value == pytest.approx(1 / 7)
        assert witness.levels == (3,)

    def test_equality_with_bottom_exposure(self, rng):
        # Brute-force minima over both populations coincide bitwise with the
        # bottom-position exposure for every summation metric with full
        # weight on a singleton's only level.
        for _ in range(250):
            m = int(rng.integers(1, 11))
            D = int(rng.integers(max(m, 2), 51))
            vec = random_positions(rng, D, m)
            for exposure, normalization in METRIC_FORMS.values():
                expected = tse(vec, exposure)
                assert worst_case_user(vec, exposure, normalization).value == expected
                assert worst_case_provider(vec, exposure).value == expected

    def test_witness_tie_break_is_lexicographic(self):
        # With all weight on the last level of each subset, every subset
        # ending at the bottom level ties; the smallest witness must win.
        value, witness = worst_case_user(
            rp((1, 2, 3), 10), RECIPROCAL, NormalizationModel.esl3()
        )
        assert value == RECIPROCAL.at(3)
        assert witness.levels == (1, 2, 3)

    def test_population_budget(self):
        vec = RelevantPositions.worst_case(21, 50)
        with pytest.raises(EnumerationBudgetError):
            worst_case_user(vec, RECIPROCAL, AP)
        with pytest.raises(EnumerationBudgetError):
            worst_case_provider(vec, RECIPROCAL)

    def test_population_minimum_structure(self, rng):
        # m = 5 yields at most 31 distinct utilities and a unique minimal
        # member, the bottom singleton.
        for _ in range(20):
            vec = random_positions(rng, 30, 5)
            users = enumerate_users(5)
            values = [user_utility(vec, u, RECIPROCAL, AP) for u in users]
            assert len(set(values)) <= 31
            _, witness = worst_case_user(vec, RECIPROCAL, AP)
            assert witness.levels == (5,)


def _min_by_combinations(gains, normalization):
    """Reference: scalar loop over itertools.combinations, smallest tuple on ties."""
    best_value, best_combo = None, ()
    for size in range(1, len(gains) + 1):
        for combo in combinations(range(len(gains)), size):
            total = 0.0
            for i, idx in enumerate(combo, start=1):
                weight = 1.0 if normalization is None else normalization.weight(i, size)
                total += gains[idx] * weight
            if best_value is None or (total, combo) < (best_value, best_combo):
                best_value, best_combo = total, combo
    return best_value, tuple(idx + 1 for idx in best_combo)


NORMALIZATIONS = [
    NormalizationModel.ap(),
    NormalizationModel.ndcg(),
    NormalizationModel.rr(),
    NormalizationModel.rbp(),
    NormalizationModel.esl3(),
    NormalizationModel.uniform(),
]


def _assert_matches_reference(vec, exposure):
    gains = [exposure.at(p) for p in vec.positions]
    for normalization in NORMALIZATIONS:
        value, witness = worst_case_user(vec, exposure, normalization)
        assert (value, witness.levels) == _min_by_combinations(gains, normalization)
        assert type(value) is float
    value, witness = worst_case_provider(vec, exposure)
    assert (value, witness.levels) == _min_by_combinations(gains, None)


class TestVectorisedEnumeration:
    """The numpy subset enumeration equals the scalar combinations loop exactly."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_combinations_reference(self, rng, m):
        for D in (m + 2, 60, 10**6):
            vec = random_positions(rng, D, m)
            for exposure in (
                ExposureModel.reciprocal(),
                ExposureModel.log2(),
                ExposureModel.geometric(0.8),
                ExposureModel.linear(D),
            ):
                _assert_matches_reference(vec, exposure)

    def test_forced_tie_at_zero_takes_smallest_witness(self):
        # Geometric exposure underflows to 0.0 beyond about position 3340,
        # so every subset of the deep items ties at zero.
        geometric = ExposureModel.geometric(0.8)
        vec = rp((1, 3400, 3500, 5000, 6000, 7000), 10**4)
        assert [geometric.at(p) for p in vec.positions][1:] == [0.0] * 5
        _assert_matches_reference(vec, geometric)
        assert worst_case_provider(vec, geometric) == (0.0, UserSubset((2,)))
        # Weight only on the last member: (1, 2) ends on a zero item and sorts
        # before (2,), so the witness needs more than its first index.
        esl3 = NormalizationModel.esl3()
        assert worst_case_user(vec, geometric, esl3) == (0.0, UserSubset((1, 2)))


def _stochastic_by_full_enumeration(exposure, normalization, m):
    """Literal oracle: iterate every arrangement and every item subset."""
    worst = None
    for labels in range(1, 1 << m):
        subset = [i for i in range(m) if labels >> i & 1]
        total = 0.0
        count = 0
        for arrangement in permutations(range(m)):
            # arrangement[i] = item placed at position i+1
            positions = sorted(
                pos + 1 for pos, item in enumerate(arrangement) if item in subset
            )
            size = len(positions)
            total += sum(
                exposure.at(p) * normalization.weight(i, size)
                for i, p in enumerate(positions, start=1)
            )
            count += 1
        mean = total / count
        if worst is None or mean < worst:
            worst = mean
    return worst


class TestOptimalRankers:
    def test_single_relevant_item_collapses(self):
        result = optimal_ranker_worst_case(RECIPROCAL, AP, 30, 1)
        assert result.deterministic == result.stochastic == RECIPROCAL.at(1)

    def test_two_item_reference_value(self):
        result = optimal_ranker_worst_case(RECIPROCAL, AP, 30, 2)
        assert result.deterministic == pytest.approx(0.5)
        assert result.stochastic == pytest.approx(0.75)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_full_enumeration_oracle(self, m):
        for exposure, normalization in (METRIC_FORMS["AP"], METRIC_FORMS["NDCG"]):
            result = optimal_ranker_worst_case(exposure, normalization, 30, m)
            oracle = _stochastic_by_full_enumeration(exposure, normalization, m)
            assert result.stochastic == pytest.approx(oracle, abs=1e-12)
            assert result.deterministic == pytest.approx(exposure.at(m))

    def test_randomization_never_hurts(self):
        for name, (exposure, normalization) in METRIC_FORMS.items():
            for m in range(1, 9):
                result = optimal_ranker_worst_case(exposure, normalization, 30, m)
                assert result.stochastic >= result.deterministic, (name, m)

    def test_budget_and_bounds(self):
        with pytest.raises(EnumerationBudgetError):
            optimal_ranker_worst_case(RECIPROCAL, AP, 30, 9)
        with pytest.raises(ValidationError):
            optimal_ranker_worst_case(RECIPROCAL, AP, 3, 4)
