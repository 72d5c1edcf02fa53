"""Hypothesis suites for order structure and metric behaviour under edits."""

import math
import operator
from functools import partial, reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lexirank import (
    ExposureModel,
    MetricId,
    NormalizationModel,
    Preference,
    RelevantPositions,
    UserSubset,
    UtilityVector,
    evaluate,
    holm_bonferroni,
    leximin_compare,
    lexirecall_compare,
    metric_compare,
    provider_utility,
    tse_compare,
    user_utility,
)

from conftest import recall_level_form
from rank_scenarios import contiguous_lift_case, retrieval_growth_case, swap_up_case

EQ1_METRICS = [MetricId.ap(), MetricId.rr(), MetricId.ndcg(), MetricId.rbp(0.8)]
STRICT_METRICS = [MetricId.ap(), MetricId.ndcg(), MetricId.rbp(0.8)]


@st.composite
def position_vectors(draw, max_corpus=60, max_m=6):
    D = draw(st.integers(min_value=2, max_value=max_corpus))
    m = draw(st.integers(min_value=1, max_value=min(max_m, D)))
    positions = draw(
        st.sets(st.integers(min_value=1, max_value=D), min_size=m, max_size=m)
    )
    return RelevantPositions.from_positions(sorted(positions), D)


@st.composite
def vector_pairs(draw):
    first = draw(position_vectors())
    m = first.m
    D = first.corpus_size
    other = draw(st.sets(st.integers(min_value=1, max_value=D), min_size=m, max_size=m))
    return first, RelevantPositions.from_positions(sorted(other), D)


class TestOrderStructure:
    @given(vector_pairs())
    def test_comparison_is_antisymmetric(self, pair):
        x, y = pair
        for compare in (
            lexirecall_compare,
            tse_compare,
            partial(metric_compare, MetricId.ap()),
            partial(metric_compare, MetricId.metric_lexirecall()),
        ):
            assert compare(y, x) is Preference(-compare(x, y).sign)

    @given(vector_pairs())
    def test_tie_means_identical(self, pair):
        x, y = pair
        if lexirecall_compare(x, y).is_tie:
            assert x.positions == y.positions

    @given(position_vectors(), st.data())
    def test_transitive_on_triples(self, x, data):
        D, m = x.corpus_size, x.m
        subsets = st.sets(st.integers(min_value=1, max_value=D), min_size=m, max_size=m)
        y = RelevantPositions.from_positions(sorted(data.draw(subsets)), D)
        z = RelevantPositions.from_positions(sorted(data.draw(subsets)), D)
        if lexirecall_compare(x, y).sign >= 0 and lexirecall_compare(y, z).sign >= 0:
            assert lexirecall_compare(x, z).sign >= 0

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=8),
    )
    def test_leximin_antisymmetry(self, a, b):
        size = min(len(a), len(b))
        x = UtilityVector.from_values(a[:size])
        y = UtilityVector.from_values(b[:size])
        assert leximin_compare(x, y).sign == -leximin_compare(y, x).sign


class TestMetricEdits:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_growing_the_prefix_never_hurts(self, seed):
        rng = np.random.default_rng(seed)
        base, extended, _relevant = retrieval_growth_case(rng)
        for metric in EQ1_METRICS:
            assert evaluate(metric, extended) >= evaluate(metric, base) - 1e-12
        linear = ExposureModel.linear(base.corpus_size)
        uniform = NormalizationModel.uniform()
        assert (
            recall_level_form(extended, linear, uniform)
            >= recall_level_form(base, linear, uniform) - 1e-12
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nonrelevant_append_leaves_value_fixed(self, seed):
        rng = np.random.default_rng(seed)
        base, extended, relevant = retrieval_growth_case(rng, force="nonrelevant")
        assert not relevant
        for metric in EQ1_METRICS:
            assert evaluate(metric, extended) == evaluate(metric, base)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_relevant_append_strictly_helps_full_weight_metrics(self, seed):
        rng = np.random.default_rng(seed)
        base, extended, relevant = retrieval_growth_case(rng, force="relevant")
        if not relevant:
            return
        for metric in STRICT_METRICS:
            assert evaluate(metric, extended) > evaluate(metric, base)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_swapping_up_never_hurts(self, seed):
        rng = np.random.default_rng(seed)
        worse, better, _D = swap_up_case(rng)
        for metric in EQ1_METRICS:
            assert evaluate(metric, better) >= evaluate(metric, worse) - 1e-12
        for metric in STRICT_METRICS:
            assert evaluate(metric, better) > evaluate(metric, worse)
        assert lexirecall_compare(better, worse).sign >= 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lifts_gain_more_near_the_top(self, seed):
        rng = np.random.default_rng(seed)
        shallow, shallow_up, deep, deep_up = contiguous_lift_case(rng)
        for metric in (MetricId.ap(), MetricId.rbp(0.8)):
            gain_high = evaluate(metric, shallow_up) - evaluate(metric, shallow)
            gain_low = evaluate(metric, deep_up) - evaluate(metric, deep)
            assert gain_high >= gain_low - 1e-12

    @given(position_vectors())
    def test_generic_form_agrees_with_dispatch(self, vec):
        value = recall_level_form(vec, ExposureModel.reciprocal(), NormalizationModel.ap())
        assert abs(value - evaluate(MetricId.ap(), vec)) <= 1e-12


def _left_to_right(terms) -> float:
    return reduce(operator.add, terms, 0.0)


class TestSummationOrder:
    """Float sums run left to right, so scores do not depend on the Python
    version (``sum()`` compensates rounding from 3.12 on)."""

    @settings(max_examples=200)
    @given(
        position_vectors(max_corpus=10**6, max_m=200),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_evaluate_equals_reduce_reference_bitwise(self, vec, gamma):
        pos = vec.positions
        ideal = _left_to_right(1.0 / math.log2(k + 1) for k in range(1, vec.m + 1))
        expected = {
            MetricId.ap(): _left_to_right(i / p for i, p in enumerate(pos, start=1)) / vec.m,
            MetricId.ndcg(): _left_to_right(1.0 / math.log2(p + 1) for p in pos) / ideal,
            MetricId.rbp(gamma): (1.0 - gamma) * _left_to_right(gamma ** (p - 1) for p in pos),
        }
        for metric, value in expected.items():
            assert evaluate(metric, vec).hex() == value.hex(), metric


    @settings(max_examples=200)
    @given(
        position_vectors(max_corpus=10**6, max_m=200),
        st.sampled_from(["reciprocal", "log2", "geometric", "linear"]),
        st.sampled_from(["ap", "ndcg", "rbp", "uniform"]),
        st.data(),
    )
    def test_utilities_equal_reduce_reference_bitwise(self, vec, exposure, norm, data):
        D, m, pos = vec.corpus_size, vec.m, vec.positions
        exposure = {
            "reciprocal": ExposureModel.reciprocal,
            "log2": ExposureModel.log2,
            "geometric": lambda: ExposureModel.geometric(0.8),
            "linear": lambda: ExposureModel.linear(D),
        }[exposure]()
        norm = getattr(NormalizationModel, norm)()
        levels = sorted(data.draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
        subset = UserSubset(tuple(levels))
        n = len(levels)

        full = _left_to_right(
            exposure.at(p) * norm.weight(i, m) for i, p in enumerate(pos, start=1)
        )
        user = _left_to_right(
            exposure.at(pos[level - 1]) * norm.weight(i, n)
            for i, level in enumerate(levels, start=1)
        )
        provider = _left_to_right(exposure.at(pos[level - 1]) for level in levels)
        assert recall_level_form(vec, exposure, norm).hex() == full.hex()
        assert user_utility(vec, subset, exposure, norm).hex() == user.hex()
        assert provider_utility(vec, exposure, subset).hex() == provider.hex()


class TestHolmStructure:
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=10))
    def test_dominates_and_bounded(self, ps):
        adjusted = holm_bonferroni(ps)
        assert all(0 <= adj <= 1 for adj in adjusted)
        assert all(adj >= p for adj, p in zip(adjusted, ps))

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_equivariant_under_permutation(self, ps, rand):
        order = list(range(len(ps)))
        rand.shuffle(order)
        direct = holm_bonferroni(ps)
        shuffled = holm_bonferroni([ps[i] for i in order])
        for rank, idx in enumerate(order):
            assert abs(shuffled[rank] - direct[idx]) < 1e-15
