"""Hypothesis suites for order structure and metric behaviour under edits."""

import copy
import math
import operator
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexirank import (
    ExposureModel,
    JudgmentSet,
    MetricId,
    MetricKind,
    NormalizationModel,
    Preference,
    RelevantPositions,
    UserSubset,
    UtilityVector,
    degrade_judgments,
    evaluate,
    holm_bonferroni,
    leximin_compare,
    lexirecall_compare,
    metric_compare,
    provider_utility,
    tse_compare,
    user_utility,
)
from lexirank import _pcg64
from lexirank.errors import UnevaluableRequestError, ValidationError

from conftest import CROSS_PYTHON_SCRIPT, interpreters_without_numpy, recall_level_form
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


def _metric_factories(D: int) -> list:
    """One factory per metric kind (TSE once per exposure); each call builds a new id."""
    return [
        MetricId.ap,
        MetricId.rr,
        MetricId.ndcg,
        lambda: MetricId.rbp(0.9),
        lambda: MetricId.recall_at(50),
        MetricId.r_precision,
        MetricId.tse,
        lambda: MetricId.tse(ExposureModel.log2()),
        lambda: MetricId.tse(ExposureModel.geometric(0.8)),
        lambda: MetricId.tse(ExposureModel.linear(D)),
        MetricId.esl3,
        MetricId.recall_error,
        lambda: MetricId.metric_lexirecall(Fraction(1, 3)),
    ]


def test_metric_factories_cover_every_kind():
    assert {make().kind for make in _metric_factories(10)} == set(MetricKind)


class TestStoredScore:
    """``evaluate`` remembers its last (metric, value) on the vector; the
    stored value must be the value itself and invisible everywhere else."""

    @settings(max_examples=200)
    @given(position_vectors(max_corpus=10**6, max_m=60), st.data())
    def test_stored_score_matches_fresh_copy_bitwise(self, vec, data):
        factories = _metric_factories(vec.corpus_size)
        metric = factories[0]()
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            choice = data.draw(st.sampled_from(["same", "equal", "other"]))
            if choice == "equal":
                metric = copy.copy(metric)
            elif choice == "other":
                metric = data.draw(st.sampled_from(factories))()
            value = evaluate(metric, vec)
            fresh = RelevantPositions(vec.positions, vec.corpus_size)
            assert value.hex() == evaluate(metric, fresh).hex(), metric
            assert evaluate(metric, vec).hex() == value.hex(), metric

    def test_unevaluable_vector_stores_nothing(self):
        empty = RelevantPositions((), 10)
        metric = MetricId.ap()
        for _ in range(2):
            with pytest.raises(UnevaluableRequestError):
                evaluate(metric, empty)
            assert empty._score is None

    @settings(max_examples=100)
    @given(position_vectors(max_corpus=10**6, max_m=60), st.integers(min_value=0, max_value=12))
    def test_stored_score_is_invisible(self, vec, pick):
        fresh = RelevantPositions(vec.positions, vec.corpus_size)
        evaluate(_metric_factories(vec.corpus_size)[pick](), vec)
        assert vec == fresh and hash(vec) == hash(fresh) and repr(vec) == repr(fresh)
        assert vec._fields == ("positions", "corpus_size")
        assert pickle.dumps(vec) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(vec)), copy.copy(vec), copy.deepcopy(vec)):
            assert twin == vec and twin._score is None


def bottom_up_lexirecall(x: RelevantPositions, y: RelevantPositions) -> Preference:
    """Reference rule: the deepest level where positions differ decides, the
    smaller position winning."""
    for a, b in zip(reversed(x.positions), reversed(y.positions)):
        if a != b:
            return Preference.FIRST if a < b else Preference.SECOND
    return Preference.TIE


@st.composite
def tail_sharing_pairs(draw):
    """Two vectors with m up to 200 that share their bottom ``shared`` levels,
    the imputed tail of a corpus of up to 10^6, with heads drawn from the top
    ``span`` positions (a short span makes heads collide and differ deep)."""
    D = draw(st.integers(min_value=200, max_value=10**6))
    m = draw(st.integers(min_value=1, max_value=200))
    shared = draw(st.integers(min_value=0, max_value=m))
    span = draw(st.integers(min_value=m, max_value=D))
    tail = tuple(range(D - shared + 1, D + 1))
    top = range(1, min(span, D - shared) + 1)
    rnd = draw(st.randoms(use_true_random=False))
    x = tuple(sorted(rnd.sample(top, m - shared))) + tail
    same = draw(st.integers(min_value=0, max_value=4)) == 0
    y = x if same else tuple(sorted(rnd.sample(top, m - shared))) + tail
    return RelevantPositions(x, D), RelevantPositions(y, D)


class TestLexirecallScan:
    @settings(max_examples=300)
    @given(tail_sharing_pairs())
    def test_equals_bottom_up_reference(self, pair):
        x, y = pair
        assert lexirecall_compare(x, y) is bottom_up_lexirecall(x, y)
        assert lexirecall_compare(y, x) is bottom_up_lexirecall(y, x)


def numpy_choice(seed: int, n: int, size: int) -> list[int]:
    return np.random.default_rng(seed).choice(n, size=size, replace=False).tolist()


class TestNumpyChoicePort:
    """``_pcg64.choice`` draws what numpy's seeded ``Generator.choice`` draws,
    in the same order; seeds past 2**128 exceed the four-word seed pool."""

    @pytest.mark.parametrize("n", [2, 10000, 10001])
    def test_equals_numpy_at_branch_edges(self, n):
        # At n = 10001, size n // 50 is the largest Floyd draw and n // 50 + 1
        # the smallest tail shuffle.
        for size in (1, n // 50, n // 50 + 1, n - 1):
            for seed in (0, 7, 2**64 - 1, 2**130 + 12345):
                assert _pcg64.choice(seed, n, size) == numpy_choice(seed, n, size)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_equals_numpy(self, rnd):
        # Uniform draws, so that about half the cases take the tail shuffle;
        # seeds of 1 to 5 words.
        seed = rnd.getrandbits(26 * rnd.randint(1, 5))
        n = rnd.randint(2, 20000)
        size = rnd.randint(1, n)
        assert _pcg64.choice(seed, n, size) == numpy_choice(seed, n, size)

    @settings(max_examples=100, deadline=None)
    @given(
        st.frozensets(st.integers(0, 10**6), min_size=1, max_size=400),
        st.floats(0, 1, exclude_max=True),
        st.integers(0, 2**64 - 1),
    )
    def test_degrade_judgments_equals_numpy_formula(self, ids, fraction, seed):
        relevant = frozenset(f"d{i}" for i in ids)
        m = len(relevant)
        remove = min(math.floor(fraction * m + 0.5), m - 1)
        ordered = sorted(relevant)
        dropped = {ordered[i] for i in numpy_choice(seed, m, remove)}
        degraded = degrade_judgments(JudgmentSet("q", relevant), fraction, seed)
        assert degraded.relevant_ids == relevant - dropped

    @pytest.mark.parametrize("seed,n,size", [(0, 2**32, 1), (-1, 10, 1), (0, 10, 11)])
    def test_refuses_out_of_range_input(self, seed, n, size):
        # 2**32 items are more than the 32-bit draw covers; numpy refuses
        # the other two as well.
        with pytest.raises(ValidationError):
            _pcg64.choice(seed, n, size)


def test_scores_identical_under_interpreters_without_numpy():
    interpreters = interpreters_without_numpy()
    if not interpreters:
        pytest.skip("no local Python interpreter without numpy")
    proc = subprocess.run(
        [sys.executable, str(CROSS_PYTHON_SCRIPT), *interpreters], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    compared = [line for line in proc.stdout.splitlines() if line.startswith("Python ")]
    assert len(compared) == len(interpreters), proc.stdout


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
