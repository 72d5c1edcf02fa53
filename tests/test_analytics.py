"""Tie combinatorics vs enumeration, simulator determinism, orientation, degradation."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexirank import (
    JudgmentSet,
    MetricId,
    RankedList,
    RelevantPositions,
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
from lexirank import analytics
from lexirank.analytics import _CHUNK_PAIRS, _pair_blocks, stable_seed

METRIC_NAMES = Path(__file__).parent / "golden" / "metric_names.json"


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


def _tie_outcome(metric):
    """``tie_probability(metric(), 12, 3)``, or the message of its ``ValidationError``."""
    try:
        return tie_probability(metric(), 12, 3)
    except ValidationError as exc:
        return str(exc)


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
        for text, name, k in [
            ("r@5", "recall@k", 5), (" Recall@5 ", "recall@k", 5), ("tse:log2", "tse", None),
            ("TSE", "tse", None), ("tse:linear", "tse", None), ("rp", "rprecision", None),
            ("R-Precision", "rprecision", None),
        ]:
            assert tie_probability(text, 12, 3) == tie_probability(name, 12, 3, k=k)
        # Every spelling MetricId.parse is pinned on reads as its parse, or
        # fails with the same message; lexirecall is the one name beyond it.
        spellings = {row["text"] for row in json.loads(METRIC_NAMES.read_text()) if "text" in row}
        for text in sorted(spellings - {"lexirecall"}):
            parsed = _tie_outcome(lambda: MetricId.parse(text, 12))
            assert _tie_outcome(lambda: text) == parsed, text
        assert tie_probability(" Lexirecall ", 12, 3) == Fraction(1, math.comb(12, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda D: st.tuples(st.just(D), st.integers(1, D), st.integers(1, 2000))
    ))
    def test_cutoff_beyond_the_corpus_is_the_corpus(self, case):
        # recall@k with k >= D counts every relevant item, so every pair ties.
        D, m, extra = case
        at_d = tie_probability("recall@k", D, m, k=D)
        assert at_d == 1
        assert tie_probability("recall@k", D, m, k=D + extra) == at_d
        assert tie_probability(MetricId.recall_at(D + extra), D, m) == at_d

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
        with pytest.raises(ValidationError, match="no closed-form tie probability for AP"):
            tie_probability("ap", 10, 2)
        with pytest.raises(ValidationError, match="bad parameter 'x' in metric 'recall@x'"):
            tie_probability("recall@x", 100, 5)
        with pytest.raises(ValidationError, match="unknown metric 'nope'"):
            tie_probability("nope", 100, 5)
        for k in (2.5, "5"):
            with pytest.raises(ValidationError, match="integer k"):
                tie_probability("recall@k", 100, 5, k=k)
            with pytest.raises(ValidationError, match="integer k"):
                tie_probability(MetricId.recall_at(k), 100, 5)
        for metric in ("tse", MetricId.tse(), "rprecision", "lexirecall"):
            tie_probability(metric, 12, 3, k=0)  # k only matters for recall@k
        with pytest.raises(ValidationError, match="recall@k needs k >= 1"):
            tie_probability("recall@k", 12, 3, k=0)


@st.composite
def configs(draw):
    """Small untruncated configurations, some spanning several chunks."""
    D = draw(st.integers(1, 60), label="D")
    lo = draw(st.integers(1, D), label="lo")
    hi = draw(st.integers(lo, D), label="hi")
    pairs = draw(
        st.one_of(st.integers(1, 40), st.integers(_CHUNK_PAIRS - 5, _CHUNK_PAIRS + 40)),
        label="pairs",
    )
    return SimulationConfig(D, (lo, hi), pairs, seed=draw(st.integers(0, 2**32), label="seed"))


def _assert_uniform_subsets(config, D, m):
    counts = Counter()
    for x, y, pair_m in simulate_pairs(config):
        if pair_m == m:
            counts[x.positions] += 1
            counts[y.positions] += 1
    total = sum(counts.values())
    n_subsets = math.comb(D, m)
    p = 1 / n_subsets
    sigma = math.sqrt(total * p * (1 - p))
    assert len(counts) == n_subsets
    for count in counts.values():
        assert abs(count - total * p) < 5 * sigma


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
        untruncated = SimulationConfig(corpus_size=50, m_range=(3, 3), pair_count=20, seed=1)
        assert list(simulate_pairs(config)) == list(simulate_pairs(untruncated))

    def test_truncation_imputes_bottom(self):
        config = SimulationConfig(
            corpus_size=50, m_range=(5, 5), pair_count=40, retrieval_depth=10, seed=2
        )
        for x, _y, m in simulate_pairs(config):
            assert x.m == m
            retrieved = [p for p in x.positions if p <= 10]
            missing = m - len(retrieved)
            assert x.positions[len(retrieved) :] == tuple(range(50 - missing + 1, 51))

    @pytest.mark.parametrize("D,m", [(4, 2), (7, 2), (12, 5)])
    def test_subset_sampling_is_uniform(self, D, m):
        # One case per block regime: permutation prefix (2m >= D), whole-row
        # rejection (m(m-1) <= D) and first-m-distinct (in between);
        # per-subset frequencies stay within 5 sigma.
        config = SimulationConfig(corpus_size=D, m_range=(m, m), pair_count=6000, seed=3)
        _assert_uniform_subsets(config, D, m)

    def test_subset_sampling_is_uniform_across_chunks(self):
        # Two chunks, the second cut short, with m drawn per pair from the
        # rejection (m = 3) and first-m-distinct (m = 4) regimes of D = 9.
        D = 9
        config = SimulationConfig(
            corpus_size=D, m_range=(3, 4), pair_count=2 * _CHUNK_PAIRS - 48, seed=4
        )
        for m in (3, 4):
            _assert_uniform_subsets(config, D, m)

    def test_empirical_tie_rate_matches_exact_form(self):
        # Large-sample check of the positional-identity tie probability,
        # counted on the sampler's blocks that simulate_pairs wraps.
        D, m, pairs = 100, 3, 1_000_000
        exact = float(tie_probability("lexirecall", D, m))
        config = SimulationConfig(corpus_size=D, m_range=(m, m), pair_count=pairs, seed=11)
        ties = drawn = 0
        for groups in _pair_blocks(config):
            for _rows, xs, ys in groups:
                drawn += len(xs)
                ties += int(np.count_nonzero((xs == ys).all(axis=1)))
        assert drawn == pairs
        sigma = math.sqrt(pairs * exact * (1 - exact))
        assert abs(ties - pairs * exact) <= 3 * sigma

    @settings(max_examples=25, deadline=None)
    @given(configs())
    def test_stream_is_the_block_rows_wrapped(self, config):
        expected = []
        for groups in _pair_blocks(config):
            chunk = [None] * sum(len(rows) for rows, _xs, _ys in groups)
            for rows, xs, ys in groups:
                for i, x, y in zip(rows.tolist(), xs.tolist(), ys.tolist()):
                    chunk[i] = (tuple(x), tuple(y), len(x))
            expected += chunk
        stream = list(simulate_pairs(config))
        assert [(x.positions, y.positions, m) for x, y, m in stream] == expected
        D = config.corpus_size
        assert all(x.corpus_size == y.corpus_size == D for x, y, _m in stream)

    @settings(max_examples=25, deadline=None)
    @given(configs(), st.data())
    def test_truncation_is_worst_case_of_the_untruncated_stream(self, config, data):
        D = config.corpus_size
        depth = data.draw(st.integers(1, D), label="depth")
        truncated = config._replace(retrieval_depth=depth)
        for (tx, ty, tm), (ux, uy, um) in zip(
            simulate_pairs(truncated), simulate_pairs(config), strict=True
        ):
            assert tm == um
            for t, u in ((tx, ux), (ty, uy)):
                assert t == RelevantPositions.worst_case(
                    um, D, [p for p in u.positions if p <= depth]
                )

    @settings(max_examples=25, deadline=None)
    @given(configs(), st.data())
    def test_stream_is_a_prefix_of_longer_streams(self, config, data):
        # Longer streams reach into the next chunk or beyond.
        longer = data.draw(
            st.integers(config.pair_count, config.pair_count + _CHUNK_PAIRS + 10),
            label="longer",
        )
        short = list(simulate_pairs(config))
        long = list(simulate_pairs(config._replace(pair_count=longer)))
        assert long[: config.pair_count] == short

    def test_prefix_across_a_chunk_boundary(self):
        config = SimulationConfig(
            corpus_size=200, m_range=(1, 30), pair_count=_CHUNK_PAIRS - 3,
            retrieval_depth=40, seed=21,
        )
        longer = config._replace(pair_count=2 * _CHUNK_PAIRS + 7)
        short = list(simulate_pairs(config))
        assert list(simulate_pairs(longer))[: len(short)] == short

    def test_small_chunks_keep_prefixes(self, monkeypatch):
        # m = 30 of D = 200 draws rows of 60 values, so 1024 values make
        # chunks of 8 pairs; prefixes hold across those boundaries too.
        monkeypatch.setattr(analytics, "_CHUNK_VALUES", 1024)
        config = SimulationConfig(
            corpus_size=200, m_range=(1, 30), pair_count=13, retrieval_depth=40, seed=21
        )
        assert analytics._chunk_pairs(config) == 8
        short = list(simulate_pairs(config))
        longer = list(simulate_pairs(config._replace(pair_count=30)))
        assert len(short) == 13 and longer[:13] == short

    def test_bottom_vectors_share_one_object_per_m(self):
        config = SimulationConfig(
            corpus_size=10**6, m_range=(5, 8), pair_count=200, retrieval_depth=1000, seed=2
        )
        bottoms = {}
        for x, y, m in simulate_pairs(config):
            for v in (x, y):
                if v == RelevantPositions.worst_case(m, 10**6):
                    assert bottoms.setdefault(m, v) is v
        assert sorted(bottoms) == [5, 6, 7, 8]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(0, 5), pair_count=1)
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(2, 11), pair_count=1)
        with pytest.raises(ValidationError):
            SimulationConfig(corpus_size=10, m_range=(2, 3), pair_count=0)
        with pytest.raises(ValidationError, match="seed"):
            SimulationConfig(corpus_size=10, m_range=(2, 3), pair_count=1, seed=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("corpus_size", 1000.0),
            ("m_range", (2.5, 3)),
            ("m_range", (2, 3.0)),
            ("pair_count", 2.5),
            ("retrieval_depth", 10.0),
            ("seed", 1.5),
            ("seed", "7"),
        ],
    )
    def test_sizes_and_seed_must_be_integers(self, field, value):
        settings_ = {"corpus_size": 1000, "m_range": (2, 3), "pair_count": 5, "seed": 0}
        settings_[field] = value
        with pytest.raises(ValidationError, match="must be integers"):
            SimulationConfig(**settings_)

    def test_numpy_integer_sizes_stored_as_int(self):
        config = SimulationConfig(
            corpus_size=np.int64(100), m_range=(np.int32(2), np.int64(3)),
            pair_count=np.int64(4), retrieval_depth=np.int16(10), seed=np.uint8(3),
        )
        values = [config.corpus_size, *config.m_range, config.pair_count]
        values += [config.retrieval_depth, config.seed]
        assert all(type(v) is int for v in values)
        assert config == SimulationConfig(100, (2, 3), 4, 10, 3)
        x, _y, _m = next(simulate_pairs(config))
        assert type(x.corpus_size) is int

    @pytest.mark.parametrize(
        "D,m",
        [(10**6, 10**5), (10**6, 1000), (10**4, 6000)],
        ids=["first-distinct", "rejection", "permutation"],
    )
    def test_large_vectors_stream_in_bounded_memory(self, D, m):
        # One m fills whole chunks: at _CHUNK_PAIRS pairs a chunk of the
        # first case would draw 2048 rows of 2 * 10**5 values (3.3 GB). Chunks
        # shrink to about _CHUNK_VALUES values (8 MB) and their temporaries.
        config = SimulationConfig(corpus_size=D, m_range=(m, m), pair_count=4, seed=5)
        tracemalloc.start()
        try:
            drawn = sum(x.m + y.m for x, y, _m in simulate_pairs(config))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drawn == 8 * m
        assert peak < 96 * 2**20


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

    def test_metric_names_score_as_parsed(self):
        pairs = [_pair((1, 9), (5, 9), 10), _pair((1, 5), (2, 7), 10), _pair((2, 3), (1, 8), 10)]
        for text in ("ap", " NDCG ", "r@5", "tse:log2"):
            assert agreement_with_worst_case(pairs, text) == agreement_with_worst_case(
                pairs, MetricId.parse(text)
            )

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

    def test_repeated_method_label_rejected(self):
        config = SimulationConfig(corpus_size=50, m_range=(2, 4), pair_count=10, seed=1)
        with pytest.raises(ValidationError, match="'tse' given more than once"):
            tie_fractions(simulate_pairs(config), ["tse", "lexirecall", "tse"])


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

    def test_equal_exposure_at_m_and_d_is_undefined(self):
        # geometric(0.8) exposure underflows to 0.0 from about position 3340,
        # so min-max scaling has no range left.
        metric = MetricId.parse("tse:geometric:0.8")
        assert orientation(metric, 10**5, 3330) == (0.0, 1.0)
        for m in (3340, 3400):
            with pytest.raises(UndefinedResultError, match=f"no orientation at m={m}"):
                orientation(metric, 10**5, m)


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

    def test_no_evaluable_request_rejected(self, rng):
        runs, judgments = _synthetic_collection(rng, n_requests=5)
        unjudged = {q: JudgmentSet(q, frozenset()) for q in judgments}
        with pytest.raises(ValidationError, match="no evaluable requests"):
            degradation_study(runs, unjudged, [0.0], ["lexirecall"], samples=1)

    def test_repeated_fraction_rejected(self, rng):
        runs, judgments = _synthetic_collection(rng, n_requests=5)
        with pytest.raises(ValidationError, match="fraction 0.5 given more than once"):
            degradation_study(runs, judgments, [0.5, 0.25, 0.5], ["lexirecall"], samples=1)

    @pytest.mark.parametrize(
        "methods", [["lexirecall", "lexirecall"], ["metric:AP", "AP"], ["tse", "TSE"]]
    )
    def test_repeated_method_label_rejected(self, rng, methods):
        runs, judgments = _synthetic_collection(rng, n_requests=5)
        with pytest.raises(ValidationError, match="given more than once"):
            degradation_study(runs, judgments, [0.0], methods, samples=1)


class TestStableSeed:
    def test_process_stable_and_distinct(self):
        assert stable_seed(1, "a") == stable_seed(1, "a")
        assert stable_seed(1, "a") != stable_seed(1, "b")
        assert stable_seed(1, 2) != stable_seed(12)
