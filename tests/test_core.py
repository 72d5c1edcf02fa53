"""Projection, imputation, exposure models, and the domain types."""

import copy
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexirank
from lexirank import (
    ExposureModel,
    Imputation,
    JudgmentSet,
    MetricId,
    NormalizationModel,
    Preference,
    RankedList,
    RelevantPositions,
    SimulationConfig,
    UnevaluableRequestError,
    UserSubset,
    UtilityVector,
    ValidationError,
    project_and_impute,
    project_runs,
)

from conftest import ranking_with_relevant_at


def make_ranking(items, corpus_size, request_id="q1"):
    return RankedList(request_id=request_id, items=tuple(items), corpus_size=corpus_size)


def make_judgments(ids, request_id="q1"):
    return JudgmentSet(request_id=request_id, relevant_ids=frozenset(ids))


class TestProjection:
    def test_all_relevant_retrieved(self):
        rp = project_and_impute(
            make_ranking(["d5", "d2", "d9", "d1"], 4), make_judgments({"d2", "d1"})
        )
        assert rp.positions == (2, 4)
        # Inverse projection: the items at the retrieved positions.
        items = ["d5", "d2", "d9", "d1"]
        assert [items[p - 1] for p in rp.positions] == ["d2", "d1"]

    def test_partial_retrieval_bottom_imputation(self):
        # 3 of 6 relevant in a top-10 prefix at ranks 2, 3, 8.
        items = ["n1", "r1", "r2", "n2", "n3", "n4", "n5", "r3", "n6", "n7"]
        judgments = make_judgments({"r1", "r2", "r3", "x1", "x2", "x3"})
        rp = project_and_impute(make_ranking(items, 30), judgments)
        assert rp.positions == (2, 3, 8, 28, 29, 30)
        assert rp == RelevantPositions.worst_case(6, 30, (2, 3, 8))

    def test_small_corpus_example(self):
        rp = project_and_impute(
            make_ranking(["d5", "d2", "d9"], 100), make_judgments({"d2", "d1", "d7"})
        )
        assert rp.positions == (2, 99, 100)

    def test_against_explicit_imputed_permutation(self):
        # Oracle: build the imputed permutation explicitly and read ranks back.
        items = ["d5", "d2", "d9"]
        relevant = {"d2", "d1", "d7"}
        D = 100
        fillers = [f"f{i}" for i in range(D - len(items) - 2)]
        explicit = items + fillers + sorted(relevant - set(items))
        assert len(explicit) == D
        oracle = tuple(
            sorted(rank for rank, item in enumerate(explicit, start=1) if item in relevant)
        )
        rp = project_and_impute(make_ranking(items, D), make_judgments(relevant))
        assert rp.positions == oracle

    def test_optimistic_places_directly_below_prefix(self):
        rp = project_and_impute(
            make_ranking(["d5", "d2", "d9"], 100),
            make_judgments({"d2", "d1", "d7"}),
            Imputation.OPTIMISTIC,
        )
        assert rp.positions == (2, 4, 5)

    def test_idempotent_on_complete_rankings(self):
        items, relevant = ranking_with_relevant_at((1, 4, 6), 8)
        rp = project_and_impute(make_ranking(items, 8), make_judgments(relevant))
        assert rp == RelevantPositions((1, 4, 6), 8)
        assert rp == project_and_impute(
            make_ranking(items, 8), make_judgments(relevant), Imputation.OPTIMISTIC
        )

    def test_round_trip_recovers_ranks(self, rng):
        for _ in range(50):
            D = int(rng.integers(3, 40))
            m = int(rng.integers(1, D + 1))
            positions = tuple(
                sorted(rng.choice(np.arange(1, D + 1), size=m, replace=False).tolist())
            )
            items, relevant = ranking_with_relevant_at(positions, D)
            rp = project_and_impute(make_ranking(items, D), make_judgments(relevant))
            assert rp.positions == positions

    def test_empty_relevant_set_is_unevaluable(self):
        with pytest.raises(UnevaluableRequestError):
            project_and_impute(make_ranking(["d1"], 5), make_judgments(set()))

    def test_too_many_relevant_rejected(self):
        with pytest.raises(ValidationError):
            project_and_impute(
                make_ranking(["d1", "d2"], 2), make_judgments({"a", "b", "c"})
            )

    def test_pessimistic_collision_rejected(self):
        # 3 unretrieved relevant cannot fit below a prefix of 3 in a corpus of 5.
        with pytest.raises(ValidationError):
            project_and_impute(
                make_ranking(["n1", "n2", "n3"], 5),
                make_judgments({"a", "b", "c"}),
            )

    def test_mismatched_request_ids_rejected(self):
        with pytest.raises(ValidationError):
            project_and_impute(
                make_ranking(["d1"], 5, request_id="q1"),
                make_judgments({"d1"}, request_id="q2"),
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), D=st.integers(1, 40), mode=st.sampled_from(Imputation))
    def test_matches_the_rank_comprehension(self, data, D, mode):
        # Retrieved relevant ranks by an enumerate comprehension, then the
        # imputed tail of each mode: the reference for the scan.
        ids = [f"d{i}" for i in data.draw(st.permutations(range(D)))]
        k = data.draw(st.integers(1, D))  # a ranking holds at least one item
        items, unretrieved = ids[:k], ids[k:]
        found = data.draw(st.sets(st.sampled_from(items), max_size=k))
        missing = data.draw(st.integers(0 if found else 1, D - k)) if k < D else 0
        relevant = found | set(unretrieved[:missing])
        if not relevant:  # a full ranking with no relevant item draws no judgment set
            relevant = {items[-1]}
        ranks = [rank for rank, item in enumerate(items, start=1) if item in relevant]
        tail = len(relevant) - len(ranks)
        if mode is Imputation.PESSIMISTIC:
            expected = RelevantPositions.worst_case(len(relevant), D, ranks)
        else:
            expected = RelevantPositions((*ranks, *range(k + 1, k + tail + 1)), D)
        got = project_and_impute(make_ranking(items, D), make_judgments(relevant), mode)
        assert got.positions == expected.positions



class TestProjectRuns:
    def runs(self, D=20):
        return {
            "a": {"q1": make_ranking(["d1", "x", "d2"], D)},
            "b": {
                "q1": make_ranking(["x", "d2"], D),
                "q2": make_ranking(["d3"], D, request_id="q2"),
            },
        }

    def test_matches_per_cell_projection(self):
        judgments = {"q1": make_judgments({"d1", "d2", "d9"})}
        for mode in (Imputation.PESSIMISTIC, Imputation.OPTIMISTIC):
            projected = project_runs(self.runs(), judgments, ["q1"], mode)
            for tag, run in self.runs().items():
                assert projected["q1"][tag] == project_and_impute(run["q1"], judgments["q1"], mode)

    def test_missing_ranking_is_worst_case(self):
        # The CLI loader counts such cells; see test_cli.py::TestCollection.
        judgments = {
            "q1": make_judgments({"d1"}),
            "q2": make_judgments({"d3", "d4"}, request_id="q2"),
        }
        projected = project_runs(self.runs(), judgments, ["q1", "q2"])
        assert projected["q2"]["a"] == RelevantPositions.worst_case(2, 20)
        assert projected["q2"]["b"].positions == (1, 20)
        assert list(projected) == ["q1", "q2"]

    def test_corpus_sizes_must_agree(self):
        runs = self.runs()
        runs["a"] = {"q1": make_ranking(["d1"], 30)}
        with pytest.raises(ValidationError):
            project_runs(runs, {"q1": make_judgments({"d1"})}, ["q1"])


class TestDomainTypes:
    def test_duplicate_items_rejected(self):
        with pytest.raises(ValidationError):
            make_ranking(["d1", "d1"], 5)

    def test_oversized_ranking_rejected(self):
        with pytest.raises(ValidationError):
            make_ranking(["d1", "d2", "d3"], 2)

    def test_positions_must_increase(self):
        with pytest.raises(ValidationError):
            RelevantPositions((3, 3), 10)

    @pytest.mark.parametrize("positions", [(1.9, 2.5), (1.0, 2.0), ("1", "2")])
    def test_non_integer_positions_rejected(self, positions):
        # A float, even an integral one, or a string is never truncated.
        with pytest.raises(ValidationError, match="positions must be integers"):
            RelevantPositions(positions, 10)

    def test_numpy_integer_positions_accepted(self):
        rp = RelevantPositions(np.array([2, 5], dtype=np.int32), 10)
        assert rp.positions == (2, 5)
        assert all(type(p) is int for p in rp.positions)

    @pytest.mark.parametrize("corpus_size", [10.5, 10.0, "10"])
    def test_non_integer_corpus_size_rejected(self, corpus_size):
        with pytest.raises(ValidationError, match="corpus_size must be an integer"):
            RelevantPositions((1, 2), corpus_size)

    def test_numpy_integer_corpus_size_stored_as_int(self):
        rp = RelevantPositions((1, 2), np.int64(10))
        assert type(rp.corpus_size) is int and rp == RelevantPositions((1, 2), 10)

    def test_positions_must_fit_corpus(self):
        with pytest.raises(ValidationError):
            RelevantPositions((5, 11), 10)

    def test_worst_case_constructor(self):
        rp = RelevantPositions.worst_case(3, 10)
        assert rp == RelevantPositions((8, 9, 10), 10)

    def test_worst_case_keeps_retrieved_prefix(self):
        rp = RelevantPositions.worst_case(4, 10, (2, 5))
        assert rp == RelevantPositions((2, 5, 9, 10), 10)
        full = RelevantPositions.worst_case(2, 10, (2, 5))
        assert full.positions == (2, 5)
        with pytest.raises(ValidationError):
            RelevantPositions.worst_case(11, 10)

    @settings(max_examples=200, deadline=None)
    @given(
        corpus_size=st.one_of(st.integers(1, 300), st.integers(300, 10**6)),
        data=st.data(),
        rng=st.randoms(use_true_random=False),
    )
    def test_worst_case_matches_the_range_built_vector(self, corpus_size, data, rng):
        m = data.draw(st.integers(1, min(corpus_size, 300)), label="m")
        found = data.draw(st.integers(0, m), label="retrieved")
        retrieved = sorted(rng.sample(range(1, corpus_size - m + found + 1), found))
        _check_worst_case(m, corpus_size, retrieved)

    @pytest.mark.parametrize(
        "m,corpus_size,retrieved",
        [
            (1, 1, ()),
            (1, 1, (1,)),
            (500, 500, ()),
            (500, 500, tuple(range(1, 251))),
            (500, 500, tuple(range(1, 501))),
            (200, 10**6, ()),
            (200, 10**6, tuple(range(5, 1001, 5))),
        ],
        ids=["m=D=1", "m=D=1-retrieved", "m=D", "m=D-half", "m=D-all", "none", "all"],
    )
    def test_worst_case_edges(self, m, corpus_size, retrieved):
        _check_worst_case(m, corpus_size, retrieved)

    def test_preference_invariants(self):
        assert Preference.TIE.is_tie
        assert not Preference.FIRST.is_tie and not Preference.SECOND.is_tie
        assert [p.sign for p in Preference] == [1, -1, 0]
        assert all(Preference(p.sign) is p for p in Preference)
        assert all(type(p.sign) is int for p in Preference)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RankedList("q", ("a", "b"), 2.5),
        lambda: RankedList("q", ("a",), "100"),
        lambda: RankedList("q", "abc", 100),
        lambda: JudgmentSet("q", "ab"),
        lambda: ExposureModel.linear(2.5),
        lambda: SimulationConfig(100, (1, 2, 3), 5),
        lambda: ExposureModel.geometric("0.5"),
        lambda: MetricId.rbp("0.9"),
    ],
    ids=["float-corpus", "str-corpus", "str-items", "str-relevant", "float-linear", "m-triple",
         "str-exposure-gamma", "str-rbp-gamma"],
)
def test_constructors_reject_what_they_would_reinterpret(build):
    # Each was once accepted as something else, or failed with a bare TypeError.
    with pytest.raises(ValidationError):
        build()


# One instance of each value type, its dataclass-style repr, a change that
# passes its checks and one that does not.
VALUES = [
    (
        RankedList("q1", ("d1", "d2"), 10, "run"),
        "RankedList(request_id='q1', items=('d1', 'd2'), corpus_size=10, system_tag='run')",
        {"items": ("d2", "d1")},
        {"items": ("d1", "d1")},
    ),
    (
        JudgmentSet("q1", frozenset({"d1"})),
        "JudgmentSet(request_id='q1', relevant_ids=frozenset({'d1'}))",
        {"relevant_ids": ("d2",)},
        {"relevant_ids": "d2"},
    ),
    (
        RelevantPositions((2, 5), 10),
        "RelevantPositions(positions=(2, 5), corpus_size=10)",
        {"corpus_size": 5},
        {"positions": (5, 2)},
    ),
    (
        ExposureModel.geometric(0.5),
        "ExposureModel(kind=<ExposureKind.GEOMETRIC: 'geometric'>, gamma=0.5, corpus_size=None)",
        {"gamma": 0.25},
        {"gamma": 1.5},
    ),
    (
        NormalizationModel.ap(),
        "NormalizationModel(kind='ap')",
        {"kind": "rr"},
        {"kind": "nope"},
    ),
    (
        MetricId.recall_at(5),
        "MetricId(kind=<MetricKind.RECALL_AT_K: 'recall@k'>, gamma=None, k=5, epsilon=None, "
        "exposure=None)",
        {"k": 7},
        {"k": 0},
    ),
    (
        UtilityVector((3.0, 1.0)),
        "UtilityVector(values=(3.0, 1.0))",
        {"values": (2.0,)},
        {"values": (1.0, 3.0)},
    ),
    (
        UserSubset((1, 3)),
        "UserSubset(levels=(1, 3))",
        {"levels": (2,)},
        {"levels": ()},
    ),
    (
        SimulationConfig(100, (1, 5), 10, 20, 7),
        "SimulationConfig(corpus_size=100, m_range=(1, 5), pair_count=10, retrieval_depth=20, "
        "seed=7)",
        {"seed": 8},
        {"pair_count": 0},
    ),
]


@pytest.mark.parametrize(
    "value,text,change,bad_change", VALUES, ids=[type(v[0]).__name__ for v in VALUES]
)
def test_value_type_contract(value, text, change, bad_change):
    cls = type(value)
    fields = cls._fields
    assert fields == tuple(inspect.signature(cls).parameters)
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    kwargs = {name: getattr(value, name) for name in fields}
    twin = cls(**kwargs)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value.__eq__(tuple(kwargs.values())) is NotImplemented
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is cls and other == value and hash(other) == hash(value)

    assert value._replace() == value
    changed = value._replace(**change)
    assert changed != value and changed == cls(**{**kwargs, **change})
    with pytest.raises(ValidationError):
        value._replace(**bad_change)


def _check_worst_case(m, corpus_size, retrieved):
    """``worst_case`` equals the vector built from a range, and the next
    vector of the same ``(m, corpus_size)`` holds the very same tail ints."""
    rp = RelevantPositions.worst_case(m, corpus_size, retrieved)
    tail = range(corpus_size - m + len(retrieved) + 1, corpus_size + 1)
    assert rp.positions == (*retrieved, *tail)
    assert rp.corpus_size == corpus_size
    bottom = RelevantPositions.worst_case(m, corpus_size)
    shared = zip(rp.positions[len(retrieved) :], bottom.positions[len(retrieved) :])
    assert all(a is b for a, b in shared)


class TestExposure:
    def test_reference_values(self):
        assert ExposureModel.reciprocal().at(1) == 1.0
        assert ExposureModel.geometric(0.8).at(1) == pytest.approx(0.2)
        assert ExposureModel.log2().at(3) == pytest.approx(0.5)
        assert ExposureModel.linear(10).at(10) == 0.0

    def test_position_validation(self):
        for model in (ExposureModel.reciprocal(), ExposureModel.log2()):
            with pytest.raises(ValidationError):
                model.at(0)
        with pytest.raises(ValidationError):
            ExposureModel.linear(10).at(11)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ExposureModel.geometric(1.0)
        with pytest.raises(ValidationError):
            ExposureModel.geometric(0.0)
        with pytest.raises(ValidationError):
            ExposureModel.linear(0)

    @pytest.mark.parametrize(
        "model,limit",
        [
            (ExposureModel.reciprocal(), 10_000),
            (ExposureModel.log2(), 10_000),
            (ExposureModel.geometric(0.8), 10_000),
            (ExposureModel.linear(10_000), 10_000),
        ],
        ids=["reciprocal", "log2", "geometric", "linear"],
    )
    def test_monotonic_decrease_scan(self, model, limit):
        # Strict decrease everywhere the values stay above the subnormal
        # floor; the geometric tail underflows to exactly 0.0 in float64.
        previous = model.at(1)
        for i in range(2, limit + 1):
            current = model.at(i)
            assert current <= previous
            if previous >= 1e-300:
                assert current < previous
            previous = current

    def test_labels(self):
        assert ExposureModel.geometric(0.8).label == "geometric(0.8)"
        assert ExposureModel.linear(50).label == "linear(50)"
        assert ExposureModel.geometric(0.8000001).label == "geometric(0.8000001)"


class TestExports:
    def test_all_names_resolve_once(self):
        names = lexirank.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(lexirank, name)]
        assert missing == []

    def test_readme_quickstart_prints_what_it_claims(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quickstart", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        claims = [
            line.split("  # ", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(")
        ]
        assert capsys.readouterr().out.splitlines() == claims
