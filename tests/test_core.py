"""Projection, imputation, exposure models, and the domain types."""

import numpy as np
import pytest

import lexirank
from lexirank import (
    ExposureModel,
    Imputation,
    JudgmentSet,
    Preference,
    RankedList,
    RelevantPositions,
    UnevaluableRequestError,
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
        assert rp.retrieved_count == 2
        # Inverse projection: the items at the retrieved positions.
        items = ["d5", "d2", "d9", "d1"]
        assert [items[p - 1] for p in rp.positions[: rp.retrieved_count]] == ["d2", "d1"]

    def test_partial_retrieval_bottom_imputation(self):
        # 3 of 6 relevant in a top-10 prefix at ranks 2, 3, 8.
        items = ["n1", "r1", "r2", "n2", "n3", "n4", "n5", "r3", "n6", "n7"]
        judgments = make_judgments({"r1", "r2", "r3", "x1", "x2", "x3"})
        rp = project_and_impute(make_ranking(items, 30), judgments)
        assert rp.positions == (2, 3, 8, 28, 29, 30)
        assert rp.retrieved_count == 3
        assert rp.imputation is Imputation.PESSIMISTIC

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
        assert rp.imputation is Imputation.OPTIMISTIC

    def test_none_mode_keeps_only_retrieved(self):
        rp = project_and_impute(
            make_ranking(["d5", "d2", "d9"], 100),
            make_judgments({"d2", "d1", "d7"}),
            Imputation.NONE,
        )
        assert rp.positions == (2,)
        assert rp.retrieved_count == 1

    def test_idempotent_on_complete_rankings(self):
        items, relevant = ranking_with_relevant_at((1, 4, 6), 8)
        rp = project_and_impute(make_ranking(items, 8), make_judgments(relevant))
        assert rp.positions == (1, 4, 6)
        assert rp.retrieved_count == rp.m

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
            projected, missing = project_runs(self.runs(), judgments, ["q1"], mode)
            assert missing == 0
            for tag, run in self.runs().items():
                assert projected["q1"][tag] == project_and_impute(run["q1"], judgments["q1"], mode)

    def test_missing_ranking_is_worst_case_and_counted(self):
        judgments = {
            "q1": make_judgments({"d1"}),
            "q2": make_judgments({"d3", "d4"}, request_id="q2"),
        }
        projected, missing = project_runs(self.runs(), judgments, ["q1", "q2"])
        assert missing == 1
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
            RelevantPositions((3, 3), 10, 2)

    def test_positions_must_fit_corpus(self):
        with pytest.raises(ValidationError):
            RelevantPositions((5, 11), 10, 2)

    def test_pessimistic_tail_is_checked(self):
        with pytest.raises(ValidationError):
            RelevantPositions((2, 7), 10, retrieved_count=1, imputation=Imputation.PESSIMISTIC)

    def test_worst_case_constructor(self):
        rp = RelevantPositions.worst_case(3, 10)
        assert rp.positions == (8, 9, 10)
        assert rp.retrieved_count == 0

    def test_worst_case_keeps_retrieved_prefix(self):
        rp = RelevantPositions.worst_case(4, 10, (2, 5))
        assert rp.positions == (2, 5, 9, 10)
        assert rp.retrieved_count == 2
        assert rp.imputation is Imputation.PESSIMISTIC
        full = RelevantPositions.worst_case(2, 10, (2, 5))
        assert full.positions == (2, 5)
        with pytest.raises(ValidationError):
            RelevantPositions.worst_case(11, 10)

    def test_preference_invariants(self):
        assert Preference.tie().is_tie
        assert Preference.first(2).sign == 1
        assert Preference.second(1).sign == -1
        with pytest.raises(ValidationError):
            Preference.tie().__class__(Preference.tie().outcome, deciding_level=1)


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


class TestExports:
    def test_all_names_resolve_once(self):
        names = lexirank.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(lexirank, name)]
        assert missing == []
