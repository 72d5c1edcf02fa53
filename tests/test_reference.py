"""``eval``, ``compare`` and ``degrade`` against the reference evaluator on
generated collections."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexirank import MetricId, RelevantPositions
from lexirank.cli import main

import reference

_METRICS = [["AP", "TSE"], ["NDCG", "recall@5", "RPrecision"], ["RR", "rbp:0.8", "mlr"]]
_METHODS = [
    ("lexirecall", False), ("tse", False), ("tse", True), ("metric:AP", False),
    ("metric:AP", True), ("metric:recall@5", False),
]
# ``degrade``'s fractions, methods and samples: a fraction of 0 removes no
# label, and 0.3 removes one of two or three.
_DEGRADE = [
    ("0,0.5", ["lexirecall", "metric:AP"], 2), ("0.3", ["tse", "metric:recall@5"], 1),
    ("0.25,0.75", ["lexirecall"], 2), ("0.6", ["metric:RR", "tse"], 3),
]


@settings(max_examples=100, deadline=None)
@given(
    reference.collections(),
    st.sampled_from(_METRICS),
    st.sampled_from(_METHODS),
    st.sampled_from([0.0, 0.01]),
    st.sampled_from(_DEGRADE),
    st.integers(0, 3),
)
def test_commands_equal_the_reference(collection, metrics, method, tolerance, degrade, seed):
    with tempfile.TemporaryDirectory() as work:
        paths, qrels, flags = reference.write(collection, work)
        options = reference.options(collection)
        corpus_size, mode = options["corpus_size"], options["mode"]
        relevant, evaluable, tags, rankings = reference.read_collection(
            paths, qrels, options["threshold"], options["depth"]
        )

        def vectors_of(labels):
            cells = reference.project(rankings, labels, corpus_size, mode)
            return {key: RelevantPositions(p, corpus_size) for key, p in cells.items()}

        vectors = vectors_of(relevant)
        out = Path(work) / "out.json"

        argv = ["eval", *flags, "--format", "json", "--out", str(out)]
        for metric in metrics:
            argv += ["--metric", metric]
        assert main(argv) == 0
        ids = [MetricId.parse(metric, corpus_size) for metric in metrics]
        assert json.loads(out.read_text()) == reference.eval_rows(vectors, tags, evaluable, ids)

        name, hsd = method
        hsd = hsd and len(evaluable) > 1  # Tukey HSD needs two requests
        argv = ["compare", *flags, "--method", name, "--tolerance", str(tolerance),
                "--format", "json", "--out", str(out)]
        assert main(argv + ["--hsd"] * hsd) == 0
        expected = reference.compare_rows(vectors, tags, evaluable, name, corpus_size, tolerance,
                                          hsd=hsd)
        assert json.loads(out.read_text()) == expected

        fractions, methods, samples = degrade
        argv = ["degrade", *flags, "--fractions", fractions, "--samples", str(samples),
                "--seed", str(seed), "--tolerance", str(tolerance), "--format", "json",
                "--out", str(out)]
        assert main(argv + [f"--method={method}" for method in methods]) == 0
        expected = reference.degrade_rows(
            vectors_of, relevant, evaluable, tags, [float(f) for f in fractions.split(",")],
            methods, corpus_size, samples, seed, tolerance,
        )
        assert json.loads(out.read_text()) == expected
