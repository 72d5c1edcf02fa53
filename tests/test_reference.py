"""``eval`` and ``compare`` against the reference evaluator on generated
collections."""

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


@settings(max_examples=100, deadline=None)
@given(
    reference.collections(),
    st.sampled_from(_METRICS),
    st.sampled_from(_METHODS),
    st.sampled_from([0.0, 0.01]),
)
def test_commands_equal_the_reference(collection, metrics, method, tolerance):
    with tempfile.TemporaryDirectory() as work:
        paths, qrels, flags = reference.write(collection, work)
        options = reference.options(collection)
        corpus_size = options["corpus_size"]
        tags, evaluable, cells = reference.cells(paths, qrels, **options)
        vectors = {key: RelevantPositions(p, corpus_size) for key, p in cells.items()}
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
