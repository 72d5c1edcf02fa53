"""The three workloads and the eight steps each of them runs.

Every workload runs the same eight steps, so every end-to-end metric is
measured on every workload; the workload decides their sizes. ``trec-deep``
and ``trec-wide`` run the four file steps on a large collection and the four
simulation steps at smoke-test size; ``simulate`` does the reverse. A layer
a workload stresses is thus barely touched by the others, and an
optimisation of that layer predicts no change there.

Each step also states how often the traced run must see each public
function called, derived from the workload shape alone (plus, for the
agreement study, the tie counts the step reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from synth import Collection, Shape

EVAL_METRICS = 5  # lexirank eval's default metric list
DEGRADE_METHODS = 3  # lexirank degrade's default methods: lexirecall, AP, recall@1000
DEGRADE_SAMPLES = 2
DEGRADE_FRACTIONS = (0.0, 0.5)
AGREEMENT_METRICS = 6  # simulate-agreement's default list, "random" included
AGREEMENT_M = (5, 50)
EMPIRICAL_M = (5, 200)


@dataclass(frozen=True)
class Simulation:
    """Sizes of the four simulation steps."""

    ties_corpus: int
    ties_m: tuple[int, int]
    empirical_corpus: int
    empirical_depth: int
    empirical_pairs: int
    agreement_corpora: tuple[int, ...]
    agreement_pairs: int
    oracle_corpus: int
    oracle_m: int
    oracle_vectors: int


@dataclass(frozen=True)
class Workload:
    name: str
    collection: Shape
    simulation: Simulation


SMOKE_COLLECTION = Shape(runs=4, requests=10, depth=100)
SMOKE_SIMULATION = Simulation(
    ties_corpus=10_000,
    ties_m=(1, 3),
    empirical_corpus=10_000,
    empirical_depth=100,
    empirical_pairs=300,
    agreement_corpora=(1_000,),
    agreement_pairs=300,
    oracle_corpus=1_000,
    oracle_m=8,
    oracle_vectors=4,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("trec-deep", Shape(runs=10, requests=16, depth=1000), SMOKE_SIMULATION),
        Workload("trec-wide", Shape(runs=12, requests=64, depth=100), SMOKE_SIMULATION),
        Workload(
            "simulate",
            SMOKE_COLLECTION,
            Simulation(
                ties_corpus=1_000_000,
                ties_m=(1, 4),
                empirical_corpus=1_000_000,
                empirical_depth=1000,
                empirical_pairs=5_000,
                agreement_corpora=(1_000, 100_000),
                agreement_pairs=2_000,
                oracle_corpus=1_000_000,
                oracle_m=16,
                oracle_vectors=16,
            ),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload feeds its steps."""

    workload: Workload
    seed: int
    collection: Collection
    oracle_path: Path
    oracle_vectors: list[tuple[int, ...]]


@dataclass(frozen=True)
class Step:
    """One program invocation; ``metric`` is its end-to-end metric name."""

    metric: str
    suffix: str  # output file extension
    argv: Callable[[Inputs, Path], list[str]]  # arguments after the entry point
    expected: Callable[[Inputs, str], dict[str, int]]
    oracle: bool = False  # run perfbench/oracle.py instead of the CLI


def _data_flags(inputs: Inputs) -> list[str]:
    c = inputs.collection
    flags = [arg for path in c.run_paths for arg in ("--runs", str(path))]
    return flags + ["--qrels", str(c.qrels_path), "--corpus-size", str(c.shape.corpus_size)]


def _grid(inputs: Inputs) -> tuple[int, int, int]:
    s = inputs.collection.shape
    return s.runs, s.requests, s.runs * (s.runs - 1) // 2


def _parsed(inputs: Inputs) -> dict[str, int]:
    s = inputs.collection.shape
    return {
        "io.parse_run_file": s.runs,
        "io.parse_run_file.lines": s.lines,
        "io.parse_qrels": 1,
        "io.write_table": 1,
    }


def _expect_eval(inputs: Inputs, _out: str) -> dict[str, int]:
    R, Q, _P = _grid(inputs)
    return {
        **_parsed(inputs),
        "core.project_and_impute": R * Q,
        "metrics.evaluate": EVAL_METRICS * R * Q,
        "io.write_table.rows": EVAL_METRICS * R * Q,
    }


def _expect_degrade(inputs: Inputs, _out: str) -> dict[str, int]:
    R, Q, P = _grid(inputs)
    passes = 1 + DEGRADE_SAMPLES * len(DEGRADE_FRACTIONS)
    metric_methods = DEGRADE_METHODS - 1
    return {
        **_parsed(inputs),
        "core.project_and_impute": R * Q * passes,
        "analytics.degradation_study": 1,
        "analytics.degrade_judgments": DEGRADE_SAMPLES * len(DEGRADE_FRACTIONS) * Q,
        "prefs.lexirecall_compare": Q * P * passes,
        "prefs.metric_compare": metric_methods * Q * P * passes,
        "metrics.evaluate": 2 * metric_methods * Q * P * passes,
        "io.write_table.rows": DEGRADE_METHODS * len(DEGRADE_FRACTIONS),
    }


def _expect_lexirecall(inputs: Inputs, _out: str) -> dict[str, int]:
    R, Q, P = _grid(inputs)
    return {
        **_parsed(inputs),
        "core.project_and_impute": R * Q,
        "prefs.lexirecall_compare": P * Q,
        "stats.binomial_sign_test": P,
        "stats.holm_bonferroni": 1,
        "io.write_table.rows": P,
    }


def _expect_hsd(inputs: Inputs, _out: str) -> dict[str, int]:
    R, Q, P = _grid(inputs)
    return {
        **_parsed(inputs),
        "core.project_and_impute": R * Q,
        "metrics.evaluate": R * Q + 2 * P * Q,
        "prefs.metric_compare": P * Q,
        "stats.tukey_hsd": 1,
        "stats.studentized_range_cdf": P,
        "stats.paired_t_test": P,
        "stats.holm_bonferroni": 1,
        "io.write_table.rows": P,
    }


def _expect_analytic(inputs: Inputs, _out: str) -> dict[str, int]:
    lo, hi = inputs.workload.simulation.ties_m
    return {
        "analytics.tie_probability": 4 * (hi - lo + 1),
        "io.write_table": 1,
        "io.write_table.rows": 4 * (hi - lo + 1),
    }


def _expect_empirical(inputs: Inputs, _out: str) -> dict[str, int]:
    n = inputs.workload.simulation.empirical_pairs
    return {
        "analytics.simulate_pairs": 1,
        "analytics.simulate_pairs.pairs": n,
        "analytics.tie_fractions": 1,
        "prefs.tse_compare": n,
        "prefs.lexirecall_compare": n,
        "prefs.metric_compare": 2 * n,
        "metrics.evaluate": 4 * n,
        "io.write_table": 1,
        "io.write_table.rows": 4,
    }


def _expect_agreement(inputs: Inputs, out: str) -> dict[str, int]:
    sim = inputs.workload.simulation
    n = sim.agreement_pairs
    # Metrics are only consulted on pairs whose bottom positions differ.
    strict = 0
    for line in out.splitlines()[1:]:
        _D, metric, _agreement, tied = line.split("\t")
        if metric == "TSE":
            strict += round(n * (1.0 - float(tied)))
    compares = (AGREEMENT_METRICS - 1) * strict
    return {
        "analytics.simulate_pairs": len(sim.agreement_corpora),
        "analytics.simulate_pairs.pairs": n * len(sim.agreement_corpora),
        "analytics.agreement_with_worst_case": AGREEMENT_METRICS * len(sim.agreement_corpora),
        "prefs.metric_compare": compares,
        "metrics.evaluate": 2 * compares,
        "io.write_table": 1,
        "io.write_table.rows": AGREEMENT_METRICS * len(sim.agreement_corpora),
    }


def _expect_oracle(inputs: Inputs, _out: str) -> dict[str, int]:
    sim = inputs.workload.simulation
    v = sim.oracle_vectors
    return {
        "robustness.worst_case_user": v,
        "robustness.worst_case_provider": v,
        "robustness.subsets_enumerated": 2 * v * (2**sim.oracle_m - 1),
        "io.write_table": 1,
        "io.write_table.rows": v,
    }


def _flags(text: str, out: Path) -> list[str]:
    return [*text.split(), "--out", str(out)]


def _degrade_argv(i: Inputs, out: Path) -> list[str]:
    fractions = ",".join(f"{f:g}" for f in DEGRADE_FRACTIONS)
    text = f"--samples {DEGRADE_SAMPLES} --fractions {fractions} --seed {i.seed}"
    return ["degrade", *_data_flags(i), *_flags(text, out)]


def _analytic_argv(i: Inputs, out: Path) -> list[str]:
    s = i.workload.simulation
    lo, hi = s.ties_m
    text = f"ties --mode analytic --corpus-size {s.ties_corpus} --m-range {lo} {hi} --format json"
    return _flags(text, out)


def _empirical_argv(i: Inputs, out: Path) -> list[str]:
    s = i.workload.simulation
    lo, hi = EMPIRICAL_M
    text = (
        f"ties --mode empirical --corpus-size {s.empirical_corpus} --depth {s.empirical_depth}"
        f" --m-range {lo} {hi} --pairs {s.empirical_pairs} --seed {i.seed}"
    )
    return _flags(text, out)


def _agreement_argv(i: Inputs, out: Path) -> list[str]:
    s = i.workload.simulation
    lo, hi = AGREEMENT_M
    corpora = " ".join(f"--corpus-size {D}" for D in s.agreement_corpora)
    text = (
        f"simulate-agreement {corpora} --m-range {lo} {hi}"
        f" --pairs {s.agreement_pairs} --seed {i.seed}"
    )
    return _flags(text, out)


STEPS = (
    Step("eval_s", "tsv", lambda i, out: ["eval", *_data_flags(i), *_flags("", out)], _expect_eval),
    Step("degrade_s", "tsv", _degrade_argv, _expect_degrade),
    Step(
        "compare_lexirecall_s",
        "tsv",
        lambda i, out: ["compare", *_data_flags(i), *_flags("--method lexirecall", out)],
        _expect_lexirecall,
    ),
    Step(
        "compare_hsd_s",
        "tsv",
        lambda i, out: ["compare", *_data_flags(i), *_flags("--method metric:AP --hsd", out)],
        _expect_hsd,
    ),
    Step("ties_analytic_s", "json", _analytic_argv, _expect_analytic),
    Step("ties_empirical_s", "tsv", _empirical_argv, _expect_empirical),
    Step("agreement_s", "tsv", _agreement_argv, _expect_agreement),
    Step(
        "oracle_s",
        "json",
        lambda i, out: [str(i.oracle_path), str(out)],
        _expect_oracle,
        oracle=True,
    ),
)
