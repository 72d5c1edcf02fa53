"""Output checks that do not use the code under test.

Collection steps are checked against the ranks the generator planted,
simulation steps against independent float formulas or properties the
paper proves. Each check returns a list of problems; empty means correct.
TSV cells carry six significant digits, so they are compared with a
relative tolerance of half a unit in the sixth digit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Inputs

TSV_REL = 5.0001e-6
TIE_TOLERANCE = 1e-12  # the CLI's default --tolerance


def _rows(text: str) -> list[dict[str, str]]:
    header, *lines = text.rstrip("\n").split("\n")
    columns = header.split("\t")
    return [dict(zip(columns, line.split("\t"))) for line in lines]


def _close(cell: str, truth: float) -> bool:
    return math.isclose(float(cell), truth, rel_tol=TSV_REL)


def truth_metrics(positions: tuple[int, ...]) -> dict[str, float]:
    """The eval step's default metrics, straight from their definitions."""
    m = len(positions)
    ideal = sum(1.0 / math.log2(k + 1) for k in range(1, m + 1))
    return {
        "AP": sum(i / p for i, p in enumerate(positions, start=1)) / m,
        "NDCG": sum(1.0 / math.log2(p + 1) for p in positions) / ideal,
        "recall@1000": sum(p <= 1000 for p in positions) / m,
        "RPrecision": sum(p <= m for p in positions) / m,
        "TSE": 1.0 / positions[-1],
    }


def _cells(inputs: Inputs):
    c = inputs.collection
    return {(t, q): c.positions(t, q) for t in c.tags for q in c.requests}


def check_eval(inputs: Inputs, text: str) -> list[str]:
    truth = {key: truth_metrics(pos) for key, pos in _cells(inputs).items()}
    rows = _rows(text)
    problems = []
    expected_rows = len(truth) * 5
    if len(rows) != expected_rows:
        problems.append(f"eval: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        want = truth.get((row["run"], row["request_id"]), {}).get(row["metric"])
        if want is None or not _close(row["value"], want):
            problems.append(f"eval: {row} differs from planted value {want}")
    return problems[:5]


def _lexirecall_sign(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """+1 if x wins: bottom-up, the first differing level has x's item higher."""
    for a, b in zip(reversed(x), reversed(y)):
        if a != b:
            return 1 if a < b else -1
    return 0


def _metric_sign(a: float, b: float) -> int:
    if abs(a - b) <= TIE_TOLERANCE:
        return 0
    return 1 if a > b else -1


def _tallies(inputs: Inputs, sign) -> dict[tuple[str, str], tuple[int, int, int]]:
    c = inputs.collection
    out = {}
    for i, a in enumerate(c.tags):
        for b in c.tags[i + 1 :]:
            signs = [sign(a, b, q) for q in c.requests]
            out[(a, b)] = (signs.count(1), signs.count(-1), signs.count(0))
    return out


def _check_tallies(step: str, rows, tallies) -> list[str]:
    problems = []
    if len(rows) != len(tallies):
        problems.append(f"{step}: {len(rows)} pair rows, expected {len(tallies)}")
    for row in rows:
        got = (int(row["wins_a"]), int(row["wins_b"]), int(row["ties"]))
        want = tallies.get((row["run_a"], row["run_b"]))
        if got != want:
            problems.append(f"{step}: {row['run_a']} vs {row['run_b']} gave {got}, expected {want}")
    return problems[:5]


def check_compare_lexirecall(inputs: Inputs, text: str) -> list[str]:
    cells = _cells(inputs)
    tallies = _tallies(inputs, lambda a, b, q: _lexirecall_sign(cells[a, q], cells[b, q]))
    return _check_tallies("compare lexirecall", _rows(text), tallies)


def _ap(inputs: Inputs) -> dict[tuple[str, str], float]:
    return {key: truth_metrics(pos)["AP"] for key, pos in _cells(inputs).items()}


def check_compare_hsd(inputs: Inputs, text: str) -> list[str]:
    from scipy.stats import studentized_range

    c = inputs.collection
    ap = _ap(inputs)
    rows = _rows(text)
    tallies = _tallies(inputs, lambda a, b, q: _metric_sign(ap[a, q], ap[b, q]))
    problems = _check_tallies("compare hsd", rows, tallies)

    values = np.array([[ap[t, q] for q in c.requests] for t in c.tags])
    R, Q = values.shape
    resid = values - values.mean(axis=1)[:, None] - values.mean(axis=0)[None, :] + values.mean()
    df = (R - 1) * (Q - 1)
    se = math.sqrt(float((resid**2).sum()) / df / Q)
    means = dict(zip(c.tags, values.mean(axis=1)))
    rng = np.random.default_rng(inputs.seed)
    for idx in rng.choice(len(rows), size=min(3, len(rows)), replace=False):
        row = rows[idx]
        q = abs(means[row["run_a"]] - means[row["run_b"]]) / se
        want = float(studentized_range.sf(q, R, df))
        if not abs(float(row["p_hsd"]) - want) <= 1e-6:
            pair = f"{row['run_a']} vs {row['run_b']}"
            problems.append(f"compare hsd: p_hsd {row['p_hsd']} for {pair}, scipy gives {want}")
    return problems


def check_degrade(inputs: Inputs, text: str) -> list[str]:
    """Rows at fraction 0 use the full labels, so they follow from the truth."""
    cells = _cells(inputs)
    ap = _ap(inputs)
    c = inputs.collection

    def recall_tie(a, b, q):
        return _metric_sign(len(c.retrieved[a][q]) / c.m[q], len(c.retrieved[b][q]) / c.m[q])

    signs = {
        "lexirecall": lambda a, b, q: _lexirecall_sign(cells[a, q], cells[b, q]),
        "AP": lambda a, b, q: _metric_sign(ap[a, q], ap[b, q]),
        "recall@1000": recall_tie,
    }
    rows = _rows(text)
    problems = []
    if len(rows) != 6:
        problems.append(f"degrade: {len(rows)} rows, expected 6")
    for row in rows:
        if float(row["fraction"]) != 0.0:
            continue
        tallies = _tallies(inputs, signs[row["method"]])
        ties = sum(t for _w, _l, t in tallies.values()) / (len(tallies) * len(c.requests))
        if not _close(row["tie_fraction"], ties) or float(row["agreement_with_full"]) != 1.0:
            problems.append(f"degrade: {row} at fraction 0, expected tie fraction {ties}")
    return problems


def _tse_tie(D: int, m: int) -> float:
    # P(bottom of a random m-subset of [1..D] is i) = C(i-1, m-1) / C(D, m),
    # built downward from i = D by the ratio (i-m)/(i-1).
    i = np.arange(D, m, -1, dtype=np.float64)
    terms = (m / D) * np.concatenate([[1.0], np.cumprod((i - m) / (i - 1))])
    return float(np.sum(terms * terms))


def _overlap_tie(D: int, m: int, k: int) -> float:
    # Hypergeometric P(j of the m relevant items lie in the top k) for
    # j = 0..min(m, k), by its ratio recurrence from j = 0 (needs m <= D - k).
    p = math.prod((D - k - t) / (D - t) for t in range(m))
    total = 0.0
    for j in range(min(m, k) + 1):
        total += p * p
        p *= (k - j) * (m - j) / ((j + 1) * (D - k - m + j + 1))
    return total


def truth_tie_probability(metric: str, D: int, m: int) -> float:
    if metric == "tse":
        return _tse_tie(D, m)
    if metric == "lexirecall":
        return math.prod((j + 1) / (D - j) for j in range(m))
    if metric == "rprecision":
        return _overlap_tie(D, m, m)
    return _overlap_tie(D, m, int(metric.split("@")[1]))


def check_ties_analytic(inputs: Inputs, text: str) -> list[str]:
    rows = json.loads(text)
    lo, hi = inputs.workload.simulation.ties_m
    problems = []
    if len(rows) != 4 * (hi - lo + 1):
        problems.append(f"ties analytic: {len(rows)} rows")
    for row in rows:
        want = truth_tie_probability(row["metric"], row["D"], row["m"])
        if not math.isclose(row["tie_probability"], want, rel_tol=1e-9):
            problems.append(f"ties analytic: {row}, expected {want!r}")
    return problems


def check_ties_empirical(_inputs: Inputs, text: str) -> list[str]:
    fractions = {row["method"]: float(row["tie_fraction"]) for row in _rows(text)}
    lexi = fractions.pop("lexirecall", None)
    if lexi is None or len(fractions) != 3 or any(lexi > v for v in fractions.values()):
        return [f"ties empirical: lexirecall ties more often than another method: {text!r}"]
    return []


def check_agreement(inputs: Inputs, text: str) -> list[str]:
    sim = inputs.workload.simulation
    rows = _rows(text)
    problems = []
    if len(rows) != 6 * len(sim.agreement_corpora):
        problems.append(f"agreement: {len(rows)} rows")
    for row in rows:
        if row["metric"] == "TSE" and float(row["agreement"]) != 1.0:
            problems.append(f"agreement: TSE disagrees with the worst case: {row}")
        if row["metric"] == "random":
            strict = sim.agreement_pairs * (1.0 - float(row["tied_fraction"]))
            if abs(float(row["agreement"]) - 0.5) > 5 * math.sqrt(0.25 / strict):
                problems.append(f"agreement: coin agreement beyond 5 sigma: {row}")
    return problems


def check_oracle(inputs: Inputs, text: str) -> list[str]:
    rows = json.loads(text)
    problems = []
    if len(rows) != len(inputs.oracle_vectors):
        problems.append(f"oracle: {len(rows)} rows, expected {len(inputs.oracle_vectors)}")
    for row, positions in zip(rows, inputs.oracle_vectors):
        tse = 1.0 / positions[-1]
        if row["user"] != tse or row["provider"] != tse:
            problems.append(f"oracle: {row} differs from TSE {tse!r}")
    return problems


CHECKS = {
    "eval_s": check_eval,
    "degrade_s": check_degrade,
    "compare_lexirecall_s": check_compare_lexirecall,
    "compare_hsd_s": check_compare_hsd,
    "ties_analytic_s": check_ties_analytic,
    "ties_empirical_s": check_ties_empirical,
    "agreement_s": check_agreement,
    "oracle_s": check_oracle,
}
