"""Significance machinery against scipy references, published tables, and fixtures."""

import math
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lexirank import (
    UndefinedResultError,
    ValidationError,
    binomial_sign_test,
    holm_bonferroni,
    paired_t_test,
    studentized_range_cdf,
    tukey_hsd,
)
from lexirank import stats
from lexirank.cli import main
from lexirank.stats import regularized_incomplete_beta, t_two_sided_p

from conftest import subprocess_env


class TestPairedT:
    def test_identical_samples(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_constant_shift_hits_floor(self):
        assert paired_t_test([1, 2, 3, 4], [0, 1, 2, 3]) == 0.0

    def test_against_reference_implementation(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 30))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n)
            expected = scipy.stats.ttest_rel(a, b).pvalue
            assert paired_t_test(a, b) == pytest.approx(expected, abs=1e-6)

    def test_small_sample_reference(self):
        p = paired_t_test([0.5, 0.7, 0.9], [0.4, 0.8, 0.6])
        expected = scipy.stats.ttest_rel([0.5, 0.7, 0.9], [0.4, 0.8, 0.6]).pvalue
        assert p == pytest.approx(expected, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_incomplete_beta_against_scipy(self, rng):
        for _ in range(100):
            a = float(rng.uniform(0.2, 30))
            b = float(rng.uniform(0.2, 30))
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy.special.betainc(a, b, x)), abs=1e-10
            )

    def test_t_tail_against_scipy(self, rng):
        for _ in range(50):
            t = float(rng.normal(scale=3))
            df = int(rng.integers(1, 200))
            expected = 2 * scipy.stats.t.sf(abs(t), df)
            assert t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-10)


class TestBinomialSign:
    def test_one_sided_sweep(self):
        assert binomial_sign_test(10, 0) == pytest.approx(2 * 0.5**10)

    def test_balanced_is_one(self):
        assert binomial_sign_test(5, 5) == 1.0

    def test_single_decisive_pair(self):
        assert binomial_sign_test(0, 1) == 1.0

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            if a + b == 0:
                continue
            assert binomial_sign_test(a, b) == binomial_sign_test(b, a)

    def test_matches_exact_sum(self, rng):
        for _ in range(30):
            a, b = int(rng.integers(0, 25)), int(rng.integers(0, 25))
            n = a + b
            if n == 0:
                continue
            tail = sum(math.comb(n, i) for i in range(min(a, b) + 1))
            expected = min(1.0, 2 * tail / 2**n)
            assert binomial_sign_test(a, b) == pytest.approx(expected, abs=1e-15)

    def test_no_decisive_pairs_is_undefined(self):
        with pytest.raises(UndefinedResultError):
            binomial_sign_test(0, 0)


class TestHolm:
    def test_step_down_example(self):
        assert holm_bonferroni([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])

    def test_single_value_unchanged(self):
        assert holm_bonferroni([0.2]) == [0.2]

    def test_all_ones(self):
        assert holm_bonferroni([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_pointwise_dominates_input(self, rng):
        for _ in range(50):
            ps = rng.uniform(size=int(rng.integers(1, 12))).tolist()
            adjusted = holm_bonferroni(ps)
            assert all(adj >= p for adj, p in zip(adjusted, ps))
            assert all(adj <= 1.0 for adj in adjusted)

    def test_permutation_equivariance(self, rng):
        ps = rng.uniform(size=7).tolist()
        adjusted = holm_bonferroni(ps)
        perm = rng.permutation(7)
        permuted = holm_bonferroni([ps[i] for i in perm])
        assert permuted == pytest.approx([adjusted[i] for i in perm])

    def test_validation(self):
        with pytest.raises(ValidationError):
            holm_bonferroni([0.5, 1.5])


class TestStudentizedRange:
    @pytest.mark.parametrize(
        "alpha,groups,df,expected",
        [
            (0.05, 3, 120, 3.356),
            (0.05, 2, 10, 3.151),
            (0.05, 4, 20, 3.958),
        ],
    )
    def test_published_critical_values(self, alpha, groups, df, expected):
        # The CDF is increasing, so it brackets 1 - alpha around the table value.
        target = 1.0 - alpha
        assert studentized_range_cdf(expected - 0.01, groups, df) < target
        assert studentized_range_cdf(expected + 0.01, groups, df) > target

    def test_cdf_against_reference(self, rng):
        for _ in range(25):
            groups = int(rng.integers(2, 8))
            df = int(rng.integers(2, 200))
            q = float(rng.uniform(0.5, 8.0))
            expected = float(scipy.stats.studentized_range.cdf(q, groups, df))
            assert studentized_range_cdf(q, groups, df) == pytest.approx(expected, abs=1e-6)

    # groups x df, crossing the df = 27 switch of the scale grid, at a central
    # and an upper-tail q; then far tails at small df, where the scale grid
    # must resolve the rise of the normal range CDF near s = 0, and the
    # sharpest inner integrand found by a dense sweep (50 groups, df 20000).
    _SWEEP = [
        (q, groups, df)
        for groups in (2, 5, 12, 50)
        for df in (1, 2, 3, 26, 27, 693, 20000)
        for q in (1.5, 4.5)
    ] + [(90.0, 2, 1), (60.0, 12, 1), (100.0, 50, 2), (30.0, 5, 3), (2.86, 50, 20000)]

    def test_sf_sweep_against_reference(self):
        errors = [
            abs(
                (1.0 - studentized_range_cdf(q, groups, df))
                - float(scipy.stats.studentized_range.sf(q, groups, df))
            )
            for q, groups, df in self._SWEEP
        ]
        worst = int(np.argmax(errors))
        assert errors[worst] <= 1e-9, (self._SWEEP[worst], errors[worst])

    # Past q = 100 at (2 groups, df 1): 180.06 at alpha 0.005, 900.32 at 0.001.
    @pytest.mark.parametrize(
        "alpha,groups,df",
        [
            (alpha, groups, df)
            for alpha in (0.05, 0.01)
            for groups, df in ((2, 1), (5, 26), (12, 693))
        ]
        + [(0.005, 2, 1), (0.001, 2, 1)],
    )
    def test_critical_against_reference(self, alpha, groups, df):
        expected = float(scipy.stats.studentized_range.ppf(1.0 - alpha, groups, df))
        target = 1.0 - alpha
        assert studentized_range_cdf(expected - 1e-5, groups, df) < target
        assert studentized_range_cdf(expected + 1e-5, groups, df) > target

    def test_integer_power_against_pow(self, rng):
        base = rng.uniform(size=1000)
        for n in (1, 2, 3, 11, 49, 64, 199):
            got = stats._int_power(base, n)
            assert np.all(np.abs(got - base**n) <= n * 2.3e-16 * base**n), n

    def test_cdf_edges(self):
        assert studentized_range_cdf(0.0, 3, 10) == 0.0
        assert studentized_range_cdf(50.0, 3, 10) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(min_value=0.01, max_value=100.0),
        groups=st.integers(2, 50),
        df=st.integers(1, 10**5),
    )
    def test_blocked_grid_matches_whole_grid_bitwise(self, q, groups, df):
        """The normal range CDF in row blocks equals the whole-grid formula."""
        with mock.patch.object(stats, "_normal_range_cdf", _whole_grid_normal_range_cdf):
            expected = studentized_range_cdf(q, groups, df)
        assert studentized_range_cdf(q, groups, df).hex() == expected.hex()
        s_nodes, _ = stats._gauss_legendre(stats._scale_edges(q, df))
        blocked = stats._normal_range_cdf(q * s_nodes, groups)
        assert blocked.tobytes() == _whole_grid_normal_range_cdf(q * s_nodes, groups).tobytes()


def _whole_grid_normal_range_cdf(x, groups):
    """The normal range CDF on the whole (x, normal node) grid at once."""
    z_nodes, z_weights, z_phi, z_cdf = stats._z_grid()
    x = np.asarray(x, dtype=float)[:, None]
    inner = z_cdf[None, :] - stats._normal_cdf(z_nodes[None, :] - x)
    np.clip(inner, 0.0, None, out=inner)
    vals = groups * np.sum(z_weights * z_phi * stats._int_power(inner, groups - 1), axis=1)
    return np.clip(vals, 0.0, 1.0)


def _sign_flip_p(a: np.ndarray, b: np.ndarray, rng, iterations=4000) -> float:
    """Paired permutation oracle: random sign flips of the differences."""
    d = a - b
    observed = abs(d.mean())
    hits = 0
    for _ in range(iterations):
        flipped = d * rng.choice([-1.0, 1.0], size=d.size)
        if abs(flipped.mean()) >= observed - 1e-15:
            hits += 1
    return hits / iterations


class TestTukey:
    def test_identical_runs_all_ones(self):
        base = [0.2, 0.5, 0.9, 0.4]
        grid = tukey_hsd(np.array([base, base, base]))
        assert np.all(grid == 1.0)

    def test_grid_is_symmetric_probability(self, rng):
        values = rng.uniform(size=(4, 9))
        grid = tukey_hsd(values)
        assert np.allclose(grid, grid.T)
        assert np.all((grid >= 0.0) & (grid <= 1.0))
        assert np.all(np.diag(grid) == 1.0)

    def test_separated_run_detected(self, rng):
        base = rng.uniform(0.3, 0.6, size=20)
        rows = [
            base + 0.4,
            base + rng.normal(scale=0.03, size=20),
            base + rng.normal(scale=0.03, size=20),
        ]
        grid = tukey_hsd(np.array(rows))
        assert grid[0, 1] < 0.05
        assert grid[0, 2] < 0.05
        assert grid[1, 2] > 0.05
        # Permutation oracle classifies the same pairs.
        perm_rng = np.random.default_rng(99)
        assert _sign_flip_p(rows[0], rows[1], perm_rng) < 0.05
        assert _sign_flip_p(rows[0], rows[2], perm_rng) < 0.05
        assert _sign_flip_p(rows[1], rows[2], perm_rng) > 0.05

    def test_degenerate_offsets(self):
        base = np.array([0.1, 0.4, 0.7])
        grid = tukey_hsd(np.array([base, base + 0.2]))
        assert grid[0, 1] == 0.0

    def test_degenerate_offsets_inexact_in_binary(self):
        # Offsets such as 0.1 leave squared residuals summing to ~1e-32, and
        # equal means reached by different sums can differ in the last bit;
        # both are rounding, so the grid is the exact 0/1 degenerate one.
        base = np.array([0.1, 0.4, 0.7])
        grid = tukey_hsd(np.array([base, base + 0.1, base + 0.1]))
        assert grid[0, 1] == grid[0, 2] == 0.0
        assert grid[1, 2] == 1.0
        first, second = base + 0.7, (base + 0.4) + 0.3
        assert first.mean() != second.mean()
        grid = tukey_hsd(np.array([first, second, base]))
        assert grid[0, 1] == 1.0
        assert grid[0, 2] == grid[1, 2] == 0.0

    def test_grid_against_reference(self, rng):
        n_runs, n_requests = 5, 12
        values = rng.uniform(size=(n_runs, n_requests))
        grid = tukey_hsd(values)
        run_means = values.mean(axis=1)
        resid = values - run_means[:, None] - values.mean(axis=0)[None, :] + values.mean()
        df = (n_runs - 1) * (n_requests - 1)
        se = math.sqrt(float((resid**2).sum()) / df / n_requests)
        for i in range(n_runs):
            for j in range(i + 1, n_runs):
                q = abs(run_means[i] - run_means[j]) / se
                expected = float(scipy.stats.studentized_range.sf(q, n_runs, df))
                assert grid[i, j] == pytest.approx(expected, abs=1e-6)

    def test_shape_validation(self):
        # One run, one request, a 1-D row and a missing cell.
        nan_cell = [[0.1, 0.2], [0.3, math.nan]]
        for values in ([[0.1, 0.2]], [[0.1], [0.2]], [0.1, 0.2, 0.3], nan_cell):
            with pytest.raises(ValidationError):
                tukey_hsd(np.array(values))


class TestNoScipyAtRuntime:
    """scipy is a reference for these tests only: no command loads it."""

    def test_compare_hsd_and_tukey_never_load_scipy(self, tmp_path):
        fixtures = Path(__file__).parent / "fixtures"
        argv = ["compare", "--method", "metric:AP", "--hsd", "--corpus-size", "50"]
        for name in ("run_a.txt", "run_b.txt", "run_c.txt"):
            argv += ["--runs", str(fixtures / name)]
        argv += ["--qrels", str(fixtures / "qrels.txt"), "--out", str(tmp_path / "hsd.tsv")]
        code = (
            "import sys, numpy as np\n"
            "from lexirank import tukey_hsd\n"
            "from lexirank.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "values = np.arange(12.0).reshape(3, 4) % 5\n"
            "tukey_hsd(values)\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert "p_hsd" in (tmp_path / "hsd.tsv").read_text().splitlines()[0]
        assert proc.stdout.strip() == "[]"


class TestNormalCdf:
    def test_against_reference(self):
        # Both sides of Cody's range switches at 0.67448975 and sqrt(32).
        edges = [0.67448975, math.sqrt(32.0)]
        near_edges = [np.nextafter(e, d) for e in edges for d in (0.0, 50.0)]
        t = np.concatenate([np.linspace(-40.0, 40.0, 200_001), edges, near_edges])
        t = np.concatenate([t, -t])
        assert np.max(np.abs(stats._normal_cdf(t) - scipy.special.ndtr(t))) <= 4.5e-16

    def test_reflection(self):
        t = np.linspace(0.0, 40.0, 100_001)
        assert np.max(np.abs(stats._normal_cdf(t) + stats._normal_cdf(-t) - 1.0)) <= 2.2e-16

    def test_extremes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # y * y must not overflow
            got = stats._normal_cdf(np.array([-np.inf, -1e300, 0.0, 1e300, np.inf]))
        assert got.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


def _compare(tmp_path, ranks, *flags, corpus_size=10):
    """Rows of ``compare`` over runs that rank the whole corpus.

    ``ranks[tag][q]`` is the rank of request q's one relevant item in run
    ``tag``; the other ranks hold non-relevant fillers.
    """
    n_requests = len(next(iter(ranks.values())))
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("".join(f"q{q:03d} 0 rel 1\n" for q in range(n_requests)))
    argv = ["compare", "--qrels", qrels, "--corpus-size", corpus_size, *flags]
    for tag, run_ranks in ranks.items():
        lines = []
        for q, relevant_rank in enumerate(run_ranks):
            items = [f"doc{k}" for k in range(1, corpus_size)]
            items.insert(relevant_rank - 1, "rel")
            lines += [
                f"q{q:03d} Q0 {item} {rank} {corpus_size - rank} {tag}"
                for rank, item in enumerate(items, start=1)
            ]
        path = tmp_path / f"{tag}.txt"
        path.write_text("\n".join(lines) + "\n")
        argv += ["--runs", path]
    out = tmp_path / "compare.tsv"
    assert main([str(arg) for arg in [*argv, "--out", out]]) == 0
    header, *rows = (line.split("\t") for line in out.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


def _significant(rows):
    """Discriminative power: the share of run pairs marked significant."""
    return sum(row["significant"] == "true" for row in rows) / len(rows)


def _ladder(n_runs=5, n_requests=60):
    """Run i puts every relevant item at rank i + 1, so lower runs always lose."""
    return {f"run{i}": [i + 1] * n_requests for i in range(n_runs)}


class TestDiscriminativePower:
    """The paper's discriminative power is the share of ``compare`` rows that
    are significant: Holm-corrected t or sign tests, or ``p_hsd < alpha``."""

    def test_identical_runs_zero_power(self, tmp_path):
        ranks = [1 + q % 9 for q in range(12)]
        rows = _compare(tmp_path, {tag: ranks for tag in "abc"}, "--method", "metric:AP", "--hsd")
        assert len(rows) == 3
        assert _significant(rows) == 0.0
        assert [row["p_hsd"] for row in rows] == ["1"] * 3

    def test_dominant_pair_fully_detected(self, tmp_path):
        rows = _compare(tmp_path, _ladder(2, 100), "--method", "lexirecall")
        assert rows[0]["wins_a"] == "100"
        assert _significant(rows) == 1.0

    def test_undecided_pairs_count_as_insignificant(self, tmp_path):
        ranks = [1 + q % 9 for q in range(50)]
        rows = _compare(tmp_path, {"a": ranks, "b": ranks}, "--method", "lexirecall")
        assert rows[0]["ties"] == "50" and rows[0]["p_value"] == "1"
        assert _significant(rows) == 0.0

    def test_monotone_in_alpha(self, tmp_path, rng):
        base = rng.integers(1, 12, size=24)
        ranks = {
            tag: np.clip(base + shift + rng.integers(-2, 3, size=24), 1, 20).tolist()
            for tag, shift in zip("abcd", (0, 1, 2, 6))
        }
        powers = []
        for alpha in ("0.001", "0.05", "0.5"):
            flags = ("--method", "metric:AP", "--alpha", alpha)
            powers.append(_significant(_compare(tmp_path, ranks, *flags, corpus_size=20)))
        assert powers == sorted(powers)
        assert powers[0] < powers[-1]

    def test_preference_route_beats_saturated_metric_when_deep(self, tmp_path):
        # Full-depth retrieval saturates a recall cutoff at the corpus size,
        # so its score-based power collapses while the positional preference
        # still separates a cleanly ordered ladder of runs.
        lexi_power = _significant(_compare(tmp_path, _ladder(), "--method", "lexirecall"))
        cutoff_power = _significant(_compare(tmp_path, _ladder(), "--method", "metric:recall@10"))
        assert lexi_power == 1.0 and cutoff_power == 0.0

    def test_input_type_validation(self, tmp_path, capsys):
        fixtures = Path(__file__).parent / "fixtures"
        out = tmp_path / "x.tsv"
        argv = ["compare", "--qrels", fixtures / "qrels.txt", "--corpus-size", 50, "--out", out]
        for name in ("run_a.txt", "run_b.txt"):
            argv += ["--runs", fixtures / name]
        bad_flags = [("--method", "nope"), ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "7")]
        for flags in bad_flags:
            assert main([str(arg) for arg in [*argv, *flags]]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
            assert not out.exists()
        assert "--alpha must lie in (0, 1), got 7.0" in err
