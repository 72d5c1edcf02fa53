"""Statistical sensitivity pipeline for comparing sets of runs.

Per-pair significance comes from a paired t-test (score-based methods) or an
exact binomial sign test (preference-based methods), corrected across run
pairs with the step-down Holm-Bonferroni rule, or jointly via Tukey's
honestly-significant-difference test on a two-way (run, request) model.

The t CDF is computed through the regularized incomplete beta function and
the studentized-range CDF by direct double integration (outer integral over
the chi-distributed scale, inner over the range of standard normals), both
implemented here on numpy alone. The normal CDF inside the double integral
is W. J. Cody's rational Chebyshev approximation (Math. Comp. 1969), the
algorithm behind R's ``pnorm``, vectorised; its absolute error is at most
about 2e-16, far below the quadrature's.
Both integrals use panelled 16-node Gauss-Legendre rules sized to an
absolute accuracy of about 2e-10: a fixed 128-node normal grid, and a scale
grid of 96 nodes from df = 27 on, where the chi density is narrow, or 384
nodes below.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from ._numpy import np
from .errors import UndefinedResultError, ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-run, per-request metric scores on a rectangular grid."""

    runs: tuple[str, ...]
    requests: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(self, "requests", tuple(self.requests))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.runs), len(self.requests)):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"{len(self.runs)} runs x {len(self.requests)} requests"
            )
        if np.isnan(values).any():
            raise ValidationError("score matrix has missing cells")

    def row(self, tag: str) -> np.ndarray:
        return self.values[self.runs.index(tag)]


# --- elementary distribution machinery -------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (Lentz's method).
    max_iter = 300
    eps = 3e-14
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t via the incomplete beta."""
    if df < 1:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired t-test p-value.

    Degenerate zero-variance differences resolve to p = 1 when the means
    are equal and to the p = 0 floor when they are not (an infinite-t
    sentinel rather than a numerical blowup).
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValidationError(f"paired samples differ in length: {av.shape} vs {bv.shape}")
    n = av.size
    if n < 2:
        raise ValidationError(f"need at least 2 paired observations, got {n}")
    d = av - bv
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t = mean / (sd / math.sqrt(n))
    return t_two_sided_p(t, n - 1)


def binomial_sign_test(wins_first: int, wins_second: int) -> float:
    """Exact two-sided binomial test at p = 1/2 over decisive pairs.

    Callers drop ties before invoking this; a comparison with no decisive
    pairs has no defined p-value.
    """
    if wins_first < 0 or wins_second < 0:
        raise ValidationError("win counts must be non-negative")
    n = wins_first + wins_second
    if n == 0:
        raise UndefinedResultError("no decisive pairs to test")
    lo = min(wins_first, wins_second)
    tail = sum(math.comb(n, i) for i in range(lo + 1))
    # p = min(1, 2 * tail / 2^n), kept exact until the final division.
    num = 2 * tail
    den = 1 << n
    return 1.0 if num >= den else num / den


def holm_bonferroni(p_values: Sequence[float]) -> list[float]:
    """Step-down Holm adjustment, returned in the original order."""
    ps = list(p_values)
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p-values must lie in [0, 1], got {p}")
    order = sorted(range(len(ps)), key=lambda i: ps[i])
    adjusted = [0.0] * len(ps)
    running = 0.0
    n = len(ps)
    for rank, idx in enumerate(order):
        scaled = min(1.0, ps[idx] * (n - rank))
        running = max(running, scaled)
        adjusted[idx] = running
    return adjusted


# --- studentized range ------------------------------------------------------

@cache
def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(16)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss-Legendre nodes and weights on every panel between edges."""
    base_x, base_w = _legendre_nodes()
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


# Coefficients of Cody's three rational approximations, as in R's pnorm:
# |t| <= 0.67448975 (the upper quartile), |t| <= sqrt(32), and beyond.
_CODY_A = (2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
           18154.981253343561249, 0.065682337918207449113)
_CODY_B = (47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
           45507.789335026729956)
_CODY_C = (0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
           597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
           11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8)
_CODY_D = (22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
           6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
           38912.003286093271411, 19685.429676859990727)
_CODY_P = (0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
           0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303)
_CODY_Q = (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
           0.00378239633202758244, 7.29751555083966205e-5)


def _cody_ratio(x: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """Cody's rational function in x, in R's Horner order (in place, which
    rounds the same): the numerator's leading coefficient comes last."""
    xnum = x * num[-1]
    xden = x.copy()
    for a, b in zip(num[:-2], den[:-1]):
        xnum += a
        xnum *= x
        xden += b
        xden *= x
    xnum += num[-2]
    xden += den[-1]
    xnum /= xden
    return xnum


def _normal_cdf(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF, vectorised, by Cody's approximation.

    The lower tail L(y) = Phi(-y) is computed once on y = |t| and reflected
    for t > 0. R's ``pnorm`` splits exp(-y^2/2) in two for relative accuracy
    deep in the tail; the quadrature needs only absolute accuracy, so one
    exponential serves. Beyond y = 40, where L underflows to 0 anyway, y is
    clamped so that y^2 cannot overflow. Absolute error against
    ``scipy.special.ndtr`` is at most 2.2e-16 on [-40, 40].
    """
    t = np.asarray(t, dtype=float)
    y = np.abs(t)
    lower = np.empty_like(y)
    near = y <= 0.67448975
    mid = ~near & (y <= math.sqrt(32.0))
    far = ~(near | mid)
    yn = y[near]
    lower[near] = 0.5 - yn * _cody_ratio(yn * yn, _CODY_A, _CODY_B)
    ym = y[mid]
    lower[mid] = np.exp(-0.5 * ym * ym) * _cody_ratio(ym, _CODY_C, _CODY_D)
    yf = np.minimum(y[far], 40.0)
    sq = yf * yf
    inv_sq = 1.0 / sq
    tail = (1.0 / math.sqrt(2.0 * math.pi) - inv_sq * _cody_ratio(inv_sq, _CODY_P, _CODY_Q)) / yf
    lower[far] = np.exp(-0.5 * sq) * tail
    return np.where(t > 0.0, 1.0 - lower, lower)


@cache
def _z_grid():
    """The fixed inner-integral grid with its normal density and its CDF.

    The CDF is ``_normal_cdf``, Cody's rational approximation, within
    2.2e-16 absolute of the exact value.
    """
    nodes, weights = _gauss_legendre(np.linspace(-8.5, 8.5, 9))
    phi = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi)
    return nodes, weights, phi, _normal_cdf(nodes)


def _int_power(base: np.ndarray, n: int) -> np.ndarray:
    """base ** n for an integer n >= 1 by repeated squaring.

    An elementwise ``pow`` takes a slow path wherever its result underflows,
    as it does for a quarter of the range integrand at 50 groups; this takes
    at most 2 log2(n) multiplications. The relative error stays below n ulps,
    far under the quadrature's.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# Rows of the (x, normal node) grid that _normal_range_cdf evaluates at once.
# Each float64 temporary then takes 32 KB. Whole grids of 96 or 384 rows make
# temporaries of 98 KB and more, several alive at once, which glibc's heap can
# hand back to the system after every call and fault in again on the next:
# about 7000 page faults in the 66 calls of a 12-run `compare --hsd`, against
# 0-30 at 32 rows, where the extra blocks cost less than the faults did.
_RANGE_BLOCK_ROWS = 32


def _normal_range_cdf(x: np.ndarray, groups: int) -> np.ndarray:
    """P(range of `groups` iid standard normals <= x), vectorized over x.

    Each row is reduced on its own, so evaluating the grid in blocks of
    rows gives the same bits as evaluating it whole.
    """
    z_nodes, z_weights, z_phi, z_cdf = _z_grid()
    x = np.asarray(x, dtype=float)
    vals = np.empty(len(x))
    for lo in range(0, len(x), _RANGE_BLOCK_ROWS):
        rows = slice(lo, lo + _RANGE_BLOCK_ROWS)
        inner = z_cdf[None, :] - _normal_cdf(z_nodes[None, :] - x[rows, None])
        np.clip(inner, 0.0, None, out=inner)
        vals[rows] = groups * np.sum(z_weights * z_phi * _int_power(inner, groups - 1), axis=1)
    return np.clip(vals, 0.0, 1.0)


def _scale_edges(q: float, df: int) -> np.ndarray:
    """Panel edges for the outer integral over the scale s."""
    spread = 12.0 / math.sqrt(df)
    lo = max(1e-9, 1.0 - spread)
    hi = min(8.0, 1.0 + spread) if df >= 4 else 8.0
    if df >= 27:
        return np.linspace(lo, hi, 7)
    # The normal range CDF at q*s does nearly all of its climb from 0 to 1
    # below s = 10/q, and for small df the chi density there is large, so
    # that stretch gets half of the panels however large q is.
    cut = 10.0 / q
    if not lo < cut < hi:
        return np.linspace(lo, hi, 25)
    return np.concatenate([np.linspace(lo, cut, 13), np.linspace(cut, hi, 13)[1:]])


def studentized_range_cdf(q: float, groups: int, df: int) -> float:
    """CDF of the studentized range statistic by double integration.

    The scale s = sqrt(chi2_df / df) is integrated over a grid concentrated
    around 1 (width shrinks as 1/sqrt(df)); at each scale node the inner
    integral is the CDF of the plain normal range at q*s. The scale grid
    has 6 panels from df = 27 on, where the chi density is narrow, and 24
    below, half of them under s = 10/q. Absolute error against
    ``scipy.stats.studentized_range`` is about 2e-10 at most for 2 to 50
    groups and every df, so differences below that level are noise.
    """
    if groups < 2:
        raise ValidationError(f"need at least 2 groups, got {groups}")
    if df < 1:
        raise ValidationError(f"degrees of freedom must be positive, got {df}")
    if q <= 0.0:
        return 0.0
    s_nodes, s_weights = _gauss_legendre(_scale_edges(q, df))
    half_df = df / 2.0
    ln_norm = math.log(2.0) + half_df * math.log(half_df) - math.lgamma(half_df)
    log_density = ln_norm + (df - 1) * np.log(s_nodes) - half_df * s_nodes**2
    density = np.exp(log_density)
    inner = _normal_range_cdf(q * s_nodes, groups)
    return float(min(1.0, np.sum(s_weights * density * inner)))


def tukey_hsd(matrix: ScoreMatrix) -> np.ndarray:
    """Pairwise p-values from Tukey's HSD on a two-way (run, request) model.

    Residual variance comes from the additive run + request decomposition
    with (R-1)(Q-1) degrees of freedom. Zero residual variance degenerates
    cleanly: equal run means give p = 1, unequal means give p = 0. "Zero"
    and "equal" hold up to rounding, 16 ulps of the largest magnitude in the
    matrix, so that offsets such as ``+ 0.2`` that are inexact in binary do
    not leave a residual of 1e-32 to be read as a real variance.

    Each pair costs one ``studentized_range_cdf`` call, accurate to about
    2e-10 absolute, so a p-value below that level is quadrature noise.
    """
    values = matrix.values
    n_runs, n_requests = values.shape
    if n_runs < 2 or n_requests < 2:
        raise ValidationError("Tukey HSD needs at least 2 runs and 2 requests")
    run_means = values.mean(axis=1)
    request_means = values.mean(axis=0)
    grand = values.mean()
    resid = values - run_means[:, None] - request_means[None, :] + grand
    df = (n_runs - 1) * (n_requests - 1)
    mse = float((resid**2).sum()) / df
    rounding = 16.0 * np.finfo(float).eps * float(np.abs(values).max())
    p = np.ones((n_runs, n_runs))
    if mse <= rounding**2:
        logger.warning("zero residual variance; HSD p-values are degenerate")
        for i in range(n_runs):
            for j in range(i + 1, n_runs):
                equal = abs(run_means[i] - run_means[j]) <= rounding
                p[i, j] = p[j, i] = 1.0 if equal else 0.0
        return p
    se = math.sqrt(mse / n_requests)
    for i in range(n_runs):
        for j in range(i + 1, n_runs):
            q = abs(run_means[i] - run_means[j]) / se
            p[i, j] = p[j, i] = 1.0 - studentized_range_cdf(q, n_runs, df)
    return p

