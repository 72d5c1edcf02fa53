"""Recall-oriented ranking evaluation.

Classical metrics in an exposure-times-normalization framework, the
bottom-position efficiency metric, bottom-up lexicographic preferences,
brute-force worst-case population oracles, exact tie-probability
combinatorics, seeded simulators, and a significance-testing pipeline,
plus parsers for standard run and qrels files and a CLI.
"""

from .analytics import (
    SimulationConfig,
    agreement_with_worst_case,
    degradation_study,
    degrade_judgments,
    orientation,
    simulate_pairs,
    tie_fractions,
    tie_probability,
)
from .core import (
    ExposureKind,
    ExposureModel,
    Imputation,
    JudgmentSet,
    Preference,
    RankedList,
    RelevantPositions,
    project_and_impute,
    project_runs,
)
from .errors import (
    EnumerationBudgetError,
    LexirankError,
    ParseError,
    UndefinedResultError,
    UnevaluableRequestError,
    ValidationError,
)
from .io import parse_qrels, parse_run_file, write_table
from .metrics import (
    MetricId,
    MetricKind,
    NormalizationModel,
    evaluate,
    metric_lexirecall,
    tse,
)
from .prefs import (
    UtilityVector,
    leximin_compare,
    lexirecall_compare,
    make_method,
    metric_compare,
    tse_compare,
)
from .robustness import (
    UserSubset,
    enumerate_users,
    optimal_ranker_worst_case,
    provider_utility,
    user_utility,
    worst_case_provider,
    worst_case_user,
)
from .stats import (
    ScoreMatrix,
    binomial_sign_test,
    holm_bonferroni,
    paired_t_test,
    studentized_range_cdf,
    tukey_hsd,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationBudgetError",
    "ExposureKind",
    "ExposureModel",
    "Imputation",
    "JudgmentSet",
    "LexirankError",
    "MetricId",
    "MetricKind",
    "NormalizationModel",
    "ParseError",
    "Preference",
    "RankedList",
    "RelevantPositions",
    "ScoreMatrix",
    "SimulationConfig",
    "UndefinedResultError",
    "UnevaluableRequestError",
    "UserSubset",
    "UtilityVector",
    "ValidationError",
    "agreement_with_worst_case",
    "binomial_sign_test",
    "degradation_study",
    "degrade_judgments",
    "enumerate_users",
    "evaluate",
    "holm_bonferroni",
    "leximin_compare",
    "lexirecall_compare",
    "make_method",
    "metric_compare",
    "metric_lexirecall",
    "optimal_ranker_worst_case",
    "orientation",
    "paired_t_test",
    "parse_qrels",
    "parse_run_file",
    "project_and_impute",
    "project_runs",
    "provider_utility",
    "simulate_pairs",
    "studentized_range_cdf",
    "tie_fractions",
    "tie_probability",
    "tse",
    "tse_compare",
    "tukey_hsd",
    "user_utility",
    "worst_case_provider",
    "worst_case_user",
    "write_table",
]
