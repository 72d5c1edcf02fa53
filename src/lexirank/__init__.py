"""Recall-oriented ranking evaluation.

Classical metrics in an exposure-times-normalization framework, the
bottom-position efficiency metric, bottom-up lexicographic preferences,
brute-force worst-case population oracles, exact tie-probability
combinatorics, seeded simulators, and a significance-testing pipeline,
plus parsers for standard run and qrels files and a CLI.
"""

from ._numpy import lazy_import

# Each module and the names the package exports from it. Every module is
# registered here and runs on its first attribute access, so ``import
# lexirank.cli`` puts them all in ``sys.modules`` and a command runs only
# the modules it calls.
_EXPORTS = {
    "analytics": (
        "SimulationConfig", "agreement_with_worst_case", "degradation_study", "degrade_judgments",
        "orientation", "simulate_pairs", "tie_fractions", "tie_probability",
    ),
    "core": (
        "ExposureKind", "ExposureModel", "Imputation", "JudgmentSet", "Preference", "RankedList",
        "RelevantPositions", "project_and_impute", "project_runs",
    ),
    "errors": (
        "EnumerationBudgetError", "LexirankError", "ParseError", "UndefinedResultError",
        "UnevaluableRequestError", "ValidationError",
    ),
    "io": ("parse_qrels", "parse_run_file", "write_table"),
    "metrics": (
        "MetricId", "MetricKind", "NormalizationModel", "evaluate", "metric_lexirecall", "tse",
    ),
    "prefs": (
        "UtilityVector", "leximin_compare", "lexirecall_compare", "make_method", "metric_compare",
        "tse_compare",
    ),
    "robustness": (
        "UserSubset", "enumerate_users", "optimal_ranker_worst_case", "provider_utility",
        "user_utility", "worst_case_provider", "worst_case_user",
    ),
    "stats": (
        "binomial_sign_test", "holm_bonferroni", "paired_t_test", "studentized_range_cdf",
        "tukey_hsd",
    ),
}

for _module in _EXPORTS:
    globals()[_module] = lazy_import(f"{__name__}.{_module}")
del _module, lazy_import

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    # Looked up in its module on every access and not cached, so a module
    # attribute rebound after import shows through the package too.
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() - {"__getattr__", "__dir__"} | set(__all__))
