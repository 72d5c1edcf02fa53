"""Run one step with lexirank's public functions wrapped in timing spans.

Usage: python tracing.py OUT_JSON {cli|oracle} ARG...

Spans are recorded around calls into each module's public functions, from
outside the package: every module attribute bound to a traced function is
replaced, so names imported with ``from ... import`` and the callables that
``make_method`` hands out are traced too. A span's self time is its duration
minus the time of the spans it encloses; spans are totalled per name in
memory and written to OUT_JSON when the step ends, together with call counts
and a few work counters.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "io": ("parse_run_file", "parse_qrels", "write_table"),
    "core": ("project_and_impute",),
    "metrics": ("evaluate",),
    "prefs": ("lexirecall_compare", "tse_compare", "metric_compare"),
    "stats": (
        "tukey_hsd",
        "studentized_range_cdf",
        "paired_t_test",
        "binomial_sign_test",
        "holm_bonferroni",
    ),
    "analytics": (
        "simulate_pairs",
        "tie_fractions",
        "agreement_with_worst_case",
        "tie_probability",
        "degradation_study",
        "degrade_judgments",
    ),
    "robustness": ("worst_case_user", "worst_case_provider"),
}
GENERATORS = {"analytics.simulate_pairs"}


class Tracer:
    """Per-name call counts and self times of nested spans."""

    def __init__(self) -> None:
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._child_time: list[float] = []  # one entry per open span

    def span(self, name, fn, *args, **kwargs):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.self_s[name] += elapsed - self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed


def _count_work(tracer: Tracer, name: str, args, kwargs, result) -> None:
    if name == "io.parse_run_file":
        tracer.counts[name + ".lines"] += sum(r.depth for r in result.values())
    elif name == "io.write_table":
        tracer.counts[name + ".rows"] += len(args[0] if args else kwargs["rows"])
    elif name.startswith("prefs."):
        tracer.counts["prefs.ties"] += int(result.is_tie)
    elif name.startswith("robustness."):
        tracer.counts["robustness.subsets_enumerated"] += 2 ** args[0].m - 1


def _wrap(tracer: Tracer, name: str, fn):
    if name in GENERATORS:
        # Each next() is its own span, so time spent producing items is
        # charged here and not to the consumer that pulls them.
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            tracer.counts[name] += 1
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.span(name, next, items)
                except StopIteration:
                    return
                tracer.counts[name + ".pairs"] += 1
                yield item

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        result = tracer.span(name, fn, *args, **kwargs)
        _count_work(tracer, name, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every lexirank module attribute that names a traced function."""
    import lexirank.cli  # noqa: F401  (loads every package module)

    package = [m for n, m in sys.modules.items() if n == "lexirank" or n.startswith("lexirank.")]
    for module_name, functions in TARGETS.items():
        module = sys.modules[f"lexirank.{module_name}"]
        for function in functions:
            original = getattr(module, function, None)
            if original is None:
                continue  # the call-count check reports the missing calls
            wrapper = _wrap(tracer, f"{module_name}.{function}", original)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, target, *args = argv
    tracer = Tracer()
    install(tracer)
    if target == "cli":
        from lexirank.cli import main as entry
    else:
        from oracle import main as entry
    start = perf_counter()
    code = entry(args)
    wall = perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "counts": tracer.counts, "self_s": tracer.self_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
