"""Seeded, download-free benchmark of the lexirank command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {trec-deep,trec-wide,simulate} \
        --seed N --seconds S --trace {0,1}

The seed fixes the generated collection and every seeded step. Each step
runs as a fresh ``python -m lexirank`` process (the oracle step as
``perfbench/oracle.py``), one at a time, with the environment pinned in
``step_env`` and its output written to a file. Rounds of all eight steps
repeat while the next round is expected to end within ``--seconds``, at
least three times, and each step reports the median of its rounds. A bare
``import lexirank.cli`` opens every round and gives the set-up time. Every
output is checked against truth the benchmark computes itself and must be
byte-identical across rounds.

Times are scaled to a reference machine speed. The host's speed drifts by
tens of percent within seconds, so a fixed pure-Python probe loop is timed
before and after every process, and each wall time is multiplied by
``PROBE_REFERENCE_S`` over the mean of its two probes. The raw medians are
printed alongside in the info line.

With ``--trace 1`` each round also runs every step under
``perfbench/tracing.py``, and the per-layer metrics come from those traced
runs, next to the untraced time of the same steps. Inputs live in
``.perfbench_work/`` and are removed at exit. The last line of standard
output is the JSON result; the line before it records the inputs' digest,
the machine and the source size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import synth
import tracing
from workloads import STEPS, WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
STEP_TIMEOUT_S = 120
LAST_ROUND_START_S = 100  # keeps a run far inside its 180 s limit
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.020  # probe time of the machine the scaled figures describe


def step_env() -> dict[str, str]:
    """Environment of every step: no thread knob, one BLAS thread, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k not in ("LEXIRANK_THREADS", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return perf_counter() - start


class Sample(NamedTuple):
    wall_s: float
    scaled_s: float
    rss_mb: float
    code: int
    stderr_tail: str


class Runner:
    """Starts one process at a time; records wall time, scaled time and peak RSS."""

    def __init__(self, logs: Path) -> None:
        self.env = step_env()
        self.logs = logs
        self.count = 0
        self.last_probe = probe()

    def run(self, argv: list[str]) -> Sample:
        self.count += 1
        log = self.logs / f"{self.count}.stderr"
        with open(log, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                env=self.env,
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = perf_counter() - start
        before, self.last_probe = self.last_probe, probe()
        scaled = wall * PROBE_REFERENCE_S / ((before + self.last_probe) / 2)
        tail = log.read_text(errors="replace")[-400:] if proc.returncode else ""
        return Sample(wall, scaled, usage.ru_maxrss / 1024.0, proc.returncode, tail)


def prepare(workload_name: str, seed: int, work: Path) -> Inputs:
    workload = WORKLOADS[workload_name]
    collection = synth.generate(workload.collection, seed, work / "collection")
    sim = workload.simulation
    vectors = synth.oracle_vectors(sim.oracle_vectors, sim.oracle_m, sim.oracle_corpus, seed)
    oracle_path = work / "oracle_vectors.json"
    oracle_path.write_text(json.dumps({"corpus_size": sim.oracle_corpus, "vectors": vectors}))
    return Inputs(workload, seed, collection, oracle_path, vectors)


def step_argv(step, inputs: Inputs, out: Path, trace_json: Path | None) -> list[str]:
    args = step.argv(inputs, out)
    if trace_json is not None:
        target = "oracle" if step.oracle else "cli"
        return [str(HERE / "tracing.py"), str(trace_json), target, *args]
    return [str(HERE / "oracle.py"), *args] if step.oracle else ["-m", "lexirank", *args]


def digest(path: Path) -> str | None:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() if path.exists() else None


def trace_problems(step, inputs: Inputs, trace: dict, output: str) -> list[str]:
    """Traced call counts against the counts the workload shape implies.

    Layer self times are disjoint parts of the step, so they may not add up
    to more than its traced wall time; the rest is ``cli.self_s``.
    """
    expected = step.expected(inputs, output)
    observed = {name: n for name, n in trace["counts"].items() if name != "prefs.ties"}
    problems = [
        f"{step.metric}: traced {name} = {observed.get(name, 0)}, expected {expected.get(name, 0)}"
        for name in sorted(set(expected) | set(observed))
        if observed.get(name, 0) != expected.get(name, 0)
    ]
    if sum(trace["self_s"].values()) > trace["wall_s"]:
        problems.append(f"{step.metric}: layer self times exceed the traced wall time")
    return problems


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer values of one traced round (one trace per step)."""
    counts: dict[str, float] = {}
    self_s: dict[str, float] = {}
    cli_self = 0.0
    for trace in traces:
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, s in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        cli_self += trace["wall_s"] - sum(trace["self_s"].values())
    out: dict[str, float] = {}
    prefs_calls = 0
    for module, functions in tracing.TARGETS.items():
        out[f"{module}.self_s"] = 0.0
        for function in functions:
            name = f"{module}.{function}"
            out[f"{name}.calls"] = counts.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{module}.self_s"] += self_s.get(name, 0.0)
            if module == "prefs":
                prefs_calls += counts.get(name, 0)
    for extra in (
        "io.parse_run_file.lines",
        "io.write_table.rows",
        "analytics.simulate_pairs.pairs",
        "robustness.subsets_enumerated",
    ):
        out[extra] = counts.get(extra, 0)
    parse_s = out["io.parse_run_file.self_s"]
    lines = out["io.parse_run_file.lines"]
    out["io.parse_run_file.lines_per_s"] = lines / parse_s if parse_s else 0.0
    out["prefs.tie_share"] = counts.get("prefs.ties", 0) / prefs_calls if prefs_calls else 0.0
    out["cli.self_s"] = cli_self
    out["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return out


@dataclass
class Measurements:
    rounds: int = 0
    attempted: int = 0
    failed: set = field(default_factory=set)  # (step metric, round, traced)
    problems: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # Samples of a bare package import
    steps: dict = field(default_factory=lambda: {s.metric: [] for s in STEPS})
    traced: dict = field(default_factory=lambda: {s.metric: [] for s in STEPS})
    round_walls: list = field(default_factory=list)  # scaled sum of a round's steps
    round_layers: list = field(default_factory=list)

    def fail(self, key, problems) -> None:
        self.problems.extend(problems)
        self.failed.add(key)


def run_step(step, inputs: Inputs, runner: Runner, work: Path, m: Measurements, with_trace: bool):
    """Run one step once; return its trace, if any. Keeps round 0's untraced output."""
    m.attempted += 1
    key = (step.metric, m.rounds, with_trace)
    out = work / f"{step.metric}-{m.rounds}-{int(with_trace)}.{step.suffix}"
    trace_json = work / f"{step.metric}-{m.rounds}.trace.json" if with_trace else None
    sample = runner.run(step_argv(step, inputs, out, trace_json))
    (m.traced if with_trace else m.steps)[step.metric].append(sample)
    if sample.code:
        m.fail(key, [f"{step.metric} round {m.rounds} exited {sample.code}: {sample.stderr_tail}"])
        return None
    got = digest(out)
    reference = digest(work / f"{step.metric}-0-0.{step.suffix}")
    if got is None or got != reference:
        m.fail(key, [f"{step.metric} round {m.rounds} output differs from round 0 or is missing"])
        return None
    trace = None
    if with_trace:
        trace = json.loads(trace_json.read_text())
        found = trace_problems(step, inputs, trace, out.read_text())
        if found:
            m.fail(key, found)
    if m.rounds or with_trace:
        out.unlink()
    return trace


def measure(args, inputs: Inputs, runner: Runner, work: Path) -> Measurements:
    traced = bool(args.trace)
    m = Measurements()
    start = perf_counter()
    # Start a round only while it is expected to end within --seconds.
    while m.rounds < (1 if traced else MIN_ROUNDS) or (
        (perf_counter() - start) * (m.rounds + 1) / m.rounds <= args.seconds
    ):
        if m.rounds and perf_counter() - start > LAST_ROUND_START_S:
            break
        if not traced:
            sample = runner.run(["-c", "import lexirank.cli"])
            m.setup.append(sample)
            if sample.code:
                m.problems.append(f"import lexirank.cli exited {sample.code}: {sample.stderr_tail}")
        traces = []
        for step in STEPS:
            for with_trace in (False, True) if traced else (False,):
                trace = run_step(step, inputs, runner, work, m, with_trace)
                if trace is not None:
                    traces.append(trace)
        m.round_walls.append(sum(m.steps[s.metric][-1].scaled_s for s in STEPS))
        if len(traces) == len(STEPS):
            traced_wall = sum(m.traced[s.metric][-1].scaled_s for s in STEPS)
            m.round_layers.append(layer_metrics(traces, m.round_walls[-1], traced_wall))
        m.rounds += 1

    for step in STEPS:
        out = work / f"{step.metric}-0-0.{step.suffix}"
        if out.exists():
            found = checks.CHECKS[step.metric](inputs, out.read_text())
            if found:
                m.fail((step.metric, 0, False), found)
    return m


def machine() -> dict[str, object]:
    from importlib.metadata import version

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            model = next(models, "")
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "lexirank").glob("*.py"))
        ),
    }


def _median(samples, attr: str) -> float:
    return statistics.median(getattr(s, attr) for s in samples)


def report(args, spec: dict, inputs: Inputs, m: Measurements) -> None:
    if args.trace:
        metrics = spec["per_layer"]
        values = {
            x["name"]: statistics.median(layers[x["name"]] for layers in m.round_layers)
            if m.round_layers
            else 0.0
            for x in metrics
        }
    else:
        metrics = spec["end_to_end"]
        values = {step.metric: _median(m.steps[step.metric], "scaled_s") for step in STEPS}
        values.update(
            wall_s=statistics.median(m.round_walls),
            setup_s=_median(m.setup, "scaled_s"),
            peak_rss_mb=max(s.rss_mb for samples in m.steps.values() for s in samples),
        )

    c = inputs.collection
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": m.rounds,
        "raw_median_wall_s": {
            name: _median(samples, "wall_s")
            for name, samples in {**m.steps, "setup_s": m.setup}.items()
            if samples
        },
        "collection": {
            "runs": c.shape.runs,
            "requests": c.shape.requests,
            "depth": c.shape.depth,
            "corpus_size": c.shape.corpus_size,
            "m_range": list(c.shape.m_range),
            "run_lines": c.shape.lines,
            "blake2b": c.digest,
        },
        "simulation": vars(inputs.workload.simulation),
        "machine": machine(),
        "problems": m.problems[:20],
    }
    for problem in m.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": not m.failed and not m.problems,
        "attempted": m.attempted,
        "failed": len(m.failed),
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in metrics},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexirank" / "__init__.py").is_file():
        print(f"error: no lexirank sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    try:
        inputs = prepare(args.workload, args.seed, work)
        measurements = measure(args, inputs, Runner(work / "logs"), work)
        report(args, spec, inputs, measurements)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
