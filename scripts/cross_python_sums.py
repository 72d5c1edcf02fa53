#!/usr/bin/env python3
"""Check that metric scores have the same bits under every local Python.

Usage, from the repository root:

    python3 scripts/cross_python_sums.py [INTERPRETER ...]

The pure-Python modules ``core.py``, ``errors.py`` and ``metrics.py`` are
copied into a temporary package, so interpreters without numpy can import
them. A seeded sample of 3000 position vectors (m from 5 to 200 in a
corpus of 10^6) is scored with ``metrics.evaluate`` under this interpreter
and under each INTERPRETER, and the ``repr`` of every score is compared.
The generic summation form, ``robustness.user_utility``, needs numpy and is
pinned to a left-to-right reference by the test suite instead.
Without arguments, every ``python3.N`` on PATH (pyenv's shims excepted) and
every pyenv version from 3.10 on is tried, each once; one that cannot run the
modules is reported and skipped.
The exit status is 1 when any score differs. The test suite runs it under the
local interpreters that lack numpy, and skips that test when there is none.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PURE_MODULES = ("core.py", "errors.py", "metrics.py")
PACKAGE = "lexirank_pure"
SRC = Path(__file__).resolve().parent.parent / "src" / "lexirank"
CORPUS_SIZE = 10**6
VECTORS = 3000
SEED = 20231
METRICS = ("AP", "NDCG", "rbp:0.8", "RR", "recall@1000", "RPrecision", "TSE", "tse:log2")


def score(package_parent: str) -> None:
    """Worker: read vectors as JSON on stdin, write score reprs on stdout."""
    sys.path.insert(0, package_parent)
    core = importlib.import_module(f"{PACKAGE}.core")
    metrics = importlib.import_module(f"{PACKAGE}.metrics")

    vectors = [core.RelevantPositions.from_positions(v, CORPUS_SIZE) for v in json.load(sys.stdin)]
    out = {}
    for name in METRICS:
        metric = metrics.MetricId.parse(name)
        out[name] = [repr(metrics.evaluate(metric, rp)) for rp in vectors]
    json.dump({"version": sys.version.split()[0], "scores": out}, sys.stdout)


def sample() -> list[list[int]]:
    rng = random.Random(SEED)
    return [
        sorted(rng.sample(range(1, CORPUS_SIZE + 1), rng.randint(5, 200))) for _ in range(VECTORS)
    ]


def local_interpreters() -> list[str]:
    search = os.environ.get("PATH", os.defpath)
    versions: list[str] = []
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        for minor in range(10, 20):
            versions += sorted(glob.glob(os.path.join(root, "versions", f"3.{minor}.*", "bin", "python3")))
        # A shim only dispatches to one of those versions or to a later PATH
        # entry, and fails when several versions provide the same command.
        shims = os.path.realpath(os.path.join(root, "shims"))
        search = os.pathsep.join(d for d in search.split(os.pathsep) if os.path.realpath(d) != shims)
    found = [shutil.which(f"python3.{minor}", path=search) for minor in range(10, 20)] + versions
    this = os.path.realpath(sys.executable)
    paths = dict.fromkeys(os.path.realpath(p) for p in found if p)
    return [p for p in paths if p != this]


def run(interpreter: str, package_parent: str, vectors_json: str) -> dict | str:
    proc = subprocess.run(
        [interpreter, __file__, "--worker", package_parent],
        input=vectors_json,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        lines = (proc.stderr or proc.stdout).strip().splitlines()
        return lines[-1] if lines else f"exit status {proc.returncode}"
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("interpreters", nargs="*", help="default: local python3.N and pyenv")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        score(args.worker)
        return 0

    vectors_json = json.dumps(sample())
    with tempfile.TemporaryDirectory() as parent:
        os.mkdir(os.path.join(parent, PACKAGE))
        Path(parent, PACKAGE, "__init__.py").write_text("")
        for name in PURE_MODULES:
            shutil.copy(SRC / name, os.path.join(parent, PACKAGE, name))
        reference = run(sys.executable, parent, vectors_json)
        if isinstance(reference, str):
            print(f"reference {sys.executable} failed: {reference}")
            return 2
        print(f"reference: Python {reference['version']} ({sys.executable}), {VECTORS} vectors")
        differing = 0
        for interpreter in args.interpreters or local_interpreters():
            result = run(interpreter, parent, vectors_json)
            if isinstance(result, str):
                print(f"skipped {interpreter}: {result}")
                continue
            counts = {
                name: sum(a != b for a, b in zip(reference["scores"][name], result["scores"][name]))
                for name in reference["scores"]
            }
            differing += sum(counts.values())
            detail = ", ".join(f"{name} {n}" for name, n in counts.items())
            print(f"Python {result['version']} ({interpreter}): {sum(counts.values())} differing ({detail})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
