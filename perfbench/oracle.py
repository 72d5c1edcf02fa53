"""Worst-case oracle step: no CLI subcommand reaches ``lexirank.robustness``.

Usage: python oracle.py VECTORS_JSON OUT_JSON

Reads ``{"corpus_size": D, "vectors": [[p1, ...], ...]}``, scores each
vector's worst-off user (AP normalization) and worst-off provider under
reciprocal exposure, and writes one JSON row per vector. Module attributes
are looked up at call time so that a tracer can wrap them.
"""

from __future__ import annotations

import json
import sys

from lexirank import core, io, metrics, robustness


def main(argv: list[str]) -> int:
    vectors_path, out_path = argv
    with open(vectors_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    D = spec["corpus_size"]
    exposure = core.ExposureModel.reciprocal()
    normalization = metrics.NormalizationModel.ap()
    rows = []
    for index, positions in enumerate(spec["vectors"]):
        rp = core.RelevantPositions.from_positions(positions, D)
        rows.append(
            {
                "vector": index,
                "user": robustness.worst_case_user(rp, exposure, normalization).value,
                "provider": robustness.worst_case_provider(rp, exposure).value,
            }
        )
    io.write_table(rows, ["vector", "user", "provider"], out_path, fmt="json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
