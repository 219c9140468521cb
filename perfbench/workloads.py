"""Benchmark workloads: the bundled scenario plus per-workload overrides.

A benchmark seed stands for a few scenario seeds, its inputs: the seed itself
and seeds derived from it. The program only ever sees one resulting config and
fault spec at a time.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def names() -> list[str]:
    return list(load_spec()["workloads"])


def inputs(workload: str, seed: int) -> list[int]:
    """Scenario seeds of one workload at one benchmark seed; the first is the seed itself."""
    count = load_spec()["workloads"][workload]["inputs"]
    return [seed, *(Random(f"perfbench/{seed}/{i}").randrange(2**31) for i in range(1, count))]


def scenario(root: Path, workload: str, seed: int) -> tuple[dict, str | None]:
    """Config fields and fault spec of one workload at one scenario seed, read from the checkout at `root`."""
    spec = load_spec()
    entry = spec["workloads"][workload]
    fields = json.loads((root / spec["base_config"]).read_text())
    fields.update(entry["overrides"])
    fields["seed"] = seed
    return fields, entry["faults"]
