"""Pin the analysis-artifact digests of every workload's inputs at the default seed.

    python3 perfbench/pin.py

Run from the root of a checkout whose outputs are known to be right; writes
perfbench/pinned.json, which run.py checks every run at a pinned scenario seed
against.
"""

from __future__ import annotations

import json
import shutil
import time

import run
import workloads


def main() -> None:
    seed = workloads.load_spec()["default_seed"]
    digests: dict[str, dict[str, dict]] = {}
    for workload in workloads.names():
        for scenario_seed in workloads.inputs(workload, seed):
            out_dir = run.WORK_DIR / f"pin-{workload}-{scenario_seed}"
            try:
                args = ["run", workload, str(scenario_seed), str(out_dir), "0"]
                result = run.spawn(args, time.monotonic() + run.TIME_LIMIT_S)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            found = run.problems(result, None)
            if found:
                raise SystemExit(f"{workload} at scenario seed {scenario_seed}: {found}")
            digests.setdefault(workload, {})[str(scenario_seed)] = result["digests"]
            print(workload, scenario_seed, result["digests"])
    (run.HERE / "pinned.json").write_text(json.dumps({"seed": seed, "digests": digests}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
