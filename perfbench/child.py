"""One measurement in a fresh interpreter; prints one JSON object as its last line.

    python perfbench/child.py setup <workload> <seed>
    python perfbench/child.py run <workload> <seed> <out_dir> <trace 0|1>

`setup` times importing `epitrace.runner`, parsing the workload config and
`runner.build_context`. `run` times one `runner.run` call, which writes the
artifacts to <out_dir>, and splits it at the first edge fetch into ingest and
analysis; with trace 1 it also wraps every layer (see spans.py).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# epitrace (and spans.py, which imports it) is imported inside the functions,
# so that `setup` times the import itself.
import workloads

ARTIFACTS = ("suspicions.json", "scores.json", "pccont.json", "dag.json")


def setup(root: Path, workload: str, seed: int) -> dict:
    start = time.perf_counter()
    from epitrace import runner
    from epitrace.world import ScenarioConfig

    fields, faults = workloads.scenario(root, workload, seed)
    runner.build_context(ScenarioConfig.from_dict(fields), runner.parse_faults(faults))
    return {"setup_s": time.perf_counter() - start}


def run_once(config, faults: str | None, out_dir: Path, tracer=None) -> dict:
    """Time one `runner.run`; with a `spans.Tracer`, also check and return its per-layer metrics."""
    from epitrace import runner

    import spans

    mark = spans.FetchMark()
    with mark.installed(), tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        report = runner.run(config, out_dir, faults)
        end = time.perf_counter()
    result = {
        "run_s": end - start,
        "ingest_s": mark.first - start,
        "analysis_s": end - mark.first,
        "ok": report.ok,
        "counts": report.counts,
        "digests": {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS},
    }
    if tracer is not None:
        tracer.check(report)
        result["layers"] = tracer.metrics(end - start)
    return result


def run(root: Path, workload: str, seed: int, out_dir: Path, traced: bool) -> dict:
    from epitrace.world import ScenarioConfig

    import spans

    fields, faults = workloads.scenario(root, workload, seed)
    result = run_once(ScenarioConfig.from_dict(fields), faults, out_dir, spans.Tracer() if traced else None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux
    return result


def main(argv: list[str]) -> None:
    root = Path.cwd()
    if argv[0] == "setup":
        result = setup(root, argv[1], int(argv[2]))
    elif argv[0] == "run":
        result = run(root, argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
