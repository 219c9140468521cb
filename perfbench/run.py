"""epitrace benchmark: full `runner.run` time, split into ingest and analysis.

    python3 perfbench/run.py --workload small|dense150|retention|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement runs in a fresh
single-threaded interpreter (perfbench/child.py), one after another: a closed
loop with one client, so a batch job starts only after the previous one
returned. A benchmark seed stands for a few scenario seeds, the workload's
inputs (workloads.inputs): the seed itself and seeds derived from it. Untraced
runs cycle through the inputs, each at least once, and continue while the next
one fits in --seconds; each end-to-end metric is the median over all of them.
Traced runs use the benchmark seed itself.

--trace 0 reports the end-to-end metrics run_s, setup_s and peak_rss_mb, and
also shows ingest_s and analysis_s, the two parts of run_s split at the first
edge fetch. --trace 1 pairs an untraced run with a traced one and reports the
per-layer metrics of spans.py, that ingest/analysis split as runner.ingest_s
and runner.analysis_s, and trace.overhead_s.

Every run is checked: it fails if it raises, if report.ok is false, if the
fetched sets are not exactly the pushed minus the pruned ones, or if the
digests of suspicions.json, scores.json, pccont.json and dag.json differ from
pinned.json (the inputs of the default seed) or from the first run at the same
scenario seed in this invocation (other seeds). The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUPS_PER_RUN = 2  # spread over the whole measuring time, like the runs
TIME_LIMIT_S = 170.0  # every invocation must end within 180 s
WORK_DIR = Path(".bench_build") / "perfbench"

PER_RUN = ("run_s", "ingest_s", "analysis_s", "peak_rss_mb")  # setup_s is timed in runs of its own
EXTRA_UNITS = {"ingest_s": "s", "analysis_s": "s"}  # shown in the table, not bounded (see BENCHMARK.json)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py with `args` in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time limit reached before the run could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[:3]} exceeded the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:3]} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems(result: dict, reference: dict | None) -> list[str]:
    """Why one run's outputs are wrong; empty when they are right."""
    found = []
    if not result["ok"]:
        found.append("report.ok is false")
    counts = result["counts"]
    if counts["sets_fetched"] != counts["sets_pushed"] - counts["sets_pruned"]:
        found.append(f"fetched {counts['sets_fetched']} sets, expected pushed - pruned")
    if reference is not None:
        found.extend(f"{name} digest differs" for name, d in sorted(reference.items()) if result["digests"].get(name) != d)
    return found


class Series:
    """Runs of one workload at one benchmark seed, with the digests they are checked against."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.inputs = workloads.inputs(workload, seed)
        pinned = json.loads((HERE / "pinned.json").read_text())["digests"].get(workload, {})
        self.references = {s: pinned[str(s)] for s in self.inputs if str(s) in pinned}
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, traced: bool, seed: int) -> dict | None:
        """One run at scenario seed `seed`, checked against the pinned digests or the first run at that seed."""
        self.attempted += 1
        out_dir = WORK_DIR / f"{self.workload}-{seed}-{self.attempted}"
        try:
            result = spawn(["run", self.workload, str(seed), str(out_dir), "1" if traced else "0"], self.deadline)
        except ChildFailed as exc:
            self.errors.append(str(exc))
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        found = problems(result, self.references.get(seed))
        self.references.setdefault(seed, result["digests"])
        if found:
            self.errors.append(f"run {self.attempted} (scenario seed {seed}): " + "; ".join(found))
            return None
        return result

    def setup_times(self, count: int) -> list[float]:
        """Set-up times of `count` fresh interpreters; called after a run, which fills the bytecode cache."""
        times = []
        for _ in range(count):
            try:
                times.append(spawn(["setup", self.workload, str(self.seed)], self.deadline)["setup_s"])
            except ChildFailed as exc:
                self.attempted += 1
                self.errors.append(str(exc))
                break
        return times

    @property
    def failed(self) -> int:
        return len(self.errors)


def fits(started: float, seconds: float, lengths: list[float]) -> bool:
    """Whether one more run of the typical length still ends within the measuring time."""
    return time.monotonic() - started + statistics.median(lengths) <= seconds


def end_to_end(series: Series, seconds: float) -> dict[str, list[float]]:
    """Untraced runs cycling through the inputs, each input at least once, each followed by set-ups."""
    samples: dict[str, list[float]] = {name: [] for name in (*PER_RUN, "setup_s")}
    started, lengths = time.monotonic(), []
    while len(lengths) < len(series.inputs) or fits(started, seconds, lengths):
        t0 = time.monotonic()
        result = series.run(traced=False, seed=series.inputs[len(lengths) % len(series.inputs)])
        setups = series.setup_times(SETUPS_PER_RUN) if result is not None else []
        lengths.append(time.monotonic() - t0)
        if series.failed:
            break
        for name in PER_RUN:
            samples[name].append(result[name])
        samples["setup_s"].extend(setups)
    return samples


def per_layer(series: Series, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    plain, traced = [], []
    started, lengths = time.monotonic(), []
    while not lengths or fits(started, seconds, lengths):
        t0 = time.monotonic()
        base, result = series.run(traced=False, seed=series.seed), series.run(traced=True, seed=series.seed)
        lengths.append(time.monotonic() - t0)
        if base is None or result is None:
            break
        plain.append(base["run_s"])
        traced.append(result["run_s"])
        samples.setdefault("runner.ingest_s", []).append(base["ingest_s"])
        samples.setdefault("runner.analysis_s", []).append(base["analysis_s"])
        for name, value in result["layers"].items():
            samples.setdefault(name, []).append(value)
    if plain:
        samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Measure one workload, print its table and return its result object.

    The JSON object carries the metrics BENCHMARK.json declares for this mode;
    the table also shows what else was measured, such as ingest_s and
    analysis_s of untraced runs.
    """
    series = Series(workload, seed, deadline)
    samples = per_layer(series, seconds) if trace else end_to_end(series, seconds)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(Path("BENCHMARK.json").read_text())[kind]}
    baseline = json.loads((HERE / "baseline.json").read_text())[workload][kind]
    inputs = [seed] if trace else series.inputs
    print(f"workload {workload}, seed {seed} (scenario seeds {inputs}), {'traced' if trace else 'untraced'}: closed loop, 1 client, one run per fresh process")
    metrics = {}
    for name in [*units, *(n for n in samples if n not in units)]:
        values = samples.get(name)
        if not values:
            continue
        value, unit = statistics.median(values), units.get(name) or EXTRA_UNITS[name]
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        base = f"   baseline {baseline[name]:.6g}" if name in baseline else ""
        print(f"  {name:28s} {value:14.6g} {unit:6s} median of {len(values)}{base}")
    failed = series.failed
    print(f"  {'fail_ratio':28s} {failed / series.attempted:14.6g} {'ratio':6s} {failed} failed of {series.attempted} runs")
    for error in series.errors:
        print(f"  FAILED: {error}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": series.attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.names(), "all"])
    parser.add_argument("--seed", type=int, default=workloads.load_spec()["default_seed"])
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = ("BENCHMARK.json", "src/epitrace/runner.py", workloads.load_spec()["base_config"])
    missing = [p for p in needed if not Path(p).is_file()]
    if missing:
        print(f"run from the root of an epitrace checkout; missing {missing}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    chosen = workloads.names() if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(chosen)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace), deadline) for w in chosen}
    if len(chosen) == 1:
        out = results[chosen[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
