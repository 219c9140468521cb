"""Tests of the benchmark harness itself, on a 12-phone, 120-minute scenario.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from epitrace import cep, runner
from epitrace.world import ScenarioConfig

import child
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "n_phones": 12,
    "duration_min": 120,
    "alert_minute": 90,
    "t_incub_min": 10,
    "t_incub_max": 40,
    "prune_every_min": 30,
    "seed": 7,
}
FAULTS = "vault:1=byzantine"


def tiny_config() -> ScenarioConfig:
    fields = json.loads((ROOT / "scenarios" / "small.json").read_text())
    fields.update(TINY)
    return ScenarioConfig.from_dict(fields)


def traced_run(out_dir) -> tuple[dict, spans.Tracer]:
    tracer = spans.Tracer()
    return child.run_once(tiny_config(), FAULTS, out_dir, tracer), tracer


@pytest.fixture(scope="module")
def two_traced_runs(tmp_path_factory):
    return [traced_run(tmp_path_factory.mktemp(f"run{i}")) for i in range(2)]


def test_every_span_fires_and_counts_match_the_report(two_traced_runs):
    (result, tracer), _ = two_traced_runs
    assert all(n > 0 for n in tracer.calls.values()), tracer.calls
    counts = result["counts"]
    assert tracer.counts["world.records"] == counts["pdrs_emitted"]
    assert tracer.calls["crypto.seal"] == counts["sets_pushed"]
    assert tracer.counts["edge.sets_pruned"] == counts["sets_pruned"] > 0
    assert tracer.calls["erasure.decode"] > tracer.calls["vault.read"]  # the Byzantine cloud forces parity decodes


def test_self_times_sum_to_at_most_the_run(two_traced_runs):
    for result, tracer in two_traced_runs:
        assert all(s >= 0.0 for s in tracer.self_s.values()), tracer.self_s
        assert sum(tracer.self_s.values()) <= result["run_s"]
        assert result["layers"]["runner.self_s"] >= 0.0


def test_two_runs_give_identical_counts(two_traced_runs):
    (first, first_tracer), (second, second_tracer) = two_traced_runs
    assert first_tracer.counts == second_tracer.counts
    assert first_tracer.calls == second_tracer.calls
    counted = [name for name in first["layers"] if not name.endswith("_s")]
    assert {n: first["layers"][n] for n in counted} == {n: second["layers"][n] for n in counted}


def test_wrappers_are_removed_after_the_run(two_traced_runs):
    assert not hasattr(cep.find_suspicions, "__wrapped__")
    assert not hasattr(cep.PdrIndex.__init__, "__wrapped__")


def test_a_silent_span_fails_loudly(tmp_path):
    report = runner.run(tiny_config(), tmp_path, FAULTS)
    with pytest.raises(spans.TraceError, match="cep.scan"):
        spans.Tracer().check(report)


def test_tampered_digest_counts_in_fail_ratio(monkeypatch, tmp_path):
    good = child.run_once(tiny_config(), FAULTS, tmp_path)
    tampered = dict(good, digests={**good["digests"], "dag.json": "0" * 64})
    monkeypatch.setattr(run, "spawn", fake_spawn(good, good, tampered))
    series = run.Series("small", seed=7, deadline=time.monotonic() + 60)
    assert series.run(traced=False, seed=7) is not None  # the first run at a scenario seed becomes its reference
    assert series.run(traced=False, seed=7) is not None
    assert series.run(traced=False, seed=7) is None
    assert (series.failed, series.attempted) == (1, 3)
    assert "dag.json digest differs" in series.errors[0]


def test_each_input_has_its_own_reference(monkeypatch, tmp_path):
    good = child.run_once(tiny_config(), FAULTS, tmp_path)
    other = dict(good, digests={**good["digests"], "dag.json": "0" * 64})
    monkeypatch.setattr(run, "spawn", fake_spawn(good, other, good, other))
    series = run.Series("small", seed=7, deadline=time.monotonic() + 60)
    first, second = series.inputs[:2]
    assert all(series.run(traced=False, seed=s) is not None for s in (first, second, first, second))
    assert series.failed == 0


def test_default_seed_is_checked_against_pinned_digests(monkeypatch, tmp_path):
    good = child.run_once(tiny_config(), FAULTS, tmp_path)
    series = run.Series("small", seed=json.loads((run.HERE / "pinned.json").read_text())["seed"], deadline=0.0)
    monkeypatch.setattr(run, "spawn", fake_spawn(*[good] * len(series.inputs)))
    assert len(series.references) == len(series.inputs)  # every input of the default seed is pinned
    for seed in series.inputs:
        assert series.run(traced=False, seed=seed) is None  # tiny digests are not the pinned small-workload digests
    assert series.failed == len(series.inputs)


def test_inputs_depend_only_on_the_seed():
    assert workloads.inputs("small", 7) == workloads.inputs("small", 7)
    assert workloads.inputs("small", 7)[0] == 7
    assert len(set(workloads.inputs("small", 7) + workloads.inputs("small", 8))) == 2 * len(workloads.inputs("small", 7))


def fake_spawn(*replies):
    """Stand-in for run.spawn that answers set-up requests and hands out `replies` to runs."""
    pending = iter(replies)
    return lambda args, deadline: {"setup_s": 0.5} if args[0] == "setup" else next(pending)


@pytest.mark.parametrize("trace", [False, True])
def test_each_mode_reports_every_declared_metric(monkeypatch, tmp_path, trace):
    plain = dict(child.run_once(tiny_config(), FAULTS, tmp_path / "plain"), peak_rss_mb=100.0)
    traced = dict(child.run_once(tiny_config(), FAULTS, tmp_path / "traced", spans.Tracer()), peak_rss_mb=100.0)
    series = run.Series("small", seed=7, deadline=time.monotonic() + 60)
    monkeypatch.setattr(run, "spawn", fake_spawn(plain, traced) if trace else fake_spawn(*[plain] * len(series.inputs)))
    samples = (run.per_layer if trace else run.end_to_end)(series, seconds=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} <= set(samples)
    assert series.failed == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
