"""Command-line front end: run scenarios, drive attacks, audit artifacts."""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import click

from .artifacts import DAG_DOT
from .attacks import attack_suite as run_attack_suite
from .errors import ConfigurationError, EpitraceError, ValidationError
from .ledger import load_jsonl, verify_ledger
from .runner import run as run_scenario
from .world import ScenarioConfig


def _load_config(path: str, seed: int | None) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config is not UTF-8 text: {exc}") from exc
    config = ScenarioConfig.from_json(text)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config


@click.group()
def main() -> None:
    """Deterministic contact-tracing infrastructure simulator."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Scenario JSON file.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False), help="Directory for run artifacts.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--faults", default=None, help="Fault spec, e.g. vault:2=byzantine,vault:3=crashed.")
def run(config_path: str, out_dir: str, seed: int | None, faults: str | None) -> None:
    """Run the full pipeline and write report + artifacts."""
    started = time.perf_counter()
    try:
        config = _load_config(config_path, seed)
        Path(out_dir).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the run, not after it
        report = run_scenario(config, out_dir, faults)
    except (EpitraceError, OSError) as exc:
        click.echo(f"run aborted: {exc}", err=True)
        sys.exit(2)
    click.echo(report.summary_text(), nl=False)
    click.echo(f"wall time: {time.perf_counter() - started:.2f}s", err=True)
    sys.exit(0 if report.ok else 1)


@main.command("attack-suite")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None)
def attack_suite(config_path: str, seed: int | None) -> None:
    """Run the adversarial drivers; every attack must fail safely."""
    try:
        config = _load_config(config_path, seed)
        results = run_attack_suite(config)
    except EpitraceError as exc:
        click.echo(f"attack suite aborted: {exc}", err=True)
        sys.exit(2)
    width = max(len(r.name) for r in results)
    for r in results:
        click.echo(f"{r.name:<{width}}  {'SAFE' if r.safe else 'BREACHED'}  {r.detail}")
    sys.exit(0 if all(r.safe for r in results) else 1)


@main.command("verify-ledger")
@click.argument("ledger_path", type=click.Path(exists=True, dir_okay=False))
def verify_ledger_cmd(ledger_path: str) -> None:
    """Check the hash chain of an exported ledger file."""
    try:
        entries = load_jsonl(Path(ledger_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, ValidationError) as exc:
        click.echo(f"ledger unreadable: {exc}", err=True)
        sys.exit(1)
    ok = verify_ledger(entries)
    click.echo(f"{len(entries)} entries: {'VALID' if ok else 'BROKEN CHAIN'}")
    sys.exit(0 if ok else 1)


@main.command("export-dag")
@click.option("--run-dir", "run_dir", required=True, type=click.Path(exists=True, file_okay=False), help="Directory of a completed run.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False), help="Output DOT file (default: stdout).")
def export_dag(run_dir: str, out_path: str | None) -> None:
    """Export a run's contamination DAG as DOT graph text: its DOT file, byte for byte."""
    try:
        data = (Path(run_dir) / DAG_DOT).read_bytes()
        if out_path:
            Path(out_path).write_bytes(data)
    except OSError as exc:  # no DOT file in the run directory, or no directory for --out
        click.echo(f"export aborted: {exc}", err=True)
        sys.exit(1)
    if out_path:
        click.echo(f"wrote {out_path}")
    else:
        click.echo(data, nl=False)


if __name__ == "__main__":
    main()
