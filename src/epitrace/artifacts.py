"""Every byte a finished run writes: its report, the four analysis files the vault round-trips,
the DAG's DOT text, the hotspot and trace tables, and the one writer, which writes each file as
the bytes built here (UTF-8 text with `\n` line ends, whatever the platform or locale)."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import cep
from .framing import canonical_json
from .ledger import AuditLedger
from .records import PrecisionClass
from .world import MobilityTrace

DAG_DOT = "dag.dot"
_CLASS_NAMES = tuple(c.name for c in PrecisionClass)  # a class value -> the name `suspicions.json` writes


@dataclass
class RunReport:
    """Everything a reviewer needs to judge one scenario run."""

    scenario_digest: str
    seed: int
    counts: dict[str, int]
    scores_by_class: dict[str, int]
    recall: float
    precision: float
    ledger_ok: bool
    vault_roundtrip_ok: bool
    privacy: dict[str, int | bool]
    timing: dict[str, int]

    @property
    def ok(self) -> bool:
        return (
            self.ledger_ok
            and self.vault_roundtrip_ok
            and self.privacy["plaintext_pii_hits"] == 0
            and self.privacy["vault_objects_final"] == 0
            and bool(self.privacy["edges_locked"])
            and 0.0 <= self.recall <= 1.0
            and 0.0 <= self.precision <= 1.0
        )

    def to_json_bytes(self) -> bytes:
        return canonical_json({**asdict(self), "ok": self.ok}) + b"\n"

    def summary_text(self) -> str:
        lines = [
            f"scenario {self.scenario_digest[:12]} seed {self.seed}: {'OK' if self.ok else 'FAILED'}",
            f"  pdrs emitted      {self.counts['pdrs_emitted']}",
            f"  sets pushed       {self.counts['sets_pushed']} (pruned {self.counts['sets_pruned']})",
            f"  suspicion pairs   {self.counts['suspicion_pairs']} (flagged {self.counts['flagged_pairs']})",
            f"  scores by class   {self.scores_by_class}",
            f"  contamination     {self.counts['pccont_records']} records; dag {self.counts['dag_nodes']} nodes / {self.counts['dag_edges']} edges",
            f"  recall {self.recall:.3f}  precision {self.precision:.3f}",
            f"  ledger ok {self.ledger_ok}  vault roundtrip {self.vault_roundtrip_ok}",
            f"  privacy: {self.privacy}",
        ]
        return "\n".join(lines) + "\n"


def artifact_payloads(
    by_pair: dict[cep.PairKey, cep.ContactSuspicion], scores: list[cep.ContactScore], pccont: list[cep.ContaminationRecord], dag: cep.InfectionDag
) -> dict[str, bytes]:
    """The four analysis files, which the vault round-trips, by name."""
    def pair_nr(item: cep.ContactSuspicion | cep.ContactScore) -> list[str]:
        """The phone numbers of an item's pair: its `pair` field, and the key its file is sorted by."""
        return [item.pair[0].nr, item.pair[1].nr]

    def region_obj(region: cep.SpaceTimeRegion) -> dict:
        return {"start": region.start, "end": region.end, "stations": sorted(region.stations)}

    def suspicion_obj(s: cep.ContactSuspicion) -> dict:
        return {
            "pair": pair_nr(s),
            "pc_susp": s.pc_susp,
            "windows": [
                {
                    "minutes": w.minutes,
                    "prox_m": list(map(round, w.prox, repeat(6))),
                    "classes": list(map(_CLASS_NAMES.__getitem__, w.classes)),
                    "stations": sorted(w.stations),
                    "set_sizes": w.set_sizes,
                }
                for w in s.windows
            ],
        }

    def score_obj(s: cep.ContactScore) -> dict:
        return {
            "pair": pair_nr(s),
            "region": region_obj(s.region),
            "raw": round(s.raw, 6),
            "risk_class": s.risk_class,
            "terms": {
                "prox_avg_m": round(s.prox_avg, 6),
                "dur_tot_min": s.dur_tot,
                "precision_prox": round(s.precision_prox, 6),
                "precision_dur": cep.PRECISION_DUR,
                "density": round(s.density, 6),
                "severity": cep.SEVERITY,
            },
        }

    def pccont_obj(r: cep.ContaminationRecord) -> dict:
        return {
            "v": r.v.nr,
            "u": r.u.nr,
            "region": region_obj(r.region),
            "coord_box": [round(c, 3) for c in r.coord_box],
            "median_contact": r.median_contact,
            "t_inf_min_v": r.t_inf_min_v,
            "t_inf_min_u": r.t_inf_min_u,
        }

    dag_obj = {
        "nodes": sorted(n.nr for n in dag.nodes),
        "edges": [
            {"src": e.src.nr, "dst": e.dst.nr, "weight": round(e.weight, 6), "median_contact": e.record.median_contact}
            for e in dag.edges
        ],
    }
    return {
        "suspicions.json": _json_list(by_pair.values(), suspicion_obj, pair_nr),
        "scores.json": _json_list(scores, score_obj, pair_nr),
        "pccont.json": _json_list(pccont, pccont_obj, lambda r: (r.v.nr, r.u.nr)),
        "dag.json": canonical_json(dag_obj) + b"\n",
    }


def _json_list(items: Iterable, obj: Callable[..., dict], key: Callable) -> bytes:
    """`canonical_json` of the list of `obj(item)`, items sorted by `key`, and a newline.

    Each object is encoded as soon as it is built and dropped, so the whole
    list of dicts never exists at once. The sort is stable, so items of equal
    key keep their order.
    """
    return b"".join((b"[", b",".join(canonical_json(obj(item)) for item in sorted(items, key=key)), b"]\n"))


def dag_dot(dag: cep.InfectionDag) -> str:
    """DOT text of the DAG; its edges are in `build_dag`'s (src, dst) order."""
    lines = ["digraph contamination {"]
    lines.extend(f'  "{node.nr}";' for node in sorted(dag.nodes))
    lines.extend(f'  "{e.src.nr}" -> "{e.dst.nr}" [label="{e.weight:.2f}"];' for e in dag.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def hotspot_csv(grid: Sequence[tuple[int, int, int]]) -> str:
    lines = ["cell_x,cell_y,count"]
    lines.extend(f"{x},{y},{c}" for x, y, c in grid)
    return "\n".join(lines) + "\n"


def traces_csv(traces: Iterable[MobilityTrace]) -> str:
    lines = ["minute,phone_nr,x,y"]
    lines.extend(f"{minute},{trace.phone.nr},{x:.3f},{y:.3f}" for trace in traces for minute, (x, y) in trace.waypoints)
    return "\n".join(lines) + "\n"


def write_run(
    out_dir: Path, report: RunReport, payloads: dict[str, bytes], ledger: AuditLedger, dag: cep.InfectionDag, hotspots: list[tuple[int, int, int]], traces: list[MobilityTrace]
) -> None:
    """Write the ten files of a finished run into `out_dir`; text files are UTF-8 with `\\n` line ends."""
    files = {
        "report.json": report.to_json_bytes(),
        "report.txt": report.summary_text().encode(),
        "ledger.jsonl": ledger.export_jsonl().encode(),
        **payloads,
        DAG_DOT: dag_dot(dag).encode(),
        "hotspots.csv": hotspot_csv(hotspots).encode(),
        "traces.csv": traces_csv(traces).encode(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
