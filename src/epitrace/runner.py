"""Scenario orchestration: generate, observe, push, alert, analyse, report.

Drives the whole pipeline on a simulated clock with no wall-clock reads, so a
(config, seed) pair always produces byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import os
import pickle
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Iterator

from . import cep, crypto, erasure, framing
from .edge import EdgeCloud
from .errors import (
    AuthorizationError,
    ConfigurationError,
    DecryptionError,
    EpitraceError,
    HelperError,
    LockedError,
    ReconstructionError,
    UnavailableError,
)
from .federation import Federation, OperationClass, QuorumCertificate, SystemState, make_request
from .ledger import verify_ledger
from .records import PdrSet, decode_pdr_set, group_into_sets
from .shamir import Share, reconstruct_secret
from .vault import FaultMode, VaultCoordinator
from .world import (
    GroundTruth,
    MobilityTrace,
    NoiseModel,
    ProviderRegistry,
    ScenarioConfig,
    generate_world,
    infection_estimates,
    measure,
    observe,
    trace_positions,
    traces_csv,
)


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
        return framing.canonical_json({**dataclasses.asdict(self), "ok": self.ok}) + b"\n"

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


@dataclass
class SimContext:
    """Live handles of one scenario run; kept for tests and the attack suite."""

    config: ScenarioConfig
    registry: ProviderRegistry
    traces: list[MobilityTrace]
    ground_truth: GroundTruth
    federation: Federation
    edges: dict[str, EdgeCloud]
    vault: VaultCoordinator


def vet(federation: Federation, operation_class: OperationClass, payload: dict, rng: Random) -> QuorumCertificate:
    """Run the honest-path quorum ceremony and return the certificate."""
    requester = federation.authorities[0]
    request = make_request(requester, operation_class, payload, rng)
    federation.submit_request(request)
    q = federation.quorum(operation_class)
    cert = None
    for authority in federation.authorities[:q]:
        cert = federation.apply_vote(authority.approve(request))
    if cert is None:
        raise AuthorizationError("quorum ceremony did not produce a certificate")
    return cert


def parse_faults(spec: str | None) -> dict[int, FaultMode]:
    """Parse a fault spec like 'vault:2=byzantine,vault:3=crashed'; each cloud may be named once."""
    faults: dict[int, FaultMode] = {}
    if not spec:
        return faults
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            target, mode = part.split("=")
            kind, idx = target.split(":")
            if kind != "vault":
                raise ValueError(f"unknown fault target {kind}")
            cloud_id = int(idx)
            if cloud_id in faults:
                raise ValueError(f"vault cloud {cloud_id} is named twice")
            faults[cloud_id] = FaultMode(mode.upper())
        except ValueError as exc:
            raise ConfigurationError(f"bad fault spec {part!r}: {exc}") from exc
    return faults


def build_context(config: ScenarioConfig, faults: dict[int, FaultMode] | None = None) -> SimContext:
    faults = faults or {}
    for cloud_id in faults:
        if not (1 <= cloud_id <= config.n_clouds):
            raise ConfigurationError(f"no vault cloud {cloud_id}")
    registry, traces, ground_truth = generate_world(config)
    federation = Federation(config, rng=Random(f"{config.seed}/federation"))
    edges = {}
    for provider_id in sorted(registry.providers):
        key_id = f"provider:{provider_id}"
        federation.escrow_keypair(key_id)
        edges[provider_id] = EdgeCloud(
            provider_id=provider_id,
            key_id=key_id,
            federation=federation,
            pdr_ttl=config.pdr_ttl,
            rng=Random(f"{config.seed}/edge/{provider_id}"),
        )
    vault = VaultCoordinator(
        federation,
        n_clouds=config.n_clouds,
        k=config.erasure_k,
        key_threshold=config.vault_key_threshold,
        rng=Random(f"{config.seed}/vault"),
    )
    for cloud_id, mode in faults.items():
        vault.clouds[cloud_id - 1].fault_mode = mode
    federation.attach_vault(vault)
    return SimContext(
        config=config,
        registry=registry,
        traces=traces,
        ground_truth=ground_truth,
        federation=federation,
        edges=edges,
        vault=vault,
    )


# Minutes per `observe` call: a longer block spreads the sweep's call overhead
# further but holds more readings at once; 30 ran as fast as 60 on half the heap.
_SWEEP_BLOCK_MIN = 30


def _spare_cpu() -> bool:
    """Whether this process may run on more than one CPU, so a forked helper can measure beside it.

    On one CPU the helper's fork and page copies cost more than its work
    saves. `os.sched_getaffinity` exists on Linux only; elsewhere every block
    is measured in process.
    """
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _forked(items: Iterator) -> Iterator:
    """`items`, produced ahead of the reader in a forked child and read back in order through a pipe.

    Stations measure apart from the edge clouds that seal their reports, so
    `ingest` measures its blocks here on another core while it seals and
    pushes the block before. The child forks at the first `next`. It pickles
    each item into the pipe, whose capacity bounds how far it runs ahead, and
    leaves by `os._exit`: 0 after the last item, 1 on any exception. An
    `Exception` from `items` is pickled in place of the next item and raised
    where the reader reads that item, as in process (its traceback stays in
    the child). The parent unpickles only what the child pickled. Until it
    exits, the child holds copies of the pages either side writes. Closing
    the generator closes the pipe and reaps the child (a child still writing
    gets EPIPE). Reading past the last item reaps it too; a child that exits
    nonzero without reporting, or cuts an item short, raises `HelperError`.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    for item in items:
                        pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                    status = 0
                except Exception as exc:
                    pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(status)
    os.close(write_fd)
    whole = False
    try:
        with open(read_fd, "rb") as pipe:
            while pipe.peek(1):
                try:
                    item = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    break  # an item cut short; the exit status says why
                if isinstance(item, Exception):
                    raise item
                yield item
            else:
                whole = True
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not whole:
        raise HelperError(f"helper exited with status {status}{'' if whole else ' in the middle of an item'}")


def ingest(context: SimContext, start: int, stop: int) -> dict[str, int]:
    """Feed minutes [start, stop) into the edge clouds; return the ingest counts.

    Phone positions are interpolated for these minutes only. Each block of
    `_SWEEP_BLOCK_MIN` minutes is measured once (`measure`: its range test
    and noise draw) and observed as one sweep, whose sets are pushed as
    `group_into_sets` cuts them, each through its station's provider port;
    then the block's minutes tick the federation clock, and every
    `prune_every_min`-th minute prunes all edges. A push reads no clock and
    writes no ledger entry, and a prune keeps the later minutes' sets, so
    pushes, seals, stores and the ledger are those of a minute-at-a-time
    loop. With a second CPU (`_spare_cpu`) the blocks are measured one ahead
    in a child `_forked` for this call; otherwise in process. Either way the
    arrays are the same bit for bit, an error while measuring raises at its
    block, and no process outlives the call.
    """
    config = context.config
    positions = trace_positions(context.traces, start, stop)
    blocks = range(start, stop, _SWEEP_BLOCK_MIN)
    port_by_code = {bs.code: context.edges[pid].provider_port() for pid, codes in context.registry.providers.items() for bs in codes}
    counts = {"pdrs_emitted": 0, "sets_pushed": 0, "push_failures": 0, "sets_pruned": 0}
    noise = NoiseModel.from_config(config)
    frames = (measure(context.registry, block, positions[block - start : block - start + _SWEEP_BLOCK_MIN], noise) for block in blocks)
    with contextlib.closing(_forked(frames) if _spare_cpu() else frames) as frames:
        # strict: after the last block, zip reads once more, which reaps the helper and checks its exit status
        for block, measured in zip(blocks, frames, strict=True):
            sweep = observe(context.registry, context.traces, block, measured)
            counts["pdrs_emitted"] += len(sweep)
            for pdr_set in group_into_sets(sweep):
                counts["sets_pushed" if port_by_code[pdr_set.bs.code].push(pdr_set) else "push_failures"] += 1
            del sweep  # before the next block is observed
            for minute in range(block, min(block + _SWEEP_BLOCK_MIN, stop)):
                context.federation.tick(minute)
                if minute > 0 and minute % config.prune_every_min == 0:
                    for edge in context.edges.values():
                        counts["sets_pruned"] += edge.prune(minute)
    return counts


def run(config: ScenarioConfig, out_dir: str | Path | None = None, faults: str | None = None) -> RunReport:
    """Execute the full pipeline for one scenario and write its artifacts; `faults` is a `parse_faults` spec."""
    context = build_context(config, parse_faults(faults))
    config = context.config
    federation = context.federation
    rng_cer = Random(f"{config.seed}/ceremonies")

    counts = ingest(context, 0, config.alert_minute)
    # The alert minute's clock tick comes first, then the ceremony, then its
    # records; ticking a minute twice changes nothing.
    federation.tick(config.alert_minute)
    cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, rng_cer)
    federation.change_state(cert, SystemState.ALERT)
    for name, value in ingest(context, config.alert_minute, config.duration_min).items():
        counts[name] += value
    # Analysis runs at the last minute, after an end-of-scenario prune that
    # keeps the retention bound before shutdown. Nothing is pushed after it, so
    # each edge's seal context and plaintext phone-field cache go with it.
    federation.tick(config.duration_min)
    for edge in context.edges.values():
        counts["sets_pruned"] += edge.prune(config.duration_min)
        edge.close_seal_context()
    prune_ticks = (config.duration_min - 1) // config.prune_every_min + 1

    # -- analysis under quorum-vetted capabilities ---------------------------------
    cert_read = vet(federation, OperationClass.BLIND_PROCESSING, {"purpose": "contact analysis", "minutes": [0, config.duration_min]}, rng_cer)
    cap_read = federation.authorize_mode(cert_read, OperationClass.BLIND_PROCESSING)
    params = cep.AnalysisParams(config.prox_max_m, config.dur_min, config.gap_tolerance_min, config.search_margin_min)
    index = cep.PdrIndex(_fetch_and_decrypt(context, cert_read, (0, config.duration_min)), params.prox_max)
    counts["sets_fetched"] = index.sets_swept

    estimates = infection_estimates(config, context.ground_truth)
    seeds = [cep.PhoneOfInterest(phone=p, t_inf_min=t) for p, t in sorted(estimates.items(), key=lambda kv: (kv[1], kv[0]))]
    by_pair, scores, completion_pairs = cep.complete_findings(cap_read, index, seeds, params, config.completion_class_threshold)
    counts["completion_pairs"] = completion_pairs
    del index  # the findings hold what the rest needs; the pair table would sit under the vault's peak
    counts["suspicion_pairs"] = len(by_pair)
    flagged = {pair for pair, s in by_pair.items() if s.pc_susp}
    counts["flagged_pairs"] = len(flagged)

    cert_full = vet(federation, OperationClass.FULL_PROCESSING, {"purpose": "chain reconstruction"}, rng_cer)
    cap_full = federation.authorize_mode(cert_full, OperationClass.FULL_PROCESSING)
    pccont = cep.build_pccont(cap_full, scores, by_pair, estimates, context.registry, config.dur_min)
    dag = cep.build_dag(pccont, config.t_incub_min, config.t_incub_max)
    dag.topological_order()  # invariant: must be acyclic
    hotspots = cep.hotspot_map(pccont, config.hotspot_cell_m)
    counts["pccont_records"] = len(pccont)
    counts["dag_nodes"] = len(dag.nodes)
    counts["dag_edges"] = len(dag.edges)
    counts["hotspot_cells"] = len(hotspots)

    artifacts = _artifact_payloads(by_pair, scores, pccont, dag)
    vault_roundtrip_ok = True
    counts["vault_objects_written"] = 0
    for name, payload in artifacts.items():
        object_id = context.vault.write(cap_read, payload)
        counts["vault_objects_written"] += 1
        if context.vault.read(cap_full, object_id) != payload:
            vault_roundtrip_ok = False

    scores_by_class = {str(c): 0 for c in (1, 2, 3, 4)}
    for score in scores:
        scores_by_class[str(score.risk_class)] += 1

    recall, precision = _recall_precision(context, flagged)

    # -- back to passive: secure delete and lock ------------------------------------
    cert_lock = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, rng_cer)
    federation.change_state(cert_lock, SystemState.PASSIVE)

    privacy = {
        "plaintext_pii_hits": _plaintext_pii_hits(context),
        "vault_objects_final": context.vault.object_count,
        "edges_locked": federation.state is SystemState.PASSIVE,
        "engine_keys_final": federation.engine_keys_held,
    }
    counts["ledger_entries"] = len(federation.ledger.entries)
    report = RunReport(
        scenario_digest=config.digest(),
        seed=config.seed,
        counts=counts,
        scores_by_class=scores_by_class,
        recall=recall,
        precision=precision,
        ledger_ok=federation.ledger.verify(),
        vault_roundtrip_ok=vault_roundtrip_ok,
        privacy=privacy,
        timing={
            "duration_min": config.duration_min,
            "alert_minute": config.alert_minute,
            "prune_ticks": prune_ticks,
        },
    )
    if out_dir is not None:
        _write_artifacts(Path(out_dir), context, report, artifacts, dag, hotspots)
    return report


def _fetch_and_decrypt(context: SimContext, cert: QuorumCertificate, minute_range: tuple[int, int]) -> Iterator[PdrSet]:
    """Pull every provider's sealed sets over the wire framing; open them in-engine as the stream is read.

    Each provider's frame is fetched up front, in provider order. Its sets are
    unsealed and decoded one at a time, and the providers' streams are merged
    by minute. The merge is stable, so within a minute every set of one
    provider comes before the next provider's, each in its store order.
    """
    streams = []
    phones: dict = {}  # one PhoneId per phone across the whole fetch, so index lookups hit on identity
    for provider_id in sorted(context.edges):
        edge = context.edges[provider_id]
        streams.append(_open_entries(_fetch(edge, cert, minute_range), context.federation.engine_key(edge.key_id), phones))
    return heapq.merge(*streams, key=attrgetter("minute"))


def _open_entries(entries: list[tuple[int, memoryview]], key: bytes, phones: dict) -> Iterator[PdrSet]:
    """Unseal and decode one provider's fetched entries, one set per step; each entry is dropped as its set is decoded."""
    aeads: dict = {}  # one AEAD per sender context, for this provider's sets only
    entries.reverse()
    while entries:
        class_byte, ciphertext = entries.pop()
        plaintext = crypto.unseal(key, ciphertext, aeads, framing.u8(class_byte))  # the class byte is the set's associated data
        yield decode_pdr_set(plaintext, class_byte, phones)


def _fetch(edge: EdgeCloud, cert: QuorumCertificate, minute_range: tuple[int, int]) -> list[tuple[int, memoryview]]:
    """One fetch as the analysis network makes it: a request frame to the edge, its response frame decoded."""
    frame = framing.encode_fetch_request(cert.encode(), minute_range[0], minute_range[1])
    return framing.decode_fetch_response(edge.handle_fetch_frame(frame))


def _recall_precision(context: SimContext, flagged: set) -> tuple[float, float]:
    truth_pairs = set()
    for phone, record in context.ground_truth.infections.items():
        if record.infected_by is not None:
            truth_pairs.add(cep.pair_key(phone, record.infected_by))
    recall = 1.0 if not truth_pairs else len(truth_pairs & flagged) / len(truth_pairs)
    precision = 0.0 if not flagged else len(truth_pairs & flagged) / len(flagged)
    return recall, precision


def _plaintext_pii_hits(context: SimContext) -> int:
    """Count every phone number and IMEI found in the clear in what the run holds at rest.

    That is every edge's stored ciphertexts and phone-field cache, every vault
    cloud's fragment and key-share buffers, and the ledger export.
    """
    probes = [p for t in context.traces for p in (t.phone.nr, t.phone.imei)]
    buffers = [b for edge in context.edges.values() for b in (*edge.stored_ciphertexts(), *edge.cached_phone_fields())]
    buffers += [b for cloud in context.vault.clouds for b in cloud.held_buffers()]
    buffers.append(context.federation.ledger.export_jsonl().encode("utf-8"))
    return _digit_probe_hits(probes, buffers)


_DIGIT_MASK = bytes(int(0x30 <= b <= 0x39) for b in range(256))  # ASCII digit -> 1, any other byte -> 0


def _digit_probe_hits(probes: list[str], buffers: list[bytes]) -> int:
    """The number of matches of the alternation of `probes`, all ASCII digits, in `buffers`.

    Every match lies inside a maximal run of ASCII digits at least as long as
    the shortest probe: a buffer's digit mask locates those runs, and the
    alternation runs on them only.
    """
    pattern = re.compile("|".join(map(re.escape, probes)).encode("ascii"))
    long_run = b"\x01" * min(map(len, probes))
    hits = 0
    for buffer in buffers:
        mask = buffer.translate(_DIGIT_MASK) + b"\x00"  # the sentinel ends a run at the buffer's end
        start = mask.find(long_run)
        while start >= 0:
            end = mask.find(0, start)
            hits += len(pattern.findall(buffer, start, end))
            start = mask.find(long_run, end)
    return hits


def _artifact_payloads(
    by_pair: dict[cep.PairKey, cep.ContactSuspicion],
    scores: list[cep.ContactScore],
    pccont: list[cep.ContaminationRecord],
    dag: cep.InfectionDag,
) -> dict[str, bytes]:
    def suspicion_obj(s: cep.ContactSuspicion) -> dict:
        return {
            "pair": [s.pair[0].nr, s.pair[1].nr],
            "pc_susp": s.pc_susp,
            "windows": [
                {
                    "minutes": list(w.minutes),
                    "prox_m": [round(p, 6) for p in w.prox],
                    "classes": [c.name for c in w.classes],
                    "stations": sorted(w.stations),
                    "set_sizes": list(w.set_sizes),
                }
                for w in s.windows
            ],
        }

    def score_obj(s: cep.ContactScore) -> dict:
        return {
            "pair": [s.pair[0].nr, s.pair[1].nr],
            "region": {"start": s.region.start, "end": s.region.end, "stations": sorted(s.region.stations)},
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
            "region": {"start": r.region.start, "end": r.region.end, "stations": sorted(r.region.stations)},
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

    def by_pair_nr(item) -> tuple[str, str]:
        return item.pair[0].nr, item.pair[1].nr

    return {
        "suspicions.json": _json_list(by_pair.values(), suspicion_obj, by_pair_nr),
        "scores.json": _json_list(scores, score_obj, by_pair_nr),
        "pccont.json": _json_list(pccont, pccont_obj, lambda r: (r.v.nr, r.u.nr)),
        "dag.json": framing.canonical_json(dag_obj) + b"\n",
    }


def _json_list(items: Iterable, obj: Callable[..., dict], key: Callable[..., tuple]) -> bytes:
    """`canonical_json` of the list of `obj(item)`, items sorted by `key`, and a newline.

    Each object is encoded as soon as it is built and dropped, so the whole
    list of dicts never exists at once. The sort is stable, so items of equal
    key keep their order.
    """
    return b"".join((b"[", b",".join(framing.canonical_json(obj(item)) for item in sorted(items, key=key)), b"]\n"))


def _write_artifacts(
    out_dir: Path,
    context: SimContext,
    report: RunReport,
    artifacts: dict[str, bytes],
    dag: cep.InfectionDag,
    hotspots: list[tuple[int, int, int]],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_bytes(report.to_json_bytes())
    (out_dir / "report.txt").write_text(report.summary_text())
    (out_dir / "ledger.jsonl").write_text(context.federation.ledger.export_jsonl())
    for name, payload in artifacts.items():
        (out_dir / name).write_bytes(payload)
    (out_dir / "dag.dot").write_text(dag.to_dot())
    (out_dir / "hotspots.csv").write_text(cep.hotspot_csv(hotspots))
    (out_dir / "traces.csv").write_text(traces_csv(context.traces))


# -- adversarial drivers ------------------------------------------------------------


@dataclass(frozen=True)
class AttackResult:
    name: str
    safe: bool
    detail: str


def attack_suite(config: ScenarioConfig) -> list[AttackResult]:
    """Run every adversarial driver against a fresh small deployment.

    Each attack must fail safely; `safe=True` means the system refused or
    survived it.
    """
    results = []
    context = build_context(config)
    federation = context.federation
    rng = Random(f"{config.seed}/attack")

    # Feed a little data while passive.
    ingest(context, 0, 30)
    edge = next(iter(context.edges.values()))

    # 1. Provider tries to read its own edge cloud: the port has no read surface.
    port = edge.provider_port()
    readable = [a for a in dir(port) if not a.startswith("_") and a != "push"]
    results.append(AttackResult("provider_read", safe=not readable, detail=f"provider surface: {['push'] + readable}"))

    # 2. Locked fetch: valid certificate, but the system is passive.
    cert_probe = vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "probe", "minutes": [0, 100]}, rng)
    results.append(_refused_fetch("locked_fetch", federation, edge, cert_probe, LockedError))

    # Unlock for the rest of the drivers.
    cert_alert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, rng)
    federation.change_state(cert_alert, SystemState.ALERT)

    # 3. Sub-quorum fetch: certificate carrying q-1 approvals.
    request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"purpose": "subquorum"}, rng)
    q = federation.quorum(OperationClass.BLIND_ANALYSIS)
    votes = [authority.approve(request) for authority in federation.authorities[: q - 1]]
    forged = QuorumCertificate(
        request_id=request.request_id,
        request_hash=request.request_hash(),
        operation_class=OperationClass.BLIND_ANALYSIS,
        approvals=tuple(sorted((v.authority_id, v.signature) for v in votes)),
    )
    results.append(_refused_fetch("subquorum_fetch", federation, edge, forged, AuthorizationError))

    # 4. Ledger tamper detection.
    entries = list(federation.ledger.entries)
    victim = entries[len(entries) // 2]
    tampered = dict(victim.content)
    tampered["minute"] = int(tampered.get("minute", 0)) + 1
    entries[len(entries) // 2] = dataclasses.replace(victim, content=tampered)
    tamper_detected = not verify_ledger(entries)
    results.append(AttackResult("ledger_tamper", safe=tamper_detected, detail="tamper detected" if tamper_detected else "tamper missed"))

    # 5. Cloud coalition below the key threshold tries to decrypt a vault object.
    cert_write = vet(federation, OperationClass.BLIND_PROCESSING, {"purpose": "store"}, rng)
    cap_write = federation.authorize_mode(cert_write, OperationClass.BLIND_PROCESSING)
    secret_payload = b"post-processed results " + rng.randbytes(64)
    object_id = context.vault.write(cap_write, secret_payload)
    coalition_safe = True
    detail = "all coalitions failed to decrypt"
    x = context.vault.key_threshold - 1
    for coalition in itertools.combinations(context.vault.clouds, x):
        responses = [r for r in (cloud.retrieve(object_id) for cloud in coalition) if r is not None]
        fragments = [erasure.Fragment(idx, frag) for idx, frag, _share in responses]
        shares = [Share(x=blob[0], data=blob[1:]) for _idx, _frag, blob in responses]
        try:
            ciphertext = erasure.decode(fragments, context.vault.k)
        except UnavailableError:
            continue  # too few fragments to even rebuild the ciphertext
        try:
            crypto.symmetric_decrypt(reconstruct_secret(shares), ciphertext)
            coalition_safe = False
            detail = f"coalition {[c.id for c in coalition]} decrypted the object"
        except (DecryptionError, ReconstructionError):
            continue
    results.append(AttackResult("cloud_coalition", safe=coalition_safe, detail=detail))

    # 6. Byzantine fragment during read.
    context.vault.clouds[0].fault_mode = FaultMode.BYZANTINE
    cert_full = vet(federation, OperationClass.FULL_PROCESSING, {"purpose": "read"}, rng)
    cap_full = federation.authorize_mode(cert_full, OperationClass.FULL_PROCESSING)
    try:
        recovered = context.vault.read(cap_full, object_id)
        results.append(AttackResult("byzantine_fragment", safe=recovered == secret_payload, detail="read survived corruption"))
    except EpitraceError as exc:
        results.append(AttackResult("byzantine_fragment", safe=False, detail=f"read failed: {exc}"))
    finally:
        context.vault.clouds[0].fault_mode = FaultMode.HONEST

    # 7. Access to expired records: prune, then fetch the expired range.
    far_future = config.pdr_ttl + 31
    federation.tick(far_future)
    for edge in context.edges.values():
        edge.prune(far_future)
    fetched = [entry for edge in context.edges.values() for entry in _fetch(edge, cert_probe, (0, 30))]
    results.append(
        AttackResult("expired_pdr_access", safe=not fetched, detail=f"{len(fetched)} expired sets served")
    )
    return results


def _refused_fetch(name: str, federation: Federation, edge: EdgeCloud, cert: QuorumCertificate, error: type[EpitraceError]) -> AttackResult:
    """Fetch minutes [0, 100] with `cert`: safe only if `error` is raised and the ledger adds exactly that refusal, naming the request and the edge."""
    before = len(federation.ledger.entries)
    try:
        _fetch(edge, cert, (0, 100))
    except error as exc:
        added = [e.content for e in federation.ledger.entries[before:]]
        logged = [(c.get("reason"), c.get("request_id"), c.get("provider")) for c in added] == [(str(exc), cert.request_id.hex(), edge.provider_id)]
        return AttackResult(name, safe=logged, detail="refused and ledgered once" if logged else f"refused, ledger added {added}")
    return AttackResult(name, safe=False, detail="fetch served")
