"""Shared fixtures-in-code for the test suite."""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path
from random import Random
from typing import Callable, Iterable, NamedTuple

import numpy as np

from epitrace.edge import EdgeCloud
from epitrace.federation import Federation, OperationClass, QuorumCertificate, SystemState
from epitrace.records import BsCode, PdrSet, PhoneId, PrecisionClass, group_into_sets
from epitrace.runner import _SWEEP_BLOCK_MIN, SimContext, build_context, ingest, vet
from epitrace.vault import CloudNode
from epitrace.world import (
    TWO_PI,
    GroundTruth,
    InfectionRecord,
    MobilityTrace,
    NoiseModel,
    Point,
    ProviderRegistry,
    ScenarioConfig,
    _index_phones,
    measure,
    observe,
    trace_positions,
)


SMALL_JSON = Path(__file__).resolve().parent.parent / "scenarios" / "small.json"


def retention_config() -> ScenarioConfig:
    """small.json cut to 20 phones and 12 hours, with a 6-hour TTL pruned every 2 hours."""
    fields = json.loads(SMALL_JSON.read_text())
    fields.update(
        n_phones=20,
        duration_min=720,
        alert_minute=600,
        n_pico=4,
        n_femto=8,
        t_incub_min=30,
        t_incub_max=180,
        prune_every_min=120,
        transmission_probability=0.3,
    )
    return ScenarioConfig.from_dict(fields)


def small_federation(seed: int = 99) -> Federation:
    """Three authorities, f = 1, both quorums 2, key threshold 2."""
    config = ScenarioConfig(n_authorities=3, f=1, q_read=2, q_critical=2, fed_key_threshold=2, vote_window_min=60)
    return Federation(config, rng=Random(f"test-fed/{seed}"))


def alerted_federation(seed: int = 99) -> Federation:
    federation = small_federation(seed)
    cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(f"test-vet/{seed}"))
    federation.change_state(cert, SystemState.ALERT)
    return federation


def capability(mode: OperationClass, federation: Federation | None = None, seed: int = 99):
    """Mint a live capability of the given mode on an alerted federation."""
    federation = federation or alerted_federation(seed)
    cert = vet(federation, mode, {"purpose": "test"}, Random(f"test-cap/{seed}/{mode.name}"))
    return federation.authorize_mode(cert, mode), federation


def ingested_for_analysis(config: ScenarioConfig) -> tuple[SimContext, Callable[[], QuorumCertificate]]:
    """A context that ingested every minute of `config` and is ALERT, and a function that vets a fresh read certificate for minutes [0, duration].

    A certificate fetches from each edge once, so each fetch of every edge takes a fresh one.
    """
    context = build_context(config)
    ingest(context, 0, config.duration_min)
    rng = Random(f"test-analysis/{config.seed}")
    cert = vet(context.federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, rng)
    context.federation.change_state(cert, SystemState.ALERT)
    return context, lambda: vet(context.federation, OperationClass.BLIND_PROCESSING, {"purpose": "test", "minutes": [0, config.duration_min]}, rng)


def oldest_age(edge: EdgeCloud, now: int) -> int | None:
    """Age in minutes at `now` of the oldest set the edge still stores; None if it stores none."""
    return max((now - entry.minute for entry in edge._store), default=None)


def held_object_ids(cloud: CloudNode) -> list[bytes]:
    """The ids of the objects a vault cloud holds a fragment of, sorted."""
    return sorted(cloud._fragments)


def phone(i: int) -> PhoneId:
    return PhoneId(nr=f"6{i:08d}", imei=f"{350000000000000 + i:015d}")


def station(i: int = 0, precision: PrecisionClass = PrecisionClass.FEMTO) -> BsCode:
    return BsCode(code=f"{i:016x}", precision_class=precision)


class Record(NamedTuple):
    """One loose reading: a phone's polar offset (meters, radians) from one station's centroid in one minute."""

    bs: BsCode
    phone: PhoneId
    radius: float
    azimuth: float
    t_pdr: int


pdr = Record


def group_records(records: Iterable[Record]) -> list[PdrSet]:
    """Loose records bucketed into per-(station, minute) sets, sorted by (minute, code), phones ascending.

    The reference for what `group_into_sets` cuts from a sweep: a triple that
    appears twice fails its set's check with DuplicateRecordError.
    """
    buckets: dict[tuple[int, str], list[Record]] = {}
    for rec in records:
        buckets.setdefault((rec.t_pdr, rec.bs.code), []).append(rec)
    out = []
    for (minute, _code), recs in sorted(buckets.items()):
        recs.sort(key=operator.attrgetter("phone"))
        _, phones, radii, azimuths, _ = zip(*recs)
        out.append(PdrSet(minute=minute, bs=recs[0].bs, phones=phones, radii=radii, azimuths=azimuths))
    return out


def pair_distance(a: Record, b: Record) -> float:
    """Distance in meters between the phones of two records of the same station.

    Law of cosines on the two polar offsets, in the haversine form
    d^2 = (ra - rb)^2 + 4 ra rb sin^2(dθ/2): it equals the Euclidean distance
    between the two relative positions and, unlike ra^2 + rb^2 - 2 ra rb cos dθ,
    loses no precision when the phones are close. Bitwise-commutative; the
    reference for the distance the pair table computes.
    """
    dr = a.radius - b.radius
    half = math.sin(0.5 * abs(a.azimuth - b.azimuth))
    return math.sqrt(dr * dr + 4.0 * (a.radius * b.radius) * (half * half))


def reference_position_at(trace: MobilityTrace, minute: float) -> Point:
    """A trace's position at any minute, by piecewise-linear interpolation: the reference for `trace_positions`."""
    pts = trace.waypoints
    if minute <= pts[0][0]:
        return pts[0][1]
    if minute >= pts[-1][0]:
        return pts[-1][1]
    for (m0, p0), (m1, p1) in zip(pts, pts[1:]):
        if m0 <= minute <= m1:
            frac = (minute - m0) / (m1 - m0)
            return (p0[0] + frac * (p1[0] - p0[0]), p0[1] + frac * (p1[1] - p0[1]))
    raise AssertionError("unreachable")


def plaintext_sets(cfg: ScenarioConfig, registry: ProviderRegistry, traces: list[MobilityTrace]) -> list[PdrSet]:
    """Every record set of the scenario, swept a block at a time and cut into sets in the clear, as providers push them."""
    positions = trace_positions(traces, 0, cfg.duration_min)
    noise = NoiseModel.from_config(cfg)
    sets = []
    for start in range(0, cfg.duration_min, _SWEEP_BLOCK_MIN):
        sets += group_into_sets(observe(registry, traces, start, measure(registry, start, positions[start : start + _SWEEP_BLOCK_MIN], noise)))
    return sets


def reference_observe(
    registry: ProviderRegistry,
    traces: list[MobilityTrace],
    minute: int,
    positions: np.ndarray,
    noise: NoiseModel,
) -> list[Record]:
    """One minute of `world.observe`, one station and one record at a time, drawing noise with `Random.gauss`.

    `positions` is the minute's (n, 2) slice. The reference for the block sweep.
    """
    records: list[Record] = []
    for bs, info in registry.sorted_stations():
        rel = positions - np.array(info.centroid)
        in_range = np.nonzero(np.hypot(rel[:, 0], rel[:, 1]) <= info.useful_range)[0]
        sigma = noise.sigma_by_class[bs.precision_class]
        rng = Random(f"{noise.seed}/observe/{minute}/{bs.code}") if sigma > 0.0 else None
        for j, (dx, dy) in zip(in_range.tolist(), rel[in_range].tolist()):
            if rng is not None:
                dx += rng.gauss(0.0, sigma)
                dy += rng.gauss(0.0, sigma)
            azimuth = math.atan2(dy, dx) % TWO_PI
            records.append(Record(bs, traces[j].phone, math.hypot(dx, dy), 0.0 if azimuth == TWO_PI else azimuth, minute))
    return records


def reference_ingest(context: SimContext, start: int, stop: int) -> dict[str, int]:
    """`runner.ingest` one minute at a time from `reference_observe`: tick, observe, group, push, prune.

    The reference for the block-wise ingest's pushes, seals, prunes and ledger.
    """
    config = context.config
    noise = NoiseModel.from_config(config)
    positions = trace_positions(context.traces, start, stop)
    provider_by_code = {bs.code: pid for pid, codes in context.registry.providers.items() for bs in codes}
    ports = {pid: edge.provider_port() for pid, edge in context.edges.items()}
    counts = {"pdrs_emitted": 0, "sets_pushed": 0, "push_failures": 0, "sets_pruned": 0}
    for minute, minute_positions in zip(range(start, stop), positions):
        context.federation.tick(minute)
        records = reference_observe(context.registry, context.traces, minute, minute_positions, noise)
        counts["pdrs_emitted"] += len(records)
        for pdr_set in group_records(records):
            pushed = ports[provider_by_code[pdr_set.bs.code]].push(pdr_set)
            counts["sets_pushed" if pushed else "push_failures"] += 1
        if minute > 0 and minute % config.prune_every_min == 0:
            for edge in context.edges.values():
                counts["sets_pruned"] += edge.prune(minute)
    return counts


def reference_replay_epidemic(config: ScenarioConfig, traces: list[MobilityTrace], attempt: int) -> GroundTruth:
    """`world._replay_epidemic` one minute at a time over the full phone x phone matrix: the reference for the segment replay."""
    rng = Random(f"{config.seed}/epidemic/{attempt}")
    n = len(traces)
    positions = trace_positions(traces, 0, config.duration_min)
    phones = [t.phone for t in traces]
    index_set = set(_index_phones(config))
    infected_at = np.full(n, -1, dtype=int)
    infections: dict[PhoneId, InfectionRecord] = {}
    for j, phone_id in enumerate(phones):
        if phone_id in index_set:
            infected_at[j] = 0
            infections[phone_id] = InfectionRecord(t_infected=0, infected_by=None)

    exposure = np.zeros((n, n), dtype=int)  # consecutive qualifying minutes, infector x susceptible
    for minute in range(config.duration_min):
        pos = positions[minute]
        diff = pos[:, None, :] - pos[None, :, :]
        close = (diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2) <= config.transmission_distance_m**2
        infectious = (infected_at >= 0) & (infected_at + config.t_incub_min <= minute)
        susceptible = infected_at < 0
        active = close & infectious[:, None] & susceptible[None, :]
        exposure = np.where(active, exposure + 1, 0)
        complete = np.argwhere(exposure >= config.min_exposure_min)
        if complete.size == 0:
            continue
        by_victim: dict[int, list[int]] = {}
        for i, j in complete:
            by_victim.setdefault(int(j), []).append(int(i))
        for j, candidates in sorted(by_victim.items()):
            infector = min(candidates, key=lambda i: (infected_at[i], phones[i]))
            if config.transmission_probability < 1.0 and rng.random() > config.transmission_probability:
                exposure[:, j] = 0  # failed transmission; further exposure may retry
                continue
            infected_at[j] = minute
            infections[phones[j]] = InfectionRecord(t_infected=minute, infected_by=phones[infector])
            exposure[:, j] = 0
            exposure[j, :] = 0
    return GroundTruth(infections=infections)
