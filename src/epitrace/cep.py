"""Contact analysis engine: the pair table, suspicion finding, scoring,
completion, the potential-contamination DAG, and hotspot mapping over decrypted
record streams.

The pair table measures each phone pair once, in one radius-band sweep per
set, and keeps its in-range samples in minute order; a scan of a phone reads
its partners' samples from its lower bound on. A suspicion exists when two
phones stayed within the proximity threshold for at least the duration
threshold (short gaps tolerated); scores grade suspicions on proximity,
accumulated duration, measurement precision, crowd density and venue severity,
with fixed weights and one severity for every venue (module constants).
Confirmed-infected pairs become contamination records, whose time-like
separation (bounded by the incubation window) orders them into a directed
acyclic graph of plausible transmission.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import groupby
from operator import attrgetter
from statistics import median_low
from typing import Iterable, NamedTuple, Sequence

from .errors import NoEvidenceError, ParameterError, ResolutionError, ValidationError
from .federation import Capability
from .records import PdrSet, PhoneId, PrecisionClass
from .world import ProviderRegistry

PairKey = tuple[PhoneId, PhoneId]


def pair_key(a: PhoneId, b: PhoneId) -> PairKey:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PhoneOfInterest:
    phone: PhoneId
    t_inf_min: int

    def __post_init__(self) -> None:
        if self.t_inf_min < 0:
            raise ValidationError("t_inf_min must be >= 0")


@dataclass(frozen=True)
class SpaceTimeRegion:
    """Envelope of an encounter: a minute interval over a set of station codes."""

    start: int
    end: int
    stations: frozenset[str]

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValidationError("region start must be <= end")
        if not self.stations:
            raise ValidationError("region needs at least one station")


@dataclass(frozen=True)
class ContactWindow:
    """One maximal run of qualifying minutes for a phone pair."""

    minutes: tuple[int, ...]
    prox: tuple[float, ...]  # meters per qualifying minute
    classes: tuple[PrecisionClass, ...]
    stations: frozenset[str]
    set_sizes: tuple[int, ...]  # phones present when each sample was taken

    @property
    def start(self) -> int:
        return self.minutes[0]

    @property
    def end(self) -> int:
        return self.minutes[-1]

    @property
    def duration(self) -> int:
        return len(self.minutes)


@dataclass(frozen=True)
class ContactSuspicion:
    pair: PairKey
    pc_susp: bool
    windows: tuple[ContactWindow, ...]

    def qualifying_windows(self, dur_min: int) -> tuple[ContactWindow, ...]:
        return tuple(w for w in self.windows if w.duration >= dur_min)

    def region(self) -> SpaceTimeRegion:
        stations = frozenset().union(*(w.stations for w in self.windows))
        return SpaceTimeRegion(start=self.windows[0].start, end=self.windows[-1].end, stations=stations)


@dataclass(frozen=True)
class ContactScore:
    pair: PairKey
    region: SpaceTimeRegion
    raw: float
    risk_class: int  # 1 low .. 4 very high
    prox_avg: float
    dur_tot: int
    precision_prox: float
    density: float


@dataclass(frozen=True)
class ContaminationRecord:
    """A contact between two confirmed-infected phones, with resolved coordinates."""

    v: PhoneId
    u: PhoneId
    region: SpaceTimeRegion
    coord_box: tuple[float, float, float, float]
    median_contact: int
    t_inf_min_v: int
    t_inf_min_u: int


@dataclass(frozen=True)
class DagEdge:
    src: PhoneId
    dst: PhoneId
    record: ContaminationRecord
    weight: float


@dataclass(frozen=True)
class InfectionDag:
    nodes: frozenset[PhoneId]
    edges: tuple[DagEdge, ...]  # sorted by (src, dst), as `build_dag` builds them

    def topological_order(self) -> list[PhoneId]:
        """Kahn's algorithm; raises if a cycle sneaks in."""
        indegree: dict[PhoneId, int] = {n: 0 for n in self.nodes}
        adjacency: dict[PhoneId, list[PhoneId]] = {n: [] for n in self.nodes}
        for e in self.edges:
            indegree[e.dst] += 1
            adjacency[e.src].append(e.dst)
        frontier = sorted(n for n, d in indegree.items() if d == 0)
        order: list[PhoneId] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for nxt in sorted(adjacency[node]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    frontier.append(nxt)
            frontier.sort()
        if len(order) != len(self.nodes):
            raise ValidationError("graph contains a cycle")
        return order


# -- parameters -----------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisParams:
    prox_max: float
    dur_min: int
    gap_tolerance: int
    search_margin: int  # extra minutes scanned before t_inf_min


_PRECISION_FACTOR = {PrecisionClass.MACRO: 0.2, PrecisionClass.PICO: 0.6, PrecisionClass.FEMTO: 1.0}

# Weights and heuristics of the grading function; `raw` is their weighted sum.
W_PROX = 0.35
W_DUR = 0.35
W_PRECISION = 0.10
W_DENSITY = 0.10
W_SEVERITY = 0.10
DUR_SATURATION_FACTOR = 4.0  # dur_tot saturates at this multiple of dur_min
PRECISION_DUR = 0.5
DENSITY_SATURATION = 10.0  # phones per minute treated as fully crowded
SEVERITY = 0.5  # venue severity; every venue is graded alike
CLASS_BOUNDARIES = (0.25, 0.5, 0.75)


def classify(raw: float) -> int:
    """Risk class 1 (low) .. 4 (very high) of a raw score in [0, 1]: one plus the boundaries it reaches."""
    return 1 + bisect_right(CLASS_BOUNDARIES, raw)


# -- pair table ----------------------------------------------------------------------

Sample = tuple[int, float, PrecisionClass, str, int]  # (minute, distance, class, station code, set size)


_SetView = NamedTuple("_SetView", [("phones", tuple), ("size", int)])  # a set, as the presence probe lists it


class PdrIndex:
    """Pair table over decrypted sets: `partners[a][b] is partners[b][a]`, the pair's minute-ordered samples.

    Per pair and minute, the best in-range candidate of `_best_in_range` is
    kept (most precise class, then smallest distance, then station code),
    and dropped when a more precise set of that minute holds both phones: that
    station decides, and it put them out of range.

    `sets` is read once, as a stream in minute order (a minute that comes back
    after a later one raises ValidationError). Each minute's sets are swept as
    soon as the stream moves past that minute and are not kept: the table
    holds only the samples, `sets_swept` and, for the `presence` probe, each
    set's minute and phones.
    """

    def __init__(self, sets: Iterable[PdrSet], prox_max: float):
        self.prox_max = prox_max
        self._sets: list[tuple[int, tuple[PhoneId, ...]]] = []  # for the `presence` probe only
        self.partners: dict[PhoneId, dict[PhoneId, list[Sample]]] = {}
        pairs: dict[PairKey, list[Sample]] = {}
        last = -1
        for minute, group in groupby(sets, key=attrgetter("minute")):
            if minute <= last:
                raise ValidationError(f"sets must arrive in minute order: minute {minute} after minute {last}")
            last = minute
            minute_sets = list(group)
            self._sets += [(minute, pdr_set.phones) for pdr_set in minute_sets]
            classes = [pdr_set.bs.precision_class for pdr_set in minute_sets]
            top = max(classes)
            held = [(c, frozenset(pdr_set.phones)) for c, pdr_set in zip(classes, minute_sets) if c > PrecisionClass.MACRO]
            for key, (cls, dist, code, size) in _best_in_range(minute_sets, prox_max).items():
                if cls < top and any(c > cls and key[0] in members and key[1] in members for c, members in held):
                    continue
                samples = pairs.get(key)
                if samples is None:
                    a, b = key
                    samples = pairs[key] = self.partners.setdefault(a, {})[b] = self.partners.setdefault(b, {})[a] = []
                samples.append((minute, dist, cls, code, size))
        self.sets_swept = len(self._sets)

    @cached_property
    def presence(self) -> dict[PhoneId, dict[int, list[tuple[_SetView, int]]]]:
        """phone -> minute -> (set view, position): a read-only view for tests and tracing; no scan uses it."""
        presence: dict[PhoneId, dict[int, list[tuple[_SetView, int]]]] = {}
        for minute, phones in self._sets:
            view = _SetView(phones, len(phones))
            for pos, p in enumerate(phones):
                presence.setdefault(p, {}).setdefault(minute, []).append((view, pos))
        return presence


def _best_in_range(sets: Sequence[PdrSet], prox_max: float) -> dict[PairKey, tuple[PrecisionClass, float, str, int]]:
    """Per pair, the best in-range candidate (class, dist, code, size) among one minute's sets: the most precise class, then the least tuple.

    Each set is swept once in radius order, measuring a phone only against the
    phones above it within `prox_max` plus a slack: two phones at radii rv and
    r are at least |rv - r| apart, and the slack covers the rounding of the
    distance, below 1e-7 * (rv + r). The distance is symmetric bit for bit.
    """
    best: dict[PairKey, tuple[PrecisionClass, float, str, int]] = {}
    for pdr_set in sets:
        phones, radii, azimuths = pdr_set.phones, pdr_set.radii, pdr_set.azimuths
        if len(phones) < 2:
            continue
        order = sorted(range(len(phones)), key=radii.__getitem__)
        sorted_radii = [radii[i] for i in order]
        band = prox_max + 2e-6 * sorted_radii[-1]
        cls, code, size = pdr_set.bs.precision_class, pdr_set.bs.code, len(phones)
        for k, i in enumerate(order):
            rv, av = radii[i], azimuths[i]
            for j in order[k + 1 : bisect_right(sorted_radii, rv + band, k + 1)]:
                r = radii[j]
                dr = rv - r
                half = math.sin(0.5 * abs(av - azimuths[j]))
                dist = math.sqrt(dr * dr + 4.0 * (rv * r) * (half * half))
                if dist <= prox_max:
                    key = (phones[i], phones[j]) if i < j else (phones[j], phones[i])  # sets are phone-sorted
                    candidate = (cls, dist, code, size)
                    prev = best.get(key)
                    if prev is None or cls > prev[0] or (cls is prev[0] and candidate < prev):
                        best[key] = candidate
    return best


# -- suspicion finding ----------------------------------------------------------------


def find_suspicions(
    capability: Capability, index: PdrIndex, poi: PhoneOfInterest, params: AnalysisParams
) -> list[ContactSuspicion]:
    """Read from the pair table the phones that stayed close to the phone of interest.

    Only minutes at or after the phone's earliest-infection estimate (less
    the search margin) are considered; the table holds, per minute, the
    sample of the most precise station that sees both phones, if in range.
    Qualifying minutes accumulate into windows, tolerating gaps up to the
    configured number of minutes. A pair is flagged once any single window
    reaches the duration threshold. The index must be built for `params.prox_max`.
    """
    capability.require_read()
    if params.prox_max != index.prox_max:
        raise ParameterError(f"index built for prox_max {index.prox_max}, scan asks for {params.prox_max}")
    lower = (max(0, poi.t_inf_min - params.search_margin),)  # sorts before every sample of that minute
    partners = index.partners.get(poi.phone, {})
    suspicions = []
    for u in sorted(partners):
        samples = partners[u]
        start = bisect_left(samples, lower)
        if start == len(samples):
            continue
        windows = _windows_from_samples(samples[start:], params.gap_tolerance)
        pc_susp = any(w.duration >= params.dur_min for w in windows)
        suspicions.append(ContactSuspicion(pair=pair_key(poi.phone, u), pc_susp=pc_susp, windows=windows))
    return suspicions


def _windows_from_samples(samples: Sequence[Sample], gap_tolerance: int) -> tuple[ContactWindow, ...]:
    """Split minute-ordered samples into windows wherever more than `gap_tolerance` minutes are missing."""
    minutes = [sample[0] for sample in samples]
    cuts = [k for k, (prev, minute) in enumerate(zip(minutes, minutes[1:]), 1) if minute - prev - 1 > gap_tolerance]
    return tuple(_close_window(samples[a:b]) for a, b in zip([0, *cuts], [*cuts, len(samples)]))


def _close_window(run: Sequence[Sample]) -> ContactWindow:
    minutes, prox, classes, stations, set_sizes = zip(*run)
    return ContactWindow(minutes=minutes, prox=prox, classes=classes, stations=frozenset(stations), set_sizes=set_sizes)


# -- scoring ------------------------------------------------------------------------------


def score_suspicions(
    capability: Capability,
    suspicions: Iterable[ContactSuspicion],
    params: AnalysisParams,
) -> list[ContactScore]:
    """Grade flagged suspicions into risk classes 1..4, keeping every term."""
    capability.require_read()
    scores = []
    for suspicion in suspicions:
        if not suspicion.pc_susp:
            raise ValidationError("only flagged suspicions can be scored")
        windows = suspicion.windows
        if not windows:
            raise NoEvidenceError(f"suspicion {suspicion.pair[0].nr}/{suspicion.pair[1].nr} carries no windows")
        prox_values = [p for w in windows for p in w.prox]
        class_factors = [_PRECISION_FACTOR[c] for w in windows for c in w.classes]
        sizes = [s for w in windows for s in w.set_sizes]
        prox_avg = sum(prox_values) / len(prox_values)
        dur_tot = sum(w.duration for w in windows)
        precision_prox = sum(class_factors) / len(class_factors)
        density = sum(sizes) / len(sizes)
        region = suspicion.region()
        raw = (
            W_PROX * (1.0 - prox_avg / params.prox_max)
            + W_DUR * min(1.0, dur_tot / (DUR_SATURATION_FACTOR * params.dur_min))
            + W_PRECISION * (precision_prox * PRECISION_DUR)
            + W_DENSITY * min(1.0, density / DENSITY_SATURATION)
            + W_SEVERITY * SEVERITY
        )
        raw = min(1.0, max(0.0, raw))
        scores.append(
            ContactScore(
                pair=suspicion.pair,
                region=region,
                raw=raw,
                risk_class=classify(raw),
                prox_avg=prox_avg,
                dur_tot=dur_tot,
                precision_prox=precision_prox,
                density=density,
            )
        )
    return scores


def median_contact_minute(suspicion: ContactSuspicion, dur_min: int) -> int:
    """Median qualifying minute across the windows that met the duration bar."""
    qualifying = suspicion.qualifying_windows(dur_min)
    minutes = [m for w in qualifying for m in w.minutes]
    if not minutes:
        raise NoEvidenceError("suspicion has no qualifying window")
    return median_low(minutes)


# -- completion ---------------------------------------------------------------------------


def complete_findings(
    capability: Capability,
    index: PdrIndex,
    seeds: Sequence[PhoneOfInterest],
    params: AnalysisParams,
    class_threshold: int,
) -> tuple[dict[PairKey, ContactSuspicion], list[ContactScore], int]:
    """Run the one analysis worklist: the seed phones, then the cascade.

    The seeds are scanned in the given order. After each scan, the pairs it
    found first are kept and their flagged suspicions scored. Every phone of
    a pair scored at or above `class_threshold` that is not a seed joins the
    cascade, which scans each such phone once, smallest phone first, from
    the earliest median minute among the windows that implicated it.
    Returns the first suspicion of every pair, the scores in the order found,
    and the number of pairs the cascade added.
    """
    capability.require_read()
    by_pair: dict[PairKey, ContactSuspicion] = {}
    scores: list[ContactScore] = []
    # Every phone scanned or queued; a queued phone's entry is its scan start so far.
    onset = {poi.phone: poi.t_inf_min for poi in seeds}
    queue: list[PhoneId] = []

    def scan(poi: PhoneOfInterest) -> None:
        found = [s for s in find_suspicions(capability, index, poi, params) if s.pair not in by_pair]
        by_pair.update((s.pair, s) for s in found)
        for score in score_suspicions(capability, [s for s in found if s.pc_susp], params):
            scores.append(score)
            if score.risk_class < class_threshold:
                continue
            median = median_contact_minute(by_pair[score.pair], params.dur_min)
            for phone in score.pair:
                if phone not in onset:
                    heappush(queue, phone)
                onset[phone] = min(median, onset.get(phone, median))

    for poi in seeds:
        scan(poi)
    seeded = len(by_pair)
    while queue:
        phone = heappop(queue)
        scan(PhoneOfInterest(phone=phone, t_inf_min=onset[phone]))
    return by_pair, scores, len(by_pair) - seeded


# -- contamination records and the DAG --------------------------------------------------------


def build_pccont(
    capability: Capability,
    scores: Sequence[ContactScore],
    suspicions_by_pair: dict[PairKey, ContactSuspicion],
    infected: dict[PhoneId, int],
    registry: ProviderRegistry,
    dur_min: int,
) -> list[ContaminationRecord]:
    """Keep only both-infected pairs and resolve their regions to coordinates.

    This is the step that turns relative positions into absolute ones, so it
    demands the full-processing capability.
    """
    capability.require_decrypt()
    records = []
    for score in scores:
        v, u = score.pair
        if v not in infected or u not in infected:
            continue
        suspicion = suspicions_by_pair[score.pair]
        box = resolve_region_box(registry, score.region)
        records.append(
            ContaminationRecord(
                v=v,
                u=u,
                region=score.region,
                coord_box=box,
                median_contact=median_contact_minute(suspicion, dur_min),
                t_inf_min_v=infected[v],
                t_inf_min_u=infected[u],
            )
        )
    return records


def resolve_region_box(registry: ProviderRegistry, region: SpaceTimeRegion) -> tuple[float, float, float, float]:
    """Bounding box of the region's stations: each centroid padded by its range."""
    boxes = []
    for code in sorted(region.stations):
        try:
            info = registry.resolve(code)
        except ValidationError as exc:
            raise ResolutionError(f"station {code} is not in the provider registry") from exc
        cx, cy = info.centroid
        boxes.append((cx - info.useful_range, cy - info.useful_range, cx + info.useful_range, cy + info.useful_range))
    return (
        min(b[0] for b in boxes),
        min(b[1] for b in boxes),
        max(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


def build_dag(records: Sequence[ContaminationRecord], t_incub_min: int, t_incub_max: int) -> InfectionDag:
    """Order contamination records into a plausible who-infected-whom DAG.

    An edge a -> b is added when (a) the contact's median minute falls after
    a's earliest-infection estimate, (b) b's estimate lies at least the minimum
    incubation time after a's (ties broken by phone ordering, which keeps the
    graph acyclic), and (c) the contact sits within the maximum incubation
    time of b's estimate. The weight decays linearly with that separation.
    """
    if t_incub_min > t_incub_max:
        raise ParameterError("t_incub_min must be <= t_incub_max")
    estimates: dict[PhoneId, int] = {}
    for record in records:
        for p, t in ((record.v, record.t_inf_min_v), (record.u, record.t_inf_min_u)):
            if estimates.setdefault(p, t) != t:
                raise ValidationError(f"inconsistent infection estimates for {p.nr}")
    nodes = set()
    edges = []
    for record in records:
        nodes.add(record.v)
        nodes.add(record.u)
        for a, b, t_a, t_b in (
            (record.v, record.u, record.t_inf_min_v, record.t_inf_min_u),
            (record.u, record.v, record.t_inf_min_u, record.t_inf_min_v),
        ):
            if record.median_contact < t_a:
                continue
            if t_b < t_a + t_incub_min:
                continue
            if t_b == t_a and not a < b:
                continue  # strict order fallback when incubation floor is zero
            if abs(record.median_contact - t_b) > t_incub_max:
                continue
            weight = 1.0 - abs(record.median_contact - t_b) / t_incub_max if t_incub_max > 0 else 1.0
            edges.append(DagEdge(src=a, dst=b, record=record, weight=weight))
    return InfectionDag(nodes=frozenset(nodes), edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))))


# -- hotspots ------------------------------------------------------------------------------------


def hotspot_map(records: Sequence[ContaminationRecord], cell_size: float) -> list[tuple[int, int, int]]:
    """Density grid over record coordinates: (cell_x, cell_y, count), densest first."""
    if cell_size <= 0:
        raise ParameterError("cell size must be > 0")
    counts: dict[tuple[int, int], int] = {}
    for record in records:
        x0, y0, x1, y1 = record.coord_box
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        cell = (math.floor(cx / cell_size), math.floor(cy / cell_size))
        counts[cell] = counts.get(cell, 0) + 1
    return sorted(((x, y, c) for (x, y), c in counts.items()), key=lambda t: (-t[2], t[0], t[1]))
