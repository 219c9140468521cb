"""Contact analysis engine: the pair table, suspicion finding, scoring,
completion, the potential-contamination DAG, and hotspot mapping over decrypted
record streams.

The pair table sweeps the decrypted stream a block of minutes at a time, in
numpy: one band search finds every candidate pair of the block's sets, one
sort keeps each pair's best in-range sample per minute, and the samples are
held as columns sorted by (pair, minute). A scan of a phone gathers its pairs'
slices from its lower bound on and cuts them into windows. A suspicion exists
when two phones stayed within the proximity threshold for at least the
duration threshold (short gaps tolerated); scores grade suspicions on
proximity, accumulated duration, measurement precision, crowd density and
venue severity, with fixed weights and one severity for every venue (module
constants).
Confirmed-infected pairs become contamination records, whose time-like
separation (bounded by the incubation window) orders them into a directed
acyclic graph of plausible transmission.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from heapq import heappop, heappush
from itertools import chain
from operator import attrgetter
from statistics import median_low
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NoEvidenceError, ParameterError, ValidationError
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


class ContactWindow(NamedTuple):
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


@dataclass(frozen=True)
class ContactScore:
    """A flagged suspicion's grade, its terms, its region and its median contact minute, which the cascade and the records read."""

    pair: PairKey
    region: SpaceTimeRegion
    raw: float
    risk_class: int  # 1 low .. 4 very high
    prox_avg: float
    dur_tot: int
    precision_prox: float
    density: float
    median_contact: int  # `median_contact_minute` of the suspicion


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
    """A plausible transmission src -> dst, at its contamination record's median contact minute."""

    src: PhoneId
    dst: PhoneId
    median_contact: int
    weight: float


@dataclass(frozen=True)
class InfectionDag:
    """The phones of the contamination records and the edges between them, each in the order `build_dag` sorts them."""

    nodes: tuple[PhoneId, ...]  # sorted
    edges: tuple[DagEdge, ...]  # sorted by (src, dst)

    def topological_order(self) -> list[PhoneId]:
        """Every node, each edge's source before its destination; raises if a cycle sneaks in."""
        sorter = TopologicalSorter({node: () for node in self.nodes})
        for e in self.edges:
            sorter.add(e.dst, e.src)
        try:
            return list(sorter.static_order())
        except CycleError:
            raise ValidationError("graph contains a cycle") from None


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

# Minutes of sets the pair table sweeps at once, in blocks that start at its multiples: each block costs
# a fixed number of numpy calls, and its sets and candidate pairs are all the sweep holds at once.
# On small.json's first four hours 30 ran as fast as 60 and 120, at a traced peak of 1.8x the stored
# ciphertext bytes against 2.2x and 2.7x.
_SWEEP_BLOCK_MIN = 30
_MAX_MINUTE = 2**31 - 1  # the table's minute columns are int32
_MAX_CANDIDATES = 1 << 18  # candidate pairs measured at once, about 15 MB; small.json's and dense150's blocks hold at most 3,400 and 13,100
_CLASSES = tuple(PrecisionClass)  # a class value -> its class


_SetView = NamedTuple("_SetView", [("phones", tuple), ("size", int)])  # a set, as the presence probe lists it


class PdrIndex:
    """Pair table over decrypted sets: each phone pair's in-range samples as columns, sorted by (pair, minute).

    Per pair and minute, the best in-range candidate is kept: most precise
    class, then smallest distance, then station code, then set size. It is
    dropped when a more precise set of that minute holds both phones: that
    station decides, and it put them out of range.

    `sets` is read once, as a stream in minute order (a minute that comes back
    after a later one raises ValidationError, and so does a minute past the
    int32 columns). The stream is swept in blocks of `_SWEEP_BLOCK_MIN`
    minutes, each as soon as the stream leaves it, by one pass of numpy calls
    (`_sweep_block`); no set is kept. The table holds the samples (minute,
    distance, class, station, set size), each pair's slice of them and its
    two phones' ranks, `sets_swept` and, for the `presence` probe, each set's
    minute and phones as ranks. The pairs are sorted by (lower, higher) rank,
    so one scan of the rank columns lists a phone's pairs in partner order.
    """

    def __init__(self, sets: Iterable[PdrSet], prox_max: float):
        self.prox_max = prox_max
        ids: dict[PhoneId, int] = {}  # phone -> id, in order of first appearance
        codes: dict[str, int] = {}  # station code -> id, in order of first appearance
        swept: list[tuple[np.ndarray, ...]] = []  # per block, `_sweep_block`'s set and sample columns
        block: list[PdrSet] = []
        block_end = last = -1
        for pdr_set in sets:
            minute = pdr_set.minute
            if minute != last:
                if minute < last:
                    raise ValidationError(f"sets must arrive in minute order: minute {minute} after minute {last}")
                if minute > _MAX_MINUTE:
                    raise ValidationError(f"minute {minute} is past the pair table's last minute {_MAX_MINUTE}")
                if minute >= block_end:
                    if block:
                        swept.append(_sweep_block(block, ids, codes, prox_max))
                        block = []
                    block_end = minute - minute % _SWEEP_BLOCK_MIN + _SWEEP_BLOCK_MIN
                last = minute
            block.append(pdr_set)
        swept.append(_sweep_block(block, ids, codes, prox_max))  # the last block, or an empty stream's empty one
        del block  # its sets, before the columns are joined
        self.sets_swept = sum(len(columns[0]) for columns in swept)
        self._codes = list(codes)  # station code id -> code
        self._phones = sorted(ids)  # phone rank -> phone
        self._rank = {phone: rank for rank, phone in enumerate(self._phones)}
        rank_of_id = np.empty(len(ids), np.int32)
        rank_of_id[[ids[phone] for phone in self._phones]] = np.arange(len(ids), dtype=np.int32)
        set_minutes, set_sizes, set_phones, pairs, *samples = map(np.concatenate, zip(*swept))
        self._sets = (set_minutes, set_sizes, rank_of_id[set_phones])  # for the `presence` probe only
        # Blocks come in minute order and each is sorted by (pair, minute), so a stable sort by pair sorts by both.
        lo, hi = rank_of_id[pairs >> 32], rank_of_id[pairs & 0xFFFFFFFF]
        order = np.argsort(lo.astype(np.int64) * len(ids) + hi, kind="stable")
        lo, hi = lo[order], hi[order]
        self._minute, self._prox, self._class, self._code, self._size = (column[order] for column in samples)
        change = np.ones(len(lo), bool)
        change[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        first = np.flatnonzero(change)
        self._bounds = np.append(first, len(lo))  # pair k's samples are [bounds[k], bounds[k + 1])
        self._lo, self._hi = lo[first], hi[first]  # each pair's phone ranks, the lower first

    def _pairs_of(self, phone: PhoneId) -> np.ndarray:
        """The indices of `phone`'s pairs, in partner order: its lower partners, then its higher ones, as the pairs are sorted."""
        rank = self._rank.get(phone, -1)
        return np.flatnonzero((self._lo == rank) | (self._hi == rank))

    @cached_property
    def presence(self) -> dict[PhoneId, dict[int, list[tuple[_SetView, int]]]]:
        """phone -> minute -> (set view, position): a read-only view for tests and tracing; no scan uses it."""
        presence: dict[PhoneId, dict[int, list[tuple[_SetView, int]]]] = {}
        minutes, sizes, ranks = self._sets  # each set's minute and size in stream order, and its phones' ranks, set after set
        phones = list(map(self._phones.__getitem__, ranks.tolist()))
        end = 0
        for minute, size in zip(minutes.tolist(), sizes.tolist()):
            begin, end = end, end + size
            view = _SetView(tuple(phones[begin:end]), size)
            for pos, p in enumerate(view.phones):
                presence.setdefault(p, {}).setdefault(minute, []).append((view, pos))
        return presence


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of `arange(start, start + length)` over the pairs."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def _runs(counts: np.ndarray) -> Iterator[tuple[int, int]]:
    """The sorted readings cut into runs [begin, end) of at most `_MAX_CANDIDATES` candidates, or of one reading.

    A crowd of phones at one radius then costs the sweep time, not memory. An
    empty block is one empty run.
    """
    upto = np.cumsum(counts)
    begin = 0
    while True:
        before = upto[begin - 1] if begin else 0
        end = min(len(counts), max(begin + 1, int(np.searchsorted(upto, before + _MAX_CANDIDATES, "right"))))
        yield begin, end
        if end >= len(counts):
            return
        begin = end


def _in_range(order: np.ndarray, r: np.ndarray, a: np.ndarray, begin: int, counts: np.ndarray, prox_max: float) -> tuple[np.ndarray, ...]:
    """The candidates of the sorted readings from `begin` on, each against the next `counts` readings, that lie within `prox_max`: (i, j, distance).

    The distance takes the scalar law's operations in its order, numpy's
    being IEEE-exact and `math.sin` mapped over the list, so it is the same
    bit for bit, and symmetric.
    """
    left = np.repeat(np.arange(begin, begin + len(counts)), counts)
    right = _ranges(np.arange(begin + 1, begin + len(counts) + 1), counts)
    i, j = order[left], order[right]
    del left, right
    # dist = sqrt(dr * dr + 4.0 * (rv * r) * (half * half)), in place; each step's operands commute exactly.
    half = np.fromiter(map(math.sin, (0.5 * np.abs(a[i] - a[j])).tolist()), np.float64, len(i))
    half *= half
    product = r[i] * r[j]
    product *= 4.0
    product *= half
    del half
    dist = r[i] - r[j]
    dist *= dist
    dist += product
    del product
    np.sqrt(dist, out=dist)
    near = np.flatnonzero(dist <= prox_max)
    return i[near], j[near], dist[near]


def _sweep_block(sets: list[PdrSet], ids: dict[PhoneId, int], codes: dict[str, int], prox_max: float) -> tuple[np.ndarray, ...]:
    """One block of minute-ordered sets, swept into the table's columns.

    `ids` and `codes` give new phones and stations the next id. Returns the
    block's set columns (minutes, sizes, phone ids) and its samples (pair,
    minute, distance, class, code id, set size), sorted by (pair, minute),
    where a pair is the lower phone's id times 2**32 plus the higher's.

    Each set is measured in radius order, a phone only against the phones
    above it within `prox_max` plus a slack: two phones at radii rv and r are
    at least |rv - r| apart, and the slack covers the rounding of the
    distance, below 1e-7 * (rv + r). One `searchsorted` finds every band at
    once, and the candidates are measured a run of readings at a time
    (`_runs`, `_in_range`).
    """
    set_phones = list(map(attrgetter("phones"), sets))
    stations = list(map(attrgetter("bs"), sets))
    phones = list(chain.from_iterable(set_phones))
    n = len(phones)
    phone_ids = list(map(ids.get, phones))
    if None in phone_ids:
        phone_ids = [ids.setdefault(phone, len(ids)) for phone in phones]
    code_col = np.array([codes.setdefault(bs.code, len(codes)) for bs in stations], np.int32)
    code_rank = np.empty(len(codes), np.int32)  # code id -> the code's rank among every code met so far
    code_rank[[codes[code] for code in sorted(codes)]] = np.arange(len(codes), dtype=np.int32)
    pid = np.array(phone_ids, np.int64)
    sizes = np.fromiter(map(len, set_phones), np.int32, len(sets))
    minutes = np.fromiter(map(attrgetter("minute"), sets), np.int32, len(sets))
    classes = np.fromiter(map(attrgetter("precision_class"), stations), np.int8, len(sets))
    r = np.fromiter(chain.from_iterable(map(attrgetter("radii"), sets)), np.float64, n)
    a = np.fromiter(chain.from_iterable(map(attrgetter("azimuths"), sets)), np.float64, n)
    set_of = np.repeat(np.arange(len(sets)), sizes)  # each reading's set; readings are set after set, in phone order

    # Candidates: each reading, in (set, radius) order, against the readings after it up to its band. One
    # int key sorts by (set, radius) and bounds every band in one `searchsorted`: the set's index in the
    # high bits, then the radius's IEEE bits (of +0.0 for -0.0), which order as the radius does, cut to
    # the low ones. The cut ties only radii within 2**-32 of each other, which may then sort either way:
    # a band may take in a reading a hair past its bound, out of range and measured for nothing, and the
    # set's last radius, which sets the slack, may fall short of its largest by as little, far inside the
    # slack's margin. No reading within a band is left out.
    spare = max(20, len(sets).bit_length())
    base = set_of << (63 - spare)
    keys = base | ((r + 0.0).view(np.int64) >> spare)
    order = np.argsort(keys, kind="stable")
    keys, sorted_r = keys[order], r[order]
    last = np.cumsum(sizes, dtype=np.int64)[set_of] - 1  # the end of each reading's set's run
    bound = sorted_r + (prox_max + 2e-6 * sorted_r[last])
    stop = np.searchsorted(keys, base | ((bound + 0.0).view(np.int64) >> spare), "right")
    counts = np.maximum(stop - np.arange(n) - 1, 0)
    i, j, dist = map(np.concatenate, zip(*(_in_range(order, r, a, begin, counts[begin:end], prox_max) for begin, end in _runs(counts))))
    lo, hi = np.minimum(i, j), np.maximum(i, j)  # a set's readings are in phone order
    s = set_of[i]
    pair = (pid[lo] << 32) | pid[hi]
    cand_minute, cand_class, cand_code, cand_size = minutes[s], classes[s], code_col[s], sizes[s]

    # The best candidate per (pair, minute): class descending, then distance, code and size ascending.
    best = np.lexsort((cand_size, code_rank[cand_code], dist, -cand_class, cand_minute, pair))
    pair, cand_minute = pair[best], cand_minute[best]
    head = np.ones(len(best), bool)
    head[1:] = (pair[1:] != pair[:-1]) | (cand_minute[1:] != cand_minute[:-1])
    best = best[head]
    pair, cand_minute = pair[head], cand_minute[head]

    # The more-precise-set rule: drop a sample when a set of a higher class in its minute holds both phones.
    in_held = classes[set_of] > 0  # the readings of pico and femto sets, the only sets that outrank a sample
    below = np.flatnonzero(cand_class[best] < classes.max(initial=0))
    if in_held.any() and len(below):
        held = np.flatnonzero(classes > 0)
        width = len(ids)
        members = np.sort(set_of[in_held] * width + pid[in_held])  # (set, phone) of every reading in a held set
        first = np.searchsorted(minutes[held], cand_minute[below], "left")
        count = np.searchsorted(minutes[held], cand_minute[below], "right") - first
        owner = np.repeat(np.arange(len(below)), count)
        outranking = held[_ranges(first, count)]
        sample = below[owner]
        a_key, b_key = outranking * width + pid[lo[best[sample]]], outranking * width + pid[hi[best[sample]]]
        a_in = members[np.minimum(np.searchsorted(members, a_key), len(members) - 1)] == a_key
        b_in = members[np.minimum(np.searchsorted(members, b_key), len(members) - 1)] == b_key
        dropped = sample[(classes[outranking] > cand_class[best[sample]]) & a_in & b_in]
        keep = np.ones(len(best), bool)
        keep[dropped] = False
        best, pair, cand_minute = best[keep], pair[keep], cand_minute[keep]
    return (
        minutes,
        sizes,
        pid,
        pair,
        cand_minute,
        dist[best],
        cand_class[best],
        cand_code[best],
        cand_size[best],
    )


# -- suspicion finding ----------------------------------------------------------------


def find_suspicions(
    capability: Capability, index: PdrIndex, poi: PhoneOfInterest, params: AnalysisParams
) -> list[ContactSuspicion]:
    """Read from the pair table the phones that stayed close to the phone of interest, in partner order (the pair sort's order).

    Only minutes at or after the phone's earliest-infection estimate (less
    the search margin) are considered; the table holds, per minute, the
    sample of the most precise station that sees both phones, if in range.
    Qualifying minutes accumulate into windows, tolerating gaps up to the
    configured number of minutes. A pair is flagged once any single window
    reaches the duration threshold. The index must be built for `params.prox_max`.

    The phone's pairs' slices are read in one gather; each slice is minute
    ordered, so the minutes before the lower bound are its head, and windows
    are cut where the pair changes or the gap is too long. Only the windows'
    tuples are built per sample.
    """
    capability.require_read()
    if params.prox_max != index.prox_max:
        raise ParameterError(f"index built for prox_max {index.prox_max}, scan asks for {params.prox_max}")
    lower = max(0, poi.t_inf_min - params.search_margin)
    pairs = index._pairs_of(poi.phone)
    starts = index._bounds[pairs]
    lengths = index._bounds[pairs + 1] - starts
    owner = np.repeat(np.arange(len(pairs)), lengths)
    at = _ranges(starts, lengths)
    minutes = index._minute[at]
    since = np.flatnonzero(minutes >= lower)
    if not len(since):
        return []
    at, owner, minutes = at[since], owner[since], minutes[since]
    cut = np.ones(len(at), bool)
    cut[1:] = (owner[1:] != owner[:-1]) | (minutes[1:] - minutes[:-1] - 1 > params.gap_tolerance)
    begins = np.flatnonzero(cut)
    ends = np.append(begins[1:], len(at))
    firsts = np.flatnonzero(np.diff(owner[begins], prepend=-1))  # each pair's first window
    flagged = np.logical_or.reduceat(ends - begins >= params.dur_min, firsts).tolist()
    minutes, prox, sizes = tuple(minutes.tolist()), tuple(index._prox[at].tolist()), tuple(index._size[at].tolist())
    classes = tuple(map(_CLASSES.__getitem__, index._class[at].tolist()))
    stations = tuple(map(index._codes.__getitem__, index._code[at].tolist()))
    windows = [
        ContactWindow(minutes[a:b], prox[a:b], classes[a:b], frozenset(stations[a:b]), sizes[a:b])
        for a, b in zip(begins.tolist(), ends.tolist())
    ]
    found = pairs[owner[begins[firsts]]]
    phones = index._phones
    suspicions = [
        ContactSuspicion(pair=(phones[lo], phones[hi]), pc_susp=pc_susp, windows=tuple(windows[w0:w1]))
        for lo, hi, pc_susp, w0, w1 in zip(
            index._lo[found].tolist(), index._hi[found].tolist(), flagged, firsts.tolist(), [*firsts[1:].tolist(), len(windows)]
        )
    ]
    return suspicions


# -- scoring ------------------------------------------------------------------------------


def score_suspicions(
    capability: Capability,
    suspicions: Iterable[ContactSuspicion],
    params: AnalysisParams,
) -> list[ContactScore]:
    """Grade flagged suspicions into risk classes 1..4, keeping every term, the region and the median contact minute."""
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
                region=SpaceTimeRegion(start=windows[0].start, end=windows[-1].end, stations=frozenset().union(*(w.stations for w in windows))),
                raw=raw,
                risk_class=classify(raw),
                prox_avg=prox_avg,
                dur_tot=dur_tot,
                precision_prox=precision_prox,
                density=density,
                median_contact=median_contact_minute(suspicion, params.dur_min),
            )
        )
    return scores


def median_contact_minute(suspicion: ContactSuspicion, dur_min: int) -> int:
    """Median qualifying minute across the windows that met the duration bar."""
    minutes = [m for w in suspicion.windows if w.duration >= dur_min for m in w.minutes]
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
            for phone in score.pair:
                if phone not in onset:
                    heappush(queue, phone)
                onset[phone] = min(score.median_contact, onset.get(phone, score.median_contact))

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
    infected: dict[PhoneId, int],
    registry: ProviderRegistry,
) -> list[ContaminationRecord]:
    """Keep only both-infected pairs and resolve their regions to coordinates.

    Each record takes its region and median contact minute from its score.
    This is the step that turns relative positions into absolute ones, so it
    demands the full-processing capability.
    """
    capability.require_decrypt()
    records = []
    for score in scores:
        v, u = score.pair
        if v not in infected or u not in infected:
            continue
        records.append(
            ContaminationRecord(
                v=v,
                u=u,
                region=score.region,
                coord_box=resolve_region_box(registry, score.region),
                median_contact=score.median_contact,
                t_inf_min_v=infected[v],
                t_inf_min_u=infected[u],
            )
        )
    return records


def resolve_region_box(registry: ProviderRegistry, region: SpaceTimeRegion) -> tuple[float, float, float, float]:
    """Bounding box of the region's stations: each centroid padded by its range."""
    boxes = []
    for code in sorted(region.stations):
        info = registry.resolve(code)
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
            edges.append(DagEdge(src=a, dst=b, median_contact=record.median_contact, weight=weight))
    return InfectionDag(nodes=tuple(sorted(nodes)), edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))))


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
