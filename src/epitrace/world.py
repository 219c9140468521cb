"""Deterministic synthetic world: station layout, phone mobility, measurement,
and the ground-truth epidemic recovered later by the analysis pipeline.

Everything is a pure function of the scenario seed. Phones move in small
household groups between homes and venues; whenever an infectious phone stays
within transmission distance of a susceptible one long enough, the infection
is planted and recorded as ground truth.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from random import Random

import numpy as np

from .errors import ConfigurationError, ResolutionError, ValidationError
from .framing import canonical_json
from .records import TWO_PI, BsCode, PhoneId, PrecisionClass, Sweep

Point = tuple[float, float]

MINUTES_PER_DAY = 1440

# Accepted value types per annotated config field type; bool only for bool fields.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete scenario parameterisation; the JSON schema mirrors these fields."""

    seed: int = 42
    # world
    world_size_m: float = 600.0
    n_phones: int = 50
    n_venues: int = 8
    duration_min: int = 1440
    n_providers: int = 2
    # stations
    n_macro: int = 1
    n_pico: int = 2
    n_femto: int = 4
    range_macro_m: float = 1500.0
    range_pico_m: float = 40.0
    range_femto_m: float = 8.0
    sigma_macro_m: float = 150.0
    sigma_pico_m: float = 10.0
    sigma_femto_m: float = 1.0
    noise_enabled: bool = True
    # epidemic
    index_cases: int = 1
    transmission_distance_m: float = 2.0
    min_exposure_min: int = 15
    t_incub_min: int = 60
    t_incub_max: int = 1440
    transmission_probability: float = 1.0
    exact_onset_estimates: bool = False
    # analysis thresholds
    prox_max_m: float = 2.0
    dur_min: int = 15
    gap_tolerance_min: int = 2
    search_margin_min: int = 0  # scan this many minutes before the onset estimate
    completion_class_threshold: int = 3
    alert_minute: int = 960
    hotspot_cell_m: float = 50.0
    # retention
    pdr_ttl_factor: int = 2
    prune_every_min: int = MINUTES_PER_DAY
    # federation
    n_authorities: int = 7
    f: int = 2
    q_read: int = 3
    q_critical: int = 5
    fed_key_threshold: int = 5
    vote_window_min: int = 60
    # vault
    n_clouds: int = 4
    erasure_k: int = 2
    vault_key_threshold: int = 3

    def __post_init__(self) -> None:
        # Checked, never coerced, so that a value and its digest agree.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):  # NaN slips through every range check
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
        counts = {
            "n_phones": self.n_phones,
            "n_venues": self.n_venues,
            "duration_min": self.duration_min,
            "n_providers": self.n_providers,
            "index_cases": self.index_cases,
            "min_exposure_min": self.min_exposure_min,
            "n_authorities": self.n_authorities,
            "n_clouds": self.n_clouds,
            "erasure_k": self.erasure_k,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.prune_every_min < 1:
            raise ConfigurationError(f"prune_every_min must be >= 1, got {self.prune_every_min}")
        non_negative = {
            "n_macro": self.n_macro,
            "n_pico": self.n_pico,
            "n_femto": self.n_femto,
            "gap_tolerance_min": self.gap_tolerance_min,
            "search_margin_min": self.search_margin_min,
            "transmission_distance_m": self.transmission_distance_m,  # squared when used, so -1 would act as 1
            "t_incub_min": self.t_incub_min,
            "t_incub_max": self.t_incub_max,
            "pdr_ttl_factor": self.pdr_ttl_factor,
            "vote_window_min": self.vote_window_min,
            "f": self.f,
            "range_macro_m": self.range_macro_m,
            "range_pico_m": self.range_pico_m,
            "range_femto_m": self.range_femto_m,
            "sigma_macro_m": self.sigma_macro_m,
            "sigma_pico_m": self.sigma_pico_m,
            "sigma_femto_m": self.sigma_femto_m,
        }
        for name, value in non_negative.items():
            if not value >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        # The federation and vault ranges, checked here so that a bad config
        # fails before the world is generated.
        if not (2 * self.f + 1 <= self.n_authorities <= 255):
            raise ConfigurationError(f"n_authorities must be in [2f+1, 255], got {self.n_authorities} with f={self.f}")
        for name, value in (("q_read", self.q_read), ("q_critical", self.q_critical)):
            if not (self.f + 1 <= value <= self.n_authorities):
                raise ConfigurationError(f"{name} must be in [f+1, n_authorities], got {value}")
        if not (1 <= self.fed_key_threshold <= self.n_authorities):
            raise ConfigurationError(f"fed_key_threshold must be in [1, n_authorities], got {self.fed_key_threshold}")
        if self.n_clouds > 255:
            raise ConfigurationError(f"n_clouds must be <= 255, got {self.n_clouds}")
        if self.index_cases > self.n_phones:
            raise ConfigurationError(f"index_cases must be <= n_phones, got {self.index_cases} > {self.n_phones}")
        if self.erasure_k > self.n_clouds:
            raise ConfigurationError(f"erasure_k must be <= n_clouds, got {self.erasure_k} > {self.n_clouds}")
        if not (1 <= self.vault_key_threshold <= self.n_clouds):
            raise ConfigurationError(f"vault_key_threshold must be in [1, n_clouds], got {self.vault_key_threshold}")
        if self.prox_max_m <= 0:
            raise ConfigurationError("prox_max_m must be > 0")
        if self.hotspot_cell_m <= 0:
            raise ConfigurationError("hotspot_cell_m must be > 0")
        # A station box reaches at most `extent` from the origin, which bounds
        # the hotspot cell index floor((x0 + x1) / 2 / cell) of any box.
        extent = self.world_size_m + max(self.range_macro_m, self.range_pico_m, self.range_femto_m)
        if not math.isfinite((extent + extent) / 2.0 / self.hotspot_cell_m):
            raise ConfigurationError(f"hotspot_cell_m {self.hotspot_cell_m} overflows the grid index of a {extent} m coordinate")
        # A noisy offset is the in-range offset plus one Box-Muller draw, which
        # is at most sqrt(-2 ln 2**-53) < 8.6 sigma.
        for cls in ("macro", "pico", "femto"):
            useful_range, sigma = getattr(self, f"range_{cls}_m"), getattr(self, f"sigma_{cls}_m")
            if not math.isfinite(useful_range + 8.6 * sigma):
                raise ConfigurationError(f"sigma_{cls}_m {sigma} overflows a noisy offset within range_{cls}_m {useful_range}")
        if self.dur_min < 1:
            raise ConfigurationError("dur_min must be >= 1")
        if not self.world_size_m > 0:
            raise ConfigurationError(f"world_size_m must be > 0, got {self.world_size_m}")
        if self.transmission_distance_m > self.world_size_m:
            raise ConfigurationError("transmission distance exceeds world size")
        if self.t_incub_min > self.t_incub_max:
            raise ConfigurationError("t_incub_min must be <= t_incub_max")
        if not (0.0 < self.transmission_probability <= 1.0):
            raise ConfigurationError("transmission_probability must be in (0, 1]")
        if not (0 <= self.alert_minute <= self.duration_min):
            raise ConfigurationError("alert_minute must fall inside the scenario")

    @property
    def pdr_ttl(self) -> int:
        return self.pdr_ttl_factor * self.t_incub_max

    def canonical_json(self) -> str:
        return canonical_json(asdict(self)).decode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# -- registry and traces ---------------------------------------------------------


@dataclass(frozen=True)
class StationInfo:
    centroid: Point
    useful_range: float


@dataclass
class ProviderRegistry:
    """The only holder of the station-code-to-coordinates mapping."""

    stations: dict[BsCode, StationInfo]
    providers: dict[str, list[BsCode]]

    def resolve(self, code: str) -> StationInfo:
        for bs, info in self.stations.items():
            if bs.code == code:
                return info
        raise ResolutionError(f"station {code} is not in the provider registry")

    def sorted_stations(self) -> list[tuple[BsCode, StationInfo]]:
        return sorted(self.stations.items(), key=lambda kv: kv[0].code)


@dataclass(frozen=True)
class MobilityTrace:
    phone: PhoneId
    waypoints: tuple[tuple[int, Point], ...]

    def __post_init__(self) -> None:
        minutes = [m for m, _ in self.waypoints]
        if any(b <= a for a, b in zip(minutes, minutes[1:])):
            raise ValidationError("waypoints must be strictly increasing in minute")


@dataclass(frozen=True)
class InfectionRecord:
    t_infected: int
    infected_by: PhoneId | None


@dataclass(frozen=True)
class GroundTruth:
    infections: dict[PhoneId, InfectionRecord]

    def chain_depth(self) -> int:
        depth: dict[PhoneId, int] = {}

        def walk(phone: PhoneId) -> int:
            if phone in depth:
                return depth[phone]
            rec = self.infections[phone]
            d = 1 if rec.infected_by is None else walk(rec.infected_by) + 1
            depth[phone] = d
            return d

        return max((walk(p) for p in self.infections), default=0)


# -- generation ---------------------------------------------------------------------

_WALK_SPEED_M_PER_MIN = 80.0
_PLACE_RADIUS_M = 1.0  # phones dwell within this radius of a venue/home point
_MAX_ATTEMPTS = 8
# Longest epidemic-replay segment. A segment is computed whole even when a
# transmission cuts it short, so long blocks waste work on failure-heavy
# epidemics (and memory); 32 minutes keeps the numpy calls per minute low.
_REPLAY_BLOCK_MIN = 32


def _station_code(seed: int, provider: str, cls: PrecisionClass, idx: int) -> str:
    # Keyed pseudorandom station tokens; nothing about position leaks from them.
    key = hashlib.sha256(f"station-code/{seed}".encode()).digest()
    return hmac.new(key, f"{provider}/{cls.name}/{idx}".encode(), hashlib.sha256).hexdigest()[:16]


def _phone(idx: int) -> PhoneId:
    return PhoneId(nr=f"6{idx:08d}", imei=f"{350000000000000 + idx:015d}")


def generate_world(config: ScenarioConfig) -> tuple[ProviderRegistry, list[MobilityTrace], GroundTruth]:
    """Build the deterministic world for a scenario seed.

    Mobility is retried with derived sub-seeds until the planted epidemic
    satisfies the chain guarantee (a chain of ≥ 3 phones once ≥ 20 phones are
    simulated); the whole procedure remains a pure function of the config.
    """
    registry = _build_registry(config)
    for attempt in range(_MAX_ATTEMPTS):
        traces = _build_traces(config, attempt)
        ground_truth = _replay_epidemic(config, traces, attempt)
        chain_ok = config.n_phones < 20 or ground_truth.chain_depth() >= 3
        spread_ok = config.n_phones < 10 or len(ground_truth.infections) > len(_index_phones(config))
        if chain_ok and spread_ok:
            return registry, traces, ground_truth
    raise ConfigurationError("epidemic parameters too sparse: no qualifying infection chain after retries")


def _build_registry(config: ScenarioConfig) -> ProviderRegistry:
    rng = Random(f"{config.seed}/layout")
    size = config.world_size_m
    venues = _venue_points(config)
    stations: dict[BsCode, StationInfo] = {}
    providers: dict[str, list[BsCode]] = {f"P{p}": [] for p in range(1, config.n_providers + 1)}
    provider_names = sorted(providers)

    def add(cls: PrecisionClass, idx: int, centroid: Point, useful_range: float) -> None:
        provider = provider_names[(idx + cls) % len(provider_names)]
        bs = BsCode(code=_station_code(config.seed, provider, cls, idx), precision_class=cls)
        stations[bs] = StationInfo(centroid=centroid, useful_range=useful_range)
        providers[provider].append(bs)

    for i in range(config.n_macro):
        # Central placement: macro cells are meant to blanket the world.
        jitter = (rng.uniform(-size / 10, size / 10), rng.uniform(-size / 10, size / 10))
        add(PrecisionClass.MACRO, i, (size / 2 + jitter[0], size / 2 + jitter[1]), config.range_macro_m)
    for i in range(config.n_pico):
        add(PrecisionClass.PICO, i, (rng.uniform(0, size), rng.uniform(0, size)), config.range_pico_m)
    for i in range(config.n_femto):
        # Pin femto stations to venues, cycling when there are more cells than venues.
        add(PrecisionClass.FEMTO, i, venues[i % len(venues)], config.range_femto_m)
    return ProviderRegistry(stations=stations, providers=providers)


def _venue_points(config: ScenarioConfig) -> list[Point]:
    rng = Random(f"{config.seed}/venues")
    margin = min(50.0, config.world_size_m / 10)
    return [
        (rng.uniform(margin, config.world_size_m - margin), rng.uniform(margin, config.world_size_m - margin))
        for _ in range(config.n_venues)
    ]


def _groups(config: ScenarioConfig) -> list[list[int]]:
    rng = Random(f"{config.seed}/groups")
    phones = list(range(config.n_phones))
    groups = []
    i = 0
    while i < len(phones):
        size = rng.choice([1, 2, 2, 3, 3, 4])
        groups.append(phones[i : i + size])
        i += size
    return groups


def _build_traces(config: ScenarioConfig, attempt: int) -> list[MobilityTrace]:
    rng = Random(f"{config.seed}/mobility/{attempt}")
    venues = _venue_points(config)
    size = config.world_size_m
    margin = min(50.0, size / 10)
    traces: list[MobilityTrace | None] = [None] * config.n_phones

    for group in _groups(config):
        home = (rng.uniform(margin, size - margin), rng.uniform(margin, size - margin))
        # Group-level anchor schedule: dwell somewhere, walk to the next place.
        anchor_legs: list[tuple[int, int, Point]] = []  # (arrive, depart, place)
        t = 0
        place = home
        while t < config.duration_min:
            dwell = rng.randint(45, 180) if place == home else rng.randint(30, 120)
            depart = min(t + dwell, config.duration_min)
            anchor_legs.append((t, depart, place))
            if depart >= config.duration_min:
                break
            nxt = rng.choice(venues) if (place == home or rng.random() < 0.25) else (home if rng.random() < 0.5 else rng.choice(venues))
            travel = max(1, math.ceil(math.dist(place, nxt) / _WALK_SPEED_M_PER_MIN))
            t = depart + travel
            place = nxt
        for member in group:
            member_rng = Random(f"{config.seed}/offset/{attempt}/{member}")
            waypoints: list[tuple[int, Point]] = []
            for arrive, depart, anchor in anchor_legs:
                angle = member_rng.uniform(0, TWO_PI)
                radius = _PLACE_RADIUS_M * math.sqrt(member_rng.random())
                pos = (anchor[0] + radius * math.cos(angle), anchor[1] + radius * math.sin(angle))
                if not waypoints or waypoints[-1][0] < arrive:
                    waypoints.append((arrive, pos))
                if depart > arrive:
                    waypoints.append((depart, pos))
            if waypoints[-1][0] < config.duration_min:
                waypoints.append((config.duration_min, waypoints[-1][1]))
            traces[member] = MobilityTrace(phone=_phone(member), waypoints=tuple(waypoints))
    return [t for t in traces if t is not None]


def _index_phones(config: ScenarioConfig) -> list[PhoneId]:
    rng = Random(f"{config.seed}/index-cases")
    chosen = rng.sample(range(config.n_phones), config.index_cases)
    return [_phone(i) for i in sorted(chosen)]


def trace_positions(traces: list[MobilityTrace], start: int, stop: int) -> np.ndarray:
    """Positions of every phone at each whole minute of [start, stop), shape (stop - start, n, 2).

    Each minute is interpolated on its own, so the rows equal the same
    minutes' rows of any wider range bit for bit.
    """
    minutes = np.arange(start, stop, dtype=float)
    out = np.empty((len(minutes), len(traces), 2), dtype=float)
    for j, trace in enumerate(traces):
        ts = np.array([m for m, _ in trace.waypoints], dtype=float)
        xs = np.array([p[0] for _, p in trace.waypoints], dtype=float)
        ys = np.array([p[1] for _, p in trace.waypoints], dtype=float)
        out[:, j, 0] = np.interp(minutes, ts, xs)
        out[:, j, 1] = np.interp(minutes, ts, ys)
    return out


def _replay_epidemic(config: ScenarioConfig, traces: list[MobilityTrace], attempt: int) -> GroundTruth:
    """Plant the epidemic of one mobility attempt and return it as ground truth.

    The transmission rule, minute by minute: a phone infected at minute t is
    infectious from minute t + t_incub_min on (index cases at t = 0). An
    infectious phone i and a susceptible phone j gain one minute of exposure
    in every minute with (xi-xj)**2 + (yi-yj)**2 <= transmission_distance_m**2
    and lose all of it in any other. In a minute where pairs reach
    min_exposure_min, each such victim in ascending phone order names as
    infector its candidate with the smallest (infected_at, phone) and, only
    when transmission_probability < 1, draws one rng.random(): above the
    probability the transmission fails. Either way the victim's exposure to
    every phone restarts from zero, so further exposure may retry.

    The replay applies that rule a segment at a time. Within a segment the
    infectious and susceptible sets are fixed, so one numpy pass over the
    infectious x susceptible pairs gives each pair's exposure at every minute:
    its run of close minutes, plus the count carried in from the previous
    segment while the run reaches back to the segment's start. A segment ends
    at the next onset of infectiousness, after `_REPLAY_BLOCK_MIN` minutes, or
    at the first minute a pair reaches min_exposure_min; the rule is applied
    there and the next segment starts one minute later.
    """
    rng = Random(f"{config.seed}/epidemic/{attempt}")
    n = len(traces)
    duration = config.duration_min
    positions = trace_positions(traces, 0, duration)
    xs, ys = positions[:, :, 0], positions[:, :, 1]
    reach_sq = config.transmission_distance_m**2
    phones = [t.phone for t in traces]
    index_set = set(_index_phones(config))
    infected_at = np.full(n, -1, dtype=int)
    infections: dict[PhoneId, InfectionRecord] = {}
    for j, phone in enumerate(phones):
        if phone in index_set:
            infected_at[j] = 0
            infections[phone] = InfectionRecord(t_infected=0, infected_by=None)

    exposure = np.zeros((n, n), dtype=int)  # consecutive qualifying minutes, infector x susceptible
    start = 0
    while start < duration:
        infected = infected_at >= 0
        onset = infected_at + config.t_incub_min
        infectious = np.flatnonzero(infected & (onset <= start))
        susceptible = np.flatnonzero(~infected)
        next_onset = int(onset[infected & (onset > start)].min(initial=duration))
        if not susceptible.size:
            break
        if not infectious.size:
            start = next_onset
            continue
        stop = min(start + _REPLAY_BLOCK_MIN, next_onset)
        # Each (minutes, infectious, susceptible) array is worked on in place
        # and dropped once used, so that few of them stay on the heap at once.
        x, y = xs[start:stop], ys[start:stop]
        dist_sq = x[:, infectious, None] - x[:, None, susceptible]
        dist_sq *= dist_sq
        dy = y[:, infectious, None] - y[:, None, susceptible]
        dy *= dy
        dist_sq += dy
        close = dist_sq <= reach_sq
        del dist_sq, dy
        steps = np.arange(1, stop - start + 1)[:, None, None]
        last_far = np.where(close, 0, steps)
        np.maximum.accumulate(last_far, axis=0, out=last_far)  # 0 while the run reaches back to start
        pairs = np.ix_(infectious, susceptible)
        runs = steps - last_far
        np.add(runs, exposure[pairs], out=runs, where=last_far == 0)
        del last_far
        complete = runs >= config.min_exposure_min
        reached = complete.any(axis=(1, 2))
        if not reached.any():
            exposure[pairs] = runs[-1]
            start = stop
            continue
        step = int(reached.argmax())
        minute = start + step
        exposure[pairs] = runs[step]
        complete = complete[step]
        for v in np.flatnonzero(complete.any(axis=0)).tolist():
            j = susceptible[v]
            infector = min(infectious[complete[:, v]].tolist(), key=lambda i: (infected_at[i], phones[i]))
            exposure[:, j] = 0
            if config.transmission_probability < 1.0 and rng.random() > config.transmission_probability:
                continue  # failed transmission; further exposure may retry
            infected_at[j] = minute
            infections[phones[j]] = InfectionRecord(t_infected=minute, infected_by=phones[infector])
        start = minute + 1
    return GroundTruth(infections=infections)


# -- measurement -----------------------------------------------------------------


Run = tuple[int, BsCode, int]  # (minute, station, readings): one station-minute that saw a phone


@dataclass(frozen=True)
class NoiseModel:
    """Seeded measurement noise; sigma depends on the station precision class.

    With noise off every sigma is 0.0. Called with a block's noisy runs, whose
    station's sigma is positive, it returns their readings' x and y offsets in
    run order. A station-minute's stream is keyed by (seed, minute, station),
    so adding a station never perturbs another's readings, and it is seeded
    only when a phone is in the station's range. Each reading draws one
    Box-Muller pair from it, the two `Random.gauss(0.0, sigma)` calls it
    equals bitwise: the cosine term offsets x, the sine term y. A stream of
    `count` readings is one `getrandbits(128 * count)`, whose little-endian
    32-bit words are the generator's outputs in order; each pair of words
    (w0, w1) gives the uniform `((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53`,
    which is `Random.random()`'s own formula. Transcendentals run through
    `math` (libm) and numpy does only IEEE-exact arithmetic in the same
    operand order, so each offset equals `0.0 + Random.gauss(0.0, sigma)` bit
    for bit.
    """

    seed: int
    sigma_by_class: dict[PrecisionClass, float]

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "NoiseModel":
        sigmas = (config.sigma_macro_m, config.sigma_pico_m, config.sigma_femto_m) if config.noise_enabled else (0.0, 0.0, 0.0)
        return cls(seed=config.seed, sigma_by_class=dict(zip((PrecisionClass.MACRO, PrecisionClass.PICO, PrecisionClass.FEMTO), sigmas)))

    def __call__(self, runs: list[Run]) -> tuple[np.ndarray, np.ndarray]:
        words = np.frombuffer(
            b"".join(Random(f"{self.seed}/observe/{m}/{bs.code}").getrandbits(128 * count).to_bytes(16 * count, "little") for m, bs, count in runs),
            dtype="<u4",
        )
        uniform = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
        x2pi = (uniform[0::2] * TWO_PI).tolist()
        g2rad = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - uniform[1::2]).tolist()))))
        sigma = np.repeat([self.sigma_by_class[bs.precision_class] for _m, bs, _count in runs], [count for _m, _bs, count in runs])
        dx = 0.0 + np.array(list(map(math.cos, x2pi))) * g2rad * sigma
        dy = 0.0 + np.array(list(map(math.sin, x2pi))) * g2rad * sigma
        return dx, dy


# One measured block, as `measure` returns it and `observe` reads it: the runs
# as int32 (minute offset, station index, count) rows, the int32 phone index of
# each reading, and each reading's x and y offset from its station.
Measured = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def measure(registry: ProviderRegistry, start: int, positions: np.ndarray, noise: NoiseModel) -> Measured:
    """What the stations measure over a block of minutes, as plain arrays; `observe` turns them into a `Sweep`.

    `positions` holds every phone's position at minutes start, start + 1, ...,
    shape (minutes, n, 2), as `trace_positions` gives them, with the traces in
    ascending phone order. The range test runs once per block, over the
    stations in code order: a phone inside a station's useful range gives one
    reading per minute, so overlapping stations read it several times. The
    readings come in (minute, station, phone) order, one run per
    station-minute that read a phone. A run is noisy where its station's
    sigma is positive (none with noise off); `noise` draws the x and y offsets
    of exactly the noisy runs, and they are added to their readings' offsets.
    Each station-minute's stream is one
    `Random(f"{seed}/observe/{minute}/{code}").getrandbits(128 * count)`, so
    every offset equals `0.0 + Random.gauss(0.0, sigma)` of a
    reading-at-a-time sweep bit for bit (see `NoiseModel`). An offset count
    that disagrees with the noisy readings raises `ValidationError`. A reading
    without noise gets no `0.0 +` (which would turn a -0.0 offset's azimuth
    from pi to 0).
    """
    stations = registry.sorted_stations()
    centroids = np.array([info.centroid for _, info in stations]).reshape(-1, 2)
    ranges = np.array([info.useful_range for _, info in stations])
    sigmas = np.array([noise.sigma_by_class[bs.precision_class] for bs, _ in stations], dtype=float)
    # (minutes, stations, phones); each offset is computed again for the readings only.
    inside = np.hypot(positions[:, None, :, 0] - centroids[:, 0, None], positions[:, None, :, 1] - centroids[:, 1, None]) <= ranges[:, None]
    minute, station, phone = np.nonzero(inside)
    dx = positions[minute, phone, 0] - centroids[station, 0]
    dy = positions[minute, phone, 1] - centroids[station, 1]
    per_run = np.count_nonzero(inside, axis=2)
    run_minute, run_station = np.nonzero(per_run)
    run_count = per_run[run_minute, run_station]
    noisy_run = sigmas[run_station] > 0.0
    x, y = noise([(start + m, stations[s][0], count) for m, s, count in zip(run_minute[noisy_run].tolist(), run_station[noisy_run].tolist(), run_count[noisy_run].tolist())])
    noisy = np.repeat(noisy_run, run_count)
    if not len(x) == len(y) == np.count_nonzero(noisy):
        raise ValidationError(f"noise holds {len(x)} x and {len(y)} y offsets for {np.count_nonzero(noisy)} noisy readings")
    dx[noisy] += x
    dy[noisy] += y
    return np.stack((run_minute, run_station, run_count), axis=1).astype(np.int32), phone.astype(np.int32), dx, dy


def observe(registry: ProviderRegistry, traces: list[MobilityTrace], start: int, measured: Measured) -> Sweep:
    """A block that `measure` measured from minute `start`, as one `Sweep` of every station over every phone.

    `traces` are the phones in the order of the positions measured, and the
    registry's stations in code order are the ones it measured. Each reading's
    radius and azimuth come from its offsets through `math` (libm); every run
    of one minute holds the same int. A block whose run counts, phone indices
    and offsets disagree in number raises `ValidationError`, so a block read
    back from another process is checked as one measured here is.
    """
    runs, phone, dx, dy = measured
    readings = int(runs[:, 2].sum())
    if not readings == len(phone) == len(dx) == len(dy):
        raise ValidationError(f"measured block holds {readings} readings in its runs, {len(phone)} phone indices and {len(dx)} x and {len(dy)} y offsets")
    stations = [bs for bs, _ in registry.sorted_stations()]
    phones = [trace.phone for trace in traces]
    run_minute, run_station, run_count = runs.T.tolist()
    minutes = list(range(start, start + max(run_minute, default=-1) + 1))  # one int per minute, shared by the minute's sets as stored
    dx, dy = dx.tolist(), dy.tolist()
    # A tiny negative angle rounds up to 2*pi under `%`; the second `%` maps
    # that one value to 0.0 and leaves every other azimuth as it is.
    two_pi = itertools.repeat(TWO_PI)
    return Sweep(
        [(minutes[m], stations[s], count) for m, s, count in zip(run_minute, run_station, run_count)],
        tuple(map(phones.__getitem__, phone.tolist())),
        tuple(map(math.hypot, dx, dy)),
        tuple(map(operator.mod, map(operator.mod, map(math.atan2, dy, dx), two_pi), two_pi)),
    )


def infection_estimates(config: ScenarioConfig, ground_truth: GroundTruth) -> dict[PhoneId, int]:
    """Earliest-infection estimates as the health service would report them.

    Exact onset minus a per-phone error drawn once, uniform in
    [0, t_incub_min/2]; configs may request exact estimates instead.
    """
    out = {}
    for phone, rec in sorted(ground_truth.infections.items()):
        if config.exact_onset_estimates:
            out[phone] = rec.t_infected
        else:
            eps = Random(f"{config.seed}/onset/{phone.nr}").uniform(0, config.t_incub_min / 2)
            out[phone] = max(0, rec.t_infected - int(eps))
    return out
