import math
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from epitrace import world
from epitrace.artifacts import traces_csv
from epitrace.errors import ConfigurationError, ValidationError
from epitrace.records import PrecisionClass, group_into_sets
from epitrace.world import (
    _MAX_ATTEMPTS,
    _REPLAY_BLOCK_MIN,
    TWO_PI,
    MobilityTrace,
    NoiseModel,
    ProviderRegistry,
    ScenarioConfig,
    StationInfo,
    _build_traces,
    _phone,
    _replay_epidemic,
    generate_world,
    infection_estimates,
    measure,
    observe,
    trace_positions,
)
from epitrace.runner import _SWEEP_BLOCK_MIN
from util import Record, group_records, reference_observe, reference_position_at, reference_replay_epidemic, station

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def positions_at(traces, minute):
    return trace_positions(traces, minute, minute + 1)[0]


def small_config(**overrides):
    defaults = dict(seed=11, n_phones=24, duration_min=480, alert_minute=400, noise_enabled=False)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


NOISE_OFF = NoiseModel.from_config(small_config())  # noise off: every sigma 0.0


class TestConfig:
    def test_defaults_validate(self):
        ScenarioConfig()

    def test_infeasible_transmission_distance(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(transmission_distance_m=10_000.0, world_size_m=600.0)

    def test_counts_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_phones=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(dur_min=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prune_every_min", 0),
            ("n_macro", -1),
            ("n_pico", -1),
            ("n_femto", -1),
            ("gap_tolerance_min", -5),
            ("search_margin_min", -3),
            ("hotspot_cell_m", 0.0),
            ("hotspot_cell_m", 5e-324),  # the grid index of a 2,100 m coordinate overflows
            ("sigma_macro_m", 1e308),  # the noisy offset overflows
            ("f", -1),
            ("n_authorities", 4),  # < 2f+1 with f=2
            ("n_authorities", 256),
            ("q_read", 2),  # < f+1
            ("q_read", 8),  # > n_authorities
            ("q_critical", 2),
            ("q_critical", 8),
            ("fed_key_threshold", 0),
            ("fed_key_threshold", 8),
            ("n_clouds", 256),
            ("erasure_k", 5),  # > n_clouds
            ("vault_key_threshold", 0),
            ("vault_key_threshold", 5),
            ("sigma_macro_m", -1.0),
            ("sigma_pico_m", -0.5),
            ("sigma_femto_m", -1.0),
            ("range_macro_m", -1.0),
            ("range_pico_m", -1.0),
            ("range_femto_m", -0.5),
            ("transmission_distance_m", -1.0),
            ("t_incub_min", -1),
            ("t_incub_max", -1),
            ("pdr_ttl_factor", -1),
            ("vote_window_min", -1),
            ("index_cases", 51),  # > n_phones
            ("n_phones", "50"),  # types are checked, never coerced
            ("n_phones", 50.5),
            ("n_phones", True),
            ("world_size_m", "600"),
            ("world_size_m", True),
            ("world_size_m", 0.0),
            ("world_size_m", -600.0),
            ("noise_enabled", 1),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_rejected(self, literal):
        float_fields = [f.name for f in fields(ScenarioConfig) if f.type == "float"]
        assert {"world_size_m", "prox_max_m", "hotspot_cell_m"} <= set(float_fields)
        for name in float_fields:
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                ScenarioConfig.from_json(f'{{"{name}": {literal}}}')

    @pytest.mark.parametrize("text", ["{", "[1]", "50"])
    def test_config_text_must_be_a_json_object(self, text):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_json(text)

    def test_incubation_order(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(t_incub_min=100, t_incub_max=50)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"seed": 1, "bogus": True})

    def test_json_round_trip_digest(self):
        cfg = small_config()
        again = ScenarioConfig.from_json(cfg.canonical_json())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_ttl_derivation(self):
        cfg = ScenarioConfig(t_incub_max=20160, pdr_ttl_factor=2)
        assert cfg.pdr_ttl == 40320


class TestGenerateWorld:
    def test_same_seed_identical_output(self):
        cfg = small_config()
        reg1, traces1, gt1 = generate_world(cfg)
        reg2, traces2, gt2 = generate_world(cfg)
        assert traces1 == traces2
        assert gt1 == gt2
        assert reg1.stations == reg2.stations
        assert reg1.providers == reg2.providers

    def test_different_seed_differs(self):
        _, traces1, _ = generate_world(small_config(seed=11))
        _, traces2, _ = generate_world(small_config(seed=12))
        assert traces1 != traces2

    def test_registry_station_counts(self):
        cfg = small_config(n_macro=1, n_pico=2, n_femto=4)
        registry, _, _ = generate_world(cfg)
        by_class = {}
        for bs in registry.stations:
            by_class[bs.precision_class] = by_class.get(bs.precision_class, 0) + 1
        assert by_class == {PrecisionClass.MACRO: 1, PrecisionClass.PICO: 2, PrecisionClass.FEMTO: 4}

    def test_chain_guarantee(self):
        _, _, gt = generate_world(small_config(n_phones=24))
        assert gt.chain_depth() >= 3

    def test_every_noneindex_infection_has_infector_and_valid_contact(self):
        # Replay the traces and confirm each transmission's exposure window.
        cfg = ScenarioConfig(seed=5, n_phones=200, duration_min=720, alert_minute=700, index_cases=1, noise_enabled=False)
        _, traces, gt = generate_world(cfg)
        positions = trace_positions(traces, 0, cfg.duration_min)
        idx = {t.phone: i for i, t in enumerate(traces)}
        index_cases = [p for p, r in gt.infections.items() if r.infected_by is None]
        assert len(index_cases) == 1
        assert len(gt.infections) > 1
        for phone, rec in gt.infections.items():
            if rec.infected_by is None:
                continue
            i, j = idx[rec.infected_by], idx[phone]
            # distance within transmission reach for the whole exposure window
            for minute in range(rec.t_infected - cfg.min_exposure_min + 1, rec.t_infected + 1):
                d = math.dist(tuple(positions[minute][i]), tuple(positions[minute][j]))
                assert d <= cfg.transmission_distance_m + 1e-9
            # infector must have been infectious throughout that window
            t_source = gt.infections[rec.infected_by].t_infected
            assert rec.t_infected - cfg.min_exposure_min + 1 >= t_source + cfg.t_incub_min

    def test_waypoints_strictly_increasing(self):
        _, traces, _ = generate_world(small_config())
        for trace in traces:
            minutes = [m for m, _ in trace.waypoints]
            assert all(b > a for a, b in zip(minutes, minutes[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_accepted_config_generates_or_raises_configuration_error(self, data):
        n_phones = data.draw(st.integers(1, 25))
        duration = data.draw(st.integers(1, 300))
        world_size = data.draw(st.sampled_from([1e-3, 0.5, 3.0, 50.0, 600.0]) | st.floats(1e-6, 2000.0))
        t_incub_min = data.draw(st.integers(0, 60))
        fields = dict(
            seed=data.draw(st.integers(0, 2**31)),
            world_size_m=world_size,
            n_phones=n_phones,
            n_venues=data.draw(st.integers(1, 5)),
            duration_min=duration,
            n_providers=data.draw(st.integers(1, 3)),
            n_macro=data.draw(st.integers(0, 2)),
            n_pico=data.draw(st.integers(0, 2)),
            n_femto=data.draw(st.integers(0, 2)),
            index_cases=data.draw(st.integers(1, n_phones)),
            transmission_distance_m=world_size * data.draw(st.sampled_from([0.0, 0.01, 0.5, 1.0])),
            min_exposure_min=data.draw(st.integers(1, 40)),
            t_incub_min=t_incub_min,
            t_incub_max=t_incub_min + data.draw(st.integers(0, 120)),
            transmission_probability=data.draw(st.floats(0.0, 1.0)),
            alert_minute=data.draw(st.integers(0, duration)),
        )
        try:
            cfg = ScenarioConfig(**fields)
        except ConfigurationError:
            reject()
        try:
            generate_world(cfg)
        except ConfigurationError:
            pass


class TestReplay:
    """The segment replay plants exactly the epidemic of the minute-by-minute reference."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        """Check every replay `generate_world` makes against the reference; returns the attempts made."""
        made = []

        def checked(config, traces, attempt):
            got = _replay_epidemic(config, traces, attempt)
            want = reference_replay_epidemic(config, traces, attempt)
            assert list(got.infections.items()) == list(want.infections.items())
            made.append(attempt)
            return got

        monkeypatch.setattr(world, "_replay_epidemic", checked)
        return made

    @pytest.mark.parametrize("seed", [2024, 5077])
    @pytest.mark.parametrize("workload", ["small", "retention", "dense150"])
    def test_benchmark_shapes_match_reference(self, attempts, workload, seed):
        config_fields, _ = workloads.scenario(Path(__file__).resolve().parent.parent, workload, seed)
        generate_world(ScenarioConfig.from_dict(config_fields))
        assert attempts == list(range(len(attempts)))

    @pytest.mark.parametrize("seed", range(1, 41))
    def test_sparse_worlds_match_reference_on_every_attempt(self, attempts, seed):
        cfg = small_config(seed=seed, transmission_probability=0.05)
        if seed in (16, 34):
            with pytest.raises(ConfigurationError, match="too sparse"):
                generate_world(cfg)
            assert attempts == list(range(_MAX_ATTEMPTS))
        else:
            generate_world(cfg)
            assert attempts == list(range(len(attempts))) and len(attempts) <= 5

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_phones=st.integers(1, 12),
        duration_min=st.integers(1, 200),
        world_size_m=st.sampled_from([10.0, 30.0, 100.0]),
        transmission_distance_m=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
        index_cases=st.integers(1, 3),
        min_exposure_min=st.integers(1, 3 * _REPLAY_BLOCK_MIN),
        t_incub_min=st.integers(0, 2 * _REPLAY_BLOCK_MIN),
        transmission_probability=st.sampled_from([1.0, 0.9, 0.3, 0.05]),
        attempt=st.integers(0, 2),
    )
    def test_small_configs_match_reference(self, seed, n_phones, index_cases, t_incub_min, attempt, **epidemic):
        cfg = ScenarioConfig(
            seed=seed,
            n_phones=n_phones,
            n_venues=2,
            alert_minute=0,
            index_cases=min(index_cases, n_phones),
            t_incub_min=t_incub_min,
            t_incub_max=t_incub_min + 60,
            **epidemic,
        )
        traces = _build_traces(cfg, attempt)
        got = _replay_epidemic(cfg, traces, attempt)
        want = reference_replay_epidemic(cfg, traces, attempt)
        assert list(got.infections.items()) == list(want.infections.items())

    @pytest.mark.parametrize("probability", [1.0, 0.3])
    @pytest.mark.parametrize("t_incub_min", [0, 1, _REPLAY_BLOCK_MIN])
    @pytest.mark.parametrize(
        "min_exposure_min", [_REPLAY_BLOCK_MIN - 1, _REPLAY_BLOCK_MIN, _REPLAY_BLOCK_MIN + 1, 2 * _REPLAY_BLOCK_MIN + 1]
    )
    def test_infection_on_a_block_boundary(self, min_exposure_min, t_incub_min, probability):
        # Three phones on one spot. The first block starts at the index case's
        # onset, so a certain transmission lands inside it, on its last
        # minute, or on the first minute of a later block with the exposure
        # carried across.
        duration = t_incub_min + 4 * _REPLAY_BLOCK_MIN
        cfg = ScenarioConfig(
            seed=3,
            n_phones=3,
            duration_min=duration,
            alert_minute=0,
            world_size_m=10.0,
            min_exposure_min=min_exposure_min,
            t_incub_min=t_incub_min,
            t_incub_max=t_incub_min + 60,
            transmission_probability=probability,
        )
        traces = [MobilityTrace(_phone(i), ((0, (5.0, 5.0)), (duration, (5.0, 5.0)))) for i in range(3)]
        got = _replay_epidemic(cfg, traces, 0)
        assert list(got.infections.items()) == list(reference_replay_epidemic(cfg, traces, 0).infections.items())
        if probability == 1.0:
            victims = [rec.t_infected for rec in got.infections.values() if rec.infected_by is not None]
            assert victims == [t_incub_min + min_exposure_min - 1] * 2


def records_of(sweep):
    """A sweep's readings as loose records, in sweep order."""
    records, end = [], 0
    for minute, bs, count in sweep.runs:
        begin, end = end, end + count
        records += map(Record, [bs] * count, sweep.phones[begin:end], sweep.radii[begin:end], sweep.azimuths[begin:end], [minute] * count)
    return records


def observe_at(registry, traces, minute, noise):
    """One minute's sweep, as loose records."""
    return records_of(observe(registry, traces, minute, measure(registry, minute, trace_positions(traces, minute, minute + 1), noise)))


def set_bits(sets):
    """Each set's minute, station and phones, and each reading's exact radius and azimuth bytes."""
    return [(s.minute, s.bs, s.phones, [struct.pack("<dd", r, a) for r, a in zip(s.radii, s.azimuths)]) for s in sets]


def reference_sets(registry, traces, start, positions, noise):
    """The per-minute reference readings of a block, grouped by the tests' loose-record grouping."""
    return group_records(r for m, pos in enumerate(positions) for r in reference_observe(registry, traces, start + m, pos, noise))


coordinate = st.one_of(st.floats(-80.0, 80.0), st.sampled_from([0.0, -0.0, 40.0]))


@st.composite
def sweep_worlds(draw):
    """A small registry, traces, a block and a noise model, for comparing a sweep with the reference."""
    classes = list(PrecisionClass)
    stations = {}
    for i in range(draw(st.integers(0, 5))):
        centroid = (draw(coordinate), draw(coordinate))
        stations[station(i, draw(st.sampled_from(classes)))] = StationInfo(centroid, draw(st.floats(0.0, 120.0)))
    if draw(st.booleans()):
        stations[station(9, PrecisionClass.PICO)] = StationInfo((-1e6, -1e6), 40.0)  # sees no phone
    registry = ProviderRegistry(stations=stations, providers={"P1": sorted(stations, key=lambda bs: bs.code)})
    traces = []
    for j in range(draw(st.integers(1, 5))):
        minutes = sorted(draw(st.sets(st.integers(0, 2100), min_size=1, max_size=4)))
        traces.append(MobilityTrace(_phone(j), tuple((m, (draw(coordinate), draw(coordinate))) for m in minutes)))
    start = draw(st.integers(0, 2000))
    length = draw(st.sampled_from([1, 1, 7, 59, 60, 61, 97]))
    noise = NOISE_OFF
    if draw(st.booleans()):
        sigmas = [draw(st.sampled_from([0.1, 1.0, 10.0, 150.0])) for _ in classes]
        sigmas[draw(st.integers(0, len(classes) - 1))] = 0.0  # one class reads without noise
        noise = NoiseModel(seed=draw(st.integers(0, 2**32)), sigma_by_class=dict(zip(classes, sigmas)))
    return registry, traces, start, trace_positions(traces, start, start + length), noise


def crowded_block():
    """One pico station that reads 170 phones a minute under noise: each station-minute stream draws 680 words, past the generator's 624-word state."""
    bs = station(1, PrecisionClass.PICO)
    registry = ProviderRegistry(stations={bs: StationInfo((0.0, 0.0), 100.0)}, providers={"P1": [bs]})
    rng = Random("crowded")
    traces = [MobilityTrace(_phone(j), ((0, (rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))), (100, (rng.uniform(-60.0, 60.0), 0.0)))) for j in range(170)]
    noise = NoiseModel(seed=77, sigma_by_class={PrecisionClass.MACRO: 150.0, PrecisionClass.PICO: 10.0, PrecisionClass.FEMTO: 1.0})
    return registry, traces, 40, trace_positions(traces, 40, 43), noise


class TestObserve:
    def _single_station_registry(self, centroid=(50.0, 50.0), useful_range=8.0, cls=PrecisionClass.FEMTO):
        bs = station(1, cls)
        return bs, ProviderRegistry(
            stations={bs: StationInfo(centroid=centroid, useful_range=useful_range)},
            providers={"P1": [bs]},
        )

    def test_phone_at_centroid_noise_off(self):
        cfg = small_config(n_phones=1)
        _, traces, _ = generate_world(cfg)
        bs, registry = self._single_station_registry(centroid=reference_position_at(traces[0], 0))
        records = observe_at(registry, traces[:1], 0, noise=NOISE_OFF)
        assert len(records) == 1
        assert records[0].radius == pytest.approx(0.0, abs=1e-9)

    def test_phone_outside_all_ranges(self):
        cfg = small_config(n_phones=1)
        _, traces, _ = generate_world(cfg)
        x, y = reference_position_at(traces[0], 0)
        _, registry = self._single_station_registry(centroid=(x + 100.0, y), useful_range=8.0)
        sweep = observe(registry, traces[:1], 0, measure(registry, 0, trace_positions(traces[:1], 0, 1), NOISE_OFF))
        assert len(sweep) == 0 and sweep.runs == []

    def test_overlapping_stations_yield_multiple_records(self):
        cfg = small_config(n_phones=1)
        _, traces, _ = generate_world(cfg)
        pos = reference_position_at(traces[0], 0)
        bs1, reg1 = self._single_station_registry(centroid=pos)
        bs2 = station(2, PrecisionClass.PICO)
        reg1.stations[bs2] = StationInfo(centroid=(pos[0] + 3, pos[1]), useful_range=40.0)
        bs3 = station(3, PrecisionClass.MACRO)
        reg1.stations[bs3] = StationInfo(centroid=(pos[0], pos[1] + 5), useful_range=1500.0)
        records = observe_at(reg1, traces[:1], 0, noise=NOISE_OFF)
        assert len(records) == 3
        assert {r.bs for r in records} == {bs1, bs2, bs3}

    def test_adding_femto_only_adds_records_under_noise(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        base = observe_at(registry, traces, 10, noise=noise)
        bs = station(9, PrecisionClass.FEMTO)
        registry.stations[bs] = StationInfo(centroid=reference_position_at(traces[0], 10), useful_range=8.0)
        extended = observe_at(registry, traces, 10, noise=noise)
        assert set(base).issubset(set(extended))

    def test_adding_femto_only_adds_records(self):
        cfg = small_config()
        registry, traces, _ = generate_world(cfg)
        base = observe_at(registry, traces, 10, noise=NOISE_OFF)
        bs = station(9, PrecisionClass.FEMTO)
        registry.stations[bs] = StationInfo(centroid=reference_position_at(traces[0], 10), useful_range=8.0)
        extended = observe_at(registry, traces, 10, noise=NOISE_OFF)
        assert set(base).issubset(set(extended))
        assert len(extended) > len(base)

    def test_noise_is_seeded_and_classed(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        a = observe_at(registry, traces, 10, noise=noise)
        b = observe_at(registry, traces, 10, noise=noise)
        assert a == b  # same minute -> same draws
        clean = observe_at(registry, traces, 10, noise=NOISE_OFF)
        assert a != clean

    def test_sweep_matches_per_station_reference_every_minute(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        positions = trace_positions(traces, 0, cfg.duration_min)
        sets = []
        for start in range(0, cfg.duration_min, _SWEEP_BLOCK_MIN):
            block = positions[start : start + _SWEEP_BLOCK_MIN]
            sweep = observe(registry, traces, start, measure(registry, start, block, noise))
            assert len(sweep) == sum(count for _m, _bs, count in sweep.runs)
            sets += group_into_sets(sweep)
        assert set_bits(sets) == set_bits(reference_sets(registry, traces, 0, positions, noise))
        assert len({s.minute for s in sets}) == cfg.duration_min

    @settings(max_examples=150, deadline=None)
    @given(sweep_worlds())
    @example(crowded_block())
    def test_a_block_sweep_equals_the_per_minute_reference_bit_for_bit(self, world_block):
        registry, traces, start, positions, noise = world_block
        sets = group_into_sets(observe(registry, traces, start, measure(registry, start, positions, noise)))
        assert set_bits(sets) == set_bits(reference_sets(registry, traces, start, positions, noise))

    def test_negative_zero_offset_keeps_its_sign(self):
        # atan2(0.0, -0.0) is pi; a `0.0 +` on a reading without noise would make it 0.0.
        bs, registry = self._single_station_registry(centroid=(0.0, 0.0), useful_range=1.0, cls=PrecisionClass.FEMTO)
        traces = [MobilityTrace(_phone(0), ((0, (-0.0, 0.0)),))]
        quiet = NoiseModel(seed=5, sigma_by_class={PrecisionClass.MACRO: 1.0, PrecisionClass.PICO: 1.0, PrecisionClass.FEMTO: 0.0})
        for noise in (NOISE_OFF, quiet):
            [record] = observe_at(registry, traces, 0, noise)
            assert record.azimuth == math.pi
            assert observe_at(registry, traces, 0, noise) == reference_observe(registry, traces, 0, positions_at(traces, 0), noise)

    def test_no_stations_observe_nothing(self):
        cfg = small_config(noise_enabled=True)
        _, traces, _ = generate_world(cfg)
        empty = ProviderRegistry(stations={}, providers={})
        noise = NoiseModel.from_config(cfg)
        sweep = observe(empty, traces, 10, measure(empty, 10, trace_positions(traces, 10, 70), noise))
        assert len(sweep) == 0 and group_into_sets(sweep) == []
        assert reference_observe(empty, traces, 10, positions_at(traces, 10), noise) == []

    def test_noise_off_seeds_no_stream(self, monkeypatch):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        positions = trace_positions(traces, 10, 40)

        def unseeded(seed):
            raise AssertionError(f"seeded a stream: {seed}")

        monkeypatch.setattr(world, "Random", unseeded)
        _runs, phones, _dx, _dy = measure(registry, 10, positions, NoiseModel.from_config(replace(cfg, noise_enabled=False)))
        assert len(phones) > 0
        with pytest.raises(AssertionError, match="seeded a stream"):
            measure(registry, 10, positions, NoiseModel.from_config(cfg))

    def test_a_measured_block_whose_counts_disagree_is_refused(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        runs, phones, dx, dy = measure(registry, 10, trace_positions(traces, 10, 40), NoiseModel.from_config(cfg))
        assert len(observe(registry, traces, 10, (runs, phones, dx, dy))) == len(phones) > 0
        for block in ((runs[:-1], phones, dx, dy), (runs, phones[:-1], dx, dy), (runs, phones, dx[:-1], dy), (runs, phones, dx, dy[1:])):
            with pytest.raises(ValidationError, match="measured block"):
                observe(registry, traces, 10, block)

    def test_station_that_sees_no_phone_matches_reference(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        blind = station(9, PrecisionClass.PICO)
        registry.stations[blind] = StationInfo(centroid=(-1e6, -1e6), useful_range=40.0)
        positions = trace_positions(traces, 10, 70)
        sets = group_into_sets(observe(registry, traces, 10, measure(registry, 10, positions, noise)))
        assert sets and blind not in {s.bs for s in sets}
        assert set_bits(sets) == set_bits(reference_sets(registry, traces, 10, positions, noise))

    def test_angle_just_below_zero_is_azimuth_zero(self):
        # atan2 gives -5.7e-17 here, which `% 2*pi` rounds up to exactly 2*pi.
        bs, registry = self._single_station_registry(centroid=(300.0, 300.0), useful_range=1500.0, cls=PrecisionClass.MACRO)
        traces = [MobilityTrace(_phone(0), ((0, (1300.0, math.nextafter(300.0, 0.0))),))]
        [record] = reference_observe(registry, traces, 0, positions_at(traces, 0), NOISE_OFF)
        assert record.azimuth == 0.0
        [pdr_set] = group_into_sets(observe(registry, traces, 0, measure(registry, 0, trace_positions(traces, 0, 1), NOISE_OFF)))
        assert pdr_set.azimuths == (0.0,)

    @pytest.mark.parametrize("sigma", [1.0, 10.0, 150.0, 1e-300, 0.1])
    def test_written_out_pair_equals_two_gauss_calls(self, sigma):
        for seed in ("42/observe/0/00000000000000ab", "7/observe/1439/0123456789abcdef", "", "x" * 64):
            gauss, uniform = Random(seed), Random(seed).random
            for _ in range(200):
                x2pi = uniform() * TWO_PI
                g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
                dx = 0.0 + math.cos(x2pi) * g2rad * sigma
                dy = 0.0 + math.sin(x2pi) * g2rad * sigma
                assert (dx.hex(), dy.hex()) == (gauss.gauss(0.0, sigma).hex(), gauss.gauss(0.0, sigma).hex())

    def test_positions_shortcut_matches_interpolation(self):
        # `reference_position_at` is the reference for the positions every sweep is fed.
        cfg = small_config()
        _, traces, _ = generate_world(cfg)
        expected = [[reference_position_at(t, minute) for t in traces] for minute in range(cfg.duration_min)]
        assert trace_positions(traces, 0, cfg.duration_min) == pytest.approx(np.array(expected), abs=1e-9)

    def test_a_range_is_the_slice_of_the_whole_run_bit_for_bit(self):
        cfg = small_config()
        _, traces, _ = generate_world(cfg)
        whole = trace_positions(traces, 0, cfg.duration_min)
        for start, stop in ((0, 1), (100, 250), (cfg.duration_min - 1, cfg.duration_min), (37, 37)):
            part = trace_positions(traces, start, stop)
            assert part.shape == (stop - start, len(traces), 2)
            assert part.tobytes() == whole[start:stop].tobytes()


class TestEstimates:
    def test_exact_mode(self):
        cfg = small_config(exact_onset_estimates=True)
        _, _, gt = generate_world(cfg)
        estimates = infection_estimates(cfg, gt)
        for phone, rec in gt.infections.items():
            assert estimates[phone] == rec.t_infected

    def test_estimate_error_bounded(self):
        cfg = small_config(exact_onset_estimates=False)
        _, _, gt = generate_world(cfg)
        estimates = infection_estimates(cfg, gt)
        for phone, rec in gt.infections.items():
            assert 0 <= rec.t_infected - estimates[phone] <= cfg.t_incub_min / 2 + 1
            assert estimates[phone] >= 0

    def test_csv_export(self):
        cfg = small_config(n_phones=2)
        _, traces, _ = generate_world(cfg)
        text = traces_csv(traces)
        assert text.splitlines()[0] == "minute,phone_nr,x,y"
        assert len(text.splitlines()) > 2
