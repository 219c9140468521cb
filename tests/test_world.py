import math
import sys
from dataclasses import fields
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from epitrace import world
from epitrace.errors import ConfigurationError
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
    observe,
    trace_positions,
    traces_csv,
)
from util import reference_observe, reference_replay_epidemic, station

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def positions_at(traces, minute):
    return trace_positions(traces, minute, minute + 1)[0]


def small_config(**overrides):
    defaults = dict(seed=11, n_phones=24, duration_min=480, alert_minute=400, noise_enabled=False)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


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
        bs, registry = self._single_station_registry(centroid=traces[0].position_at(0))
        records = observe(registry, traces[:1], 0, positions_at(traces[:1], 0), noise=None)
        assert len(records) == 1
        assert records[0].radius == pytest.approx(0.0, abs=1e-9)

    def test_phone_outside_all_ranges(self):
        cfg = small_config(n_phones=1)
        _, traces, _ = generate_world(cfg)
        x, y = traces[0].position_at(0)
        _, registry = self._single_station_registry(centroid=(x + 100.0, y), useful_range=8.0)
        assert observe(registry, traces[:1], 0, positions_at(traces[:1], 0), noise=None) == []

    def test_overlapping_stations_yield_multiple_records(self):
        cfg = small_config(n_phones=1)
        _, traces, _ = generate_world(cfg)
        pos = traces[0].position_at(0)
        bs1, reg1 = self._single_station_registry(centroid=pos)
        bs2 = station(2, PrecisionClass.PICO)
        reg1.stations[bs2] = StationInfo(centroid=(pos[0] + 3, pos[1]), useful_range=40.0)
        bs3 = station(3, PrecisionClass.MACRO)
        reg1.stations[bs3] = StationInfo(centroid=(pos[0], pos[1] + 5), useful_range=1500.0)
        records = observe(reg1, traces[:1], 0, positions_at(traces[:1], 0), noise=None)
        assert len(records) == 3
        assert {r.bs for r in records} == {bs1, bs2, bs3}

    def test_adding_femto_only_adds_records_under_noise(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        base = observe(registry, traces, 10, positions_at(traces, 10), noise=noise)
        bs = station(9, PrecisionClass.FEMTO)
        registry.stations[bs] = StationInfo(centroid=traces[0].position_at(10), useful_range=8.0)
        extended = observe(registry, traces, 10, positions_at(traces, 10), noise=noise)
        assert set(base).issubset(set(extended))

    def test_adding_femto_only_adds_records(self):
        cfg = small_config()
        registry, traces, _ = generate_world(cfg)
        base = observe(registry, traces, 10, positions_at(traces, 10), noise=None)
        bs = station(9, PrecisionClass.FEMTO)
        registry.stations[bs] = StationInfo(centroid=traces[0].position_at(10), useful_range=8.0)
        extended = observe(registry, traces, 10, positions_at(traces, 10), noise=None)
        assert set(base).issubset(set(extended))
        assert len(extended) > len(base)

    def test_noise_is_seeded_and_classed(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        a = observe(registry, traces, 10, positions_at(traces, 10), noise=noise)
        b = observe(registry, traces, 10, positions_at(traces, 10), noise=noise)
        assert a == b  # same minute -> same draws
        clean = observe(registry, traces, 10, positions_at(traces, 10), noise=None)
        assert a != clean

    @staticmethod
    def _bits(records):
        return [(r.bs, r.phone, r.radius.hex(), r.azimuth.hex(), r.t_pdr) for r in records]

    def test_sweep_matches_per_station_reference_every_minute(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        positions = trace_positions(traces, 0, cfg.duration_min)
        total = 0
        for minute in range(cfg.duration_min):
            records = observe(registry, traces, minute, positions[minute], noise)
            assert self._bits(records) == self._bits(reference_observe(registry, traces, minute, positions[minute], noise))
            total += len(records)
        assert total > cfg.duration_min

    def test_no_stations_observe_nothing(self):
        cfg = small_config(noise_enabled=True)
        _, traces, _ = generate_world(cfg)
        empty = ProviderRegistry(stations={}, providers={})
        noise = NoiseModel.from_config(cfg)
        assert observe(empty, traces, 10, positions_at(traces, 10), noise) == []
        assert reference_observe(empty, traces, 10, positions_at(traces, 10), noise) == []

    def test_station_that_sees_no_phone_matches_reference(self):
        cfg = small_config(noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        noise = NoiseModel.from_config(cfg)
        blind = station(9, PrecisionClass.PICO)
        registry.stations[blind] = StationInfo(centroid=(-1e6, -1e6), useful_range=40.0)
        records = observe(registry, traces, 10, positions_at(traces, 10), noise)
        assert records and blind not in {r.bs for r in records}
        assert self._bits(records) == self._bits(reference_observe(registry, traces, 10, positions_at(traces, 10), noise))

    def test_angle_just_below_zero_is_azimuth_zero(self):
        # atan2 gives -5.7e-17 here, which `% 2*pi` rounds up to exactly 2*pi.
        bs, registry = self._single_station_registry(centroid=(300.0, 300.0), useful_range=1500.0, cls=PrecisionClass.MACRO)
        traces = [MobilityTrace(_phone(0), ((0, (1300.0, math.nextafter(300.0, 0.0))),))]
        for sweep in (observe, reference_observe):
            [record] = sweep(registry, traces, 0, positions_at(traces, 0), None)
            assert record.azimuth == 0.0
            [pdr_set] = group_into_sets([record])
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
        # `position_at` is the reference for the positions every sweep is fed.
        cfg = small_config()
        _, traces, _ = generate_world(cfg)
        expected = [[t.position_at(minute) for t in traces] for minute in range(cfg.duration_min)]
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
