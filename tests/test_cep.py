import enum
import json
import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from epitrace import cep
from epitrace.artifacts import artifact_payloads, dag_dot, hotspot_csv
from epitrace.cep import (
    AnalysisParams,
    ContactSuspicion,
    ContactWindow,
    ContaminationRecord,
    DagEdge,
    InfectionDag,
    PdrIndex,
    PhoneOfInterest,
    SpaceTimeRegion,
    build_dag,
    build_pccont,
    complete_findings,
    find_suspicions,
    hotspot_map,
    median_contact_minute,
    pair_key,
    score_suspicions,
)
from epitrace.errors import AuthorizationError, NoEvidenceError, ParameterError, ResolutionError, StateError, ValidationError
from epitrace.federation import OperationClass, SystemState
from epitrace.records import PdrSet, PrecisionClass
from epitrace.runner import vet
from epitrace.world import ProviderRegistry, ScenarioConfig, StationInfo, generate_world, infection_estimates
from cep_oracle import brute_force_pairs
from util import SMALL_JSON, capability, group_records, pair_distance, pair_rows, pair_slice, pair_table, pdr, phone, plaintext_sets, station

PARAMS = AnalysisParams(prox_max=2.0, dur_min=15, gap_tolerance=2, search_margin=0)


@pytest.fixture(scope="module")
def cap_read():
    cap, _ = capability(OperationClass.BLIND_PROCESSING)
    return cap


@pytest.fixture(scope="module")
def cap_full():
    cap, _ = capability(OperationClass.FULL_PROCESSING, seed=123)
    return cap


def co_located_sets(minutes, bs=None, prox_a=0.0, prox_b=0.0, az_a=0.0, az_b=0.0, extra_phones=0):
    """Sets where phone 1 and phone 2 share a station over the given minutes."""
    bs = bs or station(1)
    records = []
    for minute in minutes:
        records += [
            pdr(bs, phone(1), prox_a, az_a, minute),
            pdr(bs, phone(2), prox_b, az_b, minute),
        ]
        records += [pdr(bs, phone(10 + i), 5.0 + i, 1.0, minute) for i in range(extra_phones)]
    return group_records(records)


def as_tuples(suspicion: ContactSuspicion):
    return (
        suspicion.pc_susp,
        tuple(
            (w.minutes, w.prox, tuple(c.value for c in w.classes), tuple(sorted(w.stations)), w.set_sizes)
            for w in suspicion.windows
        ),
    )


def engine_all_pairs(cap, sets, params):
    index = PdrIndex(sets, params.prox_max)
    by_pair = {}
    for p in sorted({p for s in sets for p in s.phones}):
        for s in find_suspicions(cap, index, PhoneOfInterest(phone=p, t_inf_min=0), params):
            by_pair.setdefault(s.pair, s)
    return by_pair


class TestFindSuspicions:
    def test_boundary_exactly_thresholds_is_flagged(self, cap_read):
        # Identical vectors under one femto station for exactly dur_min minutes:
        # Prox = 0 <= max and Dur = dur_min, both bounds inclusive.
        sets = co_located_sets(range(100, 100 + PARAMS.dur_min), prox_a=1.5, prox_b=1.5, az_a=0.7, az_b=0.7)
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)
        assert len(found) == 1
        assert found[0].pc_susp
        window = found[0].windows[0]
        assert window.duration == PARAMS.dur_min
        assert all(p == 0.0 for p in window.prox)

    def test_one_minute_short_is_not_flagged(self, cap_read):
        sets = co_located_sets(range(100, 100 + PARAMS.dur_min - 1))
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)
        assert len(found) == 1
        assert not found[0].pc_susp

    def test_distance_beyond_threshold_excluded(self, cap_read):
        # 3 m apart on opposite azimuths: never qualifies.
        sets = co_located_sets(range(50), prox_a=1.5, prox_b=1.5, az_a=0.0, az_b=math.pi)
        assert find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS) == []

    def test_presence_before_t_inf_min_excluded(self, cap_read):
        sets = co_located_sets(range(100, 160))
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 200), PARAMS)
        assert found == []

    def test_search_margin_extends_below_estimate(self, cap_read):
        sets = co_located_sets(range(100, 160))
        params = AnalysisParams(prox_max=2.0, dur_min=15, gap_tolerance=2, search_margin=60)
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 160), params)
        assert len(found) == 1
        assert found[0].windows[0].start == 100

    def test_gap_tolerance_merges_and_splits(self, cap_read):
        minutes = list(range(10, 20)) + list(range(22, 30)) + list(range(40, 50))
        sets = co_located_sets(minutes)
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)
        windows = found[0].windows
        # gap of 2 (minutes 20, 21) merges; gap of 10 splits
        assert len(windows) == 2
        assert windows[0].minutes == tuple(list(range(10, 20)) + list(range(22, 30)))
        assert windows[1].minutes == tuple(range(40, 50))
        assert windows[0].duration == 18

    def test_most_precise_station_wins(self, cap_read):
        macro = station(8, PrecisionClass.MACRO)
        femto = station(9, PrecisionClass.FEMTO)
        records = []
        for minute in range(30):
            records += (pdr(macro, phone(1), 100.0, 0.0, minute), pdr(macro, phone(2), 104.0, 0.0, minute))
            records += (pdr(femto, phone(1), 1.0, 0.0, minute), pdr(femto, phone(2), 1.5, 0.0, minute))
        sets = group_records(records)
        found = find_suspicions(cap_read, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)
        assert len(found) == 1
        window = found[0].windows[0]
        assert set(window.classes) == {PrecisionClass.FEMTO}
        assert all(p == 0.5 for p in window.prox)

    def test_more_precise_station_out_of_range_decides(self, cap_read):
        # The macro station puts the phones 0.5 m apart, the femto station 3 m.
        macro = station(8, PrecisionClass.MACRO)
        femto = station(9, PrecisionClass.FEMTO)
        records = []
        for minute in range(30):
            records += (pdr(macro, phone(1), 100.0, 0.0, minute), pdr(macro, phone(2), 100.5, 0.0, minute))
            records += (pdr(femto, phone(1), 1.0, 0.0, minute), pdr(femto, phone(2), 4.0, 0.0, minute))
        index = PdrIndex(group_records(records), PARAMS.prox_max)
        for subject in (phone(1), phone(2)):
            assert find_suspicions(cap_read, index, PhoneOfInterest(subject, 0), PARAMS) == []

    def test_more_precise_station_decides_only_where_it_sees_both(self, cap_read):
        # Minutes 10-19: the femto station sees both phones, 3 m apart, and
        # overrides the macro's 0.5 m. Minutes 20-29: it sees only phone 1.
        macro = station(8, PrecisionClass.MACRO)
        femto = station(9, PrecisionClass.FEMTO)
        records = []
        for minute in range(30):
            records += (pdr(macro, phone(1), 100.0, 0.0, minute), pdr(macro, phone(2), 100.5, 0.0, minute))
            if minute >= 10:
                records.append(pdr(femto, phone(1), 1.0, 0.0, minute))
            if 10 <= minute < 20:
                records.append(pdr(femto, phone(2), 4.0, 0.0, minute))
        [found] = find_suspicions(cap_read, PdrIndex(group_records(records), PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)
        assert not found.pc_susp
        assert [w.minutes for w in found.windows] == [tuple(range(10)), tuple(range(20, 30))]
        assert {c for w in found.windows for c in w.classes} == {PrecisionClass.MACRO}
        assert all(p == 0.5 for w in found.windows for p in w.prox)

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.floats(0.0, 30_000.0),
        offsets=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=12),
        azimuths=st.lists(st.sampled_from([0.0, 1e-9, 0.3, 3.0]), min_size=12, max_size=12),
    )
    def test_every_partner_in_range_is_found(self, cap_read, base, offsets, azimuths):
        # Radii within a few meters of the phone of interest, many on its bearing
        # where the distance is the difference of radii: the edge of the radius
        # band the pair table sweeps. Flagged distances must equal pair_distance.
        bs = station(3, PrecisionClass.PICO)
        records = [pdr(bs, phone(1), base, 0.0, 0)]
        records += [pdr(bs, phone(i + 2), max(0.0, base + off), azimuths[i], 0) for i, off in enumerate(offsets)]
        index = PdrIndex(group_records(records), PARAMS.prox_max)
        found = {s.pair: s.windows[0].prox for s in find_suspicions(cap_read, index, PhoneOfInterest(phone(1), 0), PARAMS)}
        distances = {r.phone: pair_distance(records[0], r) for r in records[1:]}
        assert found == {pair_key(phone(1), u): (d,) for u, d in distances.items() if d <= PARAMS.prox_max}

    def test_capability_gating(self):
        cap_push, _ = capability(OperationClass.STRICT_PUSH, seed=321)
        sets = co_located_sets(range(5))
        with pytest.raises(AuthorizationError):
            find_suspicions(cap_push, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)

    def test_passive_state_blocks(self):
        cap, federation = capability(OperationClass.BLIND_ANALYSIS, seed=55)
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(56))
        federation.change_state(cert, SystemState.PASSIVE)
        with pytest.raises(StateError):
            find_suspicions(cap, PdrIndex(co_located_sets(range(5)), PARAMS.prox_max), PhoneOfInterest(phone(1), 0), PARAMS)

    def test_index_for_another_prox_max_is_refused(self, cap_read):
        index = PdrIndex(co_located_sets(range(20)), PARAMS.prox_max)
        params = AnalysisParams(prox_max=4.5, dur_min=15, gap_tolerance=2, search_margin=0)
        with pytest.raises(ParameterError):
            find_suspicions(cap_read, index, PhoneOfInterest(phone(1), 0), params)

    def test_each_pair_reaches_one_sample_list_from_both_phones(self):
        index = PdrIndex(co_located_sets(range(3), prox_a=1.0, prox_b=1.5, extra_phones=2), PARAMS.prox_max)
        bounds = pair_slice(index, phone(1), phone(2))
        assert bounds == pair_slice(index, phone(2), phone(1))
        samples = pair_rows(index, *bounds)
        assert [(m, d, c, size) for m, d, c, _code, size in samples] == [(m, 0.5, PrecisionClass.FEMTO, 4) for m in range(3)]

    def test_presence_probe_lists_each_phone_by_minute(self):
        sets = co_located_sets(range(3), extra_phones=1)
        presence = PdrIndex(sets, PARAMS.prox_max).presence
        assert sorted(presence) == [phone(1), phone(2), phone(10)]
        for p, by_minute in presence.items():
            assert sorted(by_minute) == [0, 1, 2]
            for minute, [(view, pos)] in by_minute.items():
                assert view.size == 3 and view.phones == sets[minute].phones and view.phones[pos] == p


class TestStreamedIndex:
    def test_a_minute_ordered_stream_builds_the_table_of_the_list(self):
        cfg = ScenarioConfig(seed=17, n_phones=14, duration_min=240, alert_minute=200, noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        sets = plaintext_sets(cfg, registry, traces)
        listed = PdrIndex(sets, PARAMS.prox_max)
        streamed = PdrIndex((pdr_set for pdr_set in sets), PARAMS.prox_max)
        assert pair_table(listed) and pair_table(streamed) == pair_table(listed)
        assert streamed.sets_swept == listed.sets_swept == len(sets)
        assert streamed.presence == listed.presence

    def test_each_phone_reads_its_pairs_once_in_partner_order(self, cap_read):
        cfg = ScenarioConfig(seed=17, n_phones=14, duration_min=240, alert_minute=200, noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        index = PdrIndex(plaintext_sets(cfg, registry, traces), PARAMS.prox_max)
        ends = list(zip(index._lo.tolist(), index._hi.tolist()))
        reached = Counter()
        found = 0
        for rank, p in enumerate(index._phones):
            pairs = index._pairs_of(p).tolist()
            assert sorted(pairs) == [k for k, pair in enumerate(ends) if rank in pair]  # each of its pairs, once
            partners = [hi if lo == rank else lo for lo, hi in map(ends.__getitem__, pairs)]
            assert partners == sorted(partners)
            reached.update(pairs)
            suspicions = find_suspicions(cap_read, index, PhoneOfInterest(phone=p, t_inf_min=0), PARAMS)
            others = [b if a == p else a for a, b in (s.pair for s in suspicions)]
            assert others == sorted(others)
            found += len(suspicions)
        assert ends and reached == {k: 2 for k in range(len(ends))}  # every pair, from both of its phones
        assert found

    def test_a_minute_that_comes_back_is_refused(self):
        first, second = co_located_sets(range(1, 3))
        (late,) = co_located_sets([1], bs=station(2))
        with pytest.raises(ValidationError):
            PdrIndex(iter([first, second, late]), PARAMS.prox_max)
        with pytest.raises(ValidationError):
            PdrIndex(iter([second, first]), PARAMS.prox_max)
        assert PdrIndex(iter([first, late, second]), PARAMS.prox_max).sets_swept == 3

    @pytest.mark.parametrize("cap", [1, 7])
    def test_candidates_measured_in_runs_build_the_same_table(self, monkeypatch, cap):
        cfg = ScenarioConfig(seed=17, n_phones=14, duration_min=240, alert_minute=200, noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        sets = plaintext_sets(cfg, registry, traces)
        whole = pair_table(PdrIndex(sets, PARAMS.prox_max))
        monkeypatch.setattr(cep, "_MAX_CANDIDATES", cap)
        assert pair_table(PdrIndex(sets, PARAMS.prox_max)) == whole

    def test_a_minute_past_the_int32_columns_is_refused(self):
        (last,) = co_located_sets([2**31 - 1])
        assert PdrIndex([last], PARAMS.prox_max).sets_swept == 1
        (beyond,) = co_located_sets([2**31])
        with pytest.raises(ValidationError, match="past the pair table's last minute"):
            PdrIndex(iter([last, beyond]), PARAMS.prox_max)

    def test_an_empty_set_outranks_no_sample(self):
        macro = co_located_sets(range(2), bs=station(1, PrecisionClass.MACRO))
        empty = [PdrSet(minute, station(2), (), (), ()) for minute in range(2)]
        sets = [macro[0], empty[0], macro[1], empty[1]]
        assert pair_table(PdrIndex(sets, PARAMS.prox_max)) == pair_table(PdrIndex(macro, PARAMS.prox_max))

    def test_an_empty_stream_builds_an_empty_table(self):
        index = PdrIndex(iter([]), PARAMS.prox_max)
        assert pair_table(index) == {} and index.sets_swept == 0 and index.presence == {}


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_engine_matches_brute_force_on_seeded_world(self, cap_read, seed):
        cfg = ScenarioConfig(seed=seed, n_phones=14, duration_min=240, alert_minute=200, noise_enabled=True)
        registry, traces, _ = generate_world(cfg)
        sets = plaintext_sets(cfg, registry, traces)
        engine = {
            (k[0].nr, k[1].nr): as_tuples(s) for k, s in engine_all_pairs(cap_read, sets, PARAMS).items()
        }
        oracle = {
            (k[0].nr, k[1].nr): (flagged, windows)
            for k, (flagged, windows) in brute_force_pairs(sets, PARAMS.prox_max, PARAMS.dur_min, PARAMS.gap_tolerance).items()
        }
        assert engine == oracle

    def test_poi_lower_bound_respected_like_oracle(self, cap_read):
        cfg = ScenarioConfig(seed=41, n_phones=10, duration_min=180, alert_minute=100, noise_enabled=False)
        registry, traces, _ = generate_world(cfg)
        sets = plaintext_sets(cfg, registry, traces)
        index = PdrIndex(sets, PARAMS.prox_max)
        phones = sorted({p for s in sets for p in s.phones})
        subject = phones[0]
        t_inf = 60
        engine = {
            s.pair: as_tuples(s)
            for s in find_suspicions(cap_read, index, PhoneOfInterest(subject, t_inf), PARAMS)
        }
        bounds = {p: (t_inf if p == subject else cfg.duration_min) for p in phones}
        # pairs not involving the subject are bounded out by construction below
        oracle_all = brute_force_pairs(sets, PARAMS.prox_max, PARAMS.dur_min, PARAMS.gap_tolerance, lower_bounds=bounds)
        oracle = {k: v for k, v in oracle_all.items() if subject in k}
        assert {k: as_tuples_oracle(v) for k, v in oracle.items()} == {k: engine[k] for k in engine}


def as_tuples_oracle(entry):
    flagged, windows = entry
    return (flagged, windows)


class TestScoring:
    def _suspicion(self, prox, dur, cls, sizes, code="0000000000000001"):
        window = ContactWindow(
            minutes=tuple(range(100, 100 + dur)),
            prox=tuple([prox] * dur),
            classes=tuple([cls] * dur),
            stations=frozenset({code}),
            set_sizes=tuple([sizes] * dur),
        )
        return ContactSuspicion(pair=(phone(1), phone(2)), pc_susp=True, windows=(window,))

    def test_floor_case_scores_class_one(self, cap_read):
        # prox at the threshold, duration at the minimum, worst precision,
        # neutral density/severity: raw = 0.1975 (computed independently).
        suspicion = self._suspicion(prox=2.0, dur=15, cls=PrecisionClass.MACRO, sizes=5)
        [score] = score_suspicions(cap_read, [suspicion], PARAMS)
        assert score.raw == pytest.approx(0.1975, abs=1e-12)
        assert score.risk_class == 1

    def test_ceiling_case_scores_class_four(self, cap_read):
        # prox -> 0, eight-fold duration, femto precision, neutral severity:
        # raw = 0.85 (computed independently).
        suspicion = self._suspicion(prox=0.0, dur=120, cls=PrecisionClass.FEMTO, sizes=5)
        [score] = score_suspicions(cap_read, [suspicion], PARAMS)
        assert score.raw == pytest.approx(0.85, abs=1e-12)
        assert score.risk_class == 4

    def test_longer_duration_scores_strictly_higher(self, cap_read):
        shorter = self._suspicion(prox=1.0, dur=20, cls=PrecisionClass.FEMTO, sizes=3)
        longer = self._suspicion(prox=1.0, dur=40, cls=PrecisionClass.FEMTO, sizes=3)
        [s1], [s2] = score_suspicions(cap_read, [shorter], PARAMS), score_suspicions(cap_read, [longer], PARAMS)
        assert s2.raw > s1.raw

    def test_monotonicity_in_each_term(self, cap_read):
        base = self._suspicion(prox=1.0, dur=20, cls=PrecisionClass.PICO, sizes=3)
        [score_base] = score_suspicions(cap_read, [base], PARAMS)
        # closer is riskier
        [closer] = score_suspicions(cap_read, [self._suspicion(0.5, 20, PrecisionClass.PICO, 3)], PARAMS)
        assert closer.raw > score_base.raw
        # better precision class is riskier (more trustworthy proximity)
        [better] = score_suspicions(cap_read, [self._suspicion(1.0, 20, PrecisionClass.FEMTO, 3)], PARAMS)
        assert better.raw > score_base.raw
        # denser region is riskier
        [denser] = score_suspicions(cap_read, [self._suspicion(1.0, 20, PrecisionClass.PICO, 8)], PARAMS)
        assert denser.raw > score_base.raw

    def test_terms_are_retained(self, cap_read):
        suspicion = self._suspicion(prox=1.25, dur=30, cls=PrecisionClass.FEMTO, sizes=4)
        [score] = score_suspicions(cap_read, [suspicion], PARAMS)
        assert score.prox_avg == pytest.approx(1.25)
        assert score.dur_tot == 30
        assert score.precision_prox == pytest.approx(1.0)
        assert score.density == pytest.approx(4.0)
        assert score.region.stations == frozenset({"0000000000000001"})
        assert score.median_contact == median_contact_minute(suspicion, PARAMS.dur_min)
        scores_json = artifact_payloads({}, [score], [], InfectionDag(nodes=(), edges=()))["scores.json"]
        [written] = json.loads(scores_json)
        assert (written["terms"]["precision_dur"], written["terms"]["severity"]) == (0.5, 0.5)

    def test_precision_factors_are_looked_up_without_enum_hash(self, cap_read, monkeypatch):
        suspicion = self._suspicion(prox=1.0, dur=20, cls=PrecisionClass.PICO, sizes=3)
        [expected] = score_suspicions(cap_read, [suspicion], PARAMS)
        hashed = []
        real_hash = enum.Enum.__hash__
        monkeypatch.setattr(enum.Enum, "__hash__", lambda member: hashed.append(member) or real_hash(member))
        [score] = score_suspicions(cap_read, [suspicion], PARAMS)
        assert score == expected
        assert not [member for member in hashed if isinstance(member, PrecisionClass)]

    def test_unflagged_input_rejected(self, cap_read):
        bad = ContactSuspicion(pair=(phone(1), phone(2)), pc_susp=False, windows=())
        with pytest.raises(ValidationError):
            score_suspicions(cap_read, [bad], PARAMS)

    def test_windowless_input_is_no_evidence(self, cap_read):
        bad = ContactSuspicion(pair=(phone(1), phone(2)), pc_susp=True, windows=())
        with pytest.raises(NoEvidenceError):
            score_suspicions(cap_read, [bad], PARAMS)

    def test_a_flagged_suspicion_with_no_qualifying_window_is_no_evidence(self, cap_read):
        # Flagged by hand: a scan flags a pair only for a window of at least dur_min minutes.
        short = self._suspicion(prox=1.0, dur=PARAMS.dur_min - 1, cls=PrecisionClass.FEMTO, sizes=3)
        with pytest.raises(NoEvidenceError):
            score_suspicions(cap_read, [short], PARAMS)

    @given(st.floats(0.0, 1.0))
    def test_classification_total_on_unit_interval(self, raw):
        assert cep.classify(raw) in {1, 2, 3, 4}

    def test_class_boundaries(self):
        assert cep.classify(0.0) == 1
        assert cep.classify(0.2499999) == 1
        assert cep.classify(0.25) == 2
        assert cep.classify(0.5) == 3
        assert cep.classify(0.75) == 4
        assert cep.classify(1.0) == 4


class TestMedian:
    def test_median_of_five_minutes(self):
        window = ContactWindow(
            minutes=(10, 11, 12, 13, 14),
            prox=(0.0,) * 5,
            classes=(PrecisionClass.FEMTO,) * 5,
            stations=frozenset({"00" * 8}),
            set_sizes=(2,) * 5,
        )
        suspicion = ContactSuspicion(pair=(phone(1), phone(2)), pc_susp=True, windows=(window,))
        assert median_contact_minute(suspicion, dur_min=5) == 12

    def test_median_ignores_subthreshold_windows(self):
        short = ContactWindow(
            minutes=(500, 501),
            prox=(0.0, 0.0),
            classes=(PrecisionClass.FEMTO,) * 2,
            stations=frozenset({"00" * 8}),
            set_sizes=(2, 2),
        )
        long = ContactWindow(
            minutes=tuple(range(10, 30)),
            prox=(0.0,) * 20,
            classes=(PrecisionClass.FEMTO,) * 20,
            stations=frozenset({"00" * 8}),
            set_sizes=(2,) * 20,
        )
        suspicion = ContactSuspicion(pair=(phone(1), phone(2)), pc_susp=True, windows=(long, short))
        assert median_contact_minute(suspicion, dur_min=15) == 19


class TestCompletion:
    def _chained_sets(self):
        s1, s2 = station(1), station(2)
        records = []
        for minute in range(100, 131):
            records += (pdr(s1, phone(1), 0.1, 0.0, minute), pdr(s1, phone(2), 0.2, 0.0, minute))
        for minute in range(200, 231):
            records += (pdr(s2, phone(2), 0.1, 0.0, minute), pdr(s2, phone(3), 0.2, 0.0, minute))
        return group_records(records)

    def test_chain_discovered_only_via_completion(self, cap_read):
        index = PdrIndex(self._chained_sets(), PARAMS.prox_max)
        by_pair, scores, completion_pairs = complete_findings(
            cap_read, index, [PhoneOfInterest(phone(1), 0)], PARAMS, class_threshold=3
        )
        assert list(by_pair) == [(phone(1), phone(2)), (phone(2), phone(3))]
        assert completion_pairs == 1
        assert [s.pair for s in scores] == list(by_pair)
        assert by_pair[(phone(2), phone(3))].windows[0].start == 200

    def test_completion_idempotent(self, cap_read, monkeypatch):
        scans = []

        def recording_scan(capability, index, poi, params, **kwargs):
            scans.append(poi)
            return find_suspicions(capability, index, poi, params, **kwargs)

        monkeypatch.setattr(cep, "find_suspicions", recording_scan)
        index = PdrIndex(self._chained_sets(), PARAMS.prox_max)
        seeds = [PhoneOfInterest(phone(1), 0)]
        first = complete_findings(cap_read, index, seeds, PARAMS, class_threshold=3)
        # each phone once; a cascade phone starts at the median minute of the window that implicated it
        assert scans == [PhoneOfInterest(phone(1), 0), PhoneOfInterest(phone(2), 115), PhoneOfInterest(phone(3), 215)]
        second = complete_findings(cap_read, index, seeds, PARAMS, class_threshold=3)
        assert second == first
        assert scans[3:] == scans[:3]

    def test_no_pair_above_threshold_is_noop(self, cap_read):
        index = PdrIndex(self._chained_sets(), PARAMS.prox_max)
        by_pair, scores, completion_pairs = complete_findings(
            cap_read, index, [PhoneOfInterest(phone(1), 0)], PARAMS, class_threshold=4
        )
        assert list(by_pair) == [(phone(1), phone(2))]
        assert [s.risk_class for s in scores] == [3]
        assert completion_pairs == 0


def run_worklist(cap, index, seeds, params, class_threshold):
    """`complete_findings`' result, and the scans it made in order."""
    scans = []

    def recording_scan(capability, index, poi, params):
        scans.append(poi)
        return find_suspicions(capability, index, poi, params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cep, "find_suspicions", recording_scan)
        by_pair, scores, completion_pairs = complete_findings(cap, index, seeds, params, class_threshold)
    return by_pair, scores, completion_pairs, scans


def oracle_worklist(sets, params, scans):
    """What the worklist keeps, by the brute-force oracle: pair -> (verdict, index of the scan that keeps it).

    A pair is kept as the first scan that finds it sees it. A scan of phone v
    from minute L sees the oracle's verdicts on v's pairs when v's lower bound
    is L and every other phone's lies past the last minute.
    """
    phones = {p for s in sets for p in s.phones}
    end = max(s.minute for s in sets) + 1
    expected = {}
    for n, poi in enumerate(scans):
        bounds = dict.fromkeys(phones, end)
        bounds[poi.phone] = max(0, poi.t_inf_min - params.search_margin)
        own = [s for s in sets if poi.phone in s.phones]
        verdicts = brute_force_pairs(own, params.prox_max, params.dur_min, params.gap_tolerance, lower_bounds=bounds)
        for pair in sorted(verdicts):  # a scan reports its partners in phone order
            expected.setdefault(pair, (verdicts[pair], n))
    return expected


def assert_worklist_matches(by_pair, scores, completion_pairs, scans, expected, n_seeds):
    assert len({poi.phone for poi in scans}) == len(scans)  # each phone scanned once
    assert [(pair, as_tuples(s)) for pair, s in by_pair.items()] == [(pair, v) for pair, (v, _n) in expected.items()]
    assert [s.pair for s in scores] == [pair for pair, s in by_pair.items() if s.pc_susp]
    assert completion_pairs == sum(1 for _v, n in expected.values() if n >= n_seeds)


def scenario_analysis(cfg: ScenarioConfig):
    """The sets, seeds and parameters `runner.run` analyses for `cfg`, its sets in the clear."""
    registry, traces, ground_truth = generate_world(cfg)
    estimates = infection_estimates(cfg, ground_truth)
    seeds = [PhoneOfInterest(p, t) for p, t in sorted(estimates.items(), key=lambda kv: (kv[1], kv[0]))]
    params = AnalysisParams(cfg.prox_max_m, cfg.dur_min, cfg.gap_tolerance_min, cfg.search_margin_min)
    return plaintext_sets(cfg, registry, traces), seeds, params


class TestPairOnce:
    """The worklist keeps what the brute-force oracle finds from each scan's lower bound.

    The pair table measures each pair once, for every scan; the oracle shares
    nothing with it but the distance expression.
    """

    def test_sparse_world_cascade_matches_oracle(self, cap_read):
        fields = json.loads(SMALL_JSON.read_text())
        fields.update(seed=3, n_phones=24, duration_min=480, alert_minute=400, transmission_probability=0.05)
        cfg = ScenarioConfig.from_dict(fields)
        sets, seeds, params = scenario_analysis(cfg)
        result = run_worklist(cap_read, PdrIndex(sets, params.prox_max), seeds, params, cfg.completion_class_threshold)
        assert result[2] > 0  # the cascade ran
        assert_worklist_matches(*result, oracle_worklist(sets, params, result[3]), len(seeds))

    def test_small_scenario_matches_oracle(self, cap_read):
        cfg = ScenarioConfig.from_json(SMALL_JSON.read_text())
        sets, seeds, params = scenario_analysis(cfg)
        by_pair, scores, completion_pairs, scans = run_worklist(
            cap_read, PdrIndex(sets, params.prox_max), seeds, params, cfg.completion_class_threshold
        )
        assert len(by_pair) == 669
        # No cascade pair and seeds scanned by ascending lower bound: each kept pair
        # comes from the seed whose bound is the smaller of its phones', which is
        # the oracle's own rule, so one oracle call over every set covers them all.
        assert completion_pairs == 0
        lowers = [max(0, poi.t_inf_min - params.search_margin) for poi in seeds]
        assert lowers == sorted(lowers) and scans[: len(seeds)] == seeds
        end = max(s.minute for s in sets) + 1
        bounds = {p: end for s in sets for p in s.phones} | dict(zip((poi.phone for poi in seeds), lowers))
        oracle = brute_force_pairs(sets, params.prox_max, params.dur_min, params.gap_tolerance, lower_bounds=bounds)
        assert {pair: as_tuples(s) for pair, s in by_pair.items()} == oracle
        assert [s.pair for s in scores] == [pair for pair, s in by_pair.items() if s.pc_susp]

    @settings(max_examples=80, deadline=None)
    @given(
        records=st.dictionaries(
            # (station, phone, minute): minutes either side of the sweep's first block boundary too, and up
            # to five stations of three classes in one minute
            st.tuples(
                st.integers(0, 4),
                st.integers(1, 5),
                st.one_of(st.integers(0, 12), st.integers(cep._SWEEP_BLOCK_MIN - 3, cep._SWEEP_BLOCK_MIN + 2)),
            ),
            st.tuples(
                st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 4.0)),
                st.one_of(st.sampled_from([0.0, 0.5, 3.0]), st.floats(0.0, 2 * math.pi, exclude_max=True)),
            ),
            min_size=10,
            max_size=120,
        ),
        seeds=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)), unique_by=lambda seed: seed[0], max_size=5),
        dur_min=st.integers(1, 3),
        gap=st.integers(0, 2),
        margin=st.integers(0, 4),
        class_threshold=st.integers(1, 4),
    )
    def test_matches_oracle_on_any_sets(self, cap_read, records, seeds, dur_min, gap, margin, class_threshold):
        precision = (PrecisionClass.FEMTO, PrecisionClass.PICO, PrecisionClass.MACRO, PrecisionClass.PICO, PrecisionClass.FEMTO)
        sets = group_records(
            pdr(station(s, precision[s]), phone(p), radius, azimuth, minute)
            for (s, p, minute), (radius, azimuth) in records.items()
        )
        pois = [PhoneOfInterest(phone(p), t) for p, t in seeds]
        params = AnalysisParams(prox_max=1.5, dur_min=dur_min, gap_tolerance=gap, search_margin=margin)
        result = run_worklist(cap_read, PdrIndex(sets, params.prox_max), pois, params, class_threshold)
        assert_worklist_matches(*result, oracle_worklist(sets, params, result[3]), len(pois))


def registry_with(code_to_info):
    stations = {}
    providers = {"P1": []}
    for bs, info in code_to_info.items():
        stations[bs] = info
        providers["P1"].append(bs)
    return ProviderRegistry(stations=stations, providers=providers)


class TestPccont:
    def _scored_pair(self, cap, a=1, b=2, minutes=range(100, 120), bs=None):
        bs = bs or station(1)
        sets = group_records(
            r for m in minutes for r in (pdr(bs, phone(a), 0.1, 0.0, m), pdr(bs, phone(b), 0.2, 0.0, m))
        )
        suspicions = find_suspicions(cap, PdrIndex(sets, PARAMS.prox_max), PhoneOfInterest(phone(a), 0), PARAMS)
        return score_suspicions(cap, suspicions, PARAMS)

    def test_uninfected_partner_excluded(self, cap_read, cap_full):
        scores = self._scored_pair(cap_read)
        registry = registry_with({station(1): StationInfo((50.0, 60.0), 8.0)})
        records = build_pccont(cap_full, scores, {phone(1): 0}, registry)
        assert records == []

    def test_both_infected_resolved(self, cap_read, cap_full):
        scores = self._scored_pair(cap_read)
        registry = registry_with({station(1): StationInfo((50.0, 60.0), 8.0)})
        records = build_pccont(cap_full, scores, {phone(1): 0, phone(2): 90}, registry)
        assert len(records) == 1
        record = records[0]
        assert record.median_contact == scores[0].median_contact == 109  # lower median of 100..119
        assert record.t_inf_min_v == 0 and record.t_inf_min_u == 90
        # coordinate box recomputed from the registry: centroid +- useful range
        assert record.coord_box == (42.0, 52.0, 58.0, 68.0)

    def test_unresolvable_station_raises(self, cap_read, cap_full):
        scores = self._scored_pair(cap_read)
        registry = registry_with({station(99): StationInfo((0.0, 0.0), 8.0)})
        with pytest.raises(ResolutionError):
            build_pccont(cap_full, scores, {phone(1): 0, phone(2): 90}, registry)

    def test_requires_full_processing(self, cap_read):
        scores = self._scored_pair(cap_read)
        registry = registry_with({station(1): StationInfo((0.0, 0.0), 8.0)})
        with pytest.raises(AuthorizationError):
            build_pccont(cap_read, scores, {phone(1): 0, phone(2): 0}, registry)


def record_for(a, b, t_a, t_b, median, box=(0.0, 0.0, 10.0, 10.0)):
    return ContaminationRecord(
        v=phone(a),
        u=phone(b),
        region=SpaceTimeRegion(start=median - 5, end=median + 5, stations=frozenset({"00" * 8})),
        coord_box=box,
        median_contact=median,
        t_inf_min_v=t_a,
        t_inf_min_u=t_b,
    )


class TestDag:
    def test_planted_chain_yields_exactly_its_edges(self):
        records = [record_for(1, 2, 0, 100, 100), record_for(2, 3, 100, 200, 200)]
        dag = build_dag(records, t_incub_min=50, t_incub_max=1000)
        assert {(e.src, e.dst) for e in dag.edges} == {(phone(1), phone(2)), (phone(2), phone(3))}
        order = dag.topological_order()
        assert order.index(phone(1)) < order.index(phone(2)) < order.index(phone(3))
        record_of = {(r.v, r.u): r for r in records}
        for edge in dag.edges:
            record = record_of[edge.src, edge.dst]
            assert edge.median_contact == record.median_contact
            assert edge.weight == pytest.approx(1.0 - abs(record.median_contact - record.t_inf_min_u) / 1000)

    def test_equal_estimates_give_no_edge(self):
        dag = build_dag([record_for(1, 2, 100, 100, 120)], t_incub_min=50, t_incub_max=1000)
        assert dag.edges == ()
        assert dag.nodes == (phone(1), phone(2))

    def test_contact_before_infection_estimate_gives_no_edge(self):
        # median below both estimates: condition (a) fails in both directions
        dag = build_dag([record_for(1, 2, 100, 300, 50)], t_incub_min=50, t_incub_max=1000)
        assert dag.edges == ()

    def test_contact_outside_incubation_window_gives_no_edge(self):
        # |median - t_inf(u)| too large: condition (c) fails
        dag = build_dag([record_for(1, 2, 0, 5000, 100)], t_incub_min=50, t_incub_max=1000)
        assert dag.edges == ()

    def test_zero_floor_uses_phone_order_tiebreak(self):
        dag = build_dag([record_for(2, 1, 100, 100, 120)], t_incub_min=0, t_incub_max=1000)
        assert {(e.src, e.dst) for e in dag.edges} == {(phone(1), phone(2))}
        dag.topological_order()

    def test_bad_incubation_bounds(self):
        with pytest.raises(ParameterError):
            build_dag([], t_incub_min=10, t_incub_max=5)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 500), min_size=6, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 500)), max_size=12),
    )
    def test_always_acyclic(self, estimates, raw_records):
        # one estimate per phone, as the pipeline's infected map guarantees
        records = [
            record_for(a + 1, b + 1, estimates[a], estimates[b], median)
            for a, b, median in raw_records
            if a != b
        ]
        dag = build_dag(records, t_incub_min=0, t_incub_max=400)
        order = dag.topological_order()  # must never raise
        assert list(dag.nodes) == sorted({p for r in records for p in (r.v, r.u)})
        assert sorted(order) == list(dag.nodes)
        assert all(order.index(e.src) < order.index(e.dst) for e in dag.edges)

    @pytest.mark.parametrize("cycle", [(1, 2), (1, 2, 3)], ids=["2-cycle", "3-cycle"])
    def test_a_cycle_is_refused(self, cycle):
        edges = [
            DagEdge(src=phone(a), dst=phone(b), median_contact=100, weight=1.0)
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        ]
        dag = InfectionDag(nodes=tuple(map(phone, cycle)), edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))))
        with pytest.raises(ValidationError, match="graph contains a cycle"):
            dag.topological_order()

    def test_a_node_with_no_edge_is_ordered(self):
        one_edge = build_dag([record_for(1, 2, 0, 100, 100)], t_incub_min=50, t_incub_max=1000)
        dag = InfectionDag(nodes=(*one_edge.nodes, phone(3)), edges=one_edge.edges)
        order = dag.topological_order()
        assert sorted(order) == [phone(1), phone(2), phone(3)]
        assert order.index(phone(1)) < order.index(phone(2))

    def test_inconsistent_estimates_rejected(self):
        records = [record_for(1, 2, 0, 100, 100), record_for(2, 1, 100, 50, 200)]
        with pytest.raises(ValidationError):
            build_dag(records, t_incub_min=0, t_incub_max=400)

    def test_dot_export(self):
        dag = build_dag([record_for(1, 2, 0, 100, 100)], t_incub_min=50, t_incub_max=1000)
        dot = dag_dot(dag)
        assert dot.startswith("digraph contamination {")
        assert '"600000001" -> "600000002"' in dot


class TestHotspots:
    def test_single_venue_dominates(self):
        records = [record_for(1, 2, 0, 100, 100, box=(10, 10, 20, 20)) for _ in range(5)]
        records.append(record_for(3, 4, 0, 100, 100, box=(200, 200, 210, 210)))
        grid = hotspot_map(records, cell_size=50.0)
        assert grid[0] == (0, 0, 5)
        assert (4, 4, 1) in grid

    def test_counts_conserve_records(self):
        records = [record_for(i + 1, i + 2, 0, 100, 100, box=(i * 40.0, 0.0, i * 40.0 + 10, 10.0)) for i in range(7)]
        grid = hotspot_map(records, cell_size=25.0)
        assert sum(c for _, _, c in grid) == 7

    def test_empty_records(self):
        assert hotspot_map([], cell_size=10.0) == []

    def test_bad_cell_size(self):
        with pytest.raises(ParameterError):
            hotspot_map([], cell_size=0.0)

    def test_csv_shape(self):
        grid = [(0, 0, 3), (1, 2, 1)]
        text = hotspot_csv(grid)
        assert text == "cell_x,cell_y,count\n0,0,3\n1,2,1\n"
