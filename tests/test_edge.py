import json
from random import Random

import pytest

from epitrace import crypto, framing
from epitrace.edge import SEAL_EPOCH_MIN, EdgeCloud
from epitrace.errors import AuthorizationError, DecryptionError, FramingError, LockedError, ValidationError
from epitrace.federation import OperationClass, QuorumCertificate, SystemState, make_request
from epitrace.records import PdrSet, PrecisionClass, decode_pdr_set, encode_pdr_set
from epitrace.runner import _open_entries, build_context, fetch, ingest, vet
from epitrace.world import ScenarioConfig
from util import SMALL_JSON, oldest_age, phone, small_federation, station

FEMTO_AAD = framing.u8(PrecisionClass.FEMTO)  # the class byte a set at `station(1)` is sealed with


def make_set(minute: int, n_phones: int = 3, bs=None) -> PdrSet:
    return PdrSet(
        minute=minute,
        bs=bs or station(1),
        phones=tuple(phone(i) for i in range(n_phones)),
        radii=tuple(1.0 + i for i in range(n_phones)),
        azimuths=tuple(0.1 * i for i in range(n_phones)),
    )


@pytest.fixture
def cloud():
    federation = small_federation()
    federation.escrow_keypair("provider:P1")
    edge = EdgeCloud(provider_id="P1", key_id="provider:P1", federation=federation, pdr_ttl=40320, rng=Random(0))
    return federation, edge


def read_cert(federation, seed=1, minutes=(0, 100)):
    return vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "test", "minutes": list(minutes)}, Random(seed))


def unlock(federation):
    cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(77))
    federation.change_state(cert, SystemState.ALERT)


class TestPush:
    def test_pushes_append_in_order(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        for minute in range(10):
            assert port.push(make_set(minute))
        assert len(edge.stored_ciphertexts()) == 10

    def test_no_dedup_on_double_push(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        s = make_set(5)
        port.push(s)
        port.push(s)
        assert len(edge.stored_ciphertexts()) == 2

    def test_ciphertext_round_trips_bit_exact(self, cloud):
        federation, edge = cloud
        s = make_set(9, n_phones=4)
        edge.push(s)
        unlock(federation)
        [(_class, ciphertext)] = fetch(edge, read_cert(federation), (0, 100))
        # Reconstruct the provider key from the escrowed shares, as the engine does.
        private = federation.engine_key("provider:P1")
        plaintext = crypto.unseal(private, ciphertext, {}, FEMTO_AAD)
        assert plaintext == encode_pdr_set(s, {})
        assert decode_pdr_set(plaintext, PrecisionClass.FEMTO, {}, {}) == s

    def test_metadata_matches_enclosed_set(self, cloud):
        federation, edge = cloud
        s = make_set(42, bs=station(1, PrecisionClass.PICO))
        edge.push(s)
        unlock(federation)
        [(class_byte, _ciphertext)] = fetch(edge, read_cert(federation), (0, 100))
        assert class_byte == s.bs.precision_class == PrecisionClass.PICO == 1

    @pytest.mark.parametrize("cls", list(PrecisionClass), ids=lambda cls: cls.name)
    def test_each_class_round_trips_through_its_fetch_entry_byte(self, cloud, cls):
        federation, edge = cloud
        s = make_set(42, bs=station(1, cls))
        edge.push(s)
        unlock(federation)
        entries = fetch(edge, read_cert(federation), (0, 100))
        assert [class_byte for class_byte, _ciphertext in entries] == [cls.value]
        [decoded] = _open_entries(entries, federation.engine_key("provider:P1"), {}, {})
        assert decoded == s and decoded.bs.precision_class is cls

    def test_an_unknown_class_byte_sealed_under_the_provider_key_is_a_validation_error(self, cloud):
        # A Byzantine edge can seal any plaintext under the provider's public key, class byte included.
        federation, _edge = cloud
        context = crypto.SealContext(federation.key_registry["provider:P1"], Random(5))
        ciphertext = crypto.seal(context, encode_pdr_set(make_set(3), {}), framing.u8(3))
        unlock(federation)
        with pytest.raises(ValidationError, match="unknown precision class byte 3"):
            next(_open_entries([(3, memoryview(ciphertext))], federation.engine_key("provider:P1"), {}, {}))

    def test_provider_port_exposes_only_push(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        surface = [a for a in dir(port) if not a.startswith("_")]
        assert surface == ["push"]

    def test_confidentiality_no_plaintext_leaks(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        probes = [phone(i).nr.encode() for i in range(3)]
        for minute in range(1000):
            port.push(make_set(minute))
        for ciphertext in edge.stored_ciphertexts():
            for probe in probes:
                assert probe not in ciphertext

    def test_sealing_failure_drops_record_and_counts(self, cloud):
        federation, edge = cloud
        federation.key_registry["provider:P1"] = b"not a key"
        assert edge.provider_port().push(make_set(1)) is False
        assert len(edge.stored_ciphertexts()) == 0


class TestSealEpochs:
    def test_one_context_per_hour(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        minutes = range(0, 3 * SEAL_EPOCH_MIN, 7)
        for minute in minutes:
            port.push(make_set(minute))
        eph_by_hour = {}
        for minute, ciphertext in zip(minutes, edge.stored_ciphertexts()):
            eph_by_hour.setdefault(minute // SEAL_EPOCH_MIN, set()).add(bytes(ciphertext[:32]))
        assert [len(eph) for eph in eph_by_hour.values()] == [1, 1, 1]
        assert len(set().union(*eph_by_hour.values())) == 3

    def test_phone_fields_are_cached_for_one_epoch_only(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        late = PdrSet(SEAL_EPOCH_MIN, station(1), (phone(7), phone(8)), (1.0, 2.0), (0.0, 0.1))
        assert port.push(make_set(SEAL_EPOCH_MIN - 1, n_phones=5))
        assert sorted(edge._phone_fields) == [phone(i) for i in range(5)]
        assert port.push(late)
        assert sorted(edge._phone_fields) == [phone(7), phone(8)]

    def test_registry_key_swap_opens_a_new_context(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        assert port.push(make_set(0))
        swapped = crypto.SealKeyPair.generate(Random(5))
        federation.key_registry["provider:P1"] = swapped.public_bytes
        assert port.push(make_set(1))
        federation.key_registry["provider:P1"] = b"not a key"
        assert port.push(make_set(2)) is False
        federation.key_registry["provider:P1"] = swapped.public_bytes
        assert port.push(make_set(3))
        first, second, third = edge.stored_ciphertexts()
        assert len({bytes(c[:32]) for c in (first, second, third)}) == 3
        assert crypto.unseal(swapped.private_bytes, bytes(second), {}, FEMTO_AAD) == encode_pdr_set(make_set(1), {})
        assert crypto.unseal(swapped.private_bytes, bytes(third), {}, FEMTO_AAD) == encode_pdr_set(make_set(3), {})
        with pytest.raises(DecryptionError):
            crypto.unseal(swapped.private_bytes, bytes(first), {}, FEMTO_AAD)

    def test_corrupt_set_fails_alone_within_its_epoch(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        sets = [make_set(minute, n_phones=2 + minute) for minute in range(5)]
        for s in sets:
            port.push(s)
        stored = edge.stored_ciphertexts()
        assert len({bytes(c[:32]) for c in stored}) == 1
        stored[0][50] ^= 0x01  # ciphertext of the epoch's first set
        stored[2][0] ^= 0x01  # eph_pub of the third
        unlock(federation)
        private = federation.engine_key("provider:P1")
        aeads = {}
        opened = []
        for _class, ciphertext in fetch(edge, read_cert(federation), (0, 10)):
            try:
                opened.append(decode_pdr_set(crypto.unseal(private, ciphertext, aeads, FEMTO_AAD), PrecisionClass.FEMTO, {}, {}))
            except DecryptionError:
                opened.append(None)
        assert opened == [None, sets[1], None, sets[3], sets[4]]


class TestPrune:
    def test_ttl_from_incubation_guidance(self, cloud):
        # 14-day incubation, factor 2: entries older than 40320 minutes go.
        _, edge = cloud
        port = edge.provider_port()
        port.push(make_set(0))
        port.push(make_set(10000))
        port.push(make_set(41000))
        deleted = edge.prune(now=41000 + 1)
        assert deleted == 1  # only the minute-0 entry exceeded 40320
        assert len(edge.stored_ciphertexts()) == 2

    def test_nothing_deleted_before_ttl(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        for minute in range(5):
            port.push(make_set(minute))
        assert edge.prune(now=100) == 0
        assert len(edge.stored_ciphertexts()) == 5

    def test_all_expired(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        for minute in range(5):
            port.push(make_set(minute))
        assert edge.prune(now=50000) == 5
        assert len(edge.stored_ciphertexts()) == 0

    def test_pruning_bound_holds_after_any_prune(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        rng = Random(3)
        for minute in sorted(rng.sample(range(0, 100_000), 60)):
            port.push(make_set(minute))
        for now in (10_000, 50_000, 90_000, 130_000):
            edge.prune(now)
            age = oldest_age(edge, now)
            assert age is None or age <= edge.pdr_ttl

    def test_prune_zeroes_stored_ciphertext_in_place(self, cloud):
        _, edge = cloud
        port = edge.provider_port()
        port.push(make_set(0))
        port.push(make_set(41000))
        expired, kept = edge.stored_ciphertexts()
        kept_before = bytes(kept)
        assert any(expired)
        assert edge.prune(now=41000) == 1
        assert expired == bytes(len(expired))  # the buffer taken before the prune
        assert kept == kept_before

    def test_fetch_hands_out_copies(self, cloud):
        federation, edge = cloud
        edge.provider_port().push(make_set(0))
        unlock(federation)
        [(_class, ciphertext)] = fetch(edge, read_cert(federation), (0, 10))
        edge.prune(now=50000)
        assert crypto.unseal(federation.engine_key("provider:P1"), ciphertext, {}, FEMTO_AAD) == encode_pdr_set(make_set(0), {})

    def test_prune_is_ledger_logged(self, cloud):
        federation, edge = cloud
        edge.provider_port().push(make_set(0))
        edge.prune(now=50000)
        kinds = [e.content["kind"] for e in federation.ledger.entries]
        assert "prune" in kinds
        entry = [e for e in federation.ledger.entries if e.content["kind"] == "prune"][-1]
        assert entry.content["deleted"] == 1 and entry.content["shredded"] is True


class TestVpnFetch:
    def test_locked_cloud_rejects_even_valid_cert(self, cloud):
        federation, edge = cloud
        edge.provider_port().push(make_set(1))
        cert = read_cert(federation)
        with pytest.raises(LockedError):
            fetch(edge, cert, (0, 10))
        unlock(federation)
        assert len(fetch(edge, cert, (0, 10))) == 1

    def test_subquorum_cert_rejected_and_logged(self, cloud):
        federation, edge = cloud
        unlock(federation)
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(5))
        q = federation.quorum(OperationClass.BLIND_ANALYSIS)
        votes = [a.approve(request) for a in federation.authorities[: q - 1]]
        forged = QuorumCertificate(
            request_id=request.request_id,
            request_hash=request.request_hash(),
            operation_class=OperationClass.BLIND_ANALYSIS,
            approvals=tuple((v.authority_id, v.signature) for v in votes),
        )
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError):
            fetch(edge, forged, (0, 10))
        logged = [e for e in federation.ledger.entries[before:] if e.content["kind"] == "authorization_failure"]
        assert logged

    def test_a_fetch_overreaching_its_approved_minutes_is_refused_once_in_the_providers_name(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        for minute in range(60):
            port.push(make_set(minute))
        unlock(federation)
        cert = read_cert(federation, minutes=(0, 10))
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match=r"approved minutes \[0, 10\], not \[0, 59\]"):
            fetch(edge, cert, (0, 59))
        [refusal] = [e.content for e in federation.ledger.entries[before:]]
        assert (refusal["kind"], refusal["provider"], refusal["request_id"]) == ("authorization_failure", "P1", cert.request_id.hex())
        assert len(fetch(edge, cert, (0, 10))) == 11

    @pytest.mark.parametrize(
        "minute_range, served",
        [((5, 10), True), ((6, 9), True), ((4, 10), False), ((5, 11), False), ((11, 20), False)],
        ids=["same", "inside", "starts-before", "ends-after", "past-the-end"],
    )
    def test_a_fetch_is_served_only_inside_its_approved_minutes(self, cloud, minute_range, served):
        federation, edge = cloud
        unlock(federation)
        cert = read_cert(federation, minutes=(5, 10))
        if served:
            assert fetch(edge, cert, minute_range) == []
        else:
            with pytest.raises(AuthorizationError, match="approved minutes"):
                fetch(edge, cert, minute_range)

    @pytest.mark.parametrize(
        "payload",
        [{}, {"minutes": [5]}, {"minutes": [5, 10, 20]}, {"minutes": [5, "10"]}, {"minutes": [5.0, 10]}, {"minutes": "5-10"}],
        ids=["absent", "one-bound", "three-bounds", "text-bound", "float-bound", "text"],
    )
    def test_a_request_naming_no_minute_range_cannot_fetch(self, cloud, payload):
        federation, edge = cloud
        edge.provider_port().push(make_set(5))
        unlock(federation)
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, payload, Random(2))
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match=r"approved minutes None, not \[5, 10\]"):
            fetch(edge, cert, (5, 10))
        assert [e.content["kind"] for e in federation.ledger.entries[before:]] == ["authorization_failure"]

    def test_full_range_returns_everything_in_order(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        for minute in range(6):
            port.push(make_set(minute))
        unlock(federation)
        sets = _open_entries(fetch(edge, read_cert(federation), (0, 5)), federation.engine_key("provider:P1"), {}, {})
        assert [s.minute for s in sets] == list(range(6))

    def test_range_is_inclusive_filter(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        for minute in (1, 5, 9):
            port.push(make_set(minute))
        unlock(federation)
        sets = _open_entries(fetch(edge, read_cert(federation), (5, 9)), federation.engine_key("provider:P1"), {}, {})
        assert [s.minute for s in sets] == [5, 9]

    def test_wire_framing_round_trip(self, cloud):
        federation, edge = cloud
        port = edge.provider_port()
        port.push(make_set(3))
        unlock(federation)
        cert = read_cert(federation)
        frame = framing.encode_fetch_request(cert.encode(), 0, 10)
        response = framing.decode_fetch_response(edge.handle_fetch_frame(frame))
        assert len(response) == 1
        class_byte, ciphertext = response[0]
        assert class_byte == PrecisionClass.FEMTO
        private = federation.engine_key("provider:P1")
        assert decode_pdr_set(crypto.unseal(private, ciphertext, {}, FEMTO_AAD), PrecisionClass.FEMTO, {}, {}) == make_set(3)

    def test_relabelled_class_byte_fails_to_open(self, cloud):
        federation, edge = cloud
        edge.provider_port().push(make_set(3))
        unlock(federation)
        frame = bytearray(edge.handle_fetch_frame(framing.encode_fetch_request(read_cert(federation).encode(), 0, 10)))
        assert frame[4] == PrecisionClass.FEMTO == 2  # after the u32 entry count
        frame[4] = PrecisionClass.MACRO
        with pytest.raises(DecryptionError):
            next(_open_entries(framing.decode_fetch_response(bytes(frame)), federation.engine_key("provider:P1"), {}, {}))

    def test_no_station_code_crosses_in_the_clear(self):
        context = build_context(ScenarioConfig.from_dict(json.loads(SMALL_JSON.read_text())))
        ingest(context, 0, 60)
        unlock(context.federation)
        request = framing.encode_fetch_request(read_cert(context.federation).encode(), 0, 59)
        codes = [bs.code.encode("ascii") for bs in context.registry.stations]
        frames = [edge.handle_fetch_frame(request) for edge in context.edges.values()]
        assert sum(len(framing.decode_fetch_response(frame)) for frame in frames) > 0
        assert [code for code in codes for frame in frames if code in frame] == []

    def test_write_class_cert_cannot_fetch(self, cloud):
        federation, edge = cloud
        unlock(federation)
        cert = vet(federation, OperationClass.STRICT_PUSH, {}, Random(9))
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError):
            fetch(edge, cert, (0, 10))
        assert [e.content["kind"] for e in federation.ledger.entries[before:]] == ["authorization_failure"]

    @pytest.mark.parametrize(
        "frame, reason",
        [
            (b"junk", "malformed request frame"),
            (framing.encode_fetch_request(bytes(16), 0, 10), "malformed certificate"),
        ],
    )
    def test_malformed_frame_is_ledgered_before_it_is_refused(self, cloud, frame, reason):
        federation, edge = cloud
        unlock(federation)
        before = len(federation.ledger.entries)
        with pytest.raises(FramingError):
            edge.handle_fetch_frame(frame)
        [entry] = federation.ledger.entries[before:]
        assert entry.content["kind"] == "authorization_failure"
        assert (entry.content["provider"], entry.content["reason"]) == ("P1", reason)
