import itertools
from random import Random

import pytest

from epitrace import crypto, erasure, vault as vault_module
from epitrace.errors import (
    AuthorizationError,
    DecryptionError,
    IntegrityError,
    LockedError,
    ParameterError,
    ReconstructionError,
    UnavailableError,
)
from epitrace.federation import OperationClass, SystemState
from epitrace.runner import vet
from epitrace.shamir import Share, reconstruct_secret
from epitrace.vault import FaultMode, VaultCoordinator
from util import held_object_ids, small_federation


def make_vault(key_threshold=3, k=2, n_clouds=4, seed=0):
    federation = small_federation(seed=seed)
    vault = VaultCoordinator(federation, n_clouds=n_clouds, k=k, key_threshold=key_threshold, rng=Random(seed))
    federation.attach_vault(vault)
    cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(seed + 1))
    federation.change_state(cert, SystemState.ALERT)
    return federation, vault


def spy(monkeypatch, module, name):
    """Replace `module.name` with a wrapper that records the arguments of every call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def caps(federation, seed=5):
    write_cert = vet(federation, OperationClass.BLIND_PROCESSING, {}, Random(seed))
    full_cert = vet(federation, OperationClass.FULL_PROCESSING, {}, Random(seed + 1))
    return (
        federation.authorize_mode(write_cert, OperationClass.BLIND_PROCESSING),
        federation.authorize_mode(full_cert, OperationClass.FULL_PROCESSING),
    )


class TestWriteRead:
    def test_round_trip_with_digest(self):
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        payload = Random(1).randbytes(1000)
        object_id = vault.write(cap_write, payload)
        assert vault.read(cap_full, object_id) == payload
        assert vault.inventory[object_id].plain_digest == crypto.digest(payload)
        [written] = [e.content for e in federation.ledger.entries if e.content["kind"] == "vault_write"]
        assert (written["object_id"], written["size"]) == (object_id.hex(), 1000)

    def test_fragments_are_about_payload_over_k(self):
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        object_id = vault.write(cap_write, Random(2).randbytes(1000))
        sizes = [len(cloud.retrieve(object_id)[1]) for cloud in vault.clouds]
        # AES-GCM adds 28 bytes, erasure adds a 4-byte header, stripes split by k=2.
        assert all(500 <= s <= 520 for s in sizes)

    def test_readable_from_any_two_honest_clouds(self):
        # The 4-fragment illustration with share threshold 2: any 2 intact
        # clouds suffice for both ciphertext and key.
        for pair in itertools.combinations(range(4), 2):
            federation, vault = make_vault(key_threshold=2)
            cap_write, cap_full = caps(federation)
            payload = b"readable from any pair"
            object_id = vault.write(cap_write, payload)
            for i in range(4):
                if i not in pair:
                    vault.clouds[i].fault_mode = FaultMode.CRASHED
            assert vault.read(cap_full, object_id) == payload

    def test_write_in_passive_is_locked(self):
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        vault.write(cap_write, b"data")
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(8)), SystemState.PASSIVE)
        with pytest.raises(LockedError):
            vault.write(cap_write, b"data")
        assert vault.object_count == 0

    def test_write_requires_write_capability(self):
        federation, vault = make_vault()
        read_cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(9))
        cap_read_only = federation.authorize_mode(read_cert, OperationClass.BLIND_ANALYSIS)
        with pytest.raises(AuthorizationError):
            vault.write(cap_read_only, b"data")

    def test_write_fails_cleanly_below_k_clouds(self):
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        for cloud in vault.clouds[1:]:
            cloud.fault_mode = FaultMode.CRASHED
        with pytest.raises(UnavailableError):
            vault.write(cap_write, b"partial?")
        assert vault.object_count == 0
        # the surviving cloud holds no fragment of the aborted object
        assert held_object_ids(vault.clouds[0]) == []

    def test_write_fails_cleanly_below_key_threshold_clouds(self):
        # n=4, k=2, key threshold 3: two clouds hold enough fragments but too few key shares.
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        for cloud in vault.clouds[:2]:
            cloud.fault_mode = FaultMode.CRASHED
        with pytest.raises(UnavailableError, match="need 3"):
            vault.write(cap_write, b"unreadable?")
        assert vault.object_count == 0
        assert all(held_object_ids(cloud) == [] for cloud in vault.clouds)
        assert not [e for e in federation.ledger.entries if e.content["kind"] == "vault_write"]

    @pytest.mark.parametrize("k, key_threshold", [(4, 2), (2, 4)], ids=["k_above_n", "key_threshold_above_n"])
    def test_sizing_beyond_the_clouds_refuses_the_first_write(self, k, key_threshold):
        # Built directly, outside a checked ScenarioConfig: the coding layers refuse before any cloud stores a piece.
        federation, vault = make_vault(key_threshold=key_threshold, k=k, n_clouds=3)
        cap_write, _ = caps(federation)
        with pytest.raises(ParameterError):
            vault.write(cap_write, b"never stored")
        assert vault.object_count == 0
        assert all(cloud.held_buffers() == [] for cloud in vault.clouds)

    def test_blind_read_returns_ciphertext_only(self):
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        payload = b"blind modes see ciphertext"
        object_id = vault.write(cap_write, payload)
        blob = vault.read(cap_write, object_id)  # blind processing capability
        assert blob != payload
        meta = vault.inventory[object_id]
        assert crypto.digest(blob) == meta.cipher_digest


class TestByzantineTolerance:
    def test_single_corruption_tolerated_in_every_position(self):
        for position in range(4):
            federation, vault = make_vault(seed=position)
            cap_write, cap_full = caps(federation)
            payload = Random(position).randbytes(333)
            object_id = vault.write(cap_write, payload)
            vault.clouds[position].fault_mode = FaultMode.BYZANTINE
            recovered = vault.read(cap_full, object_id)
            assert recovered == payload
            assert crypto.digest(recovered) == vault.inventory[object_id].plain_digest

    def test_three_of_four_crashed_is_unavailable(self):
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        object_id = vault.write(cap_write, b"needs two fragments")
        for cloud in vault.clouds[:3]:
            cloud.fault_mode = FaultMode.CRASHED
        with pytest.raises(UnavailableError):
            vault.read(cap_full, object_id)

    @pytest.mark.parametrize("byzantine", [(0,), (0, 1)])
    def test_one_decode_and_one_reconstruction_at_scale(self, monkeypatch, byzantine):
        federation, vault = make_vault(n_clouds=16, k=8, key_threshold=9)
        cap_write, cap_full = caps(federation)
        payload = Random(3).randbytes(700)
        object_id = vault.write(cap_write, payload)
        for position in byzantine:
            vault.clouds[position].fault_mode = FaultMode.BYZANTINE
        decodes = spy(monkeypatch, erasure, "decode")
        reconstructions = spy(monkeypatch, vault_module, "reconstruct_secret")
        assert vault.read(cap_full, object_id) == payload
        assert len(decodes) == 1 and len(reconstructions) == 1

    def test_genuine_fragment_under_another_index_is_rejected(self, monkeypatch):
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        payload = b"fragments are bound to their index"
        object_id = vault.write(cap_write, payload)
        liar = vault.clouds[1]
        _index, fragment, share = liar.retrieve(object_id)
        monkeypatch.setattr(liar, "retrieve", lambda _object_id: (2, fragment, share))
        decodes = spy(monkeypatch, erasure, "decode")
        assert crypto.digest(vault.read(cap_write, object_id)) == vault.inventory[object_id].cipher_digest
        [(fragments, _k)] = decodes
        assert fragment not in [f.data for f in fragments]
        # Once the mislabelled fragment would be needed, the read fails instead.
        for cloud in vault.clouds[2:]:
            cloud.fault_mode = FaultMode.CRASHED
        with pytest.raises(IntegrityError):
            vault.read(cap_write, object_id)

    def test_crashed_plus_byzantine_below_key_threshold_is_integrity_error(self):
        # n=4, k=2, key threshold 3: three clouds answer, only two key shares verify.
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        object_id = vault.write(cap_write, b"one down, one lying")
        vault.clouds[0].fault_mode = FaultMode.CRASHED
        vault.clouds[3].fault_mode = FaultMode.BYZANTINE
        with pytest.raises(IntegrityError):
            vault.read(cap_full, object_id)

    def test_all_clouds_byzantine_is_integrity_error(self):
        federation, vault = make_vault()
        cap_write, cap_full = caps(federation)
        object_id = vault.write(cap_write, b"hopeless")
        for cloud in vault.clouds:
            cloud.fault_mode = FaultMode.BYZANTINE
        with pytest.raises(IntegrityError):
            vault.read(cap_full, object_id)


class TestCoalitionConfidentiality:
    def test_every_coalition_of_at_most_x_clouds_fails_to_decrypt(self):
        # Defaults: n=4, k=2, key threshold 3, so x = 2. All 4 singletons and
        # all 6 pairs must fail to produce the plaintext.
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        payload = b"coalitions must fail " + Random(7).randbytes(50)
        object_id = vault.write(cap_write, payload)
        tried = 0
        for size in (1, 2):
            for coalition in itertools.combinations(vault.clouds, size):
                tried += 1
                responses = [c.retrieve(object_id) for c in coalition]
                fragments = [erasure.Fragment(r[0], r[1]) for r in responses]
                shares = [Share(x=r[2][0], data=r[2][1:]) for r in responses]
                try:
                    ciphertext = erasure.decode(fragments, vault.k)
                except UnavailableError:
                    continue  # below k fragments: not even ciphertext
                with pytest.raises((DecryptionError, ReconstructionError)):
                    crypto.symmetric_decrypt(reconstruct_secret(shares), ciphertext)
        assert tried == 4 + 6

    def test_below_k_fragments_cannot_rebuild_ciphertext(self):
        federation, vault = make_vault(k=3, key_threshold=3)
        cap_write, _ = caps(federation)
        object_id = vault.write(cap_write, b"secret body")
        for coalition in itertools.combinations(vault.clouds, 2):
            fragments = [erasure.Fragment(r[0], r[1]) for r in (c.retrieve(object_id) for c in coalition)]
            with pytest.raises(UnavailableError):
                erasure.decode(fragments, vault.k)


class TestDelete:
    def test_passive_transition_deletes_everything(self):
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        for i in range(3):
            vault.write(cap_write, f"object {i}".encode())
        assert vault.object_count == 3
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(30))
        federation.change_state(cert, SystemState.PASSIVE)
        assert vault.object_count == 0
        with pytest.raises(LockedError):
            vault.write(cap_write, b"object 3")
        batch_entries = [
            e for e in federation.ledger.entries if e.content["kind"] == "vault_delete" and len(e.content.get("objects", [])) == 3
        ]
        assert len(batch_entries) == 1

    def test_delete_all_zeroes_held_fragments_in_place(self):
        federation, vault = make_vault()
        cap_write, _ = caps(federation)
        object_id = vault.write(cap_write, b"secret results " * 8)
        held = [cloud.retrieve(object_id) for cloud in vault.clouds]
        assert all(any(fragment) and any(share) for _index, fragment, share in held)
        assert vault.delete_all() == 1
        for _index, fragment, share in held:
            assert fragment == bytes(len(fragment))
            assert share == bytes(len(share))
        assert all(held_object_ids(cloud) == [] for cloud in vault.clouds)
        with pytest.raises(UnavailableError):
            vault.read(cap_write, object_id)
