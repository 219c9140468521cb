import dataclasses
import itertools
from random import Random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

from epitrace import framing
from epitrace.edge import EdgeCloud
from epitrace.errors import AuthorizationError, ConfigurationError, EpitraceError, FramingError, LockedError, StateError, ValidationError
from epitrace.federation import (
    Federation,
    OperationClass,
    QuorumCertificate,
    SystemState,
    Vote,
    WorkflowRequest,
    make_request,
    verify_certificate,
    vote_signing_bytes,
)
from epitrace.runner import fetch, vet
from epitrace.shamir import Share
from epitrace.vault import VaultCoordinator
from epitrace.world import ScenarioConfig
from util import alerted_federation, small_federation


def sizing(**overrides) -> dict:
    """Federation fields of a 5-authority scenario with q = 3, with `overrides` applied."""
    fields = dict(n_authorities=5, f=2, q_read=3, q_critical=3, fed_key_threshold=3, vote_window_min=60)
    fields.update(overrides)
    return fields


def five_by_three() -> Federation:
    return Federation(ScenarioConfig(**sizing()), rng=Random("n5q3"))


def p1_edge(federation: Federation) -> EdgeCloud:
    """Provider P1's edge cloud, under a key escrowed with `federation`."""
    federation.escrow_keypair("provider:P1")
    return EdgeCloud(provider_id="P1", key_id="provider:P1", federation=federation, pdr_ttl=60, rng=Random(20))


def self_signed_cert(federation: Federation, request: WorkflowRequest, signers: int | None = None) -> QuorumCertificate:
    """A certificate for `request` assembled outside the federation from the first `signers` authorities' signatures (all by default)."""
    approvals = tuple((a.id, a.approve(request).signature) for a in federation.authorities[:signers])
    return QuorumCertificate(request.request_id, request.request_hash(), request.operation_class, approvals)


def unsubmitted_cert(federation: Federation, operation_class: OperationClass, payload: dict, seed: int, signers: int | None = None) -> QuorumCertificate:
    """A self-signed certificate for a request never submitted to `federation`."""
    return self_signed_cert(federation, make_request(federation.authorities[0], operation_class, payload, Random(seed)), signers)


def lock(federation, seed):
    federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(seed)), SystemState.PASSIVE)


def mint(federation, mode, seed):
    return federation.authorize_mode(vet(federation, mode, {"minutes": [0, 10]}, Random(seed)), mode)


def raised(call) -> type | None:
    """The type of the error `call()` raises, or None if it is served."""
    try:
        call()
    except EpitraceError as exc:
        return type(exc)
    return None


def x25519_public(private_bytes: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(private_bytes).public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


class TestParams:
    def test_n_must_cover_byzantine_bound(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**sizing(n_authorities=4))

    def test_quorum_must_exceed_f(self):
        for tier in ("q_read", "q_critical"):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(**sizing(**{tier: 2}))

    def test_negative_f_rejected(self):
        # f = -1 would admit a quorum of 0, which an empty certificate meets.
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**sizing(f=-1, q_read=0, q_critical=0))

    def test_each_class_has_its_tier(self):
        federation = Federation(ScenarioConfig(**sizing(n_authorities=7, q_read=3, q_critical=5)), rng=Random("n7"))
        assert {cls: federation.quorum(cls) for cls in OperationClass} == {
            OperationClass.LOCK_UNLOCK: 5,
            OperationClass.STRICT_PUSH: 3,
            OperationClass.BLIND_ANALYSIS: 3,
            OperationClass.BLIND_PROCESSING: 3,
            OperationClass.FULL_PROCESSING: 5,
        }

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(-1, 9) | st.sampled_from([255, 256]),
        f=st.integers(-2, 4),
        q_read=st.integers(-1, 9),
        q_critical=st.integers(-1, 9),
        key_threshold=st.integers(-1, 9),
        vote_window=st.integers(-2, 2),
    )
    def test_a_scenario_accepts_exactly_the_sound_sizings_and_each_one_runs(self, n, f, q_read, q_critical, key_threshold, vote_window):
        sound = (
            f >= 0
            and 2 * f + 1 <= n <= 255
            and f + 1 <= q_read <= n
            and f + 1 <= q_critical <= n
            and 1 <= key_threshold <= n
            and vote_window >= 0
        )
        tiers = dict(n_authorities=n, f=f, q_read=q_read, q_critical=q_critical)
        try:
            config = ScenarioConfig(**tiers, fed_key_threshold=key_threshold, vote_window_min=vote_window)
        except ConfigurationError:
            assert not sound
            return
        assert sound
        federation = Federation(config, rng=Random("sizing"))
        public = federation.escrow_keypair("k")
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(1))
        assert federation.change_state(cert, SystemState.ALERT) is SystemState.ALERT
        assert x25519_public(federation.engine_key("k")) == public

    def test_each_sizing_field_reaches_the_federation(self):
        config = ScenarioConfig(**sizing(n_authorities=9, q_read=4, q_critical=6, fed_key_threshold=5, vote_window_min=17))
        federation = Federation(config, rng=Random("n9"))
        assert len(federation.authorities) == 9
        assert {cls: federation.quorum(cls) for cls in OperationClass} == {
            cls: 6 if cls in (OperationClass.LOCK_UNLOCK, OperationClass.FULL_PROCESSING) else 4 for cls in OperationClass
        }
        federation.escrow_keypair("k")
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(1))
        federation.change_state(cert, SystemState.ALERT)
        [rebuilt] = [e.content for e in federation.ledger.entries if e.content["kind"] == "key_reconstruction"]
        assert rebuilt["shares_used"] == 5
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(2))
        federation.submit_request(request)
        federation.tick(17)
        assert not [e for e in federation.ledger.entries if e.content["kind"] == "denial"]
        federation.tick(18)
        [denial] = [e.content for e in federation.ledger.entries if e.content["kind"] == "denial"]
        assert (denial["minute"], denial["required"]) == (18, 4)


class TestQuorumAssembly:
    def test_threshold_counting(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"poi": "x"}, Random(1))
        federation.submit_request(request)
        assert federation.apply_vote(federation.authorities[0].approve(request)) is None
        assert federation.apply_vote(federation.authorities[1].approve(request)) is None
        cert = federation.apply_vote(federation.authorities[3].approve(request))
        assert cert is not None
        assert len(cert.approvals) == 3
        assert verify_certificate(cert, federation.public_keys, 3)

    def test_certificate_emitted_exactly_once(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(2))
        federation.submit_request(request)
        certs = [federation.apply_vote(a.approve(request)) for a in federation.authorities]
        assert sum(c is not None for c in certs) == 1
        issued = [e for e in federation.ledger.entries if e.content["kind"] == "certificate"]
        assert len(issued) == 1

    def test_liveness_with_f_silent_authorities(self):
        # f=2 refuse to vote; the 3 honest approvals still certify.
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.FULL_PROCESSING, {}, Random(4))
        federation.submit_request(request)
        cert = None
        for authority in federation.authorities[:3]:
            cert = federation.apply_vote(authority.approve(request))
        assert cert is not None

    def test_equivocating_vote_rejected(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(5))
        federation.submit_request(request)
        wrong_hash = bytes(32)
        bad = Vote(
            authority_id=2,
            request_id=request.request_id,
            signature=federation.authorities[1].keypair.sign(vote_signing_bytes(request.request_id, wrong_hash)),
        )
        with pytest.raises(AuthorizationError):
            federation.apply_vote(bad)

    def test_unknown_authority_vote_rejected(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(6))
        federation.submit_request(request)
        ghost = Vote(authority_id=99, request_id=request.request_id, signature=b"x")
        with pytest.raises(AuthorizationError):
            federation.apply_vote(ghost)

    def test_replayed_vote_is_idempotent(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(7))
        federation.submit_request(request)
        vote = federation.authorities[0].approve(request)
        assert federation.apply_vote(vote) is None
        assert federation.apply_vote(vote) is None  # replay, not an error
        cert = None
        for authority in federation.authorities[1:3]:
            cert = federation.apply_vote(authority.approve(request))
        assert cert is not None

    def test_any_interleaving_yields_same_certificate_set(self):
        base_votes = None
        for shuffle_seed in range(6):
            federation = five_by_three()
            requests = [
                make_request(federation.authorities[i], OperationClass.BLIND_ANALYSIS, {"n": i}, Random(10 + i))
                for i in range(2)
            ]
            votes = []
            for request in requests:
                federation.submit_request(request)
                votes.extend(authority.approve(request) for authority in federation.authorities)
            Random(shuffle_seed).shuffle(votes)
            certs = [c for c in (federation.apply_vote(v) for v in votes) if c is not None]
            assert len(certs) == 2
            ids = sorted(c.request_id for c in certs)
            if base_votes is None:
                base_votes = ids
            else:
                assert ids == base_votes

    def test_vote_window_expiry_logs_denial(self):
        federation = five_by_three()
        request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {}, Random(8))
        federation.submit_request(request)
        federation.apply_vote(federation.authorities[0].approve(request))
        federation.tick(federation.config.vote_window_min + 1)
        denials = [e for e in federation.ledger.entries if e.content["kind"] == "denial"]
        assert len(denials) == 1
        # late quorum cannot resurrect a denied request
        for authority in federation.authorities[1:4]:
            assert federation.apply_vote(authority.approve(request)) is None

    def test_signatures_gathered_after_a_denial_certify_nothing(self):
        federation = small_federation()
        edge = p1_edge(federation)
        requests = [
            make_request(federation.authorities[0], OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(60)),
            make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(61)),
        ]
        for request in requests:
            federation.submit_request(request)
            federation.apply_vote(federation.authorities[0].approve(request))
        federation.tick(federation.config.vote_window_min + 1)
        late = [self_signed_cert(federation, request) for request in requests]
        with pytest.raises(AuthorizationError, match="no vetted request"):
            federation.change_state(late[0], SystemState.ALERT)
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(62)), SystemState.ALERT)
        with pytest.raises(AuthorizationError, match="no vetted request"):
            federation.authorize_mode(late[1], OperationClass.BLIND_ANALYSIS)
        with pytest.raises(AuthorizationError, match="no vetted request"):
            fetch(edge, late[1], (0, 10))
        kinds = [e.content["kind"] for e in federation.ledger.entries]
        assert kinds.count("authorization_failure") == 3 and "capability" not in kinds

    def test_certificate_encoding_round_trip(self):
        federation = five_by_three()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "x"}, Random(9))
        assert QuorumCertificate.decode(cert.encode()) == cert

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_certificate_is_fifty_bytes_plus_69_per_approval(self, n):
        # request id (16) || request hash (32) || class (u8) || count (u8) || [id (u8) || lp signature (4 + 64)] * n
        cert = vet(five_by_three(), OperationClass.BLIND_ANALYSIS, {"purpose": "x"}, Random(9))
        assert len(dataclasses.replace(cert, approvals=cert.approvals[:n]).encode()) == 50 + 69 * n


class TestStateMachine:
    def test_passive_to_alert_unlocks(self):
        federation = small_federation()
        assert federation.state is SystemState.PASSIVE
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(1))
        assert federation.change_state(cert, SystemState.ALERT) is SystemState.ALERT
        assert federation.state is SystemState.ALERT
        change = federation.ledger.entries[-1].content
        assert change["kind"] == "state_change" and change["minute"] == 0

    def test_wrong_class_cert_rejected(self):
        federation = small_federation()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(2))
        with pytest.raises(AuthorizationError):
            federation.change_state(cert, SystemState.ALERT)

    def test_same_state_rejected(self):
        federation = small_federation()
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(3))
        with pytest.raises(StateError):
            federation.change_state(cert, SystemState.PASSIVE)

    def test_state_changes_are_ledgered(self):
        federation = alerted_federation()
        changes = [e for e in federation.ledger.entries if e.content["kind"] == "state_change"]
        assert len(changes) == 1 and changes[0].content["target"] == "ALERT"


    @staticmethod
    def _refusals(federation, before):
        return [e.content for e in federation.ledger.entries[before:] if e.content["kind"] == "authorization_failure"]

    def test_a_certificate_moves_the_state_only_to_the_target_it_was_vetted_for(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(40))
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match="approved target ALERT, not PASSIVE"):
            federation.change_state(cert, SystemState.PASSIVE)
        assert federation.state is SystemState.ALERT
        [refusal] = self._refusals(federation, before)
        assert (refusal["operation_class"], refusal["request_id"]) == ("LOCK_UNLOCK", cert.request_id.hex())
        assert refusal["reason"] == "certificate approved target ALERT, not PASSIVE"
        assert len(federation.ledger.entries) == before + 1

    def test_a_certificate_moves_the_state_once(self):
        federation = small_federation()
        unlock = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(41))
        federation.change_state(unlock, SystemState.ALERT)
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(42)), SystemState.PASSIVE)
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match="already used"):
            federation.change_state(unlock, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE and federation.engine_keys_held == 0
        [refusal] = self._refusals(federation, before)
        assert (refusal["request_id"], refusal["reason"]) == (unlock.request_id.hex(), "certificate already used")
        assert len(federation.ledger.entries) == before + 1

    def test_a_certificate_for_no_vetted_request_is_refused(self):
        federation = small_federation()
        edge = p1_edge(federation)
        cert = unsubmitted_cert(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, 43)  # a full quorum, but never submitted
        with pytest.raises(AuthorizationError, match="no vetted request"):
            federation.change_state(cert, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(46)), SystemState.ALERT)
        read = unsubmitted_cert(federation, OperationClass.BLIND_PROCESSING, {"minutes": [0, 10]}, 47)
        with pytest.raises(AuthorizationError, match="no vetted request"):
            fetch(edge, read, (0, 10))
        with pytest.raises(AuthorizationError, match="no vetted request"):
            federation.authorize_mode(read, OperationClass.BLIND_PROCESSING)
        refusals = self._refusals(federation, 0)
        assert [(r["reason"], r["request_id"]) for r in refusals] == [
            ("certificate matches no vetted request", cert.request_id.hex()),
            ("certificate matches no vetted request", read.request_id.hex()),
            ("certificate matches no vetted request", read.request_id.hex()),
        ]
        assert [r.get("provider") for r in refusals] == [None, "P1", None]
        assert not [e for e in federation.ledger.entries if e.content["kind"] == "capability"]

    def test_a_refused_or_failed_use_spends_nothing(self):
        federation = small_federation()  # key threshold 2 of 3
        federation.escrow_keypair("provider:P1")
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(44))
        same = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(45))
        with pytest.raises(StateError):
            federation.change_state(same, SystemState.PASSIVE)
        [refusal] = self._refusals(federation, 0)
        assert (refusal["request_id"], refusal["reason"]) == (same.request_id.hex(), "system already PASSIVE")
        removed = {a.id: a.key_shares.pop("provider:P1") for a in federation.authorities[:2]}
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match="not enough shares"):
            federation.change_state(cert, SystemState.ALERT)
        assert [e.content["kind"] for e in federation.ledger.entries[before:]] == ["denial"]
        for authority in federation.authorities[:2]:
            authority.key_shares["provider:P1"] = removed[authority.id]
        assert federation.change_state(cert, SystemState.ALERT) is SystemState.ALERT
        assert len(self._refusals(federation, 0)) == 1

    @staticmethod
    def _stores(federation):
        edge = p1_edge(federation)
        vault = VaultCoordinator(federation, n_clouds=3, k=2, key_threshold=2, rng=Random(21))
        federation.attach_vault(vault)
        return edge, vault

    @staticmethod
    def _served(federation, edge, vault, capability, seed):
        """Whether a fetch and a vault write with `capability` are served; where not, both are refused with `LockedError`."""
        read = vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(seed))
        outcomes = {raised(lambda: fetch(edge, read, (0, 10))), raised(lambda: vault.write(capability, b"object"))}
        assert outcomes in ({None}, {LockedError})
        return outcomes == {None}

    def test_failed_unlock_leaves_the_system_passive(self):
        federation = small_federation()  # key threshold 2 of 3
        edge, vault = self._stores(federation)
        removed = {a.id: a.key_shares.pop("provider:P1") for a in federation.authorities[:2]}
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(22))
        with pytest.raises(AuthorizationError):
            federation.change_state(cert, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE
        assert federation.engine_keys_held == 0
        read = vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(24))
        with pytest.raises(LockedError):
            fetch(edge, read, (0, 10))
        with pytest.raises(LockedError):
            mint(federation, OperationClass.BLIND_PROCESSING, 25)  # so no vault write can be authorized either
        assert not [e for e in federation.ledger.entries if e.content["kind"] == "state_change"]
        for authority in federation.authorities[:2]:
            authority.key_shares["provider:P1"] = removed[authority.id]
        retry = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(23))
        assert federation.change_state(retry, SystemState.ALERT) is SystemState.ALERT
        assert federation.engine_keys_held == 1
        assert self._served(federation, edge, vault, mint(federation, OperationClass.BLIND_PROCESSING, 26), 27)

    def test_failed_unlock_ledgers_one_denial_and_no_rebuilt_key(self):
        federation = small_federation()  # key threshold 2 of 3
        for key_id in ("a", "b"):
            federation.escrow_keypair(key_id)
        for authority in federation.authorities[:2]:
            del authority.key_shares["b"]
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(24))
        with pytest.raises(AuthorizationError, match="key b"):
            federation.change_state(cert, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE
        assert [e.content["kind"] for e in federation.ledger.entries] == ["certificate", "denial"]
        denial = federation.ledger.entries[-1].content
        assert (denial["key_id"], denial["shares_held"], denial["key_threshold"]) == ("b", 1, 2)
        assert federation.ledger.verify()

    def test_replaced_escrow_shares_are_not_used_and_too_few_matching_is_a_denial(self):
        federation = small_federation()  # key threshold 2 of 3
        federation.escrow_keypair("b")
        for authority in federation.authorities[:2]:
            share = authority.key_shares["b"]
            authority.key_shares["b"] = Share(x=share.x, data=bytes(byte ^ 0xFF for byte in share.data))
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(24))
        with pytest.raises(AuthorizationError, match="not enough shares to rebuild key b: only 1 key shares match"):
            federation.change_state(cert, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE
        assert [e.content["kind"] for e in federation.ledger.entries] == ["certificate", "denial"]
        denial = federation.ledger.entries[-1].content
        assert (denial["key_id"], denial["shares_held"], denial["key_threshold"]) == ("b", 3, 2)

    def test_stores_follow_every_state_change(self):
        federation = small_federation()
        edge, vault = self._stores(federation)
        with pytest.raises(LockedError):
            fetch(edge, vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(28)), (0, 10))
        with pytest.raises(LockedError):
            mint(federation, OperationClass.BLIND_PROCESSING, 29)
        for i, target in enumerate([SystemState.ALERT, SystemState.PASSIVE, SystemState.ALERT]):
            cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": target.name}, Random(30 + i))
            federation.change_state(cert, target)
            if target is SystemState.ALERT:
                capability = mint(federation, OperationClass.BLIND_PROCESSING, 40 + i)
            assert self._served(federation, edge, vault, capability, 50 + i) is (target is SystemState.ALERT)


class TestCapabilities:
    def test_strict_push_cannot_read(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.STRICT_PUSH, {}, Random(4))
        capability = federation.authorize_mode(cert, OperationClass.STRICT_PUSH)
        capability.require_write()
        with pytest.raises(AuthorizationError):
            capability.require_read()

    def test_blind_analysis_cannot_decrypt(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(5))
        capability = federation.authorize_mode(cert, OperationClass.BLIND_ANALYSIS)
        capability.require_read()
        with pytest.raises(AuthorizationError):
            capability.require_decrypt()

    def test_class_mismatch_rejected(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(8))
        with pytest.raises(AuthorizationError):
            federation.authorize_mode(cert, OperationClass.FULL_PROCESSING)

    @pytest.mark.parametrize(
        "expected, call",
        [
            ("LOCK_UNLOCK", lambda federation, cert: federation.change_state(cert, SystemState.PASSIVE)),
            ("FULL_PROCESSING", lambda federation, cert: federation.authorize_mode(cert, OperationClass.FULL_PROCESSING)),
        ],
        ids=["change_state", "authorize_mode"],
    )
    def test_wrong_class_refusal_is_ledgered(self, expected, call):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(13))
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError):
            call(federation, cert)
        [entry] = [e.content for e in federation.ledger.entries[before:]]
        assert entry["kind"] == "authorization_failure"
        assert (entry["operation_class"], entry["request_id"]) == ("BLIND_ANALYSIS", cert.request_id.hex())
        assert entry["reason"] == f"certificate class BLIND_ANALYSIS does not authorize {expected}"
        assert federation.state is SystemState.ALERT

    def test_capabilities_suspended_in_passive(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(9))
        capability = federation.authorize_mode(cert, OperationClass.BLIND_ANALYSIS)
        capability.require_read()
        lock = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(10))
        federation.change_state(lock, SystemState.PASSIVE)
        with pytest.raises(StateError):
            capability.require_read()

    def test_a_read_certificate_fetches_once_from_each_edge_and_mints_once(self):
        federation = small_federation()
        p1 = p1_edge(federation)
        federation.escrow_keypair("provider:P2")
        p2 = EdgeCloud(provider_id="P2", key_id="provider:P2", federation=federation, pdr_ttl=60, rng=Random(21))
        read = vet(federation, OperationClass.BLIND_PROCESSING, {"minutes": [0, 10]}, Random(76))
        # Refused uses spend nothing: locked, then out of range.
        with pytest.raises(LockedError):
            fetch(p1, read, (0, 10))
        with pytest.raises(LockedError):
            federation.authorize_mode(read, OperationClass.BLIND_PROCESSING)
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(77)), SystemState.ALERT)
        with pytest.raises(AuthorizationError, match="approved minutes"):
            fetch(p1, read, (0, 11))
        assert fetch(p1, read, (0, 10)) == fetch(p2, read, (0, 10)) == []
        federation.authorize_mode(read, OperationClass.BLIND_PROCESSING)
        before = len(federation.ledger.entries)
        with pytest.raises(AuthorizationError, match="already fetched from P1"):
            fetch(p1, read, (0, 10))
        with pytest.raises(AuthorizationError, match="already minted a capability"):
            federation.authorize_mode(read, OperationClass.BLIND_PROCESSING)
        added = [e.content for e in federation.ledger.entries[before:]]
        assert [(e["kind"], e["reason"], e["request_id"], e.get("provider")) for e in added] == [
            ("authorization_failure", "certificate already fetched from P1", read.request_id.hex(), "P1"),
            ("authorization_failure", "certificate already minted a capability", read.request_id.hex(), None),
        ]

    def test_lock_unlock_is_not_a_data_mode(self):
        federation = alerted_federation()
        cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(11))
        with pytest.raises(ValidationError):
            federation.authorize_mode(cert, OperationClass.LOCK_UNLOCK)

    def _forged_subquorum_cert(self, federation, operation_class):
        return unsubmitted_cert(federation, operation_class, {}, 12, signers=federation.quorum(operation_class) - 1)

    def test_subquorum_cert_cannot_mint_capability(self):
        federation = alerted_federation()
        forged = self._forged_subquorum_cert(federation, OperationClass.FULL_PROCESSING)
        with pytest.raises(AuthorizationError):
            federation.authorize_mode(forged, OperationClass.FULL_PROCESSING)
        failures = [e for e in federation.ledger.entries if e.content["kind"] == "authorization_failure"]
        assert failures

    def test_subquorum_cert_cannot_change_state(self):
        federation = small_federation()
        forged = self._forged_subquorum_cert(federation, OperationClass.LOCK_UNLOCK)
        with pytest.raises(AuthorizationError):
            federation.change_state(forged, SystemState.ALERT)
        assert federation.state is SystemState.PASSIVE


def reused_lock(federation, edge):
    lock = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(52))
    federation.change_state(lock, SystemState.PASSIVE)
    federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(53)), SystemState.ALERT)
    federation.change_state(lock, SystemState.PASSIVE)


def locked_fetch(federation, edge):
    read = vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(59))
    lock(federation, 60)
    fetch(edge, read, (0, 10))


def minted_while_passive(federation, edge):
    cert = vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(61))
    lock(federation, 62)
    federation.authorize_mode(cert, OperationClass.BLIND_ANALYSIS)


def used_while_passive(federation, edge):
    capability = mint(federation, OperationClass.BLIND_ANALYSIS, 63)
    lock(federation, 64)
    capability.require_read()


def used_in_a_later_period(federation, edge):
    capability = mint(federation, OperationClass.BLIND_ANALYSIS, 71)
    lock(federation, 72)
    federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(73)), SystemState.ALERT)
    capability.require_read()


def replayed_fetch(federation, edge):
    read = vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(74))
    fetch(edge, read, (0, 10))
    fetch(edge, read, (0, 10))


def minted_twice(federation, edge):
    cert = vet(federation, OperationClass.BLIND_PROCESSING, {"minutes": [0, 10]}, Random(75))
    federation.authorize_mode(cert, OperationClass.BLIND_PROCESSING)
    federation.authorize_mode(cert, OperationClass.BLIND_PROCESSING)


def vault_write_while_passive(federation, edge):
    vault = VaultCoordinator(federation, n_clouds=3, k=2, key_threshold=2, rng=Random(65))
    federation.attach_vault(vault)
    capability = mint(federation, OperationClass.BLIND_PROCESSING, 66)
    lock(federation, 67)
    vault.write(capability, b"object")


CERT_FIELDS = {"operation_class", "request_id"}
EDGE_FIELDS = {"provider"}
CAPABILITY_FIELDS = {"operation_class"}

# Every way to be refused: (attempt on an ALERT federation with P1's edge, the error it raises, the fields its record adds to kind, minute and reason).
# A PASSIVE case locks first.
REFUSALS = {
    "malformed frame": (lambda federation, edge: edge.handle_fetch_frame(b"junk"), FramingError, EDGE_FIELDS),
    "malformed certificate": (lambda federation, edge: edge.handle_fetch_frame(framing.encode_fetch_request(bytes(16), 0, 10)), FramingError, EDGE_FIELDS),
    "strict push at an edge": (
        lambda federation, edge: fetch(edge, vet(federation, OperationClass.STRICT_PUSH, {"minutes": [0, 10]}, Random(50)), (0, 10)),
        AuthorizationError,
        CERT_FIELDS | EDGE_FIELDS,
    ),
    "sub-quorum at an edge": (
        lambda federation, edge: fetch(edge, unsubmitted_cert(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, 51, signers=1), (0, 10)),
        AuthorizationError,
        CERT_FIELDS | EDGE_FIELDS,
    ),
    "wrong class at change_state": (
        lambda federation, edge: federation.change_state(vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(54)), SystemState.PASSIVE),
        AuthorizationError,
        CERT_FIELDS,
    ),
    "wrong class at authorize_mode": (
        lambda federation, edge: federation.authorize_mode(vet(federation, OperationClass.BLIND_ANALYSIS, {}, Random(55)), OperationClass.FULL_PROCESSING),
        AuthorizationError,
        CERT_FIELDS,
    ),
    "no vetted request": (
        lambda federation, edge: federation.authorize_mode(unsubmitted_cert(federation, OperationClass.STRICT_PUSH, {}, 56), OperationClass.STRICT_PUSH),
        AuthorizationError,
        CERT_FIELDS,
    ),
    "wrong target": (
        lambda federation, edge: federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(57)), SystemState.PASSIVE),
        AuthorizationError,
        CERT_FIELDS,
    ),
    "certificate reused": (reused_lock, AuthorizationError, CERT_FIELDS),
    "fetch replayed at an edge": (replayed_fetch, AuthorizationError, CERT_FIELDS | EDGE_FIELDS),
    "capability minted twice": (minted_twice, AuthorizationError, CERT_FIELDS),
    "range overreach": (
        lambda federation, edge: fetch(edge, vet(federation, OperationClass.BLIND_ANALYSIS, {"minutes": [0, 10]}, Random(58)), (0, 59)),
        AuthorizationError,
        CERT_FIELDS | EDGE_FIELDS,
    ),
    "locked fetch": (locked_fetch, LockedError, CERT_FIELDS | EDGE_FIELDS),
    "same-state change": (
        lambda federation, edge: federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(68)), SystemState.ALERT),
        StateError,
        CERT_FIELDS,
    ),
    "lock/unlock as a mode": (
        lambda federation, edge: federation.authorize_mode(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, Random(69)), OperationClass.LOCK_UNLOCK),
        ValidationError,
        CERT_FIELDS,
    ),
    "minting while PASSIVE": (minted_while_passive, LockedError, CERT_FIELDS),
    "capability used while PASSIVE": (used_while_passive, LockedError, CAPABILITY_FIELDS),
    "capability beyond its mode": (lambda federation, edge: mint(federation, OperationClass.STRICT_PUSH, 70).require_read(), AuthorizationError, CAPABILITY_FIELDS),
    "vault write while PASSIVE": (vault_write_while_passive, LockedError, CAPABILITY_FIELDS),
    "capability used in a later ALERT period": (used_in_a_later_period, AuthorizationError, CAPABILITY_FIELDS),
}


class TestRefusalRecord:
    @pytest.mark.parametrize("attempt, error, fields", REFUSALS.values(), ids=REFUSALS.keys())
    def test_every_refusal_is_one_record_of_one_shape(self, attempt, error, fields):
        federation = alerted_federation()
        edge = p1_edge(federation)
        before = len(federation.ledger.entries)
        with pytest.raises(error):
            attempt(federation, edge)
        [refusal] = [e.content for e in federation.ledger.entries[before:] if e.content["kind"] == "authorization_failure"]
        assert set(refusal) == {"kind", "minute", "reason"} | fields
        assert refusal["reason"] and refusal.get("provider", "P1") == "P1"


class TestSafetyExhaustive:
    def test_certificates_exist_for_exactly_quorum_subsets(self):
        # n=5, q=3: every subset of authorities votes on a fresh request;
        # certificates must appear for precisely the subsets of size >= 3.
        outcomes = {}
        for size in range(6):
            for subset in itertools.combinations(range(5), size):
                federation = five_by_three()
                request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"s": list(subset)}, Random(40))
                federation.submit_request(request)
                cert = None
                for authority_index in subset:
                    got = federation.apply_vote(federation.authorities[authority_index].approve(request))
                    cert = got or cert
                outcomes[subset] = cert is not None
        for subset, certified in outcomes.items():
            assert certified == (len(subset) >= 3), subset
