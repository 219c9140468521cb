"""Federation trust machinery: q-of-n vetting of every critical operation.

Independent entrusted authorities sign votes on workflow requests; a quorum
certificate is the transferable proof that q distinct authorities approved.
The federation also escrows provider decryption keys as threshold shares,
drives the passive/alert state machine, mints capability tokens per operation
mode, and audit-logs every decision in a hash-chained ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from random import Random
from typing import Any

from . import crypto, framing
from .errors import AuthorizationError, FramingError, IntegrityError, LockedError, StateError, UnavailableError, ValidationError
from .ledger import AuditLedger
from .shamir import Share, reconstruct_secret, split_secret
from .world import ScenarioConfig


class OperationClass(Enum):
    LOCK_UNLOCK = 1
    STRICT_PUSH = 2
    BLIND_ANALYSIS = 3
    BLIND_PROCESSING = 4
    FULL_PROCESSING = 5


class SystemState(Enum):
    PASSIVE = "PASSIVE"
    ALERT = "ALERT"


READ_MODES = {OperationClass.BLIND_ANALYSIS, OperationClass.BLIND_PROCESSING, OperationClass.FULL_PROCESSING}
WRITE_MODES = {OperationClass.STRICT_PUSH, OperationClass.BLIND_PROCESSING, OperationClass.FULL_PROCESSING}
CRITICAL_CLASSES = {OperationClass.LOCK_UNLOCK, OperationClass.FULL_PROCESSING}  # need q_critical votes


@dataclass
class Authority:
    """One entrusted entity: an Ed25519 identity plus its escrowed key shares."""

    id: int
    keypair: crypto.SigningKeyPair
    key_shares: dict[str, Share] = field(default_factory=dict)

    def approve(self, request: "WorkflowRequest") -> "Vote":
        signature = self.keypair.sign(vote_signing_bytes(request.request_id, request.request_hash()))
        return Vote(authority_id=self.id, request_id=request.request_id, signature=signature)


@dataclass(frozen=True)
class WorkflowRequest:
    """A signed request for one governed operation."""

    request_id: bytes  # 16 bytes
    operation_class: OperationClass
    payload: dict[str, Any]
    requester: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        payload_json = framing.canonical_json(self.payload)
        return self.request_id + framing.u8(self.operation_class.value) + framing.u8(self.requester) + framing.lp_bytes(payload_json)

    def request_hash(self) -> bytes:
        return crypto.digest(self.signing_bytes())


def make_request(
    requester: Authority,
    operation_class: OperationClass,
    payload: dict[str, Any],
    rng: Random,
) -> WorkflowRequest:
    unsigned = WorkflowRequest(request_id=rng.randbytes(16), operation_class=operation_class, payload=payload, requester=requester.id, signature=b"")
    return replace(unsigned, signature=requester.keypair.sign(unsigned.signing_bytes()))


def vote_signing_bytes(request_id: bytes, request_hash: bytes) -> bytes:
    return request_id + request_hash


@dataclass(frozen=True)
class Vote:
    authority_id: int
    request_id: bytes
    signature: bytes


@dataclass(frozen=True)
class QuorumCertificate:
    """Proof that distinct authorities vetted one request; each verifier counts the approvals against its own quorum."""

    request_id: bytes
    request_hash: bytes
    operation_class: OperationClass
    approvals: tuple[tuple[int, bytes], ...]  # (authority id, signature)

    def encode(self) -> bytes:
        parts = [
            self.request_id,
            self.request_hash,
            framing.u8(self.operation_class.value),
            framing.u8(len(self.approvals)),
        ]
        for authority_id, sig in self.approvals:
            parts.append(framing.u8(authority_id))
            parts.append(framing.lp_bytes(sig))
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "QuorumCertificate":
        r = framing.Reader(blob)
        request_id = r.raw(16)
        request_hash = r.raw(32)
        class_value = r.u8()
        try:
            op_class = OperationClass(class_value)
        except ValueError:
            raise FramingError(f"unknown operation class {class_value}") from None
        count = r.u8()
        approvals = tuple((r.u8(), r.lp_bytes()) for _ in range(count))
        r.done()
        return cls(request_id=request_id, request_hash=request_hash, operation_class=op_class, approvals=approvals)


def verify_certificate(cert: QuorumCertificate, public_keys: dict[int, bytes], q: int) -> bool:
    """A certificate stands iff it carries >= q distinct valid approvals of one hash."""
    message = vote_signing_bytes(cert.request_id, cert.request_hash)
    valid_ids = set()
    for authority_id, sig in cert.approvals:
        pub = public_keys.get(authority_id)
        if pub is not None and crypto.verify_signature(pub, message, sig):
            valid_ids.add(authority_id)
    return len(valid_ids) >= q


@dataclass
class _Pending:
    request: WorkflowRequest
    submitted_at: int
    votes: dict[int, Vote] = field(default_factory=dict)
    certificate: QuorumCertificate | None = None
    denied: bool = False
    # What the certificate was spent on, each as the phrase its reuse is refused
    # with: a state change, a capability mint, a fetch from each provider.
    uses: set[str] = field(default_factory=set)


_STATE_CHANGE = "used"  # the one use of a LOCK_UNLOCK certificate


class Capability:
    """Bearer right produced by authorize_mode; each use is checked live against system state, and a refused use is ledgered.

    It lives for the ALERT period it was minted in: a use after the next lock,
    even once a later unlock opened a new period, is refused.
    """

    def __init__(self, federation: "Federation", mode: OperationClass):
        self._federation = federation
        self.mode = mode
        self._period = federation.alert_period

    def _require(self, modes: set[OperationClass], denial: str) -> None:
        period = self._federation.alert_period
        if period is None:
            reason, error = "system is PASSIVE", LockedError
        elif period != self._period:
            reason, error = f"{self.mode.name} capability was minted in an earlier ALERT period", AuthorizationError
        elif self.mode not in modes:
            reason, error = f"{self.mode.name} {denial}", AuthorizationError
        else:
            return
        self._federation.refuse(reason, operation_class=self.mode.name)
        raise error(reason)

    def require_read(self) -> None:
        self._require(READ_MODES, "grants no read access")

    def require_write(self) -> None:
        self._require(WRITE_MODES, "grants no write access")

    def require_decrypt(self) -> None:
        self._require({OperationClass.FULL_PROCESSING}, "does not release decryption keys")


class Federation:
    """The entrusted-authority collective plus everything it governs.

    Sized by the `ScenarioConfig` it is built from, which checks the sizing:
    changing the system state and releasing decryption keys
    (`CRITICAL_CLASSES`) need `q_critical` approvals, every other operation
    class `q_read`; `fed_key_threshold` shares rebuild an escrowed key; a
    request pending longer than `vote_window_min` minutes is denied.
    """

    def __init__(self, config: ScenarioConfig, rng: Random):
        self.config = config
        self.rng = rng
        self.authorities = [Authority(id=i, keypair=crypto.SigningKeyPair.generate(rng)) for i in range(1, config.n_authorities + 1)]
        self.public_keys = {a.id: a.keypair.public_bytes for a in self.authorities}
        self.ledger = AuditLedger()
        # The only record of PASSIVE/ALERT: the request id of the state change
        # that opened the current ALERT period, None while PASSIVE.
        self.alert_period: bytes | None = None
        self.now = 0
        self.key_registry: dict[str, bytes] = {}  # key id -> public half
        self._share_digests: dict[str, dict[int, bytes]] = {}  # key id -> share x -> digest of x || data, taken at escrow
        self._pending: dict[bytes, _Pending] = {}
        self._engine_keys: dict[str, bytes] = {}  # reconstructed only while ALERT
        self._vault: Any | None = None

    @property
    def state(self) -> SystemState:
        """PASSIVE or ALERT, read from `alert_period`; only `admit` and `Capability` gate on it."""
        return SystemState.PASSIVE if self.alert_period is None else SystemState.ALERT

    def quorum(self, cls: OperationClass) -> int:
        return self.config.q_critical if cls in CRITICAL_CLASSES else self.config.q_read

    # -- clock and attachments -------------------------------------------------

    def attach_vault(self, vault: Any) -> None:
        """The vault whose objects entering PASSIVE shreds."""
        self._vault = vault

    def tick(self, now: int) -> None:
        """Advance the simulated clock; deny requests whose vote window lapsed."""
        self.now = now
        for pending in self._pending.values():
            if pending.certificate is None and not pending.denied and now - pending.submitted_at > self.config.vote_window_min:
                pending.denied = True
                self.ledger.record(
                    "denial",
                    self.now,
                    request_id=pending.request.request_id.hex(),
                    operation_class=pending.request.operation_class.name,
                    votes=len(pending.votes),
                    required=self.quorum(pending.request.operation_class),
                )

    # -- key escrow --------------------------------------------------------------

    def escrow_keypair(self, key_id: str) -> bytes:
        """Create a sealing keypair; threshold-share the private half, keep the public and a digest per share.

        Returns the public key. The plaintext private key is not retained; it
        exists again only inside the analysis engine while the system is ALERT.
        """
        pair = crypto.SealKeyPair.generate(self.rng)
        shares = split_secret(pair.private_bytes, self.config.fed_key_threshold, self.config.n_authorities, self.rng)
        for authority, share in zip(self.authorities, shares):
            authority.key_shares[key_id] = share
        self._share_digests[key_id] = {share.x: crypto.digest(framing.u8(share.x) + share.data) for share in shares}
        self.key_registry[key_id] = pair.public_bytes
        return pair.public_bytes

    def _reconstruct_key(self, key_id: str) -> bytes:
        """Rebuild one escrowed key from shares that match their escrow-time digests; too few is a ledgered denial."""
        held = [(share.x, framing.u8(share.x) + share.data) for a in self.authorities if (share := a.key_shares.get(key_id)) is not None]
        threshold = self.config.fed_key_threshold
        try:
            blobs = crypto.verified(held, self._share_digests[key_id], threshold, "key shares")
        except (UnavailableError, IntegrityError) as exc:
            self.ledger.record("denial", self.now, key_id=key_id, shares_held=len(held), key_threshold=threshold)
            raise AuthorizationError(f"not enough shares to rebuild key {key_id}: {exc}") from None
        return reconstruct_secret([Share(x=x, data=blob[1:]) for x, blob in sorted(blobs.items())[:threshold]])

    @property
    def engine_keys_held(self) -> int:
        """Number of provider keys the sealed analysis engine holds right now."""
        return len(self._engine_keys)

    def engine_key(self, key_id: str) -> bytes:
        """Key material held by the sealed analysis engine, which holds keys only while ALERT."""
        try:
            return self._engine_keys[key_id]
        except KeyError:
            raise ValidationError(f"engine holds no key {key_id}") from None

    # -- workflow vetting ---------------------------------------------------------

    def submit_request(self, request: WorkflowRequest) -> None:
        if request.requester not in self.public_keys:
            raise AuthorizationError(f"unknown requester {request.requester}")
        if not crypto.verify_signature(self.public_keys[request.requester], request.signing_bytes(), request.signature):
            raise AuthorizationError("request signature invalid")
        if request.request_id in self._pending:
            raise ValidationError("request id already submitted")
        self._pending[request.request_id] = _Pending(request=request, submitted_at=self.now)

    def apply_vote(self, vote: Vote) -> QuorumCertificate | None:
        """Fold one vote message into the pending request; idempotent on replays.

        Emits the quorum certificate exactly once, on the vote that completes
        the quorum; invalid or replayed votes change nothing.
        """
        pending = self._pending.get(vote.request_id)
        if pending is None:
            raise ValidationError("unknown request id")
        pub = self.public_keys.get(vote.authority_id)
        if pub is None:
            raise AuthorizationError(f"unknown authority {vote.authority_id}")
        message = vote_signing_bytes(pending.request.request_id, pending.request.request_hash())
        if not crypto.verify_signature(pub, message, vote.signature):
            raise AuthorizationError("vote signature invalid")
        if vote.authority_id in pending.votes:
            return None  # replay
        pending.votes[vote.authority_id] = vote
        q = self.quorum(pending.request.operation_class)
        if pending.certificate is None and not pending.denied and len(pending.votes) >= q:
            approvals = tuple(sorted((v.authority_id, v.signature) for v in pending.votes.values()))
            cert = QuorumCertificate(
                request_id=pending.request.request_id,
                request_hash=pending.request.request_hash(),
                operation_class=pending.request.operation_class,
                approvals=approvals,
            )
            pending.certificate = cert
            self.ledger.record(
                "certificate",
                self.now,
                request_id=cert.request_id.hex(),
                operation_class=cert.operation_class.name,
                approvers=sorted(v for v in pending.votes),
            )
            return cert
        return None

    def refuse(self, reason: str, **fields: Any) -> None:
        """Ledger one refusal with its reason; `fields` name the certificate's class and request id once it was decoded, and the edge that refused."""
        self.ledger.record("authorization_failure", self.now, reason=reason, **fields)

    def admit(
        self, cert: QuorumCertificate, classes: set[OperationClass], *, target: SystemState | None = None, minutes: tuple[int, int] | None = None, **where: str
    ) -> _Pending:
        """The one judge of a certificate and of the system state; returns the record of the request it certifies.

        In order: its class is in `classes`; it carries that class's quorum;
        this federation certified a request of its id and hash, so signatures
        gathered after a denial certify nothing; that request approved the
        operation: its `target`, or a fetch inside its `minutes`; the
        certificate was not yet spent on this use: a state change (`target`),
        a fetch from the provider `where` names (`minutes`), or else a
        capability mint; every class but LOCK_UNLOCK acts only while ALERT
        (else `LockedError`), and a state change only away from the current
        state (else `StateError`). An admitted fetch or mint is spent here; a
        state change is spent by `change_state` once the state has moved, so a
        refused or failed use spends nothing. A refusal is ledgered by
        `refuse` with `where` (the refusing edge's provider), then raised, as
        `AuthorizationError` by default.
        """
        pending = self._pending.get(cert.request_id)
        approved = pending.request.payload if pending is not None else {}
        span = approved.get("minutes")
        span = span if isinstance(span, (list, tuple)) and len(span) == 2 and all(type(m) is int for m in span) else None  # only [lo, hi] approves a fetch
        use = _STATE_CHANGE if target is not None else f"fetched from {where.get('provider')}" if minutes is not None else "minted a capability"
        error = AuthorizationError
        if cert.operation_class not in classes:
            wanted = " or ".join(c.name for c in OperationClass if c in classes)
            reason = f"certificate class {cert.operation_class.name} does not authorize {wanted}"
        elif not verify_certificate(cert, self.public_keys, self.quorum(cert.operation_class)):
            reason = "certificate lacks a valid quorum"
        elif pending is None or pending.certificate is None or pending.certificate.request_hash != cert.request_hash:
            reason = "certificate matches no vetted request"
        elif target is not None and approved.get("target") != target.name:
            reason = f"certificate approved target {approved.get('target')}, not {target.name}"
        elif minutes is not None and (span is None or not span[0] <= minutes[0] <= minutes[1] <= span[1]):
            reason = f"certificate approved minutes {span}, not {list(minutes)}"
        elif use in pending.uses:
            reason = f"certificate already {use}"
        elif cert.operation_class is not OperationClass.LOCK_UNLOCK and self.state is not SystemState.ALERT:
            reason, error = "system is PASSIVE", LockedError
        elif target is self.state:
            reason, error = f"system already {target.name}", StateError
        else:
            if use != _STATE_CHANGE:
                pending.uses.add(use)
            return pending
        self.refuse(reason, operation_class=cert.operation_class.name, request_id=cert.request_id.hex(), **where)
        raise error(reason)

    # -- state machine ------------------------------------------------------------

    def change_state(self, cert: QuorumCertificate, target: SystemState) -> SystemState:
        """Move to `target` on a certificate that `admit` binds to a request that asked for `target`, once.

        A refused or failed use spends nothing; entering PASSIVE drops the engine keys and shreds the vault.
        """
        pending = self.admit(cert, {OperationClass.LOCK_UNLOCK}, target=target)
        # Starting analysis rebuilds every provider key inside the engine before
        # the state moves or any rebuild is ledgered, so a key that cannot be
        # rebuilt leaves the system PASSIVE and the ledger with only its denial.
        keys = {key_id: self._reconstruct_key(key_id) for key_id in self.key_registry} if target is SystemState.ALERT else {}
        for key_id in keys:
            self.ledger.record("key_reconstruction", self.now, key_id=key_id, shares_used=self.config.fed_key_threshold)
        self._engine_keys = keys
        self.alert_period = cert.request_id if target is SystemState.ALERT else None
        pending.uses.add(_STATE_CHANGE)
        if target is SystemState.PASSIVE and self._vault is not None:
            self._vault.delete_all()
        self.ledger.record("state_change", self.now, target=target.name, request_id=cert.request_id.hex())
        return self.state

    # -- capabilities ---------------------------------------------------------------

    def authorize_mode(self, cert: QuorumCertificate, operation_class: OperationClass) -> Capability:
        """Mint a capability for `operation_class` on a certificate `admit` judges, once per certificate; ALERT only."""
        if operation_class is OperationClass.LOCK_UNLOCK:
            reason = "lock/unlock is not a data-access mode; use change_state"
            self.refuse(reason, operation_class=cert.operation_class.name, request_id=cert.request_id.hex())
            raise ValidationError(reason)
        self.admit(cert, {operation_class})
        self.ledger.record("capability", self.now, mode=operation_class.name, request_id=cert.request_id.hex())
        return Capability(self, operation_class)
