"""Adversarial drivers: one deployment, attacked in turn; every attack must fail safely.

The drivers run in one sequence on one deployment because later drivers use
what earlier ones left: `cert_probe`, refused while the system is PASSIVE,
spends nothing and is presented again after the far-future prune, and
`byzantine_fragment` reads the object `cloud_coalition` wrote. Every refused
use is judged by one verdict, `_refused`. An attack whose attempt raises an
`EpitraceError` other than the refusal it tests is BREACHED, with the error
in its detail, and the suite goes on; only a failure of the honest steps that
set attacks up (vetting, the unlock, the coalition's vault write) aborts it.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from random import Random
from typing import Callable

from . import crypto, erasure
from .errors import AuthorizationError, DecryptionError, EpitraceError, LockedError, ReconstructionError, UnavailableError
from .federation import Federation, OperationClass, QuorumCertificate, SystemState, make_request
from .ledger import verify_ledger
from .runner import build_context, fetch, ingest, vet
from .shamir import Share, reconstruct_secret
from .vault import FaultMode
from .world import ScenarioConfig


@dataclass(frozen=True)
class AttackResult:
    name: str
    safe: bool
    detail: str


def attack_suite(config: ScenarioConfig) -> list[AttackResult]:
    """Run every adversarial driver against a fresh small deployment.

    Each attack must fail safely; `safe=True` means the system refused or
    survived it.
    """
    results = []
    context = build_context(config)
    federation = context.federation
    rng = Random(f"{config.seed}/attack")

    # Feed a little data while passive.
    ingest(context, 0, 30)
    edge = next(iter(context.edges.values()))

    # 1. Provider tries to read its own edge cloud: the port has no read surface.
    port = edge.provider_port()
    readable = [a for a in dir(port) if not a.startswith("_") and a != "push"]
    results.append(AttackResult("provider_read", safe=not readable, detail=f"provider surface: {['push'] + readable}"))

    # 2. Locked fetch: valid certificate, but the system is passive.
    cert_probe = vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "probe", "minutes": [0, 100]}, rng)
    results.append(_refused("locked_fetch", federation, lambda: fetch(edge, cert_probe, (0, 100)), LockedError, cert_probe.request_id, edge.provider_id))

    # Unlock for the rest of the drivers.
    cert_alert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, rng)
    federation.change_state(cert_alert, SystemState.ALERT)

    # 3. Sub-quorum fetch: certificate carrying q-1 approvals.
    request = make_request(federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"purpose": "subquorum"}, rng)
    q = federation.quorum(OperationClass.BLIND_ANALYSIS)
    votes = [authority.approve(request) for authority in federation.authorities[: q - 1]]
    forged = QuorumCertificate(
        request_id=request.request_id,
        request_hash=request.request_hash(),
        operation_class=OperationClass.BLIND_ANALYSIS,
        approvals=tuple(sorted((v.authority_id, v.signature) for v in votes)),
    )
    results.append(_refused("subquorum_fetch", federation, lambda: fetch(edge, forged, (0, 100)), AuthorizationError, forged.request_id, edge.provider_id))

    # 4. Certificate replay: a read certificate fetches from an edge twice.
    cert_once = vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "replay", "minutes": [0, 100]}, rng)

    def replay() -> None:
        fetch(edge, cert_once, (0, 100))  # served, and ledgers nothing
        fetch(edge, cert_once, (0, 100))

    results.append(_refused("certificate_replay", federation, replay, AuthorizationError, cert_once.request_id, edge.provider_id))

    # 5. Target swap: a certificate vetted to lock the system is presented to unlock it; the system stays ALERT.
    cert_lock = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "PASSIVE"}, rng)
    results.append(_refused("target_swap", federation, lambda: federation.change_state(cert_lock, SystemState.ALERT), AuthorizationError, cert_lock.request_id))

    # 6. Ledger tamper detection.
    entries = list(federation.ledger.entries)
    victim = entries[len(entries) // 2]
    tampered = dict(victim.content)
    tampered["minute"] = int(tampered.get("minute", 0)) + 1
    entries[len(entries) // 2] = dataclasses.replace(victim, content=tampered)
    tamper_detected = not verify_ledger(entries)
    results.append(AttackResult("ledger_tamper", safe=tamper_detected, detail="tamper detected" if tamper_detected else "tamper missed"))

    # 7. Cloud coalition below the key threshold tries to decrypt a vault object.
    cert_write = vet(federation, OperationClass.BLIND_PROCESSING, {"purpose": "store"}, rng)
    cap_write = federation.authorize_mode(cert_write, OperationClass.BLIND_PROCESSING)
    secret_payload = b"post-processed results " + rng.randbytes(64)
    object_id = context.vault.write(cap_write, secret_payload)
    coalition_safe = True
    detail = "all coalitions failed to decrypt"
    x = context.vault.key_threshold - 1
    for coalition in itertools.combinations(context.vault.clouds, x):
        responses = [r for r in (cloud.retrieve(object_id) for cloud in coalition) if r is not None]
        fragments = [erasure.Fragment(idx, frag) for idx, frag, _share in responses]
        shares = [Share.from_bytes(blob) for _idx, _frag, blob in responses]
        try:
            ciphertext = erasure.decode(fragments, context.vault.k)
        except UnavailableError:
            continue  # too few fragments to even rebuild the ciphertext
        try:
            crypto.symmetric_decrypt(reconstruct_secret(shares), ciphertext)
            coalition_safe = False
            detail = f"coalition {[c.id for c in coalition]} decrypted the object"
        except (DecryptionError, ReconstructionError):
            continue
    results.append(AttackResult("cloud_coalition", safe=coalition_safe, detail=detail))

    # 8. Byzantine fragment during read.
    context.vault.clouds[0].fault_mode = FaultMode.BYZANTINE
    cert_full = vet(federation, OperationClass.FULL_PROCESSING, {"purpose": "read"}, rng)
    cap_full = federation.authorize_mode(cert_full, OperationClass.FULL_PROCESSING)
    try:
        recovered = context.vault.read(cap_full, object_id)
        results.append(AttackResult("byzantine_fragment", safe=recovered == secret_payload, detail="read survived corruption"))
    except EpitraceError as exc:
        results.append(AttackResult("byzantine_fragment", safe=False, detail=f"read failed: {exc}"))
    finally:
        context.vault.clouds[0].fault_mode = FaultMode.HONEST

    # 9. Access to expired records: prune, then fetch the expired range.
    far_future = config.pdr_ttl + 31
    federation.tick(far_future)
    for cloud in context.edges.values():
        cloud.prune(far_future)
    try:
        fetched = [entry for cloud in context.edges.values() for entry in fetch(cloud, cert_probe, (0, 30))]
        results.append(AttackResult("expired_pdr_access", safe=not fetched, detail=f"{len(fetched)} expired sets served"))
    except EpitraceError as exc:
        results.append(AttackResult("expired_pdr_access", safe=False, detail=f"fetch raised {type(exc).__name__}: {exc}"))
    return results


def _refused(
    name: str, federation: Federation, attempt: Callable[[], object], error: type[EpitraceError], request_id: bytes, provider: str | None = None
) -> AttackResult:
    """The verdict on one governed attempt that must be refused.

    SAFE only if `attempt` raises `error` and the ledger gains exactly one
    record, whose reason is the error's text, naming `request_id` and, where
    an edge refused, its `provider`. An attempt that is served, or raises any
    other `EpitraceError`, is BREACHED.
    """
    before = len(federation.ledger.entries)
    try:
        attempt()
    except error as exc:
        added = [e.content for e in federation.ledger.entries[before:]]
        logged = [(c.get("reason"), c.get("request_id"), c.get("provider")) for c in added] == [(str(exc), request_id.hex(), provider)]
        return AttackResult(name, safe=logged, detail="refused and ledgered once" if logged else f"refused, ledger added {added}")
    except EpitraceError as exc:
        return AttackResult(name, safe=False, detail=f"raised {type(exc).__name__}: {exc}")
    return AttackResult(name, safe=False, detail="served")
