"""Core data vault: each object encrypted, erasure-coded over n clouds, its key
threshold-shared, tolerating Byzantine clouds via digest-checked reconstruction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import TYPE_CHECKING

from . import crypto, erasure, framing
from .errors import (
    DecryptionError,
    IntegrityError,
    LockedError,
    ParameterError,
    UnavailableError,
)
from .shamir import Share, reconstruct_secret, split_secret

if TYPE_CHECKING:
    from .federation import Capability, Federation


class FaultMode(Enum):
    HONEST = "HONEST"
    CRASHED = "CRASHED"
    BYZANTINE = "BYZANTINE"


def _corrupt(data: bytes) -> bytes:
    # Deterministic corruption: flip every bit of the first byte.
    if not data:
        return data
    return bytes([data[0] ^ 0xFF]) + data[1:]


@dataclass
class CloudNode:
    """One storage cloud; Byzantine nodes return corrupted bytes, crashed ones nothing.

    Fragments and key shares are held as bytearrays so that shredding can
    overwrite them in place.
    """

    id: int
    fault_mode: FaultMode = FaultMode.HONEST
    _fragments: dict[bytes, tuple[int, bytearray, bytearray]] = field(default_factory=dict)

    def store(self, message: bytes) -> bool:
        if self.fault_mode is FaultMode.CRASHED:
            return False
        object_id, index, fragment, key_share = framing.decode_fragment_message(message)
        self._fragments[object_id] = (index, bytearray(fragment), bytearray(key_share))
        return True

    def retrieve(self, object_id: bytes) -> tuple[int, bytes, bytes] | None:
        if self.fault_mode is FaultMode.CRASHED:
            return None
        entry = self._fragments.get(object_id)
        if entry is None:
            return None
        index, fragment, key_share = entry
        if self.fault_mode is FaultMode.BYZANTINE:
            return index, _corrupt(fragment), _corrupt(key_share)
        return index, fragment, key_share

    def shred(self, object_id: bytes) -> bool:
        entry = self._fragments.pop(object_id, None)
        if entry is None:
            return False
        # Secure delete: zero the stored buffers in place, then drop them.
        _index, fragment, key_share = entry
        fragment[:] = bytes(len(fragment))
        key_share[:] = bytes(len(key_share))
        return True

    def held_object_ids(self) -> list[bytes]:
        return sorted(self._fragments)


@dataclass(frozen=True)
class VaultObject:
    """Coordinator-held metadata for one stored object."""

    plain_digest: bytes
    cipher_digest: bytes
    k: int
    key_threshold: int
    size: int


class VaultCoordinator:
    """Scatter/gather front to the cloud set; all access capability-gated."""

    def __init__(self, federation: "Federation", n_clouds: int = 4, k: int = 2, key_threshold: int = 3, rng: Random | None = None):
        if not (1 <= k <= n_clouds):
            raise ParameterError(f"need 1 <= k <= n_clouds, got k={k} n={n_clouds}")
        if not (1 <= key_threshold <= n_clouds):
            raise ParameterError("key threshold must be in [1, n_clouds]")
        self.clouds = [CloudNode(id=i) for i in range(1, n_clouds + 1)]
        self.k = k
        self.key_threshold = key_threshold
        self.locked = True
        self.inventory: dict[bytes, VaultObject] = {}
        self._federation = federation
        self._rng = rng if rng is not None else Random()

    # -- operations -------------------------------------------------------------

    def write(self, capability: "Capability", plaintext: bytes) -> bytes:
        """Encrypt under a fresh key, scatter fragments and key shares, forget both."""
        if self.locked:
            raise LockedError("vault is locked")
        capability.require_write()
        key = crypto.rand_bytes(32, self._rng)
        ciphertext = crypto.symmetric_encrypt(key, plaintext, self._rng)
        n = len(self.clouds)
        fragments = erasure.encode(ciphertext, self.k, n)
        shares = split_secret(key, self.key_threshold, n, self._rng)
        object_id = crypto.rand_bytes(16, self._rng)
        acks = 0
        for cloud, fragment, share in zip(self.clouds, fragments, shares):
            message = framing.encode_fragment_message(object_id, fragment.index, fragment.data, framing.u8(share.x) + share.data)
            if cloud.store(message):
                acks += 1
        if acks < self.k:
            for cloud in self.clouds:
                cloud.shred(object_id)
            raise UnavailableError(f"only {acks} clouds acknowledged, need {self.k}")
        meta = VaultObject(
            plain_digest=crypto.digest(plaintext),
            cipher_digest=crypto.digest(ciphertext),
            k=self.k,
            key_threshold=self.key_threshold,
            size=len(plaintext),
        )
        self.inventory[object_id] = meta
        self._federation.ledger.record("vault_write", self._federation.now, object_id=object_id.hex(), size=len(plaintext))
        return object_id

    def read(self, capability: "Capability", object_id: bytes) -> bytes:
        """Rebuild the object; FULL_PROCESSING gets plaintext, blind modes ciphertext.

        Fragment k-subsets are tried until the ciphertext digest matches, then
        key-share subsets until decryption reproduces the plaintext digest, so
        any minority of corrupted clouds is ridden out.
        """
        capability.require_read()
        if self.locked:
            raise LockedError("vault is locked")
        meta = self.inventory.get(object_id)
        if meta is None:
            raise UnavailableError("unknown or deleted object")
        responses: dict[int, tuple[int, bytes, bytes]] = {}
        for cloud in self.clouds:
            got = cloud.retrieve(object_id)
            if got is not None:
                responses[cloud.id] = got
        ciphertext = self._rebuild_ciphertext(meta, responses)
        from .federation import OperationClass

        if capability.mode is not OperationClass.FULL_PROCESSING:
            return ciphertext  # blind modes never see plaintext
        key = self._rebuild_key(meta, responses, ciphertext)
        plaintext = crypto.symmetric_decrypt(key, ciphertext)
        if crypto.digest(plaintext) != meta.plain_digest:
            raise IntegrityError("plaintext digest mismatch")
        return plaintext

    def _rebuild_ciphertext(self, meta: VaultObject, responses: dict[int, tuple[int, bytes, bytes]]) -> bytes:
        if len(responses) < meta.k:
            raise UnavailableError(f"only {len(responses)} clouds responded, need {meta.k}")
        for subset in itertools.combinations(sorted(responses), meta.k):
            fragments = [erasure.Fragment(responses[cid][0], responses[cid][1]) for cid in subset]
            try:
                candidate = erasure.decode(fragments, meta.k)
            except UnavailableError:
                continue
            if crypto.digest(candidate) == meta.cipher_digest:
                return candidate
        raise IntegrityError("no fragment subset reproduces the stored ciphertext digest")

    def _rebuild_key(self, meta: VaultObject, responses: dict[int, tuple[int, bytes, bytes]], ciphertext: bytes) -> bytes:
        shares = {}
        for cid, (_idx, _frag, share_blob) in responses.items():
            if len(share_blob) >= 2:
                shares[cid] = Share(x=share_blob[0], data=share_blob[1:])
        if len(shares) < meta.key_threshold:
            raise UnavailableError(f"only {len(shares)} key shares available, need {meta.key_threshold}")
        for subset in itertools.combinations(sorted(shares), meta.key_threshold):
            try:
                candidate = reconstruct_secret([shares[cid] for cid in subset])
            except Exception:
                continue
            try:
                plaintext = crypto.symmetric_decrypt(candidate, ciphertext)
            except DecryptionError:
                continue
            if crypto.digest(plaintext) == meta.plain_digest:
                return candidate
        raise IntegrityError("no key-share subset decrypts to the stored digest")

    def delete_all(self, reason: str) -> int:
        """Secure-delete every object (state-change driven); one ledger entry per batch."""
        object_ids = sorted(self.inventory)
        for object_id in object_ids:
            for cloud in self.clouds:
                cloud.shred(object_id)
        self.inventory.clear()
        if object_ids:
            self._federation.ledger.record(
                "vault_delete", self._federation.now, objects=[o.hex() for o in object_ids], reason=reason
            )
        return len(object_ids)

    # -- audits --------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return len(self.inventory)
