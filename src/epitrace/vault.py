"""Core data vault: each object encrypted, erasure-coded over n clouds, its key
threshold-shared, tolerating Byzantine clouds by checking every fragment and key
share against a digest taken at write time."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from random import Random

from . import crypto, erasure, framing
from .errors import IntegrityError, UnavailableError
from .federation import Capability, Federation, OperationClass
from .shamir import Share, reconstruct_secret, split_secret


class FaultMode(Enum):
    HONEST = "HONEST"
    CRASHED = "CRASHED"
    BYZANTINE = "BYZANTINE"


def _corrupt(data: bytes) -> bytearray:
    # Deterministic corruption: flip every bit of the first byte of one copy.
    corrupted = bytearray(data)
    if corrupted:
        corrupted[0] ^= 0xFF
    return corrupted


@dataclass
class CloudNode:
    """One storage cloud; Byzantine nodes return corrupted bytes, crashed ones nothing.

    Fragments and key shares are held as bytearrays so that shredding can
    overwrite them in place; `store` copies each once, from a view of the
    fragment message, into its bytearray.
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

    def held_buffers(self) -> list[bytearray]:
        """Every fragment and key-share buffer the cloud holds."""
        return [buffer for _index, fragment, key_share in self._fragments.values() for buffer in (fragment, key_share)]


@dataclass(frozen=True)
class VaultObject:
    """Coordinator-held metadata for one stored object.

    `fragment_digests` and `share_digests` map a fragment index to the digest
    of the fragment and of the key share's bytes (`Share.to_bytes`) stored with it.
    """

    plain_digest: bytes
    cipher_digest: bytes
    fragment_digests: dict[int, bytes]
    share_digests: dict[int, bytes]


class VaultCoordinator:
    """Scatter/gather front to the cloud set; all access capability-gated.

    The sizing is checked where it is configured (`ScenarioConfig`); built
    directly with a `k` or `key_threshold` outside [1, n_clouds], the first
    write fails with `ParameterError` in `erasure.encode` or `split_secret`,
    before any cloud stores a piece.
    """

    def __init__(self, federation: Federation, n_clouds: int, k: int, key_threshold: int, rng: Random):
        self.clouds = [CloudNode(id=i) for i in range(1, n_clouds + 1)]
        self.k = k
        self.key_threshold = key_threshold
        self.inventory: dict[bytes, VaultObject] = {}
        self._federation = federation
        self._rng = rng

    # -- operations -------------------------------------------------------------

    def write(self, capability: Capability, plaintext: bytes) -> bytes:
        """Encrypt under a fresh key, scatter fragments and key shares, forget both.

        The write stands only once enough clouds acknowledge it to rebuild both
        the ciphertext (k fragments) and its key (`key_threshold` shares);
        below that, every stored piece is shredded and nothing is recorded.
        """
        capability.require_write()  # a capability writes only while ALERT
        key = self._rng.randbytes(32)
        ciphertext = crypto.symmetric_encrypt(key, plaintext, self._rng)
        cipher_digest = crypto.digest(ciphertext)
        n = len(self.clouds)
        fragments = erasure.encode(ciphertext, self.k, n)
        del ciphertext  # the fragments carry it from here
        shares = split_secret(key, self.key_threshold, n, self._rng)
        object_id = self._rng.randbytes(16)
        acks = 0
        fragment_digests, share_digests = {}, {}
        for cloud, share in zip(self.clouds, shares):
            fragment = fragments.pop(0)  # dropped once its message is built, so only the clouds' copies pile up
            share_blob = share.to_bytes()
            fragment_digests[fragment.index] = crypto.digest(fragment.data)
            share_digests[fragment.index] = crypto.digest(share_blob)
            message = framing.encode_fragment_message(object_id, fragment.index, fragment.data, share_blob)
            if cloud.store(message):
                acks += 1
        need = max(self.k, self.key_threshold)
        if acks < need:
            for cloud in self.clouds:
                cloud.shred(object_id)
            raise UnavailableError(f"only {acks} clouds acknowledged, need {need}")
        meta = VaultObject(
            plain_digest=crypto.digest(plaintext),
            cipher_digest=cipher_digest,
            fragment_digests=fragment_digests,
            share_digests=share_digests,
        )
        self.inventory[object_id] = meta
        self._federation.ledger.record("vault_write", self._federation.now, object_id=object_id.hex(), size=len(plaintext))
        return object_id

    def read(self, capability: Capability, object_id: bytes) -> bytes:
        """Rebuild the object; FULL_PROCESSING gets plaintext, blind modes ciphertext.

        Each fragment and key share is checked against its write-time digest
        on its own, so any k verified fragments and any `key_threshold`
        verified shares rebuild the object whatever the other clouds return.
        """
        capability.require_read()  # a capability reads only while ALERT, so a locked vault never serves
        meta = self.inventory.get(object_id)
        if meta is None:
            raise UnavailableError("unknown or deleted object")
        responses = [got for cloud in self.clouds if (got := cloud.retrieve(object_id)) is not None]
        fragments = crypto.verified([(index, fragment) for index, fragment, _ in responses], meta.fragment_digests, self.k, "fragments")
        ciphertext = erasure.decode([erasure.Fragment(index, data) for index, data in fragments.items()], self.k)
        if crypto.digest(ciphertext) != meta.cipher_digest:
            raise IntegrityError("ciphertext digest mismatch")
        if capability.mode is not OperationClass.FULL_PROCESSING:
            return ciphertext  # blind modes never see plaintext
        blobs = crypto.verified([(index, blob) for index, _, blob in responses], meta.share_digests, self.key_threshold, "key shares")
        shares = [Share.from_bytes(blob) for _, blob in sorted(blobs.items())]
        key = reconstruct_secret(shares[: self.key_threshold])
        plaintext = crypto.symmetric_decrypt(key, ciphertext)
        if crypto.digest(plaintext) != meta.plain_digest:
            raise IntegrityError("plaintext digest mismatch")
        return plaintext

    def delete_all(self) -> int:
        """Secure-delete every object as the system turns PASSIVE; one ledger entry per batch."""
        object_ids = sorted(self.inventory)
        for object_id in object_ids:
            for cloud in self.clouds:
                cloud.shred(object_id)
        self.inventory.clear()
        if object_ids:
            objects = [o.hex() for o in object_ids]
            self._federation.ledger.record("vault_delete", self._federation.now, objects=objects, reason="state_change_to_passive")
        return len(object_ids)

    # -- audits --------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return len(self.inventory)
