"""Per-provider edge secure cloud: push-only ingestion, TTL pruning, VPN fetch.

The provider faces a write-only port; once a record set is pushed it can never
be read back from the provider side. Analysis-side access goes through one
entry, the fetch frame, which `Federation.admit` serves only while the system
is ALERT and only on a read-class certificate bound to a vetted request
approving the frame's minute range.

Pushed sets are sealed under one sender context per provider-hour (see
`crypto`): one key exchange per epoch, then one AEAD call per set. The epoch is
fixed, not configured, so a sealing key leaked from memory exposes at most one
hour of one provider's records whatever the retention settings. The cleartext
minute already tells the store which sets share an epoch, so a shared eph_pub
reveals nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import crypto, framing
from .errors import EncryptionError, FramingError
from .federation import READ_MODES, Federation, QuorumCertificate
from .records import PdrSet, PhoneId, PrecisionClass, encode_pdr_set

SEAL_EPOCH_MIN = 60


@dataclass(frozen=True, slots=True)
class EncryptedPdrSet:
    """Sealed record set plus the cleartext its store acts on: the minute, to prune and to filter, and its precision class, whose value is the fetch entry's class byte that the seal authenticates.

    The ciphertext is the bytearray `crypto.seal` wrote, so pruning can zero
    it in place; a fetch copies it once, straight into the response frame.
    """

    ciphertext: bytearray
    minute: int
    precision_class: PrecisionClass


class EdgeCloud:
    """One provider's secure cloud node; all mutation through its two ports."""

    def __init__(self, provider_id: str, key_id: str, federation: Federation, pdr_ttl: int, rng: Random):
        self.provider_id = provider_id
        self.key_id = key_id
        self.pdr_ttl = pdr_ttl
        self._federation = federation
        self._rng = rng
        self._store: list[EncryptedPdrSet] = []
        self._seal_context: crypto.SealContext | None = None
        self._seal_epoch = -1
        self._phone_fields: dict[PhoneId, bytes] = {}  # `encode_pdr_set` cache, emptied with the seal context

    # -- provider side ----------------------------------------------------------

    def push(self, pdr_set: PdrSet) -> bool:
        """Encrypt and append one record set; the plaintext is not retained.

        The set is sealed under the provider-hour's context, opened on the
        first push of each hour or when the registry key changes, with its
        class byte as associated data, so a relabelled fetch entry fails to
        open. The encoded phone fields are cached for that context only, so
        no plaintext identifier is held past its provider-hour. Returns False
        (the set is dropped) if sealing fails; the provider has no way to
        observe anything else about the store.
        """
        public_key = self._federation.key_registry[self.key_id]
        epoch = pdr_set.minute // SEAL_EPOCH_MIN
        cls = pdr_set.bs.precision_class
        try:
            context = self._seal_context
            if context is None or epoch != self._seal_epoch or context.recipient != public_key:
                self.close_seal_context()  # rotation drops the old key before opening a new one
                context = self._seal_context = crypto.SealContext(public_key, self._rng)
                self._seal_epoch = epoch
            ciphertext = crypto.seal(context, encode_pdr_set(pdr_set, self._phone_fields), framing.u8(cls))
        except EncryptionError:
            return False
        self._store.append(EncryptedPdrSet(ciphertext=ciphertext, minute=pdr_set.minute, precision_class=cls))
        return True

    def close_seal_context(self) -> None:
        """Drop the open seal context and its plaintext phone-field cache; the next push opens a new one."""
        self._seal_context = None
        self._seal_epoch = -1
        self._phone_fields = {}

    def provider_port(self) -> "ProviderPort":
        return ProviderPort(self)

    # -- retention ---------------------------------------------------------------

    def prune(self, now: int) -> int:
        """Secure-delete every entry older than the TTL; returns the count removed.

        Each expired ciphertext buffer is overwritten with zeros in place before
        the entry is dropped, and the sweep is recorded in the audit ledger.
        """
        kept: list[EncryptedPdrSet] = []
        deleted = 0
        for entry in self._store:
            if now - entry.minute > self.pdr_ttl:
                entry.ciphertext[:] = bytes(len(entry.ciphertext))
                deleted += 1
            else:
                kept.append(entry)
        self._store = kept
        self._federation.ledger.record("prune", now, provider=self.provider_id, deleted=deleted, shredded=True)
        return deleted

    # -- analysis-network side ------------------------------------------------------

    def handle_fetch_frame(self, frame: bytes) -> bytes:
        """The analysis network's one way in: a fetch request frame in, a response frame out.

        A malformed request frame or certificate is refused through
        `Federation.refuse` before `FramingError`; then `Federation.admit`
        judges the read certificate, the inclusive minute range and the system
        state in this provider's name, and the response encodes the sets of
        that range.
        """
        reason = "malformed request frame"
        try:
            cert_blob, start, end = framing.decode_fetch_request(frame)
            reason = "malformed certificate"
            cert = QuorumCertificate.decode(cert_blob)
        except FramingError:
            self._federation.refuse(reason, provider=self.provider_id)
            raise
        self._federation.admit(cert, READ_MODES, minutes=(start, end), provider=self.provider_id)
        return framing.encode_fetch_response([(e.precision_class, e.ciphertext) for e in self._store if start <= e.minute <= end])

    # -- introspection for audits (not part of the provider surface) -----------------

    def stored_ciphertexts(self) -> list[bytearray]:
        return [e.ciphertext for e in self._store]

    def cached_phone_fields(self) -> list[bytes]:
        """The plaintext phone fields (length prefix, nr, IMEI) the open seal context caches."""
        return list(self._phone_fields.values())


class ProviderPort:
    """The only surface a provider ever holds: push, nothing else."""

    __slots__ = ("_push",)

    def __init__(self, cloud: EdgeCloud):
        self._push = cloud.push

    def push(self, pdr_set: PdrSet) -> bool:
        return self._push(pdr_set)
