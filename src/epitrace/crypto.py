"""Cryptographic primitives, fixed repo-wide.

Sealing follows the shape of HPKE base mode (RFC 9180 `SetupBaseS` and
`ContextS.Seal`). A `SealContext` is one sender context: one ephemeral X25519
exchange and one HKDF-SHA256 expansion to key(32) || base_nonce(12). Every
message sealed under it is then one AES-256-GCM call with nonce
base_nonce XOR seq, where seq counts the context's messages, so no
(key, nonce) pair repeats. Each blob is eph_pub(32) || nonce(12) || ciphertext,
self-describing: `unseal` needs only the recipient's private key, the caller's
dict, which keeps one AEAD per distinct eph_pub, and the associated data the
blob was sealed with, which travels beside it in the clear. The edge opens one
context per provider epoch, so a key that leaks from memory exposes that epoch
only. The `AESGCM` object holds its key inside the OpenSSL binding, where
Python cannot zero it; dropping the context is the most this code can do.

Signatures: Ed25519 (deterministic). Digests: SHA-256. Every key and nonce is
drawn from the caller's seeded `Random`, so whole scenarios replay bit-exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives import hashes, serialization

from .errors import DecryptionError, EncryptionError

_NONCE_LEN = 12
_KEY_LEN = 32
_TAG_LEN = 16
_HEAD_LEN = _KEY_LEN + _NONCE_LEN  # eph_pub || nonce, ahead of a sealed ciphertext
_HKDF_INFO = b"epitrace.hybrid.v1"
_MAX_SEQ = 2 ** (8 * _NONCE_LEN) - 1


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class SealKeyPair:
    """X25519 keypair for hybrid sealing; private half is threshold-shareable bytes."""

    private_bytes: bytes
    public_bytes: bytes

    @classmethod
    def generate(cls, rng: Random) -> "SealKeyPair":
        priv_raw = rng.randbytes(_KEY_LEN)
        priv = X25519PrivateKey.from_private_bytes(priv_raw)
        pub = priv.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        return cls(private_bytes=priv_raw, public_bytes=pub)


@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 identity keypair for authorities."""

    private_bytes: bytes
    public_bytes: bytes

    @classmethod
    def generate(cls, rng: Random) -> "SigningKeyPair":
        priv_raw = rng.randbytes(_KEY_LEN)
        priv = Ed25519PrivateKey.from_private_bytes(priv_raw)
        pub = priv.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        return cls(private_bytes=priv_raw, public_bytes=pub)

    def sign(self, message: bytes) -> bytes:
        return Ed25519PrivateKey.from_private_bytes(self.private_bytes).sign(message)


def verify_signature(public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class SealContext:
    """Sender context to one public key: the key agreement is paid here, once."""

    __slots__ = ("recipient", "eph_pub", "_aead", "_base_nonce", "_seq")

    def __init__(self, public_bytes: bytes, rng: Random):
        try:
            eph = X25519PrivateKey.from_private_bytes(rng.randbytes(_KEY_LEN))
            secret = _derive(eph.exchange(X25519PublicKey.from_public_bytes(public_bytes)), _KEY_LEN + _NONCE_LEN)
        except ValueError as exc:
            raise EncryptionError(str(exc)) from exc
        self.recipient = public_bytes
        self.eph_pub = eph.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
        self._aead = AESGCM(secret[:_KEY_LEN])
        self._base_nonce = int.from_bytes(secret[_KEY_LEN:], "big")
        self._seq = 0


def seal(context: SealContext, plaintext: bytes, aad: bytes) -> bytearray:
    """Encrypt the context's next message, authenticating `aad` with it: eph_pub(32) || nonce(12) || AES-GCM ciphertext, written into one new bytearray."""
    if context._seq == _MAX_SEQ:
        raise EncryptionError("seal context exhausted its nonces")
    nonce = (context._base_nonce ^ context._seq).to_bytes(_NONCE_LEN, "big")
    context._seq += 1
    blob = bytearray(_HEAD_LEN + len(plaintext) + _TAG_LEN)
    blob[:_HEAD_LEN] = context.eph_pub + nonce
    context._aead.encrypt_into(nonce, plaintext, aad, memoryview(blob)[_HEAD_LEN:])
    return blob


def unseal(private_bytes: bytes, blob: bytes, aeads: dict[bytes, AESGCM], aad: bytes) -> bytes:
    """Open one sealed blob, any bytes-like, in place, if `aad` is what it was sealed with; `aeads` is the caller's cache of the AEAD derived for each eph_pub.

    Only eph_pub is copied, to bytes: X25519 takes bytes, and a bytes key in
    `aeads` does not pin the caller's buffer (a fetch frame, say).
    """
    if len(blob) < _HEAD_LEN + _TAG_LEN:
        raise DecryptionError("sealed blob too short")
    view = memoryview(blob)
    eph_pub = bytes(view[:_KEY_LEN])
    try:
        aead = aeads.get(eph_pub)
        if aead is None:
            shared = X25519PrivateKey.from_private_bytes(private_bytes).exchange(X25519PublicKey.from_public_bytes(eph_pub))
            aead = aeads[eph_pub] = AESGCM(_derive(shared, _KEY_LEN))
        return aead.decrypt(view[_KEY_LEN:_HEAD_LEN], view[_HEAD_LEN:], aad)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionError("ciphertext authentication failed") from exc


def symmetric_encrypt(key: bytes, plaintext: bytes, rng: Random) -> bytearray:
    """nonce(12) || AES-GCM ciphertext, written in place into one new bytearray."""
    nonce = rng.randbytes(_NONCE_LEN)
    blob = bytearray(_NONCE_LEN + len(plaintext) + _TAG_LEN)
    blob[:_NONCE_LEN] = nonce
    AESGCM(key).encrypt_into(nonce, plaintext, None, memoryview(blob)[_NONCE_LEN:])
    return blob


def symmetric_decrypt(key: bytes, blob: bytes) -> bytes:
    """Open a `symmetric_encrypt` blob, any bytes-like, in place."""
    if len(key) != _KEY_LEN:
        raise DecryptionError(f"key must be {_KEY_LEN} bytes")
    if len(blob) < _NONCE_LEN + _TAG_LEN:
        raise DecryptionError("ciphertext too short")
    view = memoryview(blob)
    try:
        return AESGCM(key).decrypt(view[:_NONCE_LEN], view[_NONCE_LEN:], None)
    except InvalidTag as exc:
        raise DecryptionError("ciphertext authentication failed") from exc


def _derive(shared: bytes, length: int) -> bytes:
    # HKDF output of any length starts with the same bytes, so `unseal`, which
    # reads the nonce from the blob, derives only the 32-byte key.
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=None, info=_HKDF_INFO).derive(shared)
