from random import Random

import pytest
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from epitrace import crypto
from epitrace.errors import DecryptionError, EncryptionError

AAD = b"\x02"  # a fetch entry's class byte, say


def one_shot_blob(public_bytes: bytes, plaintext: bytes, rng: Random) -> bytes:
    """A blob as sealed one exchange per message, with a random nonce."""
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public_bytes))
    key = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=b"epitrace.hybrid.v1").derive(shared)
    nonce = rng.randbytes(12)
    eph_pub = eph.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    return eph_pub + nonce + AESGCM(key).encrypt(nonce, plaintext, AAD)


class TestHybridSeal:
    def test_round_trip(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(1))
        messages = [b"proximity sets", b"", b"more sets" * 100]
        blobs = [crypto.seal(context, m, AAD) for m in messages]
        assert [crypto.unseal(pair.private_bytes, b, {}, AAD) for b in blobs] == messages
        aeads = {}
        assert [crypto.unseal(pair.private_bytes, b, aeads, AAD) for b in blobs] == messages
        assert list(aeads) == [context.eph_pub]

    def test_nonce_is_base_nonce_xor_sequence(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(1))
        blobs = [crypto.seal(context, b"same", AAD) for _ in range(300)]
        assert {bytes(b[:32]) for b in blobs} == {context.eph_pub}
        nonces = [int.from_bytes(b[32:44], "big") for b in blobs]
        assert [n ^ nonces[0] for n in nonces] == list(range(300))
        assert len({bytes(b) for b in blobs}) == 300

    def test_one_shot_blob_still_opens(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        blob = one_shot_blob(pair.public_bytes, b"stored before", Random(5))
        assert crypto.unseal(pair.private_bytes, blob, {}, AAD) == b"stored before"

    def test_wrong_key_fails(self):
        pair_a = crypto.SealKeyPair.generate(Random(0))
        pair_b = crypto.SealKeyPair.generate(Random(1))
        blob = crypto.seal(crypto.SealContext(pair_a.public_bytes, Random(2)), b"secret", AAD)
        with pytest.raises(DecryptionError):
            crypto.unseal(pair_b.private_bytes, blob, {}, AAD)

    def test_other_associated_data_fails(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        blob = crypto.seal(crypto.SealContext(pair.public_bytes, Random(2)), b"secret", AAD)
        for aad in (b"\x00", b"", AAD + b"\x00"):
            with pytest.raises(DecryptionError):
                crypto.unseal(pair.private_bytes, blob, {}, aad)

    def test_bad_public_key_fails_to_open(self):
        for public in (b"not a key", bytes(32)):  # wrong length; the all-zero low-order point
            with pytest.raises(EncryptionError):
                crypto.SealContext(public, Random(2))

    def test_tamper_detected(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(2))
        for index in (0, 32, 44, -1):  # eph_pub, nonce, ciphertext, tag
            blob = bytearray(crypto.seal(context, b"secret", AAD))
            blob[index] ^= 0x01
            with pytest.raises(DecryptionError):
                crypto.unseal(pair.private_bytes, bytes(blob), {}, AAD)

    def test_truncated_blob_rejected(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        blob = crypto.seal(crypto.SealContext(pair.public_bytes, Random(2)), b"", AAD)
        for short in (b"short", blob[:-1]):
            with pytest.raises(DecryptionError):
                crypto.unseal(pair.private_bytes, short, {}, AAD)

    def test_unseal_opens_a_view_in_place(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(2))
        frame = b"head" + crypto.seal(context, b"first", AAD) + crypto.seal(context, b"second", AAD)
        view = memoryview(frame)
        first, second = view[4 : 4 + 44 + 5 + 16], view[4 + 44 + 5 + 16 :]
        aeads = {}
        assert [crypto.unseal(pair.private_bytes, b, aeads, AAD) for b in (first, second)] == [b"first", b"second"]
        assert [type(k) for k in aeads] == [bytes]  # the cache holds no view of the frame

    def test_short_or_tampered_view_is_a_decryption_error(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        blob = crypto.seal(crypto.SealContext(pair.public_bytes, Random(2)), b"secret", AAD)
        for short in (memoryview(blob)[:-23], memoryview(b"short")):
            with pytest.raises(DecryptionError):
                crypto.unseal(pair.private_bytes, short, {}, AAD)
        for index in (0, 32, 44, len(blob) - 1):  # eph_pub, nonce, ciphertext, tag
            tampered = bytearray(blob)
            tampered[index] ^= 0x01
            with pytest.raises(DecryptionError):
                crypto.unseal(pair.private_bytes, memoryview(tampered), {}, AAD)

    def test_exhausted_context_refuses_to_seal(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(2))
        context._seq = 2**96 - 2
        blob = crypto.seal(context, b"last", AAD)
        assert crypto.unseal(pair.private_bytes, blob, {}, AAD) == b"last"
        with pytest.raises(EncryptionError):
            crypto.seal(context, b"one too many", AAD)

    def test_seeded_encryption_is_reproducible(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        first = crypto.SealContext(pair.public_bytes, Random(42))
        second = crypto.SealContext(pair.public_bytes, Random(42))
        assert [crypto.seal(first, b"same", AAD) for _ in range(3)] == [crypto.seal(second, b"same", AAD) for _ in range(3)]

    def test_ciphertext_hides_plaintext(self):
        pair = crypto.SealKeyPair.generate(Random(0))
        context = crypto.SealContext(pair.public_bytes, Random(3))
        for _ in range(3):
            assert b"600000001" not in crypto.seal(context, b"600000001" * 4, AAD)


class TestSymmetric:
    def test_round_trip(self):
        key = Random(4).randbytes(32)
        blob = crypto.symmetric_encrypt(key, b"fragment payload", Random(5))
        assert crypto.symmetric_decrypt(key, blob) == b"fragment payload"

    def test_wrong_key_rejected(self):
        key = Random(4).randbytes(32)
        other = Random(5).randbytes(32)
        blob = crypto.symmetric_encrypt(key, b"payload", Random(6))
        with pytest.raises(DecryptionError):
            crypto.symmetric_decrypt(other, blob)

    def test_bad_key_length_rejected(self):
        with pytest.raises(DecryptionError):
            crypto.symmetric_decrypt(b"short", b"\x00" * 40)


class TestSignatures:
    def test_sign_verify(self):
        pair = crypto.SigningKeyPair.generate(Random(7))
        sig = pair.sign(b"vote")
        assert crypto.verify_signature(pair.public_bytes, b"vote", sig)

    def test_reject_wrong_message(self):
        pair = crypto.SigningKeyPair.generate(Random(7))
        sig = pair.sign(b"vote")
        assert not crypto.verify_signature(pair.public_bytes, b"other", sig)

    def test_reject_wrong_signer(self):
        a = crypto.SigningKeyPair.generate(Random(7))
        b = crypto.SigningKeyPair.generate(Random(8))
        assert not crypto.verify_signature(b.public_bytes, b"vote", a.sign(b"vote"))

    def test_signatures_deterministic(self):
        pair = crypto.SigningKeyPair.generate(Random(9))
        assert pair.sign(b"m") == pair.sign(b"m")
