import struct
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from epitrace import framing
from epitrace.edge import EdgeCloud
from epitrace.errors import FramingError
from epitrace.federation import OperationClass, QuorumCertificate
from epitrace.records import PdrSet, PrecisionClass
from epitrace.runner import vet
from util import alerted_federation, phone, reference_fetch_request, reference_fetch_response, station


class TestFragmentMessage:
    def test_round_trip(self):
        msg = framing.encode_fragment_message(b"\xab" * 16, 3, b"fragment-bytes", b"\x01share")
        assert framing.decode_fragment_message(msg) == (b"\xab" * 16, 3, b"fragment-bytes", b"\x01share")

    def test_layout(self):
        msg = framing.encode_fragment_message(b"\x00" * 16, 1, b"AB", b"C")
        assert msg == b"\x00" * 16 + b"\x01" + b"\x00\x00\x00\x02AB" + b"\x00\x00\x00\x01C"

    def test_bad_object_id_length(self):
        with pytest.raises(FramingError):
            framing.encode_fragment_message(b"\x00" * 8, 1, b"", b"")

    def test_truncated(self):
        msg = framing.encode_fragment_message(b"\x00" * 16, 1, b"AB", b"C")
        with pytest.raises(FramingError):
            framing.decode_fragment_message(msg[:-1])

    def test_trailing_bytes_rejected(self):
        msg = framing.encode_fragment_message(b"\x00" * 16, 1, b"AB", b"C")
        with pytest.raises(FramingError):
            framing.decode_fragment_message(msg + b"\x00")


class TestFetchMessages:
    def test_request_round_trip(self):
        blob = framing.encode_fetch_request(b"cert-bytes", 5, 900)
        assert framing.decode_fetch_request(blob) == (b"cert-bytes", 5, 900)

    def test_response_round_trip(self):
        entries = [(2, b"ct-1"), (0, b"ct-2")]
        blob = framing.encode_fetch_response(entries)
        assert framing.decode_fetch_response(blob) == entries

    def test_empty_response(self):
        assert framing.decode_fetch_response(framing.encode_fetch_response([])) == []

    def test_truncated_request(self):
        blob = framing.encode_fetch_request(b"cert", 1, 2)
        with pytest.raises(FramingError):
            framing.decode_fetch_request(blob[:-3])


class TestCertificateMessage:
    def test_unknown_operation_class_rejected(self):
        with pytest.raises(FramingError):
            QuorumCertificate.decode(bytes(48) + bytes([9, 0]))


# -- the in-place wire path ----------------------------------------------------------
# The references below build each frame by plain concatenation, field by field,
# as the layout comments in `framing` describe it.


def concatenated_fetch_response(entries) -> bytes:
    out = struct.pack(">I", len(entries))
    for class_value, ciphertext in entries:
        out += struct.pack(">B", class_value) + struct.pack(">I", len(ciphertext)) + bytes(ciphertext)
    return out


def concatenated_fragment_message(object_id, index, fragment, key_share) -> bytes:
    return object_id + struct.pack(">B", index) + struct.pack(">I", len(fragment)) + fragment + struct.pack(">I", len(key_share)) + key_share


ENTRIES = st.lists(
    st.tuples(st.integers(0, 255), st.binary(max_size=64).map(bytearray)),  # the edge stores bytearrays
    max_size=8,
)


class TestInPlaceWirePath:
    @given(ENTRIES)
    @example([])
    @example([(0, bytearray())])
    def test_fetch_response_equals_the_concatenation(self, entries):
        frame = framing.encode_fetch_response(entries)
        assert frame == concatenated_fetch_response(entries)
        assert framing.decode_fetch_response(frame) == entries

    @given(st.binary(min_size=16, max_size=16), st.integers(0, 255), st.binary(max_size=64), st.binary(max_size=40))
    @example(bytes(16), 0, b"", b"")
    def test_fragment_message_equals_the_concatenation(self, object_id, index, fragment, key_share):
        message = framing.encode_fragment_message(object_id, index, fragment, key_share)
        assert message == concatenated_fragment_message(object_id, index, fragment, key_share)
        assert framing.decode_fragment_message(message) == (object_id, index, fragment, key_share)

    def test_fetch_response_entries_are_views_of_the_frame(self):
        frame = framing.encode_fetch_response([(2, bytearray(b"ct-1")), (0, bytearray(b"ct-22"))])
        entries = framing.decode_fetch_response(frame)
        assert [e[1].obj for e in entries] == [frame, frame]
        assert [(class_value, bytes(ciphertext)) for class_value, ciphertext in entries] == [(2, b"ct-1"), (0, b"ct-22")]

    def test_fragment_message_payloads_are_views_of_the_message(self):
        message = framing.encode_fragment_message(b"\xab" * 16, 3, b"fragment", b"\x01share")
        object_id, _index, fragment, key_share = framing.decode_fragment_message(message)
        assert type(object_id) is bytes  # a store's dict key must not pin the message
        assert fragment.obj is message and key_share.obj is message

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_malformed_fetch_response_is_a_framing_error(self, wrap):
        frame = framing.encode_fetch_response([(2, b"ct"), (1, b"")])
        for cut in range(len(frame)):
            with pytest.raises(FramingError):
                framing.decode_fetch_response(wrap(frame[:cut]))
        with pytest.raises(FramingError):
            framing.decode_fetch_response(wrap(frame + b"\x00"))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_malformed_fragment_message_is_a_framing_error(self, wrap):
        message = framing.encode_fragment_message(b"\x00" * 16, 1, b"AB", b"C")
        for cut in range(len(message)):
            with pytest.raises(FramingError):
                framing.decode_fragment_message(wrap(message[:cut]))
        with pytest.raises(FramingError):
            framing.decode_fragment_message(wrap(message + b"\x00"))


# -- mutated fetch frames ---------------------------------------------------------------
# Real frames, an edge's answer to a real read request, mutated by byte flips, deletions,
# insertions and forged u32 counts and lengths. Each mutant decodes to what the `Reader`-call
# reference gives or raises FramingError, as the reference does; any other exception fails.


@pytest.fixture(scope="module")
def fetch_frames() -> tuple[bytes, bytes]:
    federation = alerted_federation()
    federation.escrow_keypair("provider:P1")
    edge = EdgeCloud(provider_id="P1", key_id="provider:P1", federation=federation, pdr_ttl=40320, rng=Random(0))
    for minute, cls in enumerate((PrecisionClass.FEMTO, PrecisionClass.MACRO, PrecisionClass.PICO, PrecisionClass.FEMTO)):
        phones = tuple(phone(i) for i in range(minute + 1))
        edge.push(PdrSet(minute, station(minute, cls), phones, tuple(1.0 + i for i in range(len(phones))), (0.5,) * len(phones)))
    cert = vet(federation, OperationClass.BLIND_ANALYSIS, {"purpose": "test", "minutes": [0, 10]}, Random(1))
    request = framing.encode_fetch_request(cert.encode(), 0, 10)
    return request, edge.handle_fetch_frame(request)


def mutants(rng: Random, frame: bytes, u32_fields: list[int], count: int):
    """`count` mutants of `frame`: half forge one of its u32 fields (at the given offsets), and each takes up to three byte flips, deletions or insertions, at least one if it forged nothing."""
    for _ in range(count):
        data = bytearray(frame)
        forge = rng.random() < 0.5
        if forge:
            at = rng.choice(u32_fields)
            (true,) = struct.unpack_from(">I", data, at)
            forged = rng.choice((0, max(true - 1, 0), true + 1, true + rng.randint(2, 64), len(frame), 2**32 - 1, rng.randrange(2**32)))
            struct.pack_into(">I", data, at, forged)
        for _ in range(rng.randint(0 if forge else 1, 3)):
            at = rng.randrange(len(data) + 1)
            kind = rng.randrange(3) if at < len(data) else 2
            if kind == 0:
                data[at] ^= 1 << rng.randrange(8)
            elif kind == 1:
                del data[at]
            else:
                data.insert(at, rng.randrange(256))
        yield bytes(data)


def outcome(decode, data: bytes):
    """What `decode` makes of `data`, or FramingError; a response's ciphertext views compare by their bytes."""
    try:
        return decode(data)
    except FramingError:
        return FramingError


class TestMutatedFetchFrames:
    def test_a_mutated_request_decodes_as_the_reference_does(self, fetch_frames):
        request, _response = fetch_frames
        assert outcome(framing.decode_fetch_request, request) == outcome(reference_fetch_request, request) != FramingError
        outcomes = Counter()
        for data in mutants(Random(31), request, [0], 3000):  # the certificate's length prefix
            expected = outcome(reference_fetch_request, data)
            assert outcome(framing.decode_fetch_request, data) == expected
            outcomes[expected is FramingError] += 1
        assert outcomes[False] > 250 and outcomes[True] > 2000

    def test_a_mutated_response_decodes_as_the_reference_does(self, fetch_frames):
        _request, response = fetch_frames
        entries = reference_fetch_response(response)
        assert len(entries) == 4 and outcome(framing.decode_fetch_response, response) == outcome(reference_fetch_response, response)
        lengths, at = [], 4  # each entry's length field, after its class byte
        for _class_value, ciphertext in entries:
            lengths.append(at + 1)
            at += 5 + len(ciphertext)
        outcomes = Counter()
        for data in mutants(Random(32), response, [0, *lengths], 3000):  # the entry count and each entry's length
            expected = outcome(reference_fetch_response, data)
            assert outcome(framing.decode_fetch_response, data) == expected
            outcomes[expected is FramingError] += 1
        assert outcomes[False] > 250 and outcomes[True] > 2000
