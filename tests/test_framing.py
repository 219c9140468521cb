import pytest

from epitrace import framing
from epitrace.errors import FramingError
from epitrace.federation import QuorumCertificate


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
        entries = [(7, "00" * 8, 2, b"ct-1"), (8, "ff" * 8, 0, b"ct-2")]
        blob = framing.encode_fetch_response(entries)
        assert framing.decode_fetch_response(blob) == entries

    def test_empty_response(self):
        assert framing.decode_fetch_response(framing.encode_fetch_response([])) == []

    def test_truncated_request(self):
        blob = framing.encode_fetch_request(b"cert", 1, 2)
        with pytest.raises(FramingError):
            framing.decode_fetch_request(blob[:-3])

    def test_non_ascii_station_code_rejected(self):
        blob = bytearray(framing.encode_fetch_response([(7, "00" * 8, 2, b"ct")]))
        blob[12] = 0xFF  # first byte of the station code, after count (4) and minute (8)
        with pytest.raises(FramingError):
            framing.decode_fetch_response(bytes(blob))


class TestCertificateMessage:
    def test_unknown_operation_class_rejected(self):
        with pytest.raises(FramingError):
            QuorumCertificate.decode(bytes(48) + bytes([9, 3, 0]))
