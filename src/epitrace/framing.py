"""Canonical length-prefixed binary framing for all inter-node messages.

Primitives: unsigned big-endian integers (u8/u32), u32-length-prefixed byte
strings, and the fixed-width heads of the fetch messages, each one
`struct.Struct` that the encoder packs and the decoder reads with one
`Reader.unpack`. Every wire message in the repo (analysis-network fetch,
certificates, vault fragments) is a fixed concatenation of these, so any two
encoders produce identical bytes. JSON that is hashed, signed or written as an
artifact goes through `canonical_json`, for the same reason.

The two bulk messages, the fetch response and the vault fragment message, copy
each payload once: the encoder joins the caller's buffers straight into the
frame, and the decoder hands back `memoryview`s of the frame, which the
receiver opens or copies into its own store.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from .errors import FramingError


def canonical_json(obj: Any) -> bytes:
    """The one JSON layout that every digest, signature and artifact is taken over: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")


class Reader:
    """Sequential decoder over one message buffer; over a `memoryview`, `raw` slices are views too."""

    def __init__(self, data: bytes | memoryview):
        self._data = data
        self._off = 0

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def unpack(self, layout: struct.Struct) -> tuple:
        """The fields of one fixed-width `layout` at the read position."""
        if self._off + layout.size > len(self._data):
            raise FramingError("message truncated")
        out = layout.unpack_from(self._data, self._off)
        self._off += layout.size
        return out

    def raw(self, n: int) -> bytes | memoryview:
        if self._off + n > len(self._data):
            raise FramingError("message truncated")
        out = self._data[self._off : self._off + n]
        self._off += n
        return out

    def lp_bytes(self) -> bytes | memoryview:
        return self.raw(self.u32())

    def done(self) -> None:
        if self._off != len(self._data):
            raise FramingError(f"{len(self._data) - self._off} trailing bytes")


def u8(v: int) -> bytes:
    return _U8.pack(v)


def u32(v: int) -> bytes:
    return _U32.pack(v)


def lp_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


# -- vault fragment wire message ---------------------------------------------
# object-id (16 bytes) || fragment index (u8) || lp fragment || lp key share


def encode_fragment_message(object_id: bytes, index: int, fragment: bytes, key_share: bytes) -> bytes:
    if len(object_id) != 16:
        raise FramingError("object id must be 16 bytes")
    return b"".join((object_id, u8(index), u32(len(fragment)), fragment, u32(len(key_share)), key_share))


def decode_fragment_message(data: bytes) -> tuple[bytes, int, memoryview, memoryview]:
    """Object id, index, and the fragment and key share as views of `data`."""
    r = Reader(memoryview(data))
    object_id = bytes(r.raw(16))
    index = r.u8()
    fragment = r.lp_bytes()
    key_share = r.lp_bytes()
    r.done()
    return object_id, index, fragment, key_share


# -- edge fetch request/response ----------------------------------------------
# request:  lp certificate (verbatim) || minute start (u64) || minute end (u64)
# response: entry count (u32) || [precision class (u8) || lp ciphertext] * count;
#           a set's minute and station code travel only inside its ciphertext,
#           which authenticates the class byte as associated data

_MINUTES = struct.Struct(">QQ")  # a request's minute range: start, end
_ENTRY_HEAD = struct.Struct(">BI")  # an entry up to its ciphertext: class, length


def encode_fetch_request(cert_blob: bytes, minute_start: int, minute_end: int) -> bytes:
    return lp_bytes(cert_blob) + _MINUTES.pack(minute_start, minute_end)


def decode_fetch_request(data: bytes) -> tuple[bytes, int, int]:
    r = Reader(data)
    cert_blob = r.lp_bytes()
    start, end = r.unpack(_MINUTES)
    r.done()
    return cert_blob, start, end


def encode_fetch_response(entries: list[tuple[int, bytes]]) -> bytes:
    """The response frame; each ciphertext is copied once, straight into the frame."""
    parts = [u32(len(entries))]
    for class_value, ciphertext in entries:
        parts += (_ENTRY_HEAD.pack(class_value, len(ciphertext)), ciphertext)
    return b"".join(parts)


def decode_fetch_response(data: bytes) -> list[tuple[int, memoryview]]:
    """The (class, ciphertext) entries of a response frame, each ciphertext a view of `data`."""
    r = Reader(memoryview(data))
    out = []
    for _ in range(r.u32()):
        class_value, length = r.unpack(_ENTRY_HEAD)
        out.append((class_value, r.raw(length)))
    r.done()
    return out
