"""Systematic Reed-Solomon erasure coding over GF(256).

A payload is striped into k data fragments; n-k parity fragments are field
evaluations of the column polynomials beyond the data points. Any k intact
fragments rebuild the payload; index assignment is the caller's business.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import gf256
from .errors import ParameterError, UnavailableError

_LEN_HDR = struct.Struct(">I")


@dataclass(frozen=True, slots=True)
class Fragment:
    index: int
    data: bytes


def encode(payload: bytes, k: int, n: int) -> list[Fragment]:
    """Produce n fragments of which any k reconstruct `payload`.

    Fragments 0..k-1 are the raw stripes (systematic part); fragments k..n-1
    evaluate each column's degree-<k interpolating polynomial at x = index.
    """
    if not (1 <= k <= n <= 255):
        raise ParameterError(f"need 1 <= k <= n <= 255, got k={k} n={n}")
    stripes = _stripes(payload, k)
    fragments = [Fragment(i, stripes[i]) for i in range(k)]
    for x in range(k, n):
        fragments.append(Fragment(x, gf256.combine(stripes, gf256.lagrange_weights(range(k), x))))
    return fragments


def _stripes(payload: bytes, k: int) -> list[bytes]:
    """Length header, payload and zero padding cut into k equal stripes: written into one buffer, each stripe copied out once."""
    stripe_len = -(-(_LEN_HDR.size + len(payload)) // k)
    framed = bytearray(k * stripe_len)
    _LEN_HDR.pack_into(framed, 0, len(payload))
    framed[_LEN_HDR.size : _LEN_HDR.size + len(payload)] = payload
    view = memoryview(framed)
    return [bytes(view[i * stripe_len : (i + 1) * stripe_len]) for i in range(k)]


def decode(fragments: list[Fragment], k: int) -> bytes:
    """Rebuild the payload from any k distinct fragments.

    Corrupted fragment bytes produce a wrong payload (or a length error when
    the corruption hits the header), never a detected-and-repaired result;
    callers needing Byzantine tolerance must hand in only fragments they
    have verified, e.g. against per-fragment digests taken at encode time.
    The payload is joined once from views of the stripes, past the header and
    short of the padding.
    """
    data = {f.index: f.data for f in fragments}
    if len(data) < k:
        raise UnavailableError(f"need {k} distinct fragments, got {len(data)}")
    xs = sorted(data)[:k]  # every present index below k is among them
    rows = [data[x] for x in xs]
    stripe_len = len(rows[0])
    if any(len(row) != stripe_len for row in rows):
        raise UnavailableError("fragments have mismatched lengths")
    stripes = [data[t] if t in data else gf256.combine(rows, gf256.lagrange_weights(xs, t)) for t in range(k)]
    head = b"".join(stripe[: _LEN_HDR.size] for stripe in stripes)  # starts with the header, whatever the stripe length
    (length,) = _LEN_HDR.unpack_from(head, 0)
    if length > k * stripe_len - _LEN_HDR.size:
        raise UnavailableError("declared payload length exceeds decoded data")
    start, end = _LEN_HDR.size, _LEN_HDR.size + length
    return b"".join(memoryview(stripe)[max(start - i * stripe_len, 0) : max(end - i * stripe_len, 0)] for i, stripe in enumerate(stripes))
