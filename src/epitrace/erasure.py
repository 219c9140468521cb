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
    framed = _LEN_HDR.pack(len(payload)) + payload
    stripe_len = -(-len(framed) // k)
    framed = framed.ljust(k * stripe_len, b"\x00")
    stripes = [framed[i * stripe_len : (i + 1) * stripe_len] for i in range(k)]
    fragments = [Fragment(i, stripes[i]) for i in range(k)]
    for x in range(k, n):
        fragments.append(Fragment(x, gf256.combine(stripes, gf256.lagrange_weights(range(k), x))))
    return fragments


def decode(fragments: list[Fragment], k: int) -> bytes:
    """Rebuild the payload from any k distinct fragments.

    Corrupted fragment bytes produce a wrong payload (or a length error when
    the corruption hits the header), never a detected-and-repaired result;
    callers needing Byzantine tolerance must hand in only fragments they
    have verified, e.g. against per-fragment digests taken at encode time.
    """
    frags = {f.index: f for f in fragments}
    if len(frags) < k:
        raise UnavailableError(f"need {k} distinct fragments, got {len(frags)}")
    chosen = [frags[i] for i in sorted(frags)][:k]
    chosen_map = {f.index: f for f in chosen}
    stripe_len = len(chosen[0].data)
    if any(len(f.data) != stripe_len for f in chosen):
        raise UnavailableError("fragments have mismatched lengths")
    xs = [f.index for f in chosen]
    stripes: list[bytes] = []
    for target in range(k):
        if target in chosen_map:
            stripes.append(chosen_map[target].data)
            continue
        stripes.append(gf256.combine([f.data for f in chosen], gf256.lagrange_weights(xs, target)))
    framed = b"".join(stripes)
    (length,) = _LEN_HDR.unpack_from(framed, 0)
    if length > len(framed) - _LEN_HDR.size:
        raise UnavailableError("declared payload length exceeds decoded data")
    return framed[_LEN_HDR.size : _LEN_HDR.size + length]

