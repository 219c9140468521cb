"""Byte-wise Shamir secret sharing over GF(256).

Shares carry x-coordinates 1..n; any `threshold` of them reconstruct the
secret by Lagrange interpolation at x = 0, fewer reveal nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import framing, gf256
from .errors import ParameterError, ReconstructionError


@dataclass(frozen=True, slots=True)
class Share:
    """One participant's share: x-coordinate plus one byte per secret byte."""

    x: int
    data: bytes

    def to_bytes(self) -> bytes:
        """The share as stored and digested: x as one byte, then the data."""
        return framing.u8(self.x) + self.data

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Share":
        """The share `to_bytes` wrote into `blob`."""
        return cls(x=blob[0], data=blob[1:])


def split_secret(secret: bytes, threshold: int, n: int, rng: Random) -> list[Share]:
    """Split `secret` into n shares such that any `threshold` reconstruct it.

    The polynomial coefficients are drawn from `rng`, so seeded scenarios replay.
    """
    if not (1 <= threshold <= n <= 255):
        raise ParameterError(f"need 1 <= threshold <= n <= 255, got threshold={threshold} n={n}")
    # Each secret byte draws its threshold-1 higher coefficients in turn; row j
    # gathers every byte's x**j coefficient, row 0 being the secret itself.
    coeffs = bytes(rng.randrange(256) for _ in range(len(secret) * (threshold - 1)))
    rows = [secret, *(coeffs[j :: threshold - 1] for j in range(threshold - 1))]
    shares = []
    for x in range(1, n + 1):
        powers = [1]
        for _ in range(threshold - 1):
            powers.append(int(gf256.PRODUCT[powers[-1], x]))
        shares.append(Share(x=x, data=gf256.combine(rows, powers)))
    return shares


def reconstruct_secret(shares: list[Share]) -> bytes:
    """Combine shares by Lagrange interpolation at x = 0.

    With at least `threshold` shares from one sharing this returns the original
    secret; mixing sharings or handing in too few yields garbage, not an error,
    exactly as the underlying mathematics behaves.
    """
    if not shares:
        raise ReconstructionError("no shares supplied")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ReconstructionError("duplicate share x-coordinates")
    length = len(shares[0].data)
    if any(len(s.data) != length for s in shares):
        raise ReconstructionError("shares have mismatched lengths")
    return gf256.combine([s.data for s in shares], gf256.lagrange_weights(xs, 0))
