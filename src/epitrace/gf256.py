"""GF(256) arithmetic (AES polynomial 0x11B, generator 3) through one product table.

The 256x256 table `PRODUCT` is built once from log/exp tables; every field
multiplication, scalar or bulk, is a lookup in it, and division multiplies by
a row of `INVERSE`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

EXP = [0] * 512
LOG = [0] * 256
_x = 1
for _i in range(255):
    EXP[_i] = _x
    LOG[_x] = _i
    _x ^= (_x << 1) ^ (0x1B if _x & 0x80 else 0)
    _x &= 0xFF
for _i in range(255, 512):
    EXP[_i] = EXP[_i - 255]

# PRODUCT[a, b] is a * b in the field; a row is the multiply-by-a lookup for a byte vector.
_exp = np.array(EXP, dtype=np.uint8)
_log = np.array(LOG, dtype=np.intp)
PRODUCT = _exp[_log[:, None] + _log[None, :]]
PRODUCT[0, :] = 0
PRODUCT[:, 0] = 0
# INVERSE[a] * a == 1 for every a != 0; zero has no inverse and maps to 0.
INVERSE = _exp[255 - _log]
INVERSE[0] = 0


def lagrange_weights(xs: Sequence[int], at: int) -> list[int]:
    """Weights w_i with f(at) = XOR of w_i * f(xs[i]) for any polynomial of degree < len(xs); xs must be distinct."""
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = PRODUCT[num, at ^ xj]
            den = PRODUCT[den, xi ^ xj]
        if not den:
            raise ZeroDivisionError(f"x-coordinate {xi} repeats")
        weights.append(int(PRODUCT[num, INVERSE[den]]))
    return weights


def combine(rows: Sequence[bytes], weights: Sequence[int]) -> bytes:
    """XOR of weights[i] * rows[i], byte by byte; at least one row, all of one length."""
    out = np.zeros(len(rows[0]), dtype=np.uint8)
    for row, w in zip(rows, weights):
        if w:
            out ^= PRODUCT[w][np.frombuffer(row, dtype=np.uint8)]
    return out.tobytes()
