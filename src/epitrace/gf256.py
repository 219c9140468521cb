"""GF(256) arithmetic (AES polynomial 0x11B, generator 3) via log/exp tables.

Scalar `mul`/`div` serve the small weight computations; bulk byte work goes
through one 256x256 product table and `combine`.
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


def mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return EXP[(LOG[a] - LOG[b]) % 255]


# PRODUCT[a, b] == mul(a, b); a row is the multiply-by-a lookup for a byte vector.
_exp = np.array(EXP, dtype=np.uint8)
_log = np.array(LOG, dtype=np.intp)
PRODUCT = _exp[_log[:, None] + _log[None, :]]
PRODUCT[0, :] = 0
PRODUCT[:, 0] = 0


def lagrange_weights(xs: Sequence[int], at: int) -> list[int]:
    """Weights w_i with f(at) = XOR of w_i * f(xs[i]) for any polynomial of degree < len(xs)."""
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = mul(num, at ^ xj)
            den = mul(den, xi ^ xj)
        weights.append(div(num, den))
    return weights


def combine(rows: Sequence[bytes], weights: Sequence[int]) -> bytes:
    """XOR of weights[i] * rows[i], byte by byte; at least one row, all of one length."""
    out = np.zeros(len(rows[0]), dtype=np.uint8)
    for row, w in zip(rows, weights):
        if w:
            out ^= PRODUCT[w][np.frombuffer(row, dtype=np.uint8)]
    return out.tobytes()
