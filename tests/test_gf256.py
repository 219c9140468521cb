import hashlib
from random import Random

import pytest

from epitrace import erasure, gf256
from epitrace.shamir import split_secret


def bitwise_mul(a: int, b: int) -> int:
    """Shift-and-add multiplication reduced mod x^8 + x^4 + x^3 + x + 1 (0x11B), independent of the tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return out


class TestProductTable:
    def test_every_pair_matches_scalar_mul(self):
        table = gf256.PRODUCT.tolist()
        mismatches = [(a, b) for a in range(256) for b in range(256) if table[a][b] != bitwise_mul(a, b)]
        assert mismatches == []

    def test_fips_197_example(self):
        assert gf256.PRODUCT[0x57, 0x83] == 0xC1
        assert bitwise_mul(0x57, 0x83) == 0xC1

    def test_every_nonzero_element_has_its_inverse(self):
        assert [int(gf256.PRODUCT[a, gf256.INVERSE[a]]) for a in range(1, 256)] == [1] * 255

    def test_repeated_x_coordinate_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            gf256.lagrange_weights([1, 2, 1], 0)


# sha256 over (index byte || data) of every piece, for fixed inputs: vault bytes
# appear in no artifact, so these pin the field arithmetic behind them.
PAYLOAD = bytes(range(256)) * 3 + b"vault"
FRAGMENT_DIGESTS = {
    (1, 1): "f7eb07e8298361f183b373f9ce3ff1305a2a5f5ad23bcf6d589d45f1bed17bac",
    (2, 4): "cbde587372111a0892074ecb59efe507da2da1660d70a0590231c2bbec3e5038",
    (3, 7): "d690763c267dcf3f3848e85896ba9fb271b7241e9778b322a161ed9b6d46d212",
    (8, 16): "e23e6efc434815b87fc9c8a18fcc0a23b6713e2675999f0c9c861d2d0aa5dc37",
    (4, 255): "4f5b3f100479d2d9b33412703b3744011c471c4f396396baa7f1b1b6db335cd1",
}
SHARE_DIGESTS = {
    (1, 1): "491176b0f443c65a7c7d72df47d6cbc0d04e111fb5a619f60d3e77677ab6f919",
    (2, 3): "ce5a8b5ea20db594a9c4c95b6cb050853faad679f675904343b76406b9b157c0",
    (3, 5): "5ae3338f37644edc3c280620036ef75ece47401122aadeaced4b3dc9ab11b78e",
    (5, 7): "af026a667103ad688e4a826ea84c8bf31fa442aa65fbecad9f4cde64aa29b62e",
    (4, 255): "84bffbd638d2290c06b6c4c143006bae0cae865c705b55546d2b821b4a07c777",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("k, n", sorted(FRAGMENT_DIGESTS))
    def test_erasure_fragments(self, k, n):
        h = hashlib.sha256()
        for fragment in erasure.encode(PAYLOAD, k, n):
            h.update(bytes([fragment.index]) + fragment.data)
        assert h.hexdigest() == FRAGMENT_DIGESTS[k, n]

    @pytest.mark.parametrize("threshold, n", sorted(SHARE_DIGESTS))
    def test_shamir_shares(self, threshold, n):
        h = hashlib.sha256()
        for share in split_secret(PAYLOAD[:32], threshold, n, Random(0)):
            h.update(bytes([share.x]) + share.data)
        assert h.hexdigest() == SHARE_DIGESTS[threshold, n]
