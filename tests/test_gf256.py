from epitrace import gf256


class TestProductTable:
    def test_every_pair_matches_scalar_mul(self):
        table = gf256.PRODUCT.tolist()
        mismatches = [(a, b) for a in range(256) for b in range(256) if table[a][b] != gf256.mul(a, b)]
        assert mismatches == []

