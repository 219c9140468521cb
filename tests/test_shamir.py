import hashlib
import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from epitrace.errors import ParameterError, ReconstructionError
from epitrace.shamir import reconstruct_secret, split_secret


class TestSplit:
    def test_degenerate_threshold_one(self):
        secret = b"\x01\x02\x03"
        shares = split_secret(secret, 1, 3, Random(0))
        for share in shares:
            assert reconstruct_secret([share]) == secret

    def test_all_threshold_subsets_reconstruct(self):
        secret = Random(1).randbytes(32)
        shares = split_secret(secret, 3, 5, Random(2))
        subsets = list(itertools.combinations(shares, 3))
        assert len(subsets) == 10
        for subset in subsets:
            assert reconstruct_secret(list(subset)) == secret

    def test_below_threshold_reveals_nothing(self):
        # Statistical check over 100 trials: no 2-subset of a 3-of-5 sharing
        # reproduces the secret.
        rng = Random(3)
        for _ in range(100):
            secret = rng.randbytes(16)
            shares = split_secret(secret, 3, 5, rng)
            for subset in itertools.combinations(shares, 2):
                assert reconstruct_secret(list(subset)) != secret

    def test_threshold_above_n_rejected(self):
        with pytest.raises(ParameterError):
            split_secret(b"s", 4, 3, Random(0))
        with pytest.raises(ParameterError):
            split_secret(b"s", 0, 3, Random(0))
        with pytest.raises(ParameterError):
            split_secret(b"s", 2, 300, Random(0))

    def test_share_coordinates_are_one_based(self):
        shares = split_secret(b"abc", 2, 4, Random(4))
        assert [s.x for s in shares] == [1, 2, 3, 4]


class TestReconstruct:
    def test_round_trip_any_two_of_three(self):
        secret = b"the-key"
        shares = split_secret(secret, 2, 3, Random(5))
        for subset in itertools.combinations(shares, 2):
            assert reconstruct_secret(list(subset)) == secret

    def test_duplicate_share_index_rejected(self):
        shares = split_secret(b"x" * 8, 2, 3, Random(6))
        with pytest.raises(ReconstructionError):
            reconstruct_secret([shares[0], shares[0]])

    def test_mixed_sharings_give_garbage(self):
        rng = Random(7)
        secret = rng.randbytes(24)
        first = split_secret(secret, 2, 3, rng)
        second = split_secret(secret, 2, 3, rng)
        mixed = reconstruct_secret([first[0], second[1]])
        assert mixed != secret

    def test_no_shares_rejected(self):
        with pytest.raises(ReconstructionError):
            reconstruct_secret([])

    def test_mismatched_lengths_rejected(self):
        a = split_secret(b"abcd", 2, 3, Random(8))
        b = split_secret(b"ab", 2, 3, Random(9))
        with pytest.raises(ReconstructionError):
            reconstruct_secret([a[0], b[1]])

    @settings(max_examples=50)
    @given(
        st.binary(min_size=0, max_size=64),
        st.integers(1, 6),
        st.integers(0, 2**32),
    )
    def test_round_trip_property(self, secret, threshold, seed):
        n = threshold + 2
        shares = split_secret(secret, threshold, n, Random(seed))
        picked = Random(seed + 1).sample(shares, threshold)
        assert reconstruct_secret(picked) == secret


class TestKnownAnswers:
    def test_shares_match_recorded_digests(self):
        # SHA-256 of each share as produced by per-byte Horner evaluation; pins
        # the field, the coefficient draw order and the x-coordinates.
        shares = split_secret(Random(8).randbytes(32), 3, 4, Random(9))
        assert [s.x for s in shares] == [1, 2, 3, 4]
        assert [hashlib.sha256(s.data).hexdigest() for s in shares] == [
            "b9ce5fdb34b914a69c0cfdacd88f10b79ff2ee3bb140ef0dc1abd85e7396138d",
            "6d3a49a70b75c36df339f8c6678a099c53333c70c54413324d8be3f3238320cd",
            "4ff8c91f2bcebee7364757dda70af5b3d0719c7bda07040517b7cf9596c9f8af",
            "fad06078df2696673dfb30cd1471b4c9935666c32f8da59f99703f04bac9e3e0",
        ]
