import copy
import math
import pickle
import struct
from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from epitrace.errors import DuplicateRecordError, EpitraceError, ValidationError
from epitrace.federation import OperationClass
from epitrace.records import (
    IMEI_LEN,
    STATION_CODE_LEN,
    BsCode,
    PdrSet,
    PhoneId,
    PrecisionClass,
    decode_pdr_set,
    Sweep,
    encode_pdr_set,
    group_into_sets,
)
from util import group_records, pair_distance, pdr, phone, reference_decode, station


def raw(code: bytes, nr: bytes, imei: bytes, radius: float = 1.0, azimuth: float = 0.5, minute: int = 5) -> bytes:
    """One record in the canonical layout, written out field by field from raw bytes."""
    return (
        code
        + struct.pack(">I", len(nr))
        + nr
        + imei
        + struct.pack(">d", radius)
        + struct.pack(">d", azimuth)
        + struct.pack(">Q", minute)
    )


def wire(code: str, who, radius: float, azimuth: float, minute: int) -> bytes:
    """One record of phone `who` in the canonical layout."""
    return raw(code.encode("ascii"), who.nr.encode("ascii"), who.imei.encode("ascii"), radius, azimuth, minute)


CODE = f"{1:016x}"
FIRST = wire(CODE, phone(1), 1.0, 0.5, 5)


def two_records(second: bytes) -> bytes:
    """A two-record set payload: a valid first record at station CODE, minute 5, then `second`."""
    return struct.pack(">I", 2) + FIRST + second


class TestMakePdr:
    def test_zero_radius_is_valid(self):
        (pdr_set,) = group_records([pdr(station(), phone(2), 0.0, 0.0, 0)])
        assert pdr_set.radii == (0.0,)

    def test_minute_past_first_day_is_valid(self):
        (pdr_set,) = group_records([pdr(station(), phone(3), 1.0, 1.0, 1440)])
        assert pdr_set.minute == 1440

    def test_invalid_phone_rejected(self):
        with pytest.raises(ValidationError):
            PhoneId(nr="", imei="3" * 15)
        with pytest.raises(ValidationError):
            PhoneId(nr="600", imei="123")  # imei too short
        with pytest.raises(ValidationError):
            PhoneId(nr="60x", imei="3" * 15)
        with pytest.raises(ValidationError):
            PhoneId(nr="6²", imei="3" * 15)  # a superscript passes str.isdigit
        with pytest.raises(ValidationError):
            PhoneId(nr="600", imei="3" * 14 + "٣")  # so does an Arabic-Indic digit

    def test_invalid_prox_rejected(self):
        # A set checks the range rule however it was built, and before the
        # phone order: a repeated phone out of range is a range error.
        for radius, azimuth in ((-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (1.0, 2 * math.pi), (1.0, 7.0), (1.0, -0.1)):
            with pytest.raises(ValidationError):
                PdrSet(minute=5, bs=station(1), phones=(phone(1), phone(2)), radii=(1.0, radius), azimuths=(0.0, azimuth))
            with pytest.raises(ValidationError):
                group_records([pdr(station(1), phone(1), 1.0, 0.5, 5), pdr(station(1), phone(2), radius, azimuth, 5)])
            for who in (phone(2), phone(1)):
                with pytest.raises(ValidationError) as err:
                    decode_pdr_set(two_records(wire(CODE, who, radius, azimuth, 5)), PrecisionClass.FEMTO, {}, {})
                assert not isinstance(err.value, DuplicateRecordError)
        with pytest.raises(ValidationError):
            PdrSet(minute=-1, bs=station(1), phones=(phone(1),), radii=(1.0,), azimuths=(0.0,))

    def test_bad_station_code_rejected(self):
        with pytest.raises(ValidationError):
            BsCode(code="XYZ", precision_class=PrecisionClass.MACRO)
        good = "0123456789abcdef"
        bad = (
            "g" + good[1:],  # first character
            good[:7] + "-" + good[8:],  # a middle one
            good[:-1] + " ",  # the last one
            good.upper(),
            good[:7] + "é" + good[8:],
            good[:-1],
            good + "0",
        )
        for code in bad:
            with pytest.raises(ValidationError, match="station code must be 16 lowercase hex chars"):
                BsCode(code=code, precision_class=PrecisionClass.MACRO)
        assert BsCode(code=good, precision_class=PrecisionClass.MACRO).code == good

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("radius", math.nan, "radius must be finite and >= 0, got nan"),
            ("radius", math.inf, "radius must be finite and >= 0, got inf"),
            ("radius", -1.5, "radius must be finite and >= 0, got -1.5"),
            ("azimuth", math.nan, "azimuth must be in [0, 2*pi), got nan"),
            ("azimuth", -0.25, "azimuth must be in [0, 2*pi), got -0.25"),
            ("azimuth", 2 * math.pi, f"azimuth must be in [0, 2*pi), got {2 * math.pi}"),
        ],
    )
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_range_error_names_the_first_offender(self, column, value, message, where):
        # A second, different offender after the first must not be the one named.
        radii, azimuths = [1.0, 2.0, 3.0], [0.5, 1.0, 1.5]
        (radii if column == "radius" else azimuths)[where] = value
        if where < 2:
            radii[2] = -9.0
        phones = (phone(1), phone(2), phone(3))
        with pytest.raises(ValidationError) as err:
            PdrSet(minute=5, bs=station(1), phones=phones, radii=tuple(radii), azimuths=tuple(azimuths))
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            group_records([pdr(station(1), who, r, a, 5) for who, r, a in zip(phones, radii, azimuths)])
        assert str(err.value) == message
        payload = struct.pack(">I", 3) + b"".join(wire(CODE, who, r, a, 5) for who, r, a in zip(phones, radii, azimuths))
        with pytest.raises(ValidationError) as err:
            decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {})
        assert str(err.value) == message

    def test_range_edges_are_valid(self):
        tiny = math.nextafter(2 * math.pi, 0.0)
        pdr_set = PdrSet(5, station(1), (phone(1), phone(2)), (0.0, 1e300), (tiny, 0.0))
        assert pdr_set.radii == (0.0, 1e300) and pdr_set.azimuths == (tiny, 0.0)
        assert PdrSet(5, station(1), (), (), ()).phones == ()


NR_ERROR = "phone nr must be non-empty ASCII digits, got {!r}"
IMEI_ERROR = "imei must be exactly 15 ASCII digits, got {!r}"


class TestWireBytes:
    def test_a_precision_class_is_its_rank_and_its_class_byte(self):
        # Ascending precision; the value is a fetch entry's class byte and the seal's associated data.
        assert {c: c.value for c in PrecisionClass} == {PrecisionClass.MACRO: 0, PrecisionClass.PICO: 1, PrecisionClass.FEMTO: 2}

    def test_an_operation_class_is_its_certificate_class_byte(self):
        assert {c: c.value for c in OperationClass} == {
            OperationClass.LOCK_UNLOCK: 1,
            OperationClass.STRICT_PUSH: 2,
            OperationClass.BLIND_ANALYSIS: 3,
            OperationClass.BLIND_PROCESSING: 4,
            OperationClass.FULL_PROCESSING: 5,
        }

    @pytest.mark.parametrize("class_byte", [-1, 3, 255])
    def test_an_unknown_class_byte_is_a_validation_error(self, class_byte):
        # A fetched set's class arrives as one wire byte, which decode alone turns into a class.
        payload = encode_pdr_set(PdrSet(5, station(1), (phone(0),), (1.0,), (0.5,)), {})
        with pytest.raises(ValidationError, match=f"unknown precision class byte {class_byte}$"):
            decode_pdr_set(payload, class_byte, {}, {})


class TestPhoneId:
    digits = st.text(alphabet="0123456789", min_size=1, max_size=4)
    imeis = st.text(alphabet="0123456789", min_size=IMEI_LEN, max_size=IMEI_LEN)

    @given(st.lists(st.tuples(digits, imeis), max_size=30))
    def test_order_is_nr_then_imei(self, fields):
        phones = [PhoneId(nr, imei) for nr, imei in fields]
        assert [tuple(p) for p in sorted(phones)] == sorted(fields)
        assert [(p.nr, p.imei) for p in phones] == fields

    @given(st.tuples(digits, imeis), st.tuples(digits, imeis))
    def test_hash_and_equality_agree(self, a, b):
        pa, pb = PhoneId(*a), PhoneId(*b)
        assert (pa == pb) == (a == b) == (pa <= pb <= pa)
        if pa == pb:
            assert hash(pa) == hash(pb)
        assert PhoneId(*a) == pa and hash(PhoneId(*a)) == hash(pa)
        assert len({pa, pb, PhoneId(*a)}) == len({a, b})

    def test_is_immutable(self):
        p = phone(1)
        with pytest.raises(AttributeError):
            p.nr = "600000002"
        with pytest.raises(AttributeError):
            p.imei = "3" * IMEI_LEN
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p == phone(1)

    def test_repr(self):
        assert repr(PhoneId("600", "3" * 15)) == "PhoneId(nr='600', imei='333333333333333')"

    def test_copy_and_pickle_round_trip(self):
        p = phone(7)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        for clone in (copy.copy(p), copy.deepcopy(p), *(pickle.loads(pickle.dumps(p, proto)) for proto in protocols)):
            assert type(clone) is PhoneId and clone == p and clone.nr == p.nr and clone.imei == p.imei
        # Every protocol, and copy, rebuild a phone by calling the validating constructor.
        assert {p.__reduce_ex__(proto) for proto in protocols} == {(PhoneId, (p.nr, p.imei))}

    @pytest.mark.parametrize(
        "nr, imei, message",
        [
            ("", "3" * 15, NR_ERROR.format("")),
            ("60x", "3" * 15, NR_ERROR.format("60x")),
            ("6²", "3" * 15, NR_ERROR.format("6²")),
            ("600", "123", IMEI_ERROR.format("123")),
            ("600", "3" * 14 + "٣", IMEI_ERROR.format("3" * 14 + "٣")),
            ("600", "3" * 14 + "x", IMEI_ERROR.format("3" * 14 + "x")),
        ],
    )
    def test_every_construction_path_validates(self, nr, imei, message):
        # Keyword and positional calls, an edited pickle and a decoded payload all reach the same checks.
        # Protocol 0 writes strings unframed, so a real pickle can be edited in place.
        edited = pickle.dumps(PhoneId("600", "3" * 15), 0).replace(b"V600\n", b"V" + nr.encode("raw-unicode-escape") + b"\n")
        edited = edited.replace(b"V" + b"3" * 15 + b"\n", b"V" + imei.encode("raw-unicode-escape") + b"\n")
        calls = (
            lambda: PhoneId(nr=nr, imei=imei),
            lambda: PhoneId(nr, imei),
            lambda: pickle.loads(edited),
        )
        for call in calls:
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == message
        if len(imei.encode("utf-8")) == IMEI_LEN and imei.isascii():
            payload = struct.pack(">I", 1) + raw(CODE.encode("ascii"), nr.encode("utf-8"), imei.encode("ascii"))
            with pytest.raises(ValidationError) as err:
                decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {})
            assert str(err.value) == message


class TestGrouping:
    def test_same_station_same_minute_one_set(self):
        records = [pdr(station(1), phone(i), 1.0, 0.1, 7) for i in range(3)]
        sets = group_records(records)
        assert len(sets) == 1
        assert len(sets[0].phones) == 3
        assert sets[0].minute == 7

    def test_three_minutes_three_sets(self):
        records = [pdr(station(1), phone(0), 1.0, 0.1, m) for m in (1, 2, 3)]
        sets = group_records(records)
        assert [s.minute for s in sets] == [1, 2, 3]
        assert all(len(s.phones) == 1 for s in sets)

    def test_empty_input(self):
        assert group_records([]) == []
        assert group_into_sets(Sweep([], (), (), ())) == []

    def test_duplicate_triple_rejected(self):
        rec = pdr(station(1), phone(0), 1.0, 0.1, 1)
        with pytest.raises(DuplicateRecordError):
            group_records([rec, rec])

    def test_records_sorted_by_phone(self):
        records = [pdr(station(1), phone(i), float(i), 0.1 * i, 7) for i in (3, 1, 2)]
        (pdr_set,) = group_records(records)
        assert pdr_set.phones == (phone(1), phone(2), phone(3))
        assert pdr_set.radii == (1.0, 2.0, 3.0)
        assert pdr_set.azimuths == (0.1, 0.2, 0.1 * 3)

    def test_day_boundary_lands_in_later_set(self):
        records = [pdr(station(1), phone(0), 1.0, 0.1, 1439), pdr(station(1), phone(0), 1.0, 0.1, 1440)]
        sets = group_records(records)
        assert [s.minute for s in sets] == [1439, 1440]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 10)),
            unique=True,
            max_size=40,
        )
    )
    def test_group_then_flatten_is_permutation(self, triples):
        records = [pdr(station(b), phone(p), 1.0 + p, 0.5, m) for b, p, m in triples]
        sets = group_records(records)
        flattened = [
            (s.bs, p, s.minute, r, a) for s in sets for p, r, a in zip(s.phones, s.radii, s.azimuths)
        ]
        assert sorted(flattened, key=lambda t: (t[0].code, t[1], t[2])) == sorted(
            ((r.bs, r.phone, r.t_pdr, r.radius, r.azimuth) for r in records),
            key=lambda t: (t[0].code, t[1], t[2]),
        )

    def test_a_sweep_is_cut_into_one_set_per_run(self):
        bs1, bs2 = station(1), station(2)
        phones = (phone(1), phone(3), phone(2), phone(1))
        sweep = Sweep([(4, bs1, 2), (4, bs2, 1), (5, bs1, 1)], phones, (1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4))
        assert len(sweep) == 4
        assert group_into_sets(sweep) == [
            PdrSet(4, bs1, (phone(1), phone(3)), (1.0, 2.0), (0.1, 0.2)),
            PdrSet(4, bs2, (phone(2),), (3.0,), (0.3,)),
            PdrSet(5, bs1, (phone(1),), (4.0,), (0.4,)),
        ]

    def test_a_phone_read_twice_in_one_run_is_rejected(self):
        with pytest.raises(DuplicateRecordError):
            group_into_sets(Sweep([(1, station(1), 2)], (phone(0), phone(0)), (1.0, 1.0), (0.1, 0.1)))


class TestPairDistance:
    @given(
        st.floats(0, 100), st.floats(0, 6.28), st.floats(0, 100), st.floats(0, 6.28)
    )
    def test_matches_euclidean(self, r1, a1, r2, a2):
        v1, v2 = pdr(station(), phone(1), r1, a1, 0), pdr(station(), phone(2), r2, a2, 0)
        p1 = (r1 * math.cos(a1), r1 * math.sin(a1))
        p2 = (r2 * math.cos(a2), r2 * math.sin(a2))
        assert pair_distance(v1, v2) == pytest.approx(math.dist(p1, p2), abs=1e-9)

    def test_close_phones_keep_precision(self):
        # 2 * 19 * sin(5e-7); the cosine form of the law lost 1e-4 of it to cancellation.
        v1, v2 = pdr(station(), phone(1), 19.0, 0.0, 0), pdr(station(), phone(2), 19.0, 1e-6, 0)
        assert pair_distance(v1, v2) == pytest.approx(1.9e-5, rel=1e-12)

    @given(st.floats(0, 100), st.floats(0, 6.28), st.floats(0, 100), st.floats(0, 6.28))
    def test_bitwise_commutative(self, r1, a1, r2, a2):
        v1, v2 = pdr(station(), phone(1), r1, a1, 0), pdr(station(), phone(2), r2, a2, 0)
        assert pair_distance(v1, v2) == pair_distance(v2, v1)


class TestSerialization:
    def test_canonical_layout_is_bit_exact(self):
        bs = BsCode(code="00deadbeef00cafe", precision_class=PrecisionClass.PICO)
        records = [pdr(bs, phone(2), 3.0, 0.75, 99), pdr(bs, PhoneId(nr="600000001", imei="350000000000001"), 12.5, 1.25, 99)]
        blob = encode_pdr_set(group_records(records)[0], {})
        expected = (
            struct.pack(">I", 2)
            + b"00deadbeef00cafe"
            + struct.pack(">I", 9)
            + b"600000001"
            + b"350000000000001"
            + struct.pack(">d", 12.5)
            + struct.pack(">d", 1.25)
            + struct.pack(">Q", 99)
            + wire("00deadbeef00cafe", phone(2), 3.0, 0.75, 99)
        )
        assert blob == expected

    def test_set_round_trip(self):
        bs = station(4, PrecisionClass.MACRO)
        (original,) = group_records(pdr(bs, phone(i), float(i), 0.25 * i, 11) for i in (3, 0, 2, 1))
        decoded = decode_pdr_set(encode_pdr_set(original, {}), PrecisionClass.MACRO, {}, {})
        assert decoded == original

    def test_serialized_bytes_reveal_no_coordinates(self):
        # The registry places this station at a known point; its serialized
        # records must not contain those coordinates in any obvious encoding.
        centroid = (123.456, 789.012)
        blob = encode_pdr_set(group_records([pdr(station(5), phone(1), 3.0, 0.5, 2)])[0], {})
        for value in centroid:
            assert struct.pack(">d", value) not in blob
            assert struct.pack("<d", value) not in blob
            assert str(value).encode() not in blob

    def test_set_rejects_foreign_records(self):
        for foreign in (wire(f"{2:016x}", phone(2), 1.0, 0.5, 5), wire(CODE, phone(2), 1.0, 0.5, 6)):
            with pytest.raises(ValidationError):
                decode_pdr_set(two_records(foreign), PrecisionClass.FEMTO, {}, {})

    def test_set_rejects_duplicate_phone(self):
        with pytest.raises(DuplicateRecordError):
            decode_pdr_set(two_records(wire(CODE, phone(1), 2.0, 0.1, 5)), PrecisionClass.FEMTO, {}, {})
        with pytest.raises(DuplicateRecordError):
            PdrSet(minute=5, bs=station(1), phones=(phone(1), phone(1)), radii=(1.0, 2.0), azimuths=(0.0, 0.1))

    def test_set_rejects_phones_out_of_order(self):
        with pytest.raises(ValidationError):
            decode_pdr_set(two_records(wire(CODE, phone(0), 1.0, 0.5, 5)), PrecisionClass.FEMTO, {}, {})
        with pytest.raises(ValidationError):
            PdrSet(minute=5, bs=station(1), phones=(phone(2), phone(1)), radii=(1.0, 2.0), azimuths=(0.0, 0.1))

    def test_set_rejects_unequal_columns(self):
        with pytest.raises(ValidationError):
            PdrSet(minute=5, bs=station(1), phones=(phone(1), phone(2)), radii=(1.0,), azimuths=(0.0, 0.1))

    def test_decode_rejects_empty_set_and_trailing_bytes(self):
        code, nr, imei = CODE.encode("ascii"), phone(1).nr.encode("ascii"), phone(1).imei.encode("ascii")
        malformed = (
            struct.pack(">I", 0),
            struct.pack(">I", 1) + FIRST + b"\x00",
            b"\x00\x00",  # shorter than the count
            struct.pack(">I", 3) + FIRST[:30],  # three records announced, part of one present
            struct.pack(">I", 1) + code + struct.pack(">I", 1000) + nr,  # nr runs past the end
            struct.pack(">I", 1) + raw(code, b"\xff\xfe", imei),  # nr is not UTF-8
            struct.pack(">I", 1) + raw(code, nr, "3500000000000é".encode("utf-8")),  # non-ASCII IMEI
            struct.pack(">I", 1) + raw("000000000000000é".encode("utf-8")[:16], nr, imei),  # non-ASCII station
        )
        for payload in malformed:
            with pytest.raises(ValidationError):
                decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {})


class TestEncodePhoneCache:
    def test_cache_gives_the_same_bytes(self):
        sets = [
            PdrSet(7, station(2), (phone(2), phone(3)), (1.0, 2.0), (0.0, 0.1)),
            PdrSet(8, station(3), (phone(1), phone(3), phone(4)), (0.5, 2.5, 3.0), (0.2, 0.3, 6.0)),
        ]
        phones = {}
        for pdr_set in sets:
            assert encode_pdr_set(pdr_set, phones) == encode_pdr_set(pdr_set, {})
        assert sorted(phones) == [phone(1), phone(2), phone(3), phone(4)]
        for who, fields in phones.items():
            assert fields == struct.pack(">I", len(who.nr)) + who.nr.encode("ascii") + who.imei.encode("ascii")


class TestDecodePhoneCache:
    def test_sets_decoded_with_one_dict_share_phones(self):
        phones = {}
        a = decode_pdr_set(two_records(wire(CODE, phone(2), 3.0, 0.5, 5)), PrecisionClass.FEMTO, phones, {})
        b = decode_pdr_set(encode_pdr_set(PdrSet(7, station(2), (phone(2), phone(3)), (1.0, 2.0), (0.0, 0.1)), {}), PrecisionClass.FEMTO, phones, {})
        assert a.phones == (phone(1), phone(2)) and b.phones == (phone(2), phone(3))
        assert b.phones[0] is a.phones[1]
        assert set(phones.values()) == {phone(1), phone(2), phone(3)}

    def test_cut_short_inside_a_cached_phone_still_raises(self):
        phones = {}
        decode_pdr_set(two_records(wire(CODE, phone(2), 3.0, 0.5, 5)), PrecisionClass.FEMTO, phones, {})
        second = wire(CODE, phone(2), 3.0, 0.5, 5)
        for cut in range(STATION_CODE_LEN + 1, STATION_CODE_LEN + 4 + len(phone(2).nr) + IMEI_LEN):
            with pytest.raises(ValidationError):
                decode_pdr_set(two_records(second[:cut]), PrecisionClass.FEMTO, phones, {})
        assert len(phones) == 2

    def test_bad_nr_text_still_raises_and_is_not_cached(self):
        phones = {}
        for nr in (b"6000000x1", b"", b"6000 0001", b"-60000001", "6²".encode("utf-8")):
            with pytest.raises(ValidationError):
                decode_pdr_set(struct.pack(">I", 1) + raw(CODE.encode("ascii"), nr, phone(1).imei.encode("ascii")), PrecisionClass.FEMTO, phones, {})
        assert phones == {}


def mixed_phone(i: int, nr_len: int) -> PhoneId:
    """A phone whose nr is `nr_len` digits."""
    return PhoneId(nr=f"{6 * 10 ** (nr_len - 1) + i:d}", imei=f"{350000000000000 + i:015d}")


class TestBulkDecode:
    """The bulk decoder against `reference_decode`, the per-record loop it replaced."""

    def test_mixed_nr_lengths_decode_record_by_record(self):
        # Lengths 9, 8, 10 sum to three records of the first's stride, so the bulk read fits the payload
        # and only the records' own lengths show that it misreads them.
        for lengths in ((9, 8, 10), (9, 12), (3, 9, 9, 9)):
            phones = tuple(sorted(mixed_phone(i, n) for i, n in enumerate(lengths)))
            original = PdrSet(5, station(1), phones, tuple(float(i) for i in range(len(phones))), (0.5,) * len(phones))
            payload = encode_pdr_set(original, {})
            assert decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {}) == reference_decode(payload, PrecisionClass.FEMTO) == original

    def test_a_count_far_beyond_the_payload_is_a_validation_error(self):
        one = encode_pdr_set(PdrSet(5, station(1), (phone(1),), (1.0,), (0.5,)), {})
        for count in (2, 1000, 2**32 - 1):
            payload = struct.pack(">I", count) + one[4:]
            for decode in (lambda: decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {}), lambda: reference_decode(payload, PrecisionClass.FEMTO)):
                with pytest.raises(ValidationError):
                    decode()

    def test_a_set_check_raises_its_own_type_from_both(self):
        first = wire(CODE, phone(2), 1.0, 0.5, 5)
        cases = (
            (wire(CODE, phone(2), 2.0, 0.1, 5), DuplicateRecordError),
            (wire(CODE, phone(1), 2.0, 0.1, 5), ValidationError),  # out of phone order
            (wire(CODE, phone(3), -2.0, 0.1, 5), ValidationError),  # out of range
        )
        for second, error in cases:
            payload = struct.pack(">I", 2) + first + second
            for decode in (lambda: decode_pdr_set(payload, PrecisionClass.FEMTO, {}, {}), lambda: reference_decode(payload, PrecisionClass.FEMTO)):
                with pytest.raises(error) as err:
                    decode()
                assert type(err.value) is error

    def test_a_stations_cache_shares_one_code_per_station_and_class(self):
        stations = {}
        sets = [PdrSet(m, station(1), (phone(1), phone(2)), (1.0, 2.0), (0.0, 0.1)) for m in range(3)]
        decoded = [decode_pdr_set(encode_pdr_set(s, {}), PrecisionClass.FEMTO, {}, stations) for s in sets]
        assert decoded == sets and len({id(s.bs) for s in decoded}) == 1
        macro = decode_pdr_set(encode_pdr_set(sets[0], {}), PrecisionClass.MACRO, {}, stations)
        assert macro.bs == BsCode(station(1).code, PrecisionClass.MACRO) and len(stations) == 2

    def test_mutated_plaintexts_decode_as_the_reference_does(self):
        # Seeded: 3,000 plaintexts, each with 1-4 byte flips, deletions or insertions and sometimes another class
        # byte. Each decodes to the reference's set or raises the reference's EpitraceError type, and nothing else.
        rng = Random(9)
        bases = []
        for k in range(12):
            n = rng.randint(1, 20)
            who = sorted({mixed_phone(rng.randrange(500), rng.choice((8, 9, 9, 9, 11))) for _ in range(n)})
            readings = [(rng.uniform(0.0, 60.0), rng.uniform(0.0, 6.28)) for _ in who]
            bases.append(encode_pdr_set(PdrSet(rng.randrange(2000), station(k % 4), tuple(who), *map(tuple, zip(*readings))), {}))
        phones, stations = {}, {}  # shared across the fuzz, as across one fetch
        outcomes = Counter()
        for _ in range(3000):
            data = bytearray(rng.choice(bases))
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(len(data))
                kind = rng.randrange(3)
                if kind == 0:
                    data[at] ^= 1 << rng.randrange(8)
                elif kind == 1:
                    del data[at]
                else:
                    data.insert(at, rng.randrange(256))
            class_byte = rng.choice((0, 1, 2, 2, 2, 3, 255))
            try:
                expected = reference_decode(bytes(data), class_byte)
            except EpitraceError as exc:
                expected = type(exc)
            try:
                decoded = decode_pdr_set(bytes(data), class_byte, phones, stations)
            except EpitraceError as exc:
                decoded = type(exc)
            assert decoded == expected
            outcomes[expected if isinstance(expected, type) else PdrSet] += 1
        assert outcomes[PdrSet] > 50 and outcomes[ValidationError] > 2000
