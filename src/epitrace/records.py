"""Proximity detail records: the per-minute relative-position unit of the system.

A record ties one phone to one base station for one clock minute, carrying only
a polar offset from the station's antenna centroid; records travel as sets,
one station's records of one minute held as columns. Nothing here encodes an
absolute position; the station-code-to-coordinate mapping lives exclusively in
the provider registry.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import DuplicateRecordError, ValidationError

TWO_PI = 2.0 * math.pi

STATION_CODE_LEN = 16  # hex characters
IMEI_LEN = 15


class PrecisionClass(IntEnum):
    """Station measurement-precision class; smaller cells measure tighter.

    The value is the class's rank, higher = more precise, and its byte on the
    wire: the fetch entry's class byte and the seal's associated data.
    """

    MACRO = 0
    PICO = 1
    FEMTO = 2


class PhoneId(tuple):
    """National number + device identifier, as the tuple (nr, imei).

    Being a tuple, a phone hashes, compares and orders as (nr, imei) in C: sets,
    dict keys, sorts and bisects of phones run no Python-level method. Every
    construction path validates, copy and pickle included (`__reduce__`).
    """

    __slots__ = ()

    def __new__(cls, nr: str, imei: str) -> "PhoneId":
        # str.isdigit also accepts superscripts and other scripts' digits, so ASCII is checked first.
        if not (nr.isascii() and nr.isdigit()):
            raise ValidationError(f"phone nr must be non-empty ASCII digits, got {nr!r}")
        if len(imei) != IMEI_LEN or not (imei.isascii() and imei.isdigit()):
            raise ValidationError(f"imei must be exactly {IMEI_LEN} ASCII digits, got {imei!r}")
        return tuple.__new__(cls, (nr, imei))

    nr = property(operator.itemgetter(0))
    imei = property(operator.itemgetter(1))

    def __reduce__(self) -> tuple[type, tuple[str, str]]:
        # `__getnewargs__` would serve pickle protocols 2+ only; 0 and 1 would rebuild the tuple unchecked.
        return PhoneId, tuple(self)

    def __repr__(self) -> str:
        return f"PhoneId(nr={self[0]!r}, imei={self[1]!r})"


@dataclass(frozen=True, slots=True)
class BsCode:
    """Opaque station token. The code never reveals coordinates."""

    code: str
    precision_class: PrecisionClass

    def __post_init__(self) -> None:
        if len(self.code) != STATION_CODE_LEN or self.code.strip("0123456789abcdef"):
            raise ValidationError(f"station code must be {STATION_CODE_LEN} lowercase hex chars, got {self.code!r}")


@dataclass(frozen=True, slots=True)
class PdrSet:
    """All records of one station for one minute, as columns in strictly ascending phone order.

    This is the only check of a set's contents, whether `group_into_sets` cut
    it from a sweep or `decode_pdr_set` built it: equal column lengths, then
    the range rule (radius finite and >= 0, azimuth in [0, 2*pi), minute >= 0),
    then phone order. The decoder checks only what the wire adds: the
    payload's length and text, one station and one minute per set, and the
    class byte.
    """

    minute: int
    bs: BsCode
    phones: tuple[PhoneId, ...]
    radii: tuple[float, ...]
    azimuths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.phones) == len(self.radii) == len(self.azimuths)):
            raise ValidationError("set columns must have equal length")
        # A plain loop: on sets of this size it beats `min`/`max`/`map(math.isnan)` passes in C.
        for radius, azimuth in zip(self.radii, self.azimuths):
            if not 0.0 <= radius < math.inf:
                raise ValidationError(f"radius must be finite and >= 0, got {radius}")
            if not 0.0 <= azimuth < TWO_PI:
                raise ValidationError(f"azimuth must be in [0, 2*pi), got {azimuth}")
        if self.minute < 0:
            raise ValidationError(f"minute must be >= 0, got {self.minute}")
        phones = self.phones
        if not all(map(operator.lt, phones, phones[1:])):
            for prev, phone in zip(phones, phones[1:]):
                if not prev < phone:
                    if phone == prev:
                        raise DuplicateRecordError(f"phone {phone.nr} appears twice in set")
                    raise ValidationError("set phones must be in ascending order")


@dataclass(frozen=True, slots=True)
class Sweep:
    """Every station's readings over a block of minutes, as runs over flat columns.

    `runs` holds one (minute, station, count) per station-minute that saw a
    phone, in (minute, code) order; a run's readings are the next `count`
    entries of `phones`, `radii` and `azimuths`, in ascending phone order.
    """

    runs: list[tuple[int, BsCode, int]]
    phones: tuple[PhoneId, ...]
    radii: tuple[float, ...]
    azimuths: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.phones)


def group_into_sets(sweep: Sweep) -> list[PdrSet]:
    """Cut a sweep into its per-(station, minute) sets, in (minute, code) order: one slice of each column per run.

    Each set is checked by `PdrSet`, so a phone that a station read twice in
    one minute raises DuplicateRecordError.
    """
    phones, radii, azimuths = sweep.phones, sweep.radii, sweep.azimuths
    sets = []
    end = 0
    for minute, bs, count in sweep.runs:
        begin, end = end, end + count
        sets.append(PdrSet(minute, bs, phones[begin:end], radii[begin:end], azimuths[begin:end]))
    return sets


# -- canonical serialization -------------------------------------------------
#
# The record layout is the encryption plaintext and must stay bit-exact:
#   bs.code   16 bytes ASCII hex
#   nr        u32 big-endian length prefix + UTF-8 bytes
#   imei      15 bytes ASCII
#   radius    8-byte IEEE-754 big-endian
#   azimuth   8-byte IEEE-754 big-endian
#   t_pdr     8-byte big-endian unsigned
#
# A set serializes as: u32 record count, then the records in phone order.

_U32 = struct.Struct(">I")
_TAIL = struct.Struct(">ddQ")


def encode_pdr_set(pdr_set: PdrSet, phones: dict[PhoneId, bytes]) -> bytes:
    """Serialize one set in the canonical layout.

    `phones` is the caller's cache of each phone's encoded fields (u32 length
    prefix, nr, IMEI), filled as phones are met: sets encoded with the same
    dict encode each phone once. The bytes do not depend on what it holds.
    """
    code = pdr_set.bs.code.encode("ascii")
    parts = [_U32.pack(len(pdr_set.phones))]
    for phone, radius, azimuth in zip(pdr_set.phones, pdr_set.radii, pdr_set.azimuths):
        fields = phones.get(phone)
        if fields is None:
            nr = phone.nr.encode("utf-8")
            fields = phones[phone] = _U32.pack(len(nr)) + nr + phone.imei.encode("ascii")
        parts += (code, fields, _TAIL.pack(radius, azimuth, pdr_set.minute))
    return b"".join(parts)


_RECORD_FIXED = STATION_CODE_LEN + 4 + IMEI_LEN + _TAIL.size  # a record's bytes besides its nr


@functools.lru_cache(maxsize=256)
def _records_layout(nr_len: int, count: int) -> struct.Struct:
    """`count` records whose nr is `nr_len` bytes, as five fields each: station code and nr length, phone bytes (nr, then IMEI), radius, azimuth, minute."""
    return struct.Struct(">" + f"{STATION_CODE_LEN + 4}s{nr_len + IMEI_LEN}sddQ" * count)


def _walk_records(data: bytes, count: int) -> tuple:
    """The fields of the `count` records after the count prefix, each record read by the layout of its own nr length; nothing may follow them."""
    fields: list = []
    off = 4
    for _ in range(count):
        (nr_len,) = _U32.unpack_from(data, off + STATION_CODE_LEN)
        layout = _records_layout(nr_len, 1)
        fields += layout.unpack_from(data, off)
        off += layout.size
    if off != len(data):
        raise ValidationError("trailing bytes after set payload")
    return tuple(fields)


def decode_pdr_set(data: bytes, class_byte: int, phones: dict[bytes, PhoneId], stations: dict[tuple[bytes, int], BsCode]) -> PdrSet:
    """Decode one set; every record must carry the first record's station and minute.

    A set whose length is exactly its count of records of the first record's
    nr length is read in one `unpack_from` of that many such records, as a flat
    tuple of fields whose columns are its slices. If any record's station code
    and nr length differ from the first's, or the length does not fit, the
    records are walked one by one, since the layout allows any nr length. The
    columns then take the same checks either way. A payload that is cut short,
    runs on past its records or holds text that does not decode raises
    ValidationError; the set itself is checked by `PdrSet`. The precision class
    is not part of the set layout (it is registry metadata): the caller passes
    the class byte its fetch entry carried, and an unknown byte raises
    ValidationError. This is the one place a byte becomes a `PrecisionClass`.

    `phones` and `stations` are the caller's caches, so that every set decoded
    with the same dicts shares one `PhoneId` per phone and one `BsCode` per
    (station, class byte). `phones` is keyed by a record's exact phone bytes
    (nr, then IMEI): a phone is parsed and checked once. Only a phone that
    `PhoneId` accepted, and a station that `BsCode` accepted, is cached.
    """
    try:
        (count,) = _U32.unpack_from(data, 0)
        if not count:
            raise ValidationError("cannot decode an empty set without station metadata")
        (nr_len,) = _U32.unpack_from(data, 4 + STATION_CODE_LEN)
        fields = None
        if len(data) == 4 + count * (_RECORD_FIXED + nr_len):
            fields = _records_layout(nr_len, count).unpack_from(data, 4)
        if fields is None or fields[0::5].count(fields[0]) != count:
            fields = _walk_records(data, count)
            if len({head[:STATION_CODE_LEN] for head in fields[0::5]}) != 1:
                raise ValidationError("every record in a set must share the set's station")
        minutes = fields[4::5]
        minute = minutes[0]
        if minutes.count(minute) != count:
            raise ValidationError("every record in a set must share the set's minute")
        keys = fields[1::5]
        try:
            set_phones = tuple(map(phones.__getitem__, keys))
        except KeyError:
            set_phones = tuple([phones.get(key) or _decode_phone(key, phones) for key in keys])
        code = fields[0][:STATION_CODE_LEN]
        bs = stations.get((code, class_byte)) or _decode_station(code, class_byte, stations)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed set payload: {exc}") from exc
    return PdrSet(minute, bs, set_phones, fields[2::5], fields[3::5])


def _decode_phone(key: bytes, phones: dict[bytes, PhoneId]) -> PhoneId:
    phone = phones[key] = PhoneId(nr=key[:-IMEI_LEN].decode("utf-8"), imei=key[-IMEI_LEN:].decode("ascii"))
    return phone


def _decode_station(code: bytes, class_byte: int, stations: dict[tuple[bytes, int], BsCode]) -> BsCode:
    try:
        precision_class = PrecisionClass(class_byte)
    except ValueError:
        raise ValidationError(f"unknown precision class byte {class_byte}") from None
    bs = stations[(code, class_byte)] = BsCode(code=code.decode("ascii"), precision_class=precision_class)
    return bs
