"""Proximity detail records: the per-minute relative-position unit of the system.

A record ties one phone to one base station for one clock minute, carrying only
a polar offset from the station's antenna centroid. Nothing here encodes an
absolute position; the station-code-to-coordinate mapping lives exclusively in
the provider registry.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import DuplicateRecordError, ValidationError

TWO_PI = 2.0 * math.pi

STATION_CODE_LEN = 16  # hex characters
IMEI_LEN = 15


class PrecisionClass(Enum):
    """Station measurement-precision class; smaller cells measure tighter."""

    MACRO = "MACRO"
    PICO = "PICO"
    FEMTO = "FEMTO"

    @property
    def rank(self) -> int:
        # Higher rank = higher measurement precision.
        return {"MACRO": 0, "PICO": 1, "FEMTO": 2}[self.value]

    @classmethod
    def from_rank(cls, rank: int) -> "PrecisionClass":
        return {0: cls.MACRO, 1: cls.PICO, 2: cls.FEMTO}[rank]


@dataclass(frozen=True, slots=True, order=True)
class PhoneId:
    """National number + device identifier; ordering on (nr, imei) for tie-breaking."""

    nr: str
    imei: str

    def __post_init__(self) -> None:
        if not self.nr or not self.nr.isdigit():
            raise ValidationError(f"phone nr must be non-empty digits, got {self.nr!r}")
        if len(self.imei) != IMEI_LEN or not self.imei.isdigit():
            raise ValidationError(f"imei must be exactly {IMEI_LEN} digits, got {self.imei!r}")


@dataclass(frozen=True, slots=True)
class BsCode:
    """Opaque station token. The code never reveals coordinates."""

    code: str
    precision_class: PrecisionClass

    def __post_init__(self) -> None:
        if len(self.code) != STATION_CODE_LEN or any(c not in "0123456789abcdef" for c in self.code):
            raise ValidationError(f"station code must be {STATION_CODE_LEN} lowercase hex chars, got {self.code!r}")


def _check_prox(radius: float, azimuth: float) -> None:
    """The range rule of a polar offset, for a `ProxVector` and for every decoded record."""
    if radius < 0.0 or not math.isfinite(radius):
        raise ValidationError(f"radius must be finite and >= 0, got {radius}")
    if not (0.0 <= azimuth < TWO_PI):
        raise ValidationError(f"azimuth must be in [0, 2*pi), got {azimuth}")


@dataclass(frozen=True, slots=True)
class ProxVector:
    """Polar offset (meters, radians) from a station centroid. Never absolute."""

    radius: float
    azimuth: float

    def __post_init__(self) -> None:
        _check_prox(self.radius, self.azimuth)


@dataclass(frozen=True, slots=True)
class ProximityDetailRecord:
    """One phone's relative position near one station in one clock minute."""

    bs: BsCode
    phone: PhoneId
    prox: ProxVector
    t_pdr: int

    def __post_init__(self) -> None:
        if self.t_pdr < 0:
            raise ValidationError(f"t_pdr must be >= 0, got {self.t_pdr}")


@dataclass(frozen=True, slots=True)
class PdrSet:
    """All records of one station for one minute, as columns in strictly ascending phone order."""

    minute: int
    bs: BsCode
    phones: tuple[PhoneId, ...]
    radii: tuple[float, ...]
    azimuths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.phones) == len(self.radii) == len(self.azimuths)):
            raise ValidationError("set columns must have equal length")
        for prev, phone in zip(self.phones, self.phones[1:]):
            if not prev < phone:
                if phone == prev:
                    raise DuplicateRecordError(f"phone {phone.nr} appears twice in set")
                raise ValidationError("set phones must be in ascending order")


def make_pdr(bs: BsCode, phone: PhoneId, relative_position: ProxVector, minute: int) -> ProximityDetailRecord:
    """Issue one record, as a base station would every minute for each phone in range."""
    return ProximityDetailRecord(bs=bs, phone=phone, prox=relative_position, t_pdr=minute)


def group_into_sets(records: Iterable[ProximityDetailRecord]) -> list[PdrSet]:
    """Organise loose records into per-(station, minute) sets, sorted by (minute, code).

    Raises DuplicateRecordError when the same (station, phone, minute) triple
    appears twice: stations emit at most one record per phone per minute, so a
    duplicate signals a simulation bug upstream.
    """
    buckets: dict[tuple[int, str], list[ProximityDetailRecord]] = {}
    for rec in records:
        buckets.setdefault((rec.t_pdr, rec.bs.code), []).append(rec)
    out = []
    for (minute, _code), recs in sorted(buckets.items()):
        recs.sort(key=lambda r: r.phone)
        out.append(
            PdrSet(
                minute=minute,
                bs=recs[0].bs,
                phones=tuple(r.phone for r in recs),
                radii=tuple(r.prox.radius for r in recs),
                azimuths=tuple(r.prox.azimuth for r in recs),
            )
        )
    return out


def pair_distance(a: ProxVector, b: ProxVector) -> float:
    """Distance in meters between two phones seen from the same station centroid.

    Law of cosines on the two polar offsets; equals the Euclidean distance
    between the two relative positions. Written to be bitwise-commutative so
    callers get the identical float regardless of argument order.
    """
    return math.sqrt(
        max(0.0, a.radius * a.radius + b.radius * b.radius - (2.0 * a.radius) * b.radius * math.cos(abs(a.azimuth - b.azimuth)))
    )


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


def encode_pdr_set(pdr_set: PdrSet) -> bytes:
    code = pdr_set.bs.code.encode("ascii")
    parts = [_U32.pack(len(pdr_set.phones))]
    for phone, radius, azimuth in zip(pdr_set.phones, pdr_set.radii, pdr_set.azimuths):
        nr = phone.nr.encode("utf-8")
        parts += (code, _U32.pack(len(nr)), nr, phone.imei.encode("ascii"), _TAIL.pack(radius, azimuth, pdr_set.minute))
    return b"".join(parts)


def decode_pdr_set(data: bytes, precision_class: PrecisionClass) -> PdrSet:
    """Decode one set; every record must carry the first record's station and minute.

    The precision class is not part of the wire layout (it is registry
    metadata), so the caller supplies it.
    """
    (count,) = _U32.unpack_from(data, 0)
    if not count:
        raise ValidationError("cannot decode an empty set without station metadata")
    code = data[4 : 4 + STATION_CODE_LEN]
    minute = None
    phones, radii, azimuths = [], [], []
    off = 4
    for _ in range(count):
        if data[off : off + STATION_CODE_LEN] != code:
            raise ValidationError("every record in a set must share the set's station")
        off += STATION_CODE_LEN
        (nr_len,) = _U32.unpack_from(data, off)
        off += 4
        nr = data[off : off + nr_len].decode("utf-8")
        off += nr_len
        imei = data[off : off + IMEI_LEN].decode("ascii")
        off += IMEI_LEN
        radius, azimuth, t_pdr = _TAIL.unpack_from(data, off)
        off += _TAIL.size
        if minute is None:
            minute = t_pdr
        elif t_pdr != minute:
            raise ValidationError("every record in a set must share the set's minute")
        _check_prox(radius, azimuth)
        phones.append(PhoneId(nr=nr, imei=imei))
        radii.append(radius)
        azimuths.append(azimuth)
    if off != len(data):
        raise ValidationError("trailing bytes after set payload")
    return PdrSet(
        minute=minute,
        bs=BsCode(code=code.decode("ascii"), precision_class=precision_class),
        phones=tuple(phones),
        radii=tuple(radii),
        azimuths=tuple(azimuths),
    )
