"""Hash-chained audit ledger: each certificate, denial, refusal, key rebuild, state change,
capability, prune sweep, vault write and vault shred batch leaves one entry; a served
edge fetch or vault read leaves none.

Entries chain by SHA-256 over (sequence || previous hash || canonical content
JSON); verification recomputes every hash from genesis, so any byte of
tampering or reordering breaks the chain.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import ValidationError
from .framing import canonical_json

GENESIS_HASH = b"\x00" * 32


def entry_hash(sequence: int, previous_hash: bytes, content: dict[str, Any]) -> bytes:
    h = hashlib.sha256()
    h.update(struct.pack(">Q", sequence))
    h.update(previous_hash)
    h.update(canonical_json(content))
    return h.digest()


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    sequence: int
    previous_hash: bytes
    hash: bytes
    content: dict[str, Any]


@dataclass
class AuditLedger:
    entries: list[LedgerEntry] = field(default_factory=list)

    def append(self, content: dict[str, Any]) -> LedgerEntry:
        prev = self.entries[-1].hash if self.entries else GENESIS_HASH
        seq = len(self.entries)
        entry = LedgerEntry(sequence=seq, previous_hash=prev, hash=entry_hash(seq, prev, content), content=content)
        self.entries.append(entry)
        return entry

    def record(self, kind: str, minute: int, **fields: Any) -> LedgerEntry:
        content: dict[str, Any] = {"kind": kind, "minute": minute}
        content.update(fields)
        return self.append(content)

    def verify(self) -> bool:
        return verify_ledger(self.entries)

    def export_jsonl(self) -> str:
        lines = [
            canonical_json(
                {"sequence": e.sequence, "previous_hash": e.previous_hash.hex(), "hash": e.hash.hex(), "content": e.content}
            ).decode("utf-8")
            for e in self.entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def verify_ledger(entries: Iterable[LedgerEntry]) -> bool:
    prev = GENESIS_HASH
    for i, e in enumerate(entries):
        if e.sequence != i or e.previous_hash != prev:
            return False
        if entry_hash(e.sequence, e.previous_hash, e.content) != e.hash:
            return False
        prev = e.hash
    return True


def load_jsonl(text: str) -> list[LedgerEntry]:
    """Parse an exported ledger; a line that is not a well-formed entry raises `ValidationError` naming it."""
    entries = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            entry = LedgerEntry(
                sequence=obj["sequence"],
                previous_hash=bytes.fromhex(obj["previous_hash"]),
                hash=bytes.fromhex(obj["hash"]),
                content=obj["content"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"line {number} is not a ledger entry: {type(exc).__name__}: {exc}") from exc
        if type(entry.sequence) is not int:  # a bool is an int, and packs as one
            raise ValidationError(f"line {number} is not a ledger entry: sequence {entry.sequence!r} is not an integer")
        if not isinstance(entry.content, dict):
            raise ValidationError(f"line {number} is not a ledger entry: content {entry.content!r} is not an object")
        entries.append(entry)
    return entries
