"""Span tracer for one in-process call of `epitrace.runner.run`.

Each layer is timed by wrapping the public function it exposes, at the name
its caller resolves at call time, so the program under test stays unchanged:
functions the runner imports by name are wrapped on `epitrace.runner`, module
functions called through their module are wrapped on that module, and methods
on their class. `cep.PdrIndex.__init__` is wrapped instead of the class, because
replacing the class would break the `isinstance` check in `cep._ensure_index`.

Spans nest (`find_suspicions` runs inside `complete_findings`, erasure and
Shamir calls inside the vault), so every span reports self time: its duration
minus the time its child spans cover. Counters are added after the timed call and
their cost is kept out of every span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from epitrace import cep, crypto, edge, erasure, federation, ledger, runner, vault

perf_counter = time.perf_counter


class TraceError(RuntimeError):
    """A span never fired or a count disagrees with the run report."""


# Span name -> the calls it times, as (owner, attribute) pairs.
TARGETS: dict[str, tuple[tuple[Any, str], ...]] = {
    "world.generate": ((runner, "generate_world"),),
    "world.observe": ((runner, "observe"),),
    "records.group": ((runner, "group_into_sets"),),
    "records.encode": ((edge, "encode_pdr_set"),),
    "records.decode": ((runner, "decode_pdr_set"),),
    "crypto.seal": ((crypto, "seal"),),
    "crypto.unseal": ((crypto, "unseal"),),
    "edge.push": ((edge.EdgeCloud, "push"),),
    "edge.prune": ((edge.EdgeCloud, "prune"),),
    "edge.fetch": ((edge.EdgeCloud, "handle_fetch_frame"),),
    "federation.vet": ((runner, "vet"),),
    "federation.tick": ((federation.Federation, "tick"),),
    "federation.engine_key": ((federation.Federation, "engine_key"),),
    "federation.change_state": ((federation.Federation, "change_state"),),
    "ledger.verify": ((ledger.AuditLedger, "verify"),),
    "cep.index": ((cep.PdrIndex, "__init__"),),
    "cep.scan": ((cep, "find_suspicions"),),
    "cep.score": ((cep, "score_suspicions"),),
    "cep.complete": ((cep, "complete_findings"),),
    "cep.post": ((cep, "build_pccont"), (cep, "build_dag"), (cep, "hotspot_map")),
    "vault.write": ((vault.VaultCoordinator, "write"),),
    "vault.read": ((vault.VaultCoordinator, "read"),),
    "erasure.encode": ((erasure, "encode"),),
    "erasure.decode": ((erasure, "decode"),),
    "shamir.split": ((vault, "split_secret"),),
    "shamir.reconstruct": ((vault, "reconstruct_secret"),),
}


def _pair_evals(args: tuple, result: list) -> int:
    """Co-present (phone, partner, station) distance evaluations one scan has to make."""
    _capability, index, poi, params = args
    lower = max(0, poi.t_inf_min - params.search_margin)
    evals = 0
    for minute, entries in index.presence.get(poi.phone, {}).items():
        if minute >= lower:
            evals += sum(view.size - 1 for view, _pos in entries)
    return evals


# Span name -> (count name, amount(args, result)) pairs, added after each call.
COUNTERS: dict[str, tuple[tuple[str, Callable[[tuple, Any], int]], ...]] = {
    "world.observe": (("world.records", lambda args, result: len(result)),),
    "records.group": (("records.sets", lambda args, result: len(result)),),
    "crypto.seal": (("crypto.sealed_bytes", lambda args, result: len(args[1])),),
    "edge.prune": (("edge.sets_pruned", lambda args, result: result),),
    "edge.fetch": (("edge.fetch_bytes", lambda args, result: len(result)),),
    "ledger.verify": (("ledger.entries", lambda args, result: len(args[0].entries)),),
    "cep.scan": (
        ("cep.scan_pair_evals", _pair_evals),
        ("cep.scan_qualifying", lambda args, result: sum(w.duration for s in result for w in s.windows)),
    ),
    "erasure.encode": (("erasure.bytes", lambda args, result: len(args[0])),),
    "erasure.decode": (("erasure.bytes", lambda args, result: sum(len(f.data) for f in args[0])),),
}


class FetchMark:
    """Timestamp of the first edge fetch: the boundary between ingest and analysis.

    One wrapper that fires once per provider per run, cheap enough for the
    untraced runs that give the end-to-end metrics.
    """

    def __init__(self) -> None:
        self.first: float | None = None

    @contextmanager
    def installed(self) -> Iterator["FetchMark"]:
        original = edge.EdgeCloud.handle_fetch_frame

        def handle_fetch_frame(cloud, frame):
            if self.first is None:
                self.first = perf_counter()
            return original(cloud, frame)

        edge.EdgeCloud.handle_fetch_frame = handle_fetch_frame
        try:
            yield self
        finally:
            edge.EdgeCloud.handle_fetch_frame = original


class Tracer:
    """Self time, call counts and work counts per span, for runs made while installed."""

    def __init__(self) -> None:
        self.self_s = {name: 0.0 for name in TARGETS}
        self.calls = {name: 0 for name in TARGETS}
        self.counts = {count: 0 for counters in COUNTERS.values() for count, _amount in counters}
        self.count_s = 0.0
        self._stack: list[float] = []  # child time accumulated by each open span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        counters = COUNTERS.get(name, ())

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if counters:
                start = perf_counter()
                for count, amount in counters:
                    counts[count] += amount(args, result)
                spent = perf_counter() - start
                self.count_s += spent
                if stack:
                    stack[-1] += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for name, targets in TARGETS.items():
                for owner, attr in targets:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def check(self, report: "runner.RunReport") -> None:
        """Fail loudly on a span that never fired or a count that disagrees with `report.counts`."""
        silent = sorted(name for name, n in self.calls.items() if n == 0)
        if silent:
            raise TraceError(f"spans recorded zero calls: {silent}")
        rc = report.counts
        expected = {
            "world.records": rc["pdrs_emitted"],
            "records.sets": rc["sets_pushed"] + rc["push_failures"],
            "crypto.seals": rc["sets_pushed"] + rc["push_failures"],
            "edge.sets_pruned": rc["sets_pruned"],
            "records.decoded": rc["sets_fetched"],
            "ledger.entries": rc["ledger_entries"],
        }
        measured = {
            "world.records": self.counts["world.records"],
            "records.sets": self.counts["records.sets"],
            "crypto.seals": self.calls["crypto.seal"],
            "edge.sets_pruned": self.counts["edge.sets_pruned"],
            "records.decoded": self.calls["records.decode"],
            "ledger.entries": self.counts["ledger.entries"],
        }
        wrong = {k: (measured[k], v) for k, v in expected.items() if measured[k] != v}
        if wrong:
            raise TraceError(f"traced counts differ from report.counts (traced, report): {wrong}")

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run whose wall time was `run_s`."""
        s, n, c = self.self_s, self.calls, self.counts
        out: dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}_s"] = s[name]
        out.update(
            {
                "world.records": c["world.records"],
                "records.sets": c["records.sets"],
                "crypto.seals": n["crypto.seal"],
                "crypto.sealed_bytes": c["crypto.sealed_bytes"],
                "edge.sets_pruned": c["edge.sets_pruned"],
                "edge.fetch_bytes": c["edge.fetch_bytes"],
                "federation.ceremonies": n["federation.vet"],
                "ledger.entries": c["ledger.entries"],
                "cep.scan_calls": n["cep.scan"],
                "cep.scan_pair_evals": c["cep.scan_pair_evals"],
                "cep.scan_qualify_ratio": c["cep.scan_qualifying"] / max(1, c["cep.scan_pair_evals"]),
                "vault.decode_useful_ratio": n["vault.read"] / max(1, n["erasure.decode"]),
                "erasure.bytes": c["erasure.bytes"],
                "runner.self_s": run_s - sum(s.values()) - self.count_s,
            }
        )
        return out
