"""Independent brute-force reference scanner for contact suspicions.

Walks every set and every pair inside it, O(phones^2 x minutes), sharing
nothing with the streaming engine except the distance expression, the law of
cosines in haversine form (which is itself tested against plain Euclidean
geometry elsewhere).
"""

from __future__ import annotations

from math import sin, sqrt

from epitrace.records import PdrSet, PhoneId

WindowTuple = tuple[tuple[int, ...], tuple[float, ...], tuple[int, ...], tuple[str, ...], tuple[int, ...]]
# (minutes, prox, class bytes, sorted station codes, set sizes)


def brute_force_pairs(
    sets: list[PdrSet],
    prox_max: float,
    dur_min: int,
    gap_tolerance: int,
    lower_bounds: dict[PhoneId, int] | None = None,
) -> dict[tuple[PhoneId, PhoneId], tuple[bool, tuple[WindowTuple, ...]]]:
    """All pair verdicts: pair -> (flagged, windows).

    A pair's scan starts at the smaller of the two phones' lower bounds (the
    engine equivalent: the pair is first discovered when scanning the earlier
    phone of interest).
    """
    best: dict[tuple[PhoneId, PhoneId], dict[int, tuple[int, float, str, int]]] = {}
    for pdr_set in sets:
        neg_class = -int(pdr_set.bs.precision_class)  # negated, so the least candidate is the most precise
        code = pdr_set.bs.code
        minute = pdr_set.minute
        phones, radii, azimuths = pdr_set.phones, pdr_set.radii, pdr_set.azimuths
        size = len(phones)
        for i in range(size):
            pi, ri, ai = phones[i], radii[i], azimuths[i]
            for j in range(i + 1, size):
                key = (pi, phones[j])  # sets are phone-sorted, so pi < phones[j]
                if lower_bounds is not None:
                    bound = min(lower_bounds.get(key[0], 0), lower_bounds.get(key[1], 0))
                    if minute < bound:
                        continue
                rj = radii[j]
                dr = ri - rj
                half = sin(0.5 * abs(ai - azimuths[j]))
                cand = (neg_class, sqrt(dr * dr + 4.0 * (ri * rj) * (half * half)), code, size)
                per_minute = best.setdefault(key, {})
                if minute not in per_minute or cand < per_minute[minute]:
                    per_minute[minute] = cand
    out = {}
    for key, per_minute in best.items():
        samples = [
            (minute, dist, -neg_class, code, size)
            for minute, (neg_class, dist, code, size) in sorted(per_minute.items())
            if dist <= prox_max
        ]
        if not samples:
            continue
        windows = _runs(samples, gap_tolerance)
        flagged = any(len(w[0]) >= dur_min for w in windows)
        out[key] = (flagged, tuple(windows))
    return out


def _runs(samples, gap_tolerance: int) -> list[WindowTuple]:
    windows = []
    run: list = []
    for sample in samples:
        if run and sample[0] - run[-1][0] - 1 > gap_tolerance:
            windows.append(_pack(run))
            run = []
        run.append(sample)
    if run:
        windows.append(_pack(run))
    return windows


def _pack(run) -> WindowTuple:
    return (
        tuple(s[0] for s in run),
        tuple(s[1] for s in run),
        tuple(s[2] for s in run),
        tuple(sorted({s[3] for s in run})),
        tuple(s[4] for s in run),
    )
