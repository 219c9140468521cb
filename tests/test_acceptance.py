"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import pytest

from epitrace import cep, crypto, erasure
from epitrace.attacks import attack_suite
from epitrace.errors import DecryptionError, ReconstructionError, UnavailableError
from epitrace.federation import Federation, OperationClass, SystemState, make_request
from epitrace.ledger import load_jsonl, verify_ledger
from epitrace.records import PrecisionClass
from epitrace.runner import build_context, ingest, run, vet
from epitrace.shamir import Share, reconstruct_secret
from epitrace.vault import FaultMode, VaultCoordinator
from epitrace.world import ScenarioConfig, generate_world, infection_estimates, trace_positions
from cep_oracle import brute_force_pairs
from util import capability, oldest_age, plaintext_sets, small_federation

SMALL_JSON = Path(__file__).resolve().parent.parent / "scenarios" / "small.json"

# sha256 of every file `run` writes for small.json. A change to any of them is
# a change in behaviour and must be deliberate: update the digest with it.
SMALL_DIGESTS = {
    "dag.dot": "a4ab6976996d7b3a66c4471c7db5b1d91d0eb03ab97f31d14c9672bc54a8c959",
    "dag.json": "f8c3e7ea92c5e655db5b6b91c72a3a6b84b7d2333af2fb03cd0259835b1bc7da",
    "hotspots.csv": "93474823a3d104e991e57283a600c3cd0d2b6ea291909c9ce4253b41f05c318f",
    "ledger.jsonl": "d53b38dd6359afa2c64f72670f3a1e229f4ba0c8b7f1311313ac619142ad897e",
    "pccont.json": "adf3321ddb80d28503b8222502df799d01b07b110f9a89a97446a9f4b00e6e91",
    "report.json": "18777d1195f15cd96e7bec9bc84e421a3f323e367d538ec5f8e3ad69f9bea0a2",
    "report.txt": "aeac7fc18f34f21e933e1a26f39407048d201de37d8dc4b65194e67cba5722dc",
    "scores.json": "20f64adfbe5ff15bd160b6aa15a1980ec7f91245f5175062290b5533ff0dca94",
    "suspicions.json": "75674ca411cd7757d69695112c581eab100d0e89f5feca586776793f78616ab1",
    "traces.csv": "fcafee2467602905de1a7550d63adc722e31312df5ca50cf8f42a33a147f221a",
}


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


def pipeline_flagged_pairs(cfg: ScenarioConfig):
    """Run generation + measurement + the scan stack; return flagged pairs and world."""
    registry, traces, gt = generate_world(cfg)
    positions = trace_positions(traces, 0, cfg.duration_min)
    cap, _ = capability(OperationClass.BLIND_PROCESSING, seed=cfg.seed)
    params = cep.AnalysisParams(
        prox_max=cfg.prox_max_m, dur_min=cfg.dur_min, gap_tolerance=cfg.gap_tolerance_min, search_margin=cfg.search_margin_min
    )
    index = cep.PdrIndex(plaintext_sets(cfg, registry, traces), params.prox_max)
    estimates = infection_estimates(cfg, gt)
    flagged = set()
    for phone, t_inf in sorted(estimates.items(), key=lambda kv: (kv[1], kv[0])):
        for suspicion in cep.find_suspicions(cap, index, cep.PhoneOfInterest(phone, t_inf), params):
            if suspicion.pc_susp:
                flagged.add(suspicion.pair)
    return flagged, registry, traces, gt, positions


ORACLE_SCENARIOS = [
    (50, 201), (40, 202), (30, 203), (24, 204), (20, 205), (20, 206), (18, 207), (18, 208),
    (16, 209), (16, 210), (14, 211), (14, 212), (12, 213), (12, 214), (12, 215), (10, 216),
    (10, 217), (10, 218), (8, 219), (8, 220),
]


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence over 20 seeded scenarios"):
        cap, _ = capability(OperationClass.BLIND_PROCESSING, seed=1)
        params = cep.AnalysisParams(prox_max=2.0, dur_min=15, gap_tolerance=2, search_margin=0)
        started = time.perf_counter()
        for n_phones, seed in ORACLE_SCENARIOS:
            cfg = ScenarioConfig(seed=seed, n_phones=n_phones, duration_min=1440, alert_minute=960, noise_enabled=True)
            registry, traces, _ = generate_world(cfg)
            sets = plaintext_sets(cfg, registry, traces)
            index = cep.PdrIndex(sets, params.prox_max)
            engine = {}
            for phone in sorted({p for s in sets for p in s.phones}):
                for s in cep.find_suspicions(cap, index, cep.PhoneOfInterest(phone, 0), params):
                    engine.setdefault(s.pair, s)
            engine_view = {
                pair: (
                    s.pc_susp,
                    tuple(
                        (w.minutes, w.prox, tuple(c.value for c in w.classes), tuple(sorted(w.stations)), w.set_sizes)
                        for w in s.windows
                    ),
                )
                for pair, s in engine.items()
            }
            oracle_view = brute_force_pairs(sets, params.prox_max, params.dur_min, params.gap_tolerance)
            assert engine_view == oracle_view, f"engine/oracle divergence in scenario seed={seed}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle-equivalence sweep took {elapsed:.1f}s"


def test_criterion_2_ground_truth_recall():
    with criterion(2, "ground-truth recall (noise-free total, noisy >= 95% at femto venues)"):
        # Noise-free: every planted transmission is flagged.
        for seed in (61, 62, 63):
            cfg = ScenarioConfig(
                seed=seed, n_phones=24, duration_min=480, alert_minute=420,
                noise_enabled=False, exact_onset_estimates=True,
            )
            flagged, _, _, gt, _ = pipeline_flagged_pairs(cfg)
            truth = {
                cep.pair_key(p, r.infected_by) for p, r in gt.infections.items() if r.infected_by is not None
            }
            assert truth, "scenario planted no transmissions"
            missed = truth - flagged
            assert not missed, f"noise-free recall below 1.0 (seed {seed}): missed {len(missed)}"

        # Class-default noise: transmissions inside the 2-sigma margin at
        # femto-covered venues must be recalled at >= 95%.
        hits = total = 0
        for seed in (101, 102):
            cfg = ScenarioConfig(
                seed=seed, n_phones=40, n_venues=6, n_femto=6, duration_min=720, alert_minute=600,
                noise_enabled=True, exact_onset_estimates=True, prox_max_m=4.5,
                transmission_distance_m=2.0, min_exposure_min=30, t_incub_min=45, t_incub_max=720,
                world_size_m=400.0,
            )
            margin = cfg.prox_max_m - 2 * cfg.sigma_femto_m
            assert cfg.transmission_distance_m <= margin
            flagged, registry, traces, gt, positions = pipeline_flagged_pairs(cfg)
            idx = {t.phone: i for i, t in enumerate(traces)}
            femtos = [
                info.centroid for bs, info in registry.stations.items() if bs.precision_class is PrecisionClass.FEMTO
            ]
            for p, rec in gt.infections.items():
                if rec.infected_by is None:
                    continue
                i, j = idx[rec.infected_by], idx[p]
                window = range(rec.t_infected - cfg.min_exposure_min + 1, rec.t_infected + 1)
                covered = all(
                    any(
                        math.dist(tuple(positions[m][i]), c) <= cfg.range_femto_m
                        and math.dist(tuple(positions[m][j]), c) <= cfg.range_femto_m
                        for c in femtos
                    )
                    for m in window
                )
                if not covered:
                    continue
                total += 1
                if cep.pair_key(p, rec.infected_by) in flagged:
                    hits += 1
        assert total >= 20, f"too few femto-covered transmissions to judge recall ({total})"
        recall = hits / total
        assert recall >= 0.95, f"noisy femto-venue recall {recall:.3f} < 0.95 ({hits}/{total})"


def test_criterion_3_quorum_safety():
    with criterion(3, "quorum safety: certificates iff >= q distinct approvals"):
        sizing = ScenarioConfig(n_authorities=5, f=2, q_read=3, q_critical=3, fed_key_threshold=3, vote_window_min=60)
        accepted = rejected = 0
        for size in range(6):
            for subset in itertools.combinations(range(5), size):
                federation = Federation(sizing, rng=Random("acceptance-q"))
                request = make_request(
                    federation.authorities[0], OperationClass.BLIND_ANALYSIS, {"subset": list(subset)}, Random(1)
                )
                federation.submit_request(request)
                cert = None
                for index in subset:
                    got = federation.apply_vote(federation.authorities[index].approve(request))
                    cert = got or cert
                if cert is not None:
                    accepted += 1
                    assert len(subset) >= 3
                else:
                    rejected += 1
                    assert len(subset) < 3
        assert accepted == 16 and rejected == 16

        # No data-extraction path succeeds without a quorum certificate.
        results = attack_suite(ScenarioConfig(seed=8, n_phones=12, duration_min=120, alert_minute=60))
        extraction = {"provider_read", "locked_fetch", "subquorum_fetch", "cloud_coalition", "expired_pdr_access"}
        for result in results:
            if result.name in extraction:
                assert result.safe, f"{result.name}: {result.detail}"


def test_criterion_4_vault_thresholds():
    with criterion(4, "vault thresholds on the 4-fragment layout (k=2, shares 3-of-4)"):
        def fresh_vault(seed):
            federation = small_federation(seed=seed)
            vault = VaultCoordinator(federation, n_clouds=4, k=2, key_threshold=3, rng=Random(seed))
            federation.attach_vault(vault)
            cert = vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random(seed + 1))
            federation.change_state(cert, SystemState.ALERT)
            write_cert = vet(federation, OperationClass.BLIND_PROCESSING, {}, Random(seed + 2))
            full_cert = vet(federation, OperationClass.FULL_PROCESSING, {}, Random(seed + 3))
            return (
                vault,
                federation.authorize_mode(write_cert, OperationClass.BLIND_PROCESSING),
                federation.authorize_mode(full_cert, OperationClass.FULL_PROCESSING),
            )

        payload = b"vault acceptance payload " + bytes(range(64))

        # All six 2-cloud coalitions fail to decrypt.
        vault, cap_write, cap_full = fresh_vault(400)
        object_id = vault.write(cap_write, payload)
        failures = 0
        for coalition in itertools.combinations(vault.clouds, 2):
            responses = [c.retrieve(object_id) for c in coalition]
            fragments = [erasure.Fragment(r[0], r[1]) for r in responses]
            shares = [Share(x=r[2][0], data=r[2][1:]) for r in responses]
            try:
                ciphertext = erasure.decode(fragments, 2)
            except UnavailableError:
                failures += 1
                continue
            try:
                crypto.symmetric_decrypt(reconstruct_secret(shares), ciphertext)
            except (DecryptionError, ReconstructionError):
                failures += 1
        assert failures == 6, f"only {failures}/6 coalitions failed"

        # All four single-fragment corruption positions are tolerated.
        tolerated = 0
        for position in range(4):
            vault, cap_write, cap_full = fresh_vault(500 + position)
            object_id = vault.write(cap_write, payload)
            vault.clouds[position].fault_mode = FaultMode.BYZANTINE
            if vault.read(cap_full, object_id) == payload:
                tolerated += 1
        assert tolerated == 4, f"only {tolerated}/4 corruptions tolerated"

        # Every pattern leaving >= 2 honest fragments and >= 3 shares succeeds.
        patterns = [set()] + [{i} for i in range(4)]
        for crashed in patterns:
            vault, cap_write, cap_full = fresh_vault(600 + sum(crashed))
            object_id = vault.write(cap_write, payload)
            for i in crashed:
                vault.clouds[i].fault_mode = FaultMode.CRASHED
            assert vault.read(cap_full, object_id) == payload


def test_criterion_5_pruning_bound():
    with criterion(5, "retention bound: nothing older than twice the incubation time"):
        cfg = ScenarioConfig(
            seed=71, n_phones=12, duration_min=2880, alert_minute=2880,
            t_incub_min=45, t_incub_max=360, pdr_ttl_factor=2, noise_enabled=False,
        )
        assert cfg.pdr_ttl == 720
        context = build_context(cfg)
        deletions = 0
        prune_checks = 0
        start = 0
        # One prune period per ingest call, each ending on the minute it prunes.
        for minute in range(cfg.prune_every_min, cfg.duration_min + 1, cfg.prune_every_min):
            deletions += ingest(context, start, minute + 1)["sets_pruned"]
            start = minute + 1
            pruned = [e for e in context.federation.ledger.entries if e.content["kind"] == "prune" and e.content["minute"] == minute]
            assert len(pruned) == len(context.edges), f"no prune of every edge at minute {minute}"
            prune_checks += 1
            for edge in context.edges.values():
                age = oldest_age(edge, minute)
                assert age is None or age <= cfg.pdr_ttl, f"entry aged {age} > ttl {cfg.pdr_ttl} at minute {minute}"
        assert prune_checks == 2
        assert deletions > 0, "bound held vacuously: nothing was ever pruned"


def test_criterion_6_dag_validity():
    with criterion(6, "dag validity: acyclic, ground-truth chain subgraph, feasible edges"):
        for seed in (1, 4, 6):
            cfg = ScenarioConfig(
                seed=seed, n_phones=30, duration_min=1440, alert_minute=1200,
                noise_enabled=False, exact_onset_estimates=True,
                t_incub_min=60, t_incub_max=1440, n_venues=6,
            )
            _, traces, gt = generate_world(cfg)
            assert gt.chain_depth() >= 4
            out = Path("/tmp") / f"acceptance_dag_{seed}"
            report = run(cfg, out_dir=out)
            assert report.ok
            dag = json.loads((out / "dag.json").read_text())
            edges = {(e["src"], e["dst"]) for e in dag["edges"]}

            # ground-truth chain is a subgraph
            truth_edges = {
                (r.infected_by.nr, p.nr) for p, r in gt.infections.items() if r.infected_by is not None
            }
            missing = truth_edges - edges
            assert not missing, f"seed {seed}: ground-truth edges missing from dag: {missing}"

            # acyclicity via Kahn over the artifact
            nodes = set(dag["nodes"])
            indeg = {n: 0 for n in nodes}
            adj = {n: [] for n in nodes}
            for src, dst in edges:
                indeg[dst] += 1
                adj[src].append(dst)
            queue = [n for n in nodes if indeg[n] == 0]
            seen = 0
            while queue:
                node = queue.pop()
                seen += 1
                for nxt in adj[node]:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        queue.append(nxt)
            assert seen == len(nodes), f"seed {seed}: dag artifact contains a cycle"

            # no edge contradicts ground-truth feasibility
            positions = trace_positions(traces, 0, cfg.duration_min)
            index_of = {t.phone.nr: i for i, t in enumerate(traces)}
            t_infected = {p.nr: r.t_infected for p, r in gt.infections.items()}
            for src, dst in edges:
                assert src in t_infected and dst in t_infected
                i, j = index_of[src], index_of[dst]
                feasible = False
                for minute in range(t_infected[src], cfg.duration_min):
                    if math.dist(tuple(positions[minute][i]), tuple(positions[minute][j])) <= cfg.prox_max_m + 1e-9:
                        feasible = True
                        break
                assert feasible, f"seed {seed}: edge {src}->{dst} has no co-location while {src} was infected"


def test_criterion_7_ledger_integrity():
    with criterion(7, "ledger integrity: run verifies, 100/100 tampers detected"):
        cfg = ScenarioConfig(seed=81, n_phones=16, duration_min=240, alert_minute=200, noise_enabled=False)
        out = Path("/tmp/acceptance_ledger")
        report = run(cfg, out_dir=out)
        assert report.ledger_ok
        blob = (out / "ledger.jsonl").read_bytes()
        entries = load_jsonl(blob.decode())
        assert verify_ledger(entries)

        rng = Random("tamper-acceptance")
        detected = 0
        for _ in range(100):
            position = rng.randrange(len(blob))
            flip = rng.randrange(1, 256)
            tampered = blob[:position] + bytes([blob[position] ^ flip]) + blob[position + 1 :]
            try:
                loaded = load_jsonl(tampered.decode())
            except Exception:
                detected += 1
                continue
            if not verify_ledger(loaded) or len(loaded) != len(entries):
                detected += 1
        assert detected == 100, f"only {detected}/100 tampers detected"


def test_criterion_8_determinism_and_speed(tmp_path):
    with criterion(8, "determinism: byte-identical reports, small scenario under 10s"):
        cfg = ScenarioConfig.from_json(SMALL_JSON.read_text())
        out1, out2 = tmp_path / "det_1", tmp_path / "det_2"
        started = time.perf_counter()
        report1 = run(cfg, out_dir=out1)
        elapsed = time.perf_counter() - started
        report2 = run(cfg, out_dir=out2)
        assert report1.to_json_bytes() == report2.to_json_bytes()
        for artifact in sorted(out1.iterdir()):
            assert (out2 / artifact.name).read_bytes() == artifact.read_bytes(), f"{artifact.name} differs"
        digests = {artifact.name: hashlib.sha256(artifact.read_bytes()).hexdigest() for artifact in out1.iterdir()}
        assert digests == SMALL_DIGESTS
        assert report1.ok
        assert elapsed < 10.0, f"small scenario took {elapsed:.2f}s"
