import dataclasses
import gc
import hashlib
import itertools
import json
import os
import re
from operator import attrgetter
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from epitrace import artifacts, cep, crypto, framing, runner
from epitrace.attacks import attack_suite
from epitrace.cli import main
from epitrace.edge import SEAL_EPOCH_MIN, EdgeCloud
from epitrace.errors import ConfigurationError, FramingError, HelperError, ValidationError
from epitrace.federation import Federation, OperationClass, SystemState
from epitrace.ledger import GENESIS_HASH, entry_hash, load_jsonl, verify_ledger
from epitrace.records import PdrSet, decode_pdr_set
from epitrace.runner import _SWEEP_BLOCK_MIN, _digit_probe_hits, _plaintext_pii_hits, build_context, ingest, parse_faults, run, vet
from epitrace.shamir import Share, reconstruct_secret
from epitrace.vault import FaultMode
from epitrace.world import NoiseModel, ScenarioConfig, generate_world
from util import SMALL_JSON, ingested_for_analysis, pair_table, reference_ingest, retention_config

SPARSE_DIGESTS = {
    "dag.dot": "275e6c7090ca820ba96fa2440ce615cce7c46fda5555a5169713ab4661cbc32b",
    "dag.json": "c6edbeaa27d02acbc4db3426989590ac89ad2a6c4421a45d8bfcf798f0171184",
    "hotspots.csv": "e24eabb18cdc3ae94948b25606bd6773933741196d3c6295b1fc743aaa7c011b",
    "ledger.jsonl": "d218762885f544472cc2c3545fd76983f680f4bd379a5e84b84fb7415a7dc917",
    "pccont.json": "d8ca4eaa8acbf9b8c239b7a8e6883fe501949e12ed1e0a2e2f828783b8a656c5",
    "report.json": "d3095dea78ccd6b8ab8203b7156e4f0787668fec88b8e3590c826cc9acd00bfa",
    "report.txt": "2e55d43576c3367b7e48c2451b3f13fe090c3b0a93c03dea6e0073c993c27877",
    "scores.json": "07a7691f8591ddb9ae95b2d8d7fcf22a4d1e4285c53515aa43853ef02cfa0a7b",
    "suspicions.json": "90e8d409ddb9d08ff598cb73e2227eb81f58b2f655959dda99530e03b734e892",
    "traces.csv": "1d4c0e531ae300c8ea605dd03f98afc605bede63856d4dfd87852f868697294b",
}
# sha256 of every file `run` writes for `retention_config()` with a Byzantine
# vault cloud: noisy observation, pruning and parity reads, whose bytes
# small.json and the sparse world do not cover.
RETENTION_DIGESTS = {
    "dag.dot": "341828a2296dcc54d93d293b38b4e880101c8c59b1ab789353b5ad07a2425f2e",
    "dag.json": "6a5c3d3d868dca337ae875088ebe05fad8f943221e5966bec08ab51f3107c108",
    "hotspots.csv": "4b776b32968c70dd7cb038d1423b2a81bb627581e7619fc64ab5b16757f2ab3c",
    "ledger.jsonl": "b13e34ca6d441225d8c32bbc2d00059638bfcd0a35b53c4b43a187a10f8a3672",
    "pccont.json": "65f8842fc0e79d1df2c30c4cc0a7e86732ccbc22fa2f08b0a4e4686a3e5ebbde",
    "report.json": "d68078c7e6405cc87f75ea787fa240ab9c5b8576290c812c1ca6736e65fa4a81",
    "report.txt": "08bdc3e8c6095b8c4b19abc227914bed9cefb5d63e5dcbedbbe145af21ca2701",
    "scores.json": "bb5368fb444f311a2e0b252c2a83466748a3fa39191c24bb38f01153229b8466",
    "suspicions.json": "d14123ae455432eee6fefbfa72d6ec10ece221f70d18a97acf8b21ce7c94e7c1",
    "traces.csv": "1fb419f827f8cedb81984388ce541d0d2fb6abebac21eacff1d9041a9321b3e1",
}
CFG = dict(seed=31, n_phones=20, duration_min=360, alert_minute=300, noise_enabled=False, exact_onset_estimates=True)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = run(ScenarioConfig(**CFG), out_dir=out)
    return report, out


class TestRun:
    def test_run_is_ok(self, completed_run):
        report, _ = completed_run
        assert report.ok
        assert report.ledger_ok
        assert report.privacy["vault_objects_final"] == 0
        assert report.privacy["plaintext_pii_hits"] == 0

    def test_privacy_scan_checks_every_stored_ciphertext(self):
        context = build_context(ScenarioConfig(**CFG))
        ingest(context, 0, 60)
        for edge in context.edges.values():
            edge.close_seal_context()  # as `run` does after the last prune
        assert _plaintext_pii_hits(context) == 0
        stored = next(iter(context.edges.values())).stored_ciphertexts()
        imei = context.traces[-1].phone.imei.encode("ascii")
        stored[59][10 : 10 + len(imei)] = imei  # the store hands out its own buffers
        assert _plaintext_pii_hits(context) > 0

    def test_privacy_scan_counts_planted_identifiers_like_the_plain_regex(self):
        context = build_context(ScenarioConfig(**CFG))
        ingest(context, 0, 60)
        for edge in context.edges.values():
            edge.close_seal_context()
        stored = next(iter(context.edges.values())).stored_ciphertexts()
        nr = context.traces[0].phone.nr.encode("ascii")
        imei = context.traces[1].phone.imei.encode("ascii")
        stored[0][: len(nr)] = nr  # at the start of a buffer
        stored[1][-len(imei) :] = imei  # at its end
        stored[2][20 : 20 + len(nr) + len(imei)] = nr + imei  # adjacent
        probes = [p for t in context.traces for p in (t.phone.nr, t.phone.imei)]
        pattern = re.compile("|".join(map(re.escape, probes)).encode("ascii"))
        buffers = [*stored, context.federation.ledger.export_jsonl().encode("utf-8")]
        expected = sum(len(pattern.findall(buffer)) for buffer in buffers)
        assert expected >= 4
        assert _plaintext_pii_hits(context) == expected

    def test_privacy_scan_counts_an_open_phone_field_cache(self):
        context = build_context(ScenarioConfig(**CFG))
        ingest(context, 0, 60)
        edges = list(context.edges.values())
        cached = [fields for edge in edges for fields in edge.cached_phone_fields()]
        assert cached  # each field holds one nr and one IMEI in the clear
        assert _plaintext_pii_hits(context) == 2 * len(cached)
        for edge in edges[1:]:
            edge.close_seal_context()
        assert _plaintext_pii_hits(context) == 2 * len(edges[0].cached_phone_fields()) > 0
        edges[0].close_seal_context()
        assert _plaintext_pii_hits(context) == 0

    def test_privacy_scan_counts_vault_buffers_and_the_ledger(self):
        context = build_context(ScenarioConfig(**CFG))
        federation = context.federation
        rng = Random(3)
        federation.change_state(vet(federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, rng), SystemState.ALERT)
        cap = federation.authorize_mode(vet(federation, OperationClass.BLIND_PROCESSING, {}, rng), OperationClass.BLIND_PROCESSING)
        context.vault.write(cap, b"results")
        assert _plaintext_pii_hits(context) == 0
        imei = context.traces[0].phone.imei.encode("ascii")
        fragment, key_share = context.vault.clouds[0].held_buffers()
        fragment[: len(imei)] = imei
        key_share[: len(imei)] = imei
        assert _plaintext_pii_hits(context) == 2
        federation.ledger.record("note", 0, text=context.traces[1].phone.nr)
        assert _plaintext_pii_hits(context) == 3

    def test_run_closes_every_seal_context(self, monkeypatch):
        edges = []
        real_build = runner.build_context

        def keep_edges(*args):
            context = real_build(*args)
            edges.extend(context.edges.values())
            return context

        monkeypatch.setattr(runner, "build_context", keep_edges)
        report = run(ScenarioConfig(**CFG))
        assert report.privacy["plaintext_pii_hits"] == 0
        assert edges and all(edge._seal_context is None and not edge.cached_phone_fields() for edge in edges)

    def test_artifacts_written(self, completed_run):
        _, out = completed_run
        expected = {
            "report.json",
            "report.txt",
            "ledger.jsonl",
            "suspicions.json",
            "scores.json",
            "pccont.json",
            "dag.json",
            "dag.dot",
            "hotspots.csv",
            "traces.csv",
        }
        assert expected.issubset({p.name for p in out.iterdir()})

    def test_exported_ledger_verifies(self, completed_run):
        _, out = completed_run
        entries = load_jsonl((out / "ledger.jsonl").read_text())
        assert verify_ledger(entries)
        kinds = {e.content["kind"] for e in entries}
        assert {"certificate", "state_change", "key_reconstruction", "vault_write", "vault_delete", "prune"} <= kinds

    def test_ledger_completeness(self, completed_run):
        # one entry per governed event: 4 ceremonies, 2 state changes, one key
        # reconstruction per provider on alert, one batch delete on lockdown
        _, out = completed_run
        entries = load_jsonl((out / "ledger.jsonl").read_text())
        by_kind = {}
        for entry in entries:
            by_kind[entry.content["kind"]] = by_kind.get(entry.content["kind"], 0) + 1
        assert by_kind["certificate"] == 4  # alert, analysis, full processing, lockdown
        assert by_kind["state_change"] == 2
        assert by_kind["key_reconstruction"] == 2  # one per provider key
        assert by_kind["vault_write"] == 4  # suspicions, scores, pccont, dag
        assert by_kind["vault_delete"] == 1  # single batch on passive
        assert by_kind.get("denial", 0) == 0
        assert by_kind["capability"] == 2

    def test_report_deterministic_across_runs(self, completed_run, tmp_path):
        report1, out1 = completed_run
        report2 = run(ScenarioConfig(**CFG), out_dir=tmp_path)
        assert report1.to_json_bytes() == report2.to_json_bytes()
        for name in ("report.json", "ledger.jsonl", "suspicions.json", "dag.json"):
            assert (out1 / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_seed_changes_report(self):
        report1 = run(ScenarioConfig(**CFG))
        report2 = run(ScenarioConfig(**{**CFG, "seed": 32}))
        assert report1.to_json_bytes() != report2.to_json_bytes()

    def test_noise_free_recall_is_total(self, completed_run):
        report, _ = completed_run
        assert report.recall == 1.0

    def test_vault_fault_injection_preserves_analytics(self, completed_run):
        report_clean, _ = completed_run
        report_fault = run(ScenarioConfig(**CFG), faults="vault:2=byzantine")
        assert report_fault.ok
        assert report_fault.counts == report_clean.counts
        assert report_fault.scores_by_class == report_clean.scores_by_class
        assert report_fault.recall == report_clean.recall
        assert report_fault.to_json_bytes() == report_clean.to_json_bytes()

    def test_dag_artifact_is_well_formed(self, completed_run):
        _, out = completed_run
        dag = json.loads((out / "dag.json").read_text())
        assert set(dag) == {"nodes", "edges"}
        nodes = set(dag["nodes"])
        for edge in dag["edges"]:
            assert edge["src"] in nodes and edge["dst"] in nodes
            assert 0.0 <= edge["weight"] <= 1.0

    def test_completion_adds_pairs_in_a_sparse_world(self, monkeypatch, tmp_path):
        # With under 60 % of the phones infected, the cascade from high-risk
        # contacts scans phones that the infected-phone scan never started from.
        # small.json never reaches the cascade, so its bytes are pinned here.
        fields = json.loads(SMALL_JSON.read_text())
        fields.update(seed=3, n_phones=24, duration_min=480, alert_minute=400, transmission_probability=0.05)
        config = ScenarioConfig.from_dict(fields)
        _registry, _traces, ground_truth = generate_world(config)
        assert len(ground_truth.infections) < 0.6 * config.n_phones
        monkeypatch.setattr(Path, "write_text", lambda *args, **kwargs: pytest.fail("a file was written as text"))  # every file is written as bytes
        assert run(config, out_dir=tmp_path).counts["completion_pairs"] == 31
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == SPARSE_DIGESTS

    def test_run_never_builds_the_presence_probe(self, monkeypatch, tmp_path):
        def refuse(index):
            raise AssertionError("the run built PdrIndex.presence")

        monkeypatch.setattr(cep.PdrIndex, "presence", property(refuse))
        report = run(ScenarioConfig(**CFG), out_dir=tmp_path)
        assert report.ok and report.counts["suspicion_pairs"] > 0

    def test_a_replaced_escrow_share_is_not_used_and_the_run_is_unchanged(self, completed_run, monkeypatch, tmp_path):
        _, clean = completed_run
        build = runner.build_context
        p1_shares, rebuilds = [], []

        def forging(config, faults=None):
            context = build(config, faults)
            authority = context.federation.authorities[0]
            share = authority.key_shares["provider:P1"]
            authority.key_shares["provider:P1"] = Share(x=share.x, data=Random("forged").randbytes(len(share.data)))
            p1_shares.extend(a.key_shares["provider:P1"] for a in context.federation.authorities)
            return context

        monkeypatch.setattr(runner, "build_context", forging)
        monkeypatch.setattr("epitrace.federation.reconstruct_secret", lambda shares: rebuilds.append(shares) or reconstruct_secret(shares))
        config = ScenarioConfig(**CFG)
        assert run(config, out_dir=tmp_path).ok
        forged, *genuine = p1_shares
        assert [shares for shares in rebuilds if set(shares) & set(p1_shares)] == [genuine[: config.fed_key_threshold]]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {p.name: p.read_bytes() for p in clean.iterdir()}

    def test_retention_run_bytes_are_pinned(self, tmp_path):
        report = run(retention_config(), tmp_path, "vault:1=byzantine")
        assert report.counts["pdrs_emitted"] == 24018 and report.counts["sets_pruned"] == 1525
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == RETENTION_DIGESTS


def live_sets() -> int:
    """The number of `PdrSet` instances alive in this process, after a full collection."""
    gc.collect()
    return sum(isinstance(obj, PdrSet) for obj in gc.get_objects())


class TestAnalysisStream:
    @pytest.fixture(scope="class")
    def fetchable(self):
        return ingested_for_analysis(ScenarioConfig(**CFG))

    def test_fetch_merges_the_providers_by_minute_first_provider_first(self, fetchable, monkeypatch):
        context, read_cert = fetchable
        minute_range = (0, CFG["duration_min"])
        cert = read_cert()
        expected = [
            list(runner._open_entries(runner.fetch(edge, cert, minute_range), context.federation.engine_key(edge.key_id), {}, {}))
            for _provider_id, edge in sorted(context.edges.items())
        ]
        decoded = []
        monkeypatch.setattr(runner, "decode_pdr_set", lambda *args: decoded.append(1) or decode_pdr_set(*args))
        stream = runner._fetch_and_decrypt(context, read_cert(), minute_range)
        assert decoded == []  # nothing is decoded before the stream is read
        sets = list(stream)
        assert sets == sorted(itertools.chain(*expected), key=attrgetter("minute"))
        assert len(sets) == len(decoded) == sum(len(edge.stored_ciphertexts()) for edge in context.edges.values())
        provider = {bs.code: pid for pid, codes in context.registry.providers.items() for bs in codes}
        shared = [m for m, group in itertools.groupby(sets, attrgetter("minute")) if len({provider[s.bs.code] for s in group}) > 1]
        assert shared  # minutes in which both providers' sets are merged

    def test_no_decoded_set_outlives_the_index(self, fetchable):
        context, read_cert = fetchable
        cert = read_cert()
        before = live_sets()
        index = cep.PdrIndex(runner._fetch_and_decrypt(context, cert, (0, CFG["duration_min"])), ScenarioConfig(**CFG).prox_max_m)
        assert index.sets_swept > 0 and pair_table(index)
        assert live_sets() == before

    def test_run_holds_no_decoded_set_during_analysis(self, monkeypatch):
        alive = []
        complete_findings = cep.complete_findings
        monkeypatch.setattr(cep, "complete_findings", lambda *args: alive.append(live_sets()) or complete_findings(*args))
        before = live_sets()
        report = run(ScenarioConfig(**CFG))
        assert report.ok and report.counts["sets_fetched"] > 0
        assert alive == [before]


DIGITS = st.text("0123456789", min_size=1, max_size=18)


class TestDigitRunPrefilter:
    """The privacy gate's digit-run prefilter counts exactly what the plain alternation counts."""

    @staticmethod
    def counts(probes: list[str], buffer: bytes) -> tuple[int, int]:
        pattern = re.compile("|".join(map(re.escape, probes)).encode("ascii"))
        return _digit_probe_hits(probes, [buffer]), len(pattern.findall(buffer))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        probes=st.lists(DIGITS, min_size=1, max_size=6),
    )
    def test_equals_the_plain_regex_count(self, data, probes):
        # Buffers glued from probes, their halves, loose digits and the bytes
        # just outside the digit range, so matches sit at run edges, abut each
        # other and nest (a probe inside a longer one, as an nr inside an IMEI).
        pieces = st.one_of(
            st.sampled_from(probes).map(str.encode),
            st.sampled_from(probes).map(lambda p: p[: len(p) // 2].encode()),
            DIGITS.map(str.encode),
            st.sampled_from([b"/", b":", b"\x00", b"\xff", b"a", b" "]),
            st.binary(max_size=4),
        )
        buffer = b"".join(data.draw(st.lists(pieces, max_size=12)))
        prefiltered, plain = self.counts(probes, buffer)
        assert prefiltered == plain

    @pytest.mark.parametrize(
        "probes, buffer, hits",
        [
            (["4915"], b"4915", 1),  # the whole buffer
            (["4915"], b"x4915/4915:", 2),  # bounded by '/' and ':', neighbours of the digit range
            (["12", "34"], b"1234", 2),  # adjacent probes in one run
            (["3912", "353912345678901"], b"353912345678901", 1),  # an nr inside an IMEI: the IMEI alone
            (["3912", "353912345678901"], b"-3912-", 1),
            (["4915"], b"491", 0),  # a run shorter than every probe
            (["4915"], bytearray(b"..4915"), 1),  # a stored ciphertext is a bytearray
        ],
    )
    def test_planted_identifiers_are_counted(self, probes, buffer, hits):
        assert self.counts(probes, buffer) == (hits, hits)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_tiny_config_runs_ok_or_raises_configuration_error(self, data):
        """Any accepted sizing of a tiny world, its federation and its vault either runs clean or is refused up front.

        Refused includes `generate_world` giving up on a world too sparse for
        the chain guarantee; any other exception is a defect.
        """
        n_phones = data.draw(st.integers(1, 12))
        duration = data.draw(st.integers(1, 300))
        f = data.draw(st.integers(0, 2))
        n_authorities = data.draw(st.integers(2 * f + 1, 2 * f + 4))
        n_clouds = data.draw(st.integers(1, 6))
        t_incub_min = data.draw(st.integers(0, 60))
        fields = dict(
            seed=data.draw(st.integers(0, 2**31)),
            world_size_m=data.draw(st.sampled_from([10.0, 60.0, 600.0])),
            n_phones=n_phones,
            n_venues=data.draw(st.integers(1, 4)),
            duration_min=duration,
            n_providers=data.draw(st.integers(1, 3)),
            n_macro=data.draw(st.integers(0, 2)),
            n_pico=data.draw(st.integers(0, 2)),
            n_femto=data.draw(st.integers(0, 3)),
            noise_enabled=data.draw(st.booleans()),
            index_cases=data.draw(st.integers(1, n_phones)),
            min_exposure_min=data.draw(st.integers(1, 20)),
            t_incub_min=t_incub_min,
            t_incub_max=t_incub_min + data.draw(st.integers(0, 120)),
            transmission_probability=data.draw(st.sampled_from([1.0, 0.5, 0.05])),
            exact_onset_estimates=data.draw(st.booleans()),
            dur_min=data.draw(st.integers(1, 20)),
            alert_minute=data.draw(st.integers(0, duration)),
            hotspot_cell_m=data.draw(st.sampled_from([1e-3, 50.0])),
            pdr_ttl_factor=data.draw(st.integers(0, 2)),
            prune_every_min=data.draw(st.integers(1, 120)),
            n_authorities=n_authorities,
            f=f,
            q_read=data.draw(st.integers(f + 1, n_authorities)),
            q_critical=data.draw(st.integers(f + 1, n_authorities)),
            fed_key_threshold=data.draw(st.integers(1, n_authorities)),
            n_clouds=n_clouds,
            erasure_k=data.draw(st.integers(1, n_clouds)),
            vault_key_threshold=data.draw(st.integers(1, n_clouds)),
        )
        try:
            report = run(ScenarioConfig(**fields))
        except ConfigurationError:
            return
        assert report.ok, report.summary_text()


@pytest.fixture
def sealed(monkeypatch):
    """Every blob sealed, and every (provider, hour) that pushed a set, while the fixture is active."""
    blobs, provider_hours = [], set()
    seal, push = crypto.seal, EdgeCloud.push

    def recording_seal(context, plaintext, aad):
        blob = seal(context, plaintext, aad)
        blobs.append(bytes(blob))  # a copy: the edge stores the sealed buffer itself and zeroes it on prune
        return blob

    def recording_push(cloud, pdr_set):
        pushed = push(cloud, pdr_set)
        if pushed:
            provider_hours.add((cloud.provider_id, pdr_set.minute // SEAL_EPOCH_MIN))
        return pushed

    monkeypatch.setattr(crypto, "seal", recording_seal)
    monkeypatch.setattr(EdgeCloud, "push", recording_push)
    return blobs, provider_hours


def allow_cpus(monkeypatch, cpus):
    """Make `os.sched_getaffinity` allow `cpus` CPUs; on one CPU any fork fails the test, on more it is skipped where `os.fork` is missing."""
    if cpus > 1 and not hasattr(os, "fork"):
        pytest.skip("the helper needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if cpus == 1:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"), raising=False)


def open_fds():
    """The number of descriptors this process holds open; the test is skipped where /proc/self/fd is missing."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    return len(os.listdir("/proc/self/fd"))


def short_noise(monkeypatch):
    """Make every noise draw return one x and one y offset fewer than there are noisy readings."""
    original = NoiseModel.__call__

    def short(model, runs):
        x, y = original(model, runs)
        return x[:-1], y[:-1]

    monkeypatch.setattr(NoiseModel, "__call__", short)



class TestIngest:
    def test_blocks_push_prune_and_ledger_as_a_minute_at_a_time_loop(self):
        # Neither end of the range, the prune period nor the alert minute falls on a sweep-block boundary.
        config = dataclasses.replace(retention_config(), prune_every_min=13, alert_minute=100, t_incub_max=40, pdr_ttl_factor=1)
        start, stop = 37, 211
        assert all(value % _SWEEP_BLOCK_MIN for value in (start, stop, config.prune_every_min, config.alert_minute))

        def drive(feed):
            # Each prune's (edge, minute, entries stored before it): the stores at every prune, not only at the end.
            prunes = []
            prune = EdgeCloud.prune

            def counting_prune(edge, now):
                prunes.append((edge.provider_id, now, len(edge.stored_ciphertexts())))
                return prune(edge, now)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(EdgeCloud, "prune", counting_prune)
                context = build_context(config)
                counts = feed(context, start, config.alert_minute)
                context.federation.tick(config.alert_minute)
                cert = vet(context.federation, OperationClass.LOCK_UNLOCK, {"target": "ALERT"}, Random("test-ingest"))
                context.federation.change_state(cert, SystemState.ALERT)
                for name, value in feed(context, config.alert_minute, stop).items():
                    counts[name] += value
            stored = {pid: [bytes(c) for c in edge.stored_ciphertexts()] for pid, edge in context.edges.items()}
            return counts, context.federation.ledger.export_jsonl(), stored, prunes

        counts, ledger, stored, prunes = drive(ingest)
        assert counts["sets_pruned"] > 0 and counts["push_failures"] == 0
        assert (counts, ledger, stored, prunes) == drive(reference_ingest)

    def test_on_one_cpu_the_noise_is_drawn_in_process_as_the_loop_draws_it(self, monkeypatch):
        allow_cpus(monkeypatch, 1)
        self.test_blocks_push_prune_and_ledger_as_a_minute_at_a_time_loop()

    @pytest.mark.parametrize("cpus, parent_calls", [(1, 3), (2, 0)])
    def test_the_parent_measures_each_block_only_on_one_cpu_and_keeps_no_descriptor(self, monkeypatch, cpus, parent_calls):
        allow_cpus(monkeypatch, cpus)
        calls = []
        measure = runner.measure
        monkeypatch.setattr(runner, "measure", lambda *args: calls.append(args[1]) or measure(*args))
        context = build_context(retention_config())
        before = open_fds()
        assert ingest(context, 0, 90)["pdrs_emitted"] > 0
        assert calls == [0, 30, 60][:parent_calls]
        assert open_fds() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_offset_count_that_disagrees_with_the_readings_is_refused(self, monkeypatch, cpus):
        # With a second CPU the helper's measure raises the ValidationError, and the parent raises it again.
        allow_cpus(monkeypatch, cpus)
        short_noise(monkeypatch)
        context = build_context(retention_config())
        before = open_fds()
        with pytest.raises(ValidationError, match="offsets"):
            ingest(context, 0, 90)
        assert open_fds() == before
        assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper needs os.fork")
class TestNoiseHelper:
    """Given a second CPU, `ingest` measures each block, noise included, in a forked helper; however the ingest ends, no process outlives it."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        allow_cpus(monkeypatch, 2)

    def test_a_noise_error_in_the_helper_raises_the_named_error(self, monkeypatch):
        def failing(model, runs):
            raise RuntimeError("noise failed")

        monkeypatch.setattr(NoiseModel, "__call__", failing)  # only the helper calls it
        with pytest.raises(RuntimeError, match="^noise failed$"):
            ingest(build_context(retention_config()), 0, 90)
        assert_no_child_left()

    def test_a_helper_that_exits_without_reporting_raises_helper_error(self, monkeypatch):
        parent = os.getpid()

        def leaving(model, runs):
            if os.getpid() == parent:
                pytest.fail("measured in the parent")
            os._exit(3)

        monkeypatch.setattr(NoiseModel, "__call__", leaving)
        with pytest.raises(HelperError, match="exited with status 3$"):
            ingest(build_context(retention_config()), 0, 90)
        assert_no_child_left()

    def test_a_push_that_raises_mid_ingest_still_reaps_the_helper(self, monkeypatch):
        pushes = itertools.count()
        original = EdgeCloud.push

        def failing_push(edge, pdr_set):
            if next(pushes) == 200:
                raise RuntimeError("push failed")
            return original(edge, pdr_set)

        monkeypatch.setattr(EdgeCloud, "push", failing_push)
        context = build_context(retention_config())
        before = open_fds()
        with pytest.raises(RuntimeError, match="push failed"):
            ingest(context, 0, 300)
        assert open_fds() == before
        assert_no_child_left()

    def test_a_finished_run_leaves_no_process(self):
        assert run(ScenarioConfig(**{**CFG, "noise_enabled": True})).ok
        assert_no_child_left()

    @pytest.mark.parametrize("start, stop, forks", [(60, 60, 0), (0, 60, 1)])
    def test_a_helper_is_forked_only_for_a_range_with_a_block(self, monkeypatch, start, stop, forks):
        monkeypatch.setattr(runner, "_spare_cpu", lambda: True)
        forked = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        ingest(build_context(retention_config()), start, stop)
        assert len(forked) == forks
        assert_no_child_left()


class TestSealEpochs:
    def test_one_key_exchange_per_provider_hour(self, sealed):
        blobs, provider_hours = sealed
        config = ScenarioConfig.from_json(SMALL_JSON.read_text())
        counts = ingest(build_context(config), 0, config.duration_min)
        assert len(blobs) == counts["sets_pushed"] == 6037
        assert len({blob[:32] for blob in blobs}) == len(provider_hours) == 46

    def test_no_key_nonce_pair_repeats_across_a_retention_run(self, sealed):
        blobs, provider_hours = sealed
        report = run(retention_config(), faults="vault:1=byzantine")
        assert report.ok and report.counts["sets_pruned"] > 0
        assert len(blobs) == report.counts["sets_pushed"]
        assert len({blob[:44] for blob in blobs}) == len(blobs)  # eph_pub || nonce
        assert len({blob[:32] for blob in blobs}) == len(provider_hours)


class TestFaultSpec:
    def test_parse(self):
        faults = parse_faults("vault:2=byzantine,vault:3=crashed")
        assert faults == {2: FaultMode.BYZANTINE, 3: FaultMode.CRASHED}

    def test_empty(self):
        assert parse_faults(None) == {}
        assert parse_faults("") == {}

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            parse_faults("edge:1=crashed")
        with pytest.raises(ConfigurationError):
            parse_faults("vault:x=crashed")
        with pytest.raises(ConfigurationError):
            parse_faults("vault:1=onfire")
        with pytest.raises(ConfigurationError):
            parse_faults("vault:1=byzantine,vault:1=crashed")

    def test_unknown_cloud_rejected(self):
        with pytest.raises(ConfigurationError):
            build_context(ScenarioConfig(**CFG), {9: FaultMode.CRASHED})

    def test_unknown_cloud_rejected_before_world_generation(self, monkeypatch):
        def generate_world(config):
            raise AssertionError("world generated before the fault spec was checked")

        monkeypatch.setattr(runner, "generate_world", generate_world)
        for spec in ("vault:9=crashed", "vault:0=byzantine", "vault:1=crashed,vault:5=crashed"):
            with pytest.raises(ConfigurationError, match="no vault cloud"):
                run(ScenarioConfig(**CFG), None, spec)


ATTACKS = {
    "provider_read",
    "locked_fetch",
    "subquorum_fetch",
    "certificate_replay",
    "target_swap",
    "ledger_tamper",
    "cloud_coalition",
    "byzantine_fragment",
    "expired_pdr_access",
}


class TestAttackSuite:
    def test_all_attacks_fail_safely(self):
        results = attack_suite(ScenarioConfig(seed=8, n_phones=12, duration_min=120, alert_minute=60))
        assert len(results) == 9
        for result in results:
            assert result.safe, f"{result.name}: {result.detail}"
        names = {r.name for r in results}
        assert names == ATTACKS

    @staticmethod
    def _with_refusals_missing(monkeypatch, dropped) -> dict:
        """The attack suite's results with `dropped` left out of every refusal record."""
        refuse = Federation.refuse
        monkeypatch.setattr(Federation, "refuse", lambda self, reason, **fields: refuse(self, reason, **{k: v for k, v in fields.items() if k != dropped}))
        return {r.name: r for r in attack_suite(ScenarioConfig(seed=8, n_phones=12, duration_min=120, alert_minute=60))}

    @pytest.mark.parametrize(
        "name, dropped",
        [
            ("subquorum_fetch", "provider"),
            ("subquorum_fetch", "request_id"),
            ("certificate_replay", "provider"),
            ("certificate_replay", "request_id"),
            ("target_swap", "request_id"),
        ],
    )
    def test_a_subquorum_refusal_that_misses_the_request_or_the_edge_is_unsafe(self, monkeypatch, name, dropped):
        assert not self._with_refusals_missing(monkeypatch, dropped)[name].safe

    @pytest.mark.parametrize("dropped", ["provider", "request_id"])
    def test_a_locked_fetch_refusal_that_misses_the_request_or_the_edge_is_unsafe(self, monkeypatch, dropped):
        assert not self._with_refusals_missing(monkeypatch, dropped)["locked_fetch"].safe

    @pytest.mark.parametrize(
        "name, unledgered",
        [
            ("locked_fetch", "system is PASSIVE"),
            ("certificate_replay", "certificate already fetched from P1"),
            ("target_swap", "certificate approved target PASSIVE, not ALERT"),
        ],
        ids=["locked_fetch", "certificate_replay", "target_swap"],
    )
    def test_an_unledgered_locked_fetch_is_unsafe(self, monkeypatch, name, unledgered):
        refuse = Federation.refuse
        monkeypatch.setattr(Federation, "refuse", lambda self, reason, **fields: None if reason == unledgered else refuse(self, reason, **fields))
        results = {r.name: r for r in attack_suite(ScenarioConfig(seed=8, n_phones=12, duration_min=120, alert_minute=60))}
        assert [r.name for r in results.values() if not r.safe] == [name]

    def test_an_unexpected_error_is_a_breach_and_the_suite_goes_on(self, monkeypatch):
        def handle_fetch_frame(cloud, frame):
            raise FramingError("fetch frame lost")

        monkeypatch.setattr(EdgeCloud, "handle_fetch_frame", handle_fetch_frame)
        results = attack_suite(ScenarioConfig(seed=8, n_phones=12, duration_min=120, alert_minute=60))
        assert sorted(r.name for r in results) == sorted(ATTACKS)
        locked_fetch = next(r for r in results if r.name == "locked_fetch")
        assert not locked_fetch.safe and locked_fetch.detail == "raised FramingError: fetch frame lost"


def ledger_line(sequence: int, previous_hash: bytes, content) -> bytes:
    """One exported ledger line whose hash chains `content` as the ledger would."""
    hashed = entry_hash(sequence, previous_hash, content)
    return framing.canonical_json({"sequence": sequence, "previous_hash": previous_hash.hex(), "hash": hashed.hex(), "content": content}) + b"\n"


class TestCli:
    def _write_config(self, tmp_path) -> Path:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(CFG))
        return path

    def test_run_command(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()
        assert "OK" in result.output

    def test_run_seed_override(self, tmp_path):
        config = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out1), "--seed", "77"])
        r2 = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()

    def test_bad_config_aborts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CFG, "transmission_distance_m": 1e9}))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "aborted" in result.output

    def test_malformed_json_aborts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "aborted" in result.output

    @pytest.mark.parametrize("field, value", [("world_size_m", "NaN"), ("prox_max_m", "NaN"), ("hotspot_cell_m", "Infinity")])
    def test_non_finite_float_aborts(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CFG, field: float(value)}))
        assert value in path.read_text()
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "run aborted" in result.output and field in result.output

    def test_non_utf8_config_aborts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(CFG).encode("utf-16-le"))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "run aborted" in result.output and "UTF-8" in result.output

    def test_zero_prune_interval_aborts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CFG, "prune_every_min": 0}))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "prune_every_min" in result.output

    def test_verify_ledger_command(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        ok = CliRunner().invoke(main, ["verify-ledger", str(out / "ledger.jsonl")])
        assert ok.exit_code == 0 and "VALID" in ok.output
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text((out / "ledger.jsonl").read_text().replace("ALERT", "ALERt", 1))
        bad = CliRunner().invoke(main, ["verify-ledger", str(tampered)])
        assert bad.exit_code == 1 and "BROKEN" in bad.output

    @pytest.mark.parametrize(
        "mangle, why",
        [
            (lambda data: b"\xff\xfe" + data, "not UTF-8"),
            (lambda data: data.rstrip(b"\n")[:-10], "truncated JSON line"),
            (lambda data: data.replace(b'"previous_hash":', b'"previous":', 1), "missing previous_hash"),
            (lambda data: data.replace(b'"hash":"', b'"hash":"zz', 1), "non-hex hash"),
            (lambda data: data.replace(b'"sequence":1}', b'"sequence":1.0}', 1), "non-integer sequence"),
            (lambda data: data.replace(b'"sequence":1}', b'"sequence":true}', 1), "bool sequence"),
            (lambda data: ledger_line(0, GENESIS_HASH, [1, 2]), "non-object content"),
        ],
    )
    def test_verify_ledger_unreadable_file(self, completed_run, tmp_path, mangle, why):
        _, out = completed_run
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(mangle((out / "ledger.jsonl").read_bytes()))
        result = CliRunner().invoke(main, ["verify-ledger", str(path)])
        assert result.exit_code == 1, why
        assert result.exception is None or isinstance(result.exception, SystemExit), why
        assert result.output.startswith("ledger unreadable: ") and result.output.count("\n") == 1, (why, result.output)

    @pytest.mark.parametrize(
        "args",
        [["verify-ledger", "{dir}"], ["run", "--config", "{dir}", "--out", "{dir}/o"], ["attack-suite", "--config", "{dir}"]],
    )
    def test_a_directory_for_a_file_is_refused(self, tmp_path, args):
        result = CliRunner().invoke(main, [a.format(dir=tmp_path) for a in args])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "is a directory" in result.output

    @pytest.mark.parametrize("out, why", [("{config}", "is a file"), ("{config}/sub", "run aborted")])
    def test_run_out_on_an_existing_file_is_refused_up_front(self, tmp_path, monkeypatch, out, why):
        config = self._write_config(tmp_path)
        monkeypatch.setattr("epitrace.cli.run_scenario", lambda *args: pytest.fail("the run started"))
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", out.format(config=config)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert why in result.output

    def test_export_dag_without_a_dag_is_refused(self, tmp_path):
        result = CliRunner().invoke(main, ["export-dag", "--run-dir", str(tmp_path)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("export aborted: ") and result.output.count("\n") == 1
        assert "dag.dot" in result.output

    def test_export_dag_into_a_missing_directory_is_refused(self, tmp_path):
        (tmp_path / "dag.dot").write_text("digraph contamination {\n}\n")
        out = tmp_path / "missing" / "x.dot"
        result = CliRunner().invoke(main, ["export-dag", "--run-dir", str(tmp_path), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.startswith("export aborted: ") and result.output.count("\n") == 1

    def test_attack_suite_command(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(seed=8, n_phones=12, duration_min=120, alert_minute=60)))
        result = CliRunner().invoke(main, ["attack-suite", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "BREACHED" not in result.output

    def test_export_dag_command(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "out"
        CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        result = CliRunner().invoke(main, ["export-dag", "--run-dir", str(out)])
        assert result.exit_code == 0
        assert result.output.startswith("digraph contamination {")
        dot_file = tmp_path / "dag_export.dot"
        result2 = CliRunner().invoke(main, ["export-dag", "--run-dir", str(out), "--out", str(dot_file)])
        assert result2.exit_code == 0
        assert dot_file.read_text() == (out / "dag.dot").read_text()


JSON_VALUES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
# Keys from a tiny alphabet, so that equal keys are common.
KEYED_ITEMS = st.lists(st.tuples(st.tuples(st.sampled_from(["1", "10", "2"]), st.sampled_from(["1", "2"])), JSON_VALUES), max_size=12)


def keyed_obj(item) -> dict:
    (a, b), value = item
    return {"pair": [a, b], "value": value, "tag": [value, {"z": 1, "a": [a]}]}


class TestStreamedArtifacts:
    @given(KEYED_ITEMS)
    @example([])
    @example([(("1", "2"), "second"), (("1", "2"), "first"), (("1", "10"), 1.5), (("1", "2"), None)])
    def test_json_list_equals_the_sorted_list_dumped_whole(self, items):
        whole = framing.canonical_json(sorted(map(keyed_obj, items), key=lambda o: o["pair"])) + b"\n"
        assert artifacts._json_list(items, keyed_obj, lambda item: item[0]) == whole

    def test_json_list_keeps_the_order_of_equal_keys(self):
        items = [(("1", "2"), value) for value in ("c", "a", "b")]
        assert [o["value"] for o in json.loads(artifacts._json_list(items, keyed_obj, lambda item: item[0]))] == ["c", "a", "b"]
