"""Peak traced allocation of each bulk wire-path call, as a multiple of the bytes it moves.

A buffer crosses each layer with at most one copy: into a frame where one is
assembled, or into the store that must own (and later zero) it. Each bound
sits between the figure of a path that copied at every layer and the in-place
figure, so a copy that comes back fails its test. The comments give both
figures (copying -> in place), for a 1,000-entry frame of 1 KB ciphertexts,
a 1 MiB payload, a 5,000-phone set and four hours of small.json. tracemalloc
counts every Python and NumPy allocation, so the figures repeat exactly for
one interpreter and library set; the call's result counts, since it is
allocated inside the measured window.
"""

import json
import math
import tracemalloc
from random import Random

import pytest

from epitrace import cep, edge, erasure, framing, runner
from epitrace.edge import EdgeCloud
from epitrace.records import PdrSet, encode_pdr_set
from epitrace.world import ScenarioConfig
from test_vault import caps, make_vault
from util import SMALL_JSON, alerted_federation, ingested_for_analysis, pair_table, phone, station

PAYLOAD = Random(1).randbytes(1 << 20)


def traced_peak(fn, *args):
    """(result, peak bytes allocated while `fn(*args)` ran, over what was allocated before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fetch_entries():
    rng = Random(2)
    return [(minute % 3, bytearray(rng.randbytes(1000))) for minute in range(1000)]


def test_fetch_response_encode_copies_each_ciphertext_once(fetch_entries):
    # 2.22x -> 1.22x: no per-entry length-prefixed copy ahead of the join.
    _, peak = traced_peak(framing.encode_fetch_response, fetch_entries)
    assert peak < 1.75 * 1_000_000


def test_fetch_response_decode_copies_no_ciphertext(fetch_entries):
    # 1.10x -> 0.25x: the entries are views of the frame; what is left is tuples and view objects.
    frame = framing.encode_fetch_response(fetch_entries)
    _, peak = traced_peak(framing.decode_fetch_response, frame)
    assert peak < 0.75 * 1_000_000


def test_fragment_message_encode_copies_the_fragment_once():
    # 2.00x -> 1.00x: one join, not a chain of concatenations.
    fragment = PAYLOAD[: len(PAYLOAD) // 2]
    _, peak = traced_peak(framing.encode_fragment_message, bytes(16), 1, fragment, bytes(33))
    assert peak < 1.5 * len(fragment)


def test_fragment_message_decode_copies_no_fragment():
    # 1.00x -> 0.00x: the cloud's bytearray is the one copy.
    fragment = PAYLOAD[: len(PAYLOAD) // 2]
    message = framing.encode_fragment_message(bytes(16), 1, fragment, bytes(33))
    _, peak = traced_peak(framing.decode_fragment_message, message)
    assert peak < 0.5 * len(fragment)


def test_erasure_encode_writes_the_framed_payload_once():
    # 3.57x -> 2.57x, of which the four fragments are 2x.
    _, peak = traced_peak(erasure.encode, PAYLOAD, 2, 4)
    assert peak < 3.0 * len(PAYLOAD)


def test_erasure_decode_joins_the_payload_once():
    # 2.50x -> 1.50x with one parity fragment: the rebuilt stripe, then the payload.
    fragments = erasure.encode(PAYLOAD, 2, 4)
    _, peak = traced_peak(erasure.decode, fragments[1:3], 2)
    assert peak < 2.0 * len(PAYLOAD)


def test_vault_write_and_read_copy_once_per_hop():
    # write 6.00x -> 3.57x: the ciphertext and each fragment go once the next layer holds them,
    # and the clouds' copies (2x) stay. read 3.00x -> 2.00x: the ciphertext and the plaintext.
    federation, vault = make_vault()
    cap_write, cap_full = caps(federation)
    object_id, peak_write = traced_peak(vault.write, cap_write, PAYLOAD)
    assert peak_write < 4.25 * len(PAYLOAD)
    plaintext, peak_read = traced_peak(vault.read, cap_full, object_id)
    assert plaintext == PAYLOAD
    assert peak_read < 2.5 * len(PAYLOAD)


def test_artifact_payloads_encode_each_object_as_it_is_built(monkeypatch):
    # 12.6x -> 3.06x of the four payloads: no list of every object's dict, no second copy of the whole JSON.
    captured = []
    real = runner.artifact_payloads
    monkeypatch.setattr(runner, "artifact_payloads", lambda *args: captured.append(args) or real(*args))
    runner.run(ScenarioConfig(seed=31, n_phones=20, duration_min=360, alert_minute=300, noise_enabled=False, exact_onset_estimates=True))
    payloads, peak = traced_peak(real, *captured[0])
    assert payloads["suspicions.json"] != b"[]\n"
    assert peak < 5.0 * sum(map(len, payloads.values()))


def test_push_seals_into_the_stored_buffer(monkeypatch):
    # 2.00x -> 1.00x of the sealed set, its plaintext encoded before: the AEAD writes the buffer the store keeps.
    federation = alerted_federation()
    federation.escrow_keypair("provider:P1")
    cloud = EdgeCloud("P1", "provider:P1", federation, pdr_ttl=10_000, rng=Random(3))
    rng = Random(4)
    readings = [(rng.uniform(0.0, 50.0), rng.uniform(0.0, 6.0)) for _ in range(5000)]
    pdr_set = PdrSet(5, station(1), tuple(phone(i) for i in range(5000)), *map(tuple, zip(*readings)))
    assert cloud.push(pdr_set)  # opens the hour's seal context
    plaintext = encode_pdr_set(pdr_set, {})
    monkeypatch.setattr(edge, "encode_pdr_set", lambda *args: plaintext)
    pushed, peak = traced_peak(cloud.push, pdr_set)
    assert pushed and len(cloud.stored_ciphertexts()) == 2
    assert peak < 1.5 * len(plaintext)


@pytest.fixture(scope="module")
def four_hours():
    """small.json's first four hours, ingested and ALERT: its config, context and read-certificate source."""
    fields = json.loads(SMALL_JSON.read_text())
    fields.update(duration_min=240, alert_minute=200)
    config = ScenarioConfig.from_dict(fields)
    return (config, *ingested_for_analysis(config))


def test_index_sweeps_the_fetch_as_a_stream(four_hours):
    # Of the stored ciphertext bytes of small.json's first four hours: 2.23x for the whole fetch decoded
    # into a list and indexed by a table that kept every set, 2.26x for that list into the streaming
    # table, 1.95x streamed; with the table in columns, 2.15x listed and 1.84x streamed. (On the whole
    # day: 2.44x, 2.31x, 1.86x; in columns 2.16x and 1.43x.)
    config, context, read_cert = four_hours
    stored = sum(len(c) for cloud in context.edges.values() for c in cloud.stored_ciphertexts())
    minute_range = (0, config.duration_min)
    certs = read_cert(), read_cert()

    def index(sets):
        return cep.PdrIndex(sets, config.prox_max_m)

    streamed, peak = traced_peak(lambda: index(runner._fetch_and_decrypt(context, certs[0], minute_range)))
    listed, peak_listed = traced_peak(lambda: index(list(runner._fetch_and_decrypt(context, certs[1], minute_range))))
    assert pair_table(streamed) == pair_table(listed)
    assert peak < 2.1 * stored
    assert peak < 0.9 * peak_listed


def test_pair_table_holds_at_most_40_bytes_per_sample(four_hours):
    # The heap the table keeps once built, per sample, small.json's first four hours: 127 bytes for
    # 5-tuples in a dict of dicts, 35 for columns (21 bytes of samples, the rest each set's phone ranks
    # for the `presence` probe).
    config, context, read_cert = four_hours
    sets = list(runner._fetch_and_decrypt(context, read_cert(), (0, config.duration_min)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = cep.PdrIndex(sets, config.prox_max_m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    samples = sum(len(rows) for rows in pair_table(index).values())
    assert samples > 5000
    assert held <= 40 * samples


def test_a_crowd_at_one_radius_is_measured_in_bounded_runs(monkeypatch):
    # 600 phones on a ring 100 m out: 179,700 candidate pairs, 600 in range. Measured all at once the sweep
    # peaks at 10.2 MB; in runs of at most 16,384 candidates, at 1.0 MB.
    monkeypatch.setattr(cep, "_MAX_CANDIDATES", 1 << 14)
    n = 600
    ring = PdrSet(0, station(1), tuple(sorted(map(phone, range(n)))), (100.0,) * n, tuple(2 * math.pi * k / n for k in range(n)))
    index, peak = traced_peak(cep.PdrIndex, [ring], 2.0)
    assert len(pair_table(index)) == n
    assert peak < 2.5e6
