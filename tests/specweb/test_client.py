"""Tests for the SPECWeb-like client against scripted transports."""

import pytest

from repro.ossim.vfs import SimBuffer, VirtualFileSystem
from repro.sim.kernel import Simulator
from repro.specweb import client as client_module
from repro.specweb.client import SpecWebClient
from repro.specweb.fileset import SpecWebFileset
from repro.webservers.http import HttpResponse


@pytest.fixture
def world():
    sim = Simulator(seed=11)
    fileset = SpecWebFileset(directories=2)
    fileset.populate(VirtualFileSystem())
    return sim, fileset


def _perfect_transport(fileset):
    """A transport that answers every request correctly and instantly."""

    def transport(request, respond):
        if request.is_post:
            respond(HttpResponse(200, content_length=200))
            return
        entry = fileset.entry(request.path)
        if request.dynamic:
            respond(HttpResponse(200, content_length=entry.size + 128))
            return
        buffer = SimBuffer.for_content(entry.content_id, 0, entry.size)
        respond(HttpResponse(200, content_length=entry.size,
                             buffer=buffer))

    return transport


def test_client_runs_and_records_clean_ops(world):
    sim, fileset = world
    client = SpecWebClient(
        sim, _perfect_transport(fileset), fileset,
        connections=4,
    )
    client.start()
    sim.run_until(30.0)
    assert client.total_ops() > 50
    assert client.total_errors() == 0


def test_client_detects_wrong_content(world):
    sim, fileset = world

    def corrupting(request, respond):
        entry = fileset.entry(request.path) if not request.is_post else None
        if entry is None:
            respond(HttpResponse(200, content_length=200))
            return
        size = entry.size if not request.dynamic else entry.size + 128
        # Right length, wrong bytes.
        buffer = SimBuffer.for_content(0xBAD, 0, entry.size)
        respond(HttpResponse(200, content_length=size, buffer=buffer))

    client = SpecWebClient(sim, corrupting, fileset,
                           connections=2)
    client.start()
    sim.run_until(20.0)
    assert client.collector.error_kinds.get("content", 0) > 0


def test_client_detects_truncated_length(world):
    sim, fileset = world

    def truncating(request, respond):
        if request.is_post:
            respond(HttpResponse(200, content_length=200))
            return
        entry = fileset.entry(request.path)
        respond(HttpResponse(200, content_length=max(0, entry.size - 1)))

    client = SpecWebClient(sim, truncating, fileset,
                           connections=2)
    client.start()
    sim.run_until(20.0)
    assert client.collector.error_kinds.get("length", 0) > 0


def test_client_counts_error_statuses(world):
    sim, fileset = world

    def failing(request, respond):
        respond(HttpResponse.error(503))

    client = SpecWebClient(sim, failing, fileset,
                           connections=2)
    client.start()
    sim.run_until(10.0)
    assert client.total_errors() == client.total_ops()
    assert client.collector.error_kinds.get("status_503", 0) > 0


def test_refused_connection_backs_off(world, monkeypatch):
    sim, fileset = world

    def refusing(request, respond):
        respond(None)

    monkeypatch.setattr(client_module, "REFUSED_BACKOFF", 0.5)
    client = SpecWebClient(sim, refusing, fileset, connections=1)
    client.start()
    sim.run_until(10.0)
    # Roughly one attempt per backoff period, not a tight loop.
    assert client.total_ops() < 25
    assert client.collector.error_kinds.get("refused", 0) > 0


def test_silent_transport_triggers_timeouts(world, monkeypatch):
    sim, fileset = world

    def blackhole(request, respond):
        pass  # never respond

    monkeypatch.setattr(client_module, "OP_TIMEOUT", 3.0)
    client = SpecWebClient(sim, blackhole, fileset, connections=2)
    client.start()
    sim.run_until(10.0)
    timeouts = client.collector.error_kinds.get("timeout", 0)
    assert timeouts >= 4  # ~3 per connection in 10 s


def test_late_response_after_timeout_ignored(world, monkeypatch):
    sim, fileset = world
    pending = []

    def slow(request, respond):
        pending.append(respond)

    monkeypatch.setattr(client_module, "OP_TIMEOUT", 1.0)
    client = SpecWebClient(sim, slow, fileset, connections=1)
    client.start()
    sim.run_until(2.0)
    ops_after_timeout = client.total_ops()
    assert ops_after_timeout >= 1
    # Deliver the stale response now; it must not double-count.
    pending[0](HttpResponse(200, content_length=10))
    sim.run_until(3.0)
    assert client.collector.error_kinds.get("timeout", 0) >= 1


def test_pause_stops_new_operations(world):
    sim, fileset = world
    client = SpecWebClient(
        sim, _perfect_transport(fileset), fileset,
        connections=2,
    )
    client.start()
    sim.run_until(5.0)
    client.pause()
    sim.run_until(6.0)  # drain in-flight
    ops_at_pause = client.total_ops()
    sim.run_until(12.0)
    assert client.total_ops() == ops_at_pause
    client.resume()
    sim.run_until(15.0)
    assert client.total_ops() > ops_at_pause


def test_connection_rates_span_configured_band(world, monkeypatch):
    sim, fileset = world
    monkeypatch.setattr(client_module, "MIN_RATE_BPS", 300_000)
    monkeypatch.setattr(client_module, "MAX_RATE_BPS", 500_000)
    client = SpecWebClient(sim, _perfect_transport(fileset), fileset,
                           connections=30)
    rates = [connection.rate_bps for connection in client.connections]
    assert min(rates) >= 300_000
    assert max(rates) <= 500_000
    assert max(rates) - min(rates) > 50_000  # genuinely spread


def test_two_clients_same_seed_identical(world):
    sim_a = Simulator(seed=77)
    sim_b = Simulator(seed=77)
    fileset = world[1]
    for sim in (sim_a, sim_b):
        client = SpecWebClient(
            sim, _perfect_transport(fileset), fileset,
            connections=3,
            rng=sim.rng_for("client"),
        )
        client.start()
        sim.run_until(10.0)
        sim.client_ops = client.total_ops()
    assert sim_a.client_ops == sim_b.client_ops
