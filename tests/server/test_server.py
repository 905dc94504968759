"""End-to-end server tests: real sockets, real tenants, real answers.

The acceptance bar: a :class:`S2SClient` talking to a live
:class:`S2SServer` must return answers *equal* to the in-process
middleware's — same entities, same degradation flags, same store
provenance — across tenants whose mappings are isolated from each
other.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.clock import SystemClock
from repro.config import ConcurrencyConfig, FleetConfig
from repro.core.cluster import QueryShardCoordinator
from repro.obs import MetricsRegistry
from repro.server import (PROTOCOL_VERSION, RemoteServerError, S2SClient,
                          S2SServer, ServerConfig, ServerThread, Tenant,
                          TenantRegistry)
from repro.server.client import RemoteSparqlResult
from repro.server.protocol import (CODE_AUTH, CODE_BAD_REQUEST, CODE_QUERY,
                                   CODE_UNKNOWN_KIND, encode_frame,
                                   read_frame_sync, write_frame_sync)
from repro.workloads import B2BScenario


@pytest.fixture(scope="module")
def world():
    """Two tenants with *different* scenarios + a live server."""
    acme = B2BScenario(n_sources=3, n_products=12, seed=7).build_middleware(
        store=True)
    globex = B2BScenario(n_sources=2, n_products=5,
                         seed=11).build_middleware()
    registry = TenantRegistry()
    registry.add(Tenant("acme", acme, token="s3cret"))
    registry.add(Tenant("globex", globex))
    thread = ServerThread(S2SServer(registry))
    host, port = thread.start()
    yield {"host": host, "port": port, "acme": acme, "globex": globex}
    thread.stop()


def client_for(world, tenant, **kwargs):
    kwargs.setdefault("token", "s3cret" if tenant == "acme" else None)
    return S2SClient(world["host"], world["port"], tenant=tenant, **kwargs)


def assert_results_match(remote, local):
    """Entity-level equality between a wire answer and a local one."""
    assert len(remote) == len(local)
    assert remote.degraded == local.degraded
    assert remote.degraded_sources == local.degraded_sources
    assert remote.store_hit == local.store_hit
    assert remote.store_stale == local.store_stale
    for remote_entity, local_entity in zip(remote.entities, local.entities):
        assert remote_entity.source_id == local_entity.source_id
        assert remote_entity.record_index == local_entity.record_index
        remote_individuals = remote_entity.all_individuals()
        local_individuals = local_entity.all_individuals()
        assert len(remote_individuals) == len(local_individuals)
        for r, l in zip(remote_individuals, local_individuals):
            assert r.class_name == l.class_name
            assert r.values == dict(l.values)


class TestEndToEnd:
    def test_query_matches_in_process(self, world):
        query = "SELECT Product WHERE price < 900"
        world["acme"].query(query)  # warm: first query materializes
        local = world["acme"].query(query)
        with client_for(world, "acme") as client:
            remote = client.query(query)
        assert_results_match(remote, local)
        assert remote.query_class == local.plan.class_name
        assert remote.server_seconds >= 0.0
        assert remote.elapsed_seconds > 0.0

    def test_store_hit_flag_crosses_the_wire(self, world):
        query = "SELECT Provider"
        world["acme"].materialize(query)
        local = world["acme"].query(query)
        assert local.store_hit
        with client_for(world, "acme") as client:
            remote = client.query(query)
        assert remote.store_hit
        assert_results_match(remote, local)

    def test_query_many_matches_in_process(self, world):
        queries = ["SELECT Product", "SELECT Provider",
                   "SELECT Product WHERE price < 500"]
        local = world["globex"].query_many(queries)
        with client_for(world, "globex") as client:
            remote = client.query_many(queries)
        assert len(remote) == len(local)
        for r, l in zip(remote, local):
            assert_results_match(r, l)

    def test_tenants_are_isolated(self, world):
        query = "SELECT Product"
        with client_for(world, "acme") as acme, \
                client_for(world, "globex") as globex:
            acme_result = acme.query(query)
            globex_result = globex.query(query)
        assert len(acme_result) == len(world["acme"].query(query))
        assert len(globex_result) == len(world["globex"].query(query))
        assert len(acme_result) != len(globex_result)

    def test_prepared_statement_flow(self, world):
        query = "SELECT Product WHERE price < 700"
        local = world["acme"].query(query)
        with client_for(world, "acme") as client:
            statement = client.prepare("hot", query)
            assert statement.query_class == local.plan.class_name
            assert statement.attributes == len(
                local.plan.required_attributes)
            first = statement.execute()
            second = statement.execute()
        assert_results_match(first, local)
        assert_results_match(second, local)

    def test_prepared_statement_rebinds_merge_key(self, world):
        query = "SELECT Product"
        merge_key = ["name"]
        local = world["acme"].query(query, merge_key=merge_key)
        with client_for(world, "acme") as client:
            statement = client.prepare("merged", query)
            remote = statement.execute(merge_key=merge_key)
        assert_results_match(remote, local)

    def test_sparql_over_the_wire(self, world):
        world["acme"].materialize("SELECT Provider")
        select = ("SELECT ?s WHERE { ?s "
                  "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c }")
        local = world["acme"].sparql(select)
        with client_for(world, "acme") as client:
            remote = client.sparql(select)
        assert isinstance(remote, RemoteSparqlResult)
        assert remote.variables == list(local.variables)
        assert len(remote) == len(local.rows)

    def test_explain_over_the_wire(self, world):
        with client_for(world, "globex") as client:  # no store: live path
            rendered = client.explain("SELECT Product")
        assert "query" in rendered
        assert "extract" in rendered

    def test_status_and_metrics(self, world):
        with client_for(world, "acme") as client:
            status = client.status()
            metrics = client.metrics()
        assert status["tenant"] == "acme"
        assert status["server"]["tenants"] == 2
        assert status["middleware"]["sources"] == 3
        assert 0.0 < status["middleware"]["coverage"] <= 1.0
        assert "server_requests_total" in metrics["metrics"]["server"]
        assert "queries_total" in metrics["metrics"]["tenant"]

    def test_status_reports_the_attached_fleet_shape(self):
        """After attach_fleet() the serving fleet, not the middleware's
        own (default 2-worker) config, is the fleet STATUS reports."""
        s2s = B2BScenario(n_sources=2, n_products=4,
                          seed=7).build_middleware(
            concurrency=ConcurrencyConfig.sharded())
        shared = QueryShardCoordinator(clock=SystemClock(),
                                       fleet=FleetConfig(n_workers=3))
        s2s.attach_fleet(shared, tenant="acme")
        registry = TenantRegistry()
        registry.add(Tenant("acme", s2s, owned=True))
        with ServerThread(S2SServer(registry)) as (host, port):
            with S2SClient(host, port, tenant="acme") as client:
                engine = client.status()["middleware"]["engine"]
        shared.shutdown()
        assert engine["mode"] == "sharded"
        assert engine["fleet"]["workers"] == 3
        assert "workers" not in engine and "pool" not in engine

    def test_welcome_carries_protocol_and_tenant(self, world):
        with client_for(world, "acme") as client:
            assert client.server_info["protocol"] == PROTOCOL_VERSION
            assert client.server_info["tenant"] == "acme"
            assert client.server_info["server"].startswith("repro-s2s/")


class TestRejections:
    def test_bad_token(self, world):
        with pytest.raises(RemoteServerError) as excinfo:
            client_for(world, "acme", token="wrong").connect()
        assert excinfo.value.code == CODE_AUTH

    def test_unknown_tenant(self, world):
        with pytest.raises(RemoteServerError) as excinfo:
            S2SClient(world["host"], world["port"],
                      tenant="nobody").connect()
        assert excinfo.value.code == CODE_AUTH

    def test_unknown_tenant_and_bad_token_look_identical(self, world):
        """A probe can't learn which half of the credentials was wrong."""
        try:
            client_for(world, "acme", token="wrong").connect()
        except RemoteServerError as exc:
            bad_token = str(exc)
        try:
            S2SClient(world["host"], world["port"], tenant="nobody",
                      token="wrong").connect()
        except RemoteServerError as exc:
            unknown_tenant = str(exc)
        assert bad_token == unknown_tenant

    def test_protocol_version_mismatch(self, world):
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        write_frame_sync(sock, {"kind": "HELLO", "protocol": 99,
                                "tenant": "globex"})
        reply = read_frame_sync(sock)
        assert reply["kind"] == "ERROR"
        assert reply["code"] == CODE_BAD_REQUEST
        sock.close()

    def test_first_frame_must_be_hello(self, world):
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        write_frame_sync(sock, {"kind": "STATUS"})
        reply = read_frame_sync(sock)
        assert reply["kind"] == "ERROR"
        assert reply["code"] == CODE_BAD_REQUEST
        sock.close()

    def test_unknown_kind(self, world):
        with client_for(world, "globex") as client:
            with pytest.raises(RemoteServerError) as excinfo:
                client._request({"kind": "FROBNICATE"}, "NEVER")
        assert excinfo.value.code == CODE_UNKNOWN_KIND

    def test_syntax_error_is_query_error(self, world):
        with client_for(world, "globex") as client:
            with pytest.raises(RemoteServerError) as excinfo:
                client.query("SELEKT nothing !!")
        assert excinfo.value.code == CODE_QUERY

    def test_query_error_does_not_kill_the_session(self, world):
        with client_for(world, "globex") as client:
            with pytest.raises(RemoteServerError):
                client.query("SELEKT nothing !!")
            assert len(client.query("SELECT Product")) == 5

    def test_execute_unbound_portal(self, world):
        with client_for(world, "globex") as client:
            with pytest.raises(RemoteServerError) as excinfo:
                client._request({"kind": "EXECUTE", "portal": "ghost"},
                                "RESULT")
        assert excinfo.value.code == CODE_BAD_REQUEST

    def test_sparql_without_store(self, world):
        with client_for(world, "globex") as client:  # globex has no store
            with pytest.raises(RemoteServerError) as excinfo:
                client.sparql("SELECT ?s WHERE { ?s ?p ?o }")
        assert excinfo.value.code == CODE_BAD_REQUEST


class TestMalformedFraming:
    def test_garbled_frame_gets_bad_frame_error(self, world):
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        body = b"certainly not json"
        sock.sendall(struct.pack(">I", len(body)) + body)
        reply = read_frame_sync(sock)
        assert reply["kind"] == "ERROR"
        assert reply["code"] == "BAD_FRAME"
        sock.close()

    def test_half_open_connection_is_survived(self, world):
        # A client that sends half a header and vanishes must not take
        # the server down, nor poison other sessions.
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        sock.sendall(b"\x00\x00")
        sock.close()
        with client_for(world, "globex") as client:
            assert len(client.query("SELECT Product")) == 5

    def test_deeply_nested_hello_gets_bad_frame_and_is_counted(self):
        metrics = MetricsRegistry()
        server = S2SServer({"t": B2BScenario(n_sources=1, n_products=2,
                                             seed=3).build_middleware()},
                           metrics=metrics)
        depth = 100_000
        body = (b'{"kind": "HELLO", "protocol": ' + str(PROTOCOL_VERSION)
                .encode() + b', "tenant": "t", "x": ' + b"[" * depth
                + b"]" * depth + b"}")
        with ServerThread(server) as (host, port):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = read_frame_sync(sock)
            sock.close()
        assert reply["kind"] == "ERROR"
        assert reply["code"] == "BAD_FRAME"
        assert metrics.value("server_frame_errors_total",
                             kind="GarbledFrameError") == 1

    def test_oversized_frame_is_refused(self, world):
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        sock.sendall(struct.pack(">I", 512 * 1024 * 1024))
        reply = read_frame_sync(sock)
        assert reply["kind"] == "ERROR"
        assert reply["code"] == "BAD_FRAME"
        sock.close()

    def test_goodbye_closes_cleanly(self, world):
        sock = socket.create_connection((world["host"], world["port"]),
                                        timeout=5.0)
        write_frame_sync(sock, {"kind": "HELLO",
                                "protocol": PROTOCOL_VERSION,
                                "tenant": "globex"})
        assert read_frame_sync(sock)["kind"] == "WELCOME"
        write_frame_sync(sock, {"kind": "GOODBYE"})
        assert read_frame_sync(sock)["kind"] == "GOODBYE"
        assert read_frame_sync(sock) is None  # server closed after
        sock.close()


class TestLifecycle:
    def test_graceful_drain_refuses_new_work(self):
        middleware = B2BScenario(n_sources=2, n_products=4,
                                 seed=3).build_middleware()
        thread = ServerThread(S2SServer({"default": middleware}))
        host, port = thread.start()
        client = S2SClient(host, port, tenant="default")
        assert len(client.query("SELECT Product")) == 4
        thread.stop()
        with pytest.raises((ConnectionError, OSError, Exception)):
            S2SClient(host, port, tenant="default").connect()

    def test_owned_middlewares_closed_on_stop(self):
        middleware = B2BScenario(n_sources=2, n_products=4,
                                 seed=3).build_middleware()
        registry = TenantRegistry()
        registry.add(Tenant("default", middleware, owned=True))
        thread = ServerThread(S2SServer(registry))
        thread.start()
        thread.stop()
        assert middleware._closed

    def test_server_requires_a_tenant(self):
        with pytest.raises(Exception):
            S2SServer({})

    def test_encode_frame_helper_used_by_clients(self):
        # sanity: the helper the clients share refuses oversized payloads
        # before anything touches a socket
        from repro.server.protocol import OversizedFrameError
        with pytest.raises(OversizedFrameError):
            encode_frame({"kind": "QUERY", "s2sql": "x" * 4096},
                         max_bytes=1024)
