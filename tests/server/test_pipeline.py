"""Pipelined requests per connection (docs/TRANSPORT.md §3).

Multiple in-flight operations on one connection, responses strictly in
submission order, latency amortized: n pipelined ops cost one
round-trip latency plus per-op service time on the virtual clock,
against the synchronous path's n full round trips.
"""

import pytest

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification, SimulatedNetwork, connect
from repro.server.operations import LdapError

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")


def build_network(**kwargs):
    net = SimulatedNetwork(**kwargs)
    server = DirectoryServer("M")
    server.add_naming_context("o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(4):
        server.add(
            Entry(
                f"cn=E{i},o=xyz",
                {"objectClass": ["person"], "cn": f"E{i}", "sn": "T"},
            )
        )
    net.register(server)
    return net, server


class TestOrderedResponses:
    def test_results_in_submission_order(self):
        net, server = build_network()
        conn = connect(net, server.url)
        pipe = conn.pipeline()
        ops = [
            pipe.submit(conn.search, SearchRequest("o=xyz", Scope.SUB, f"(cn=E{i})"))
            for i in range(4)
        ]
        results = [op.result() for op in ops]
        assert [str(r.entries[0].dn) for r in results] == [
            f"cn=E{i},o=xyz" for i in range(4)
        ]

    def test_fifo_survives_tie_break_shuffles(self):
        # All completions land at the same virtual due time (zero rtt,
        # zero service), where the seeded tie-break reorders *events* —
        # responses must still complete in submission order.
        for seed in range(5):
            net, server = build_network(seed=seed)
            conn = connect(net, server.url)
            pipe = conn.pipeline()
            order = []
            ops = [
                pipe.submit(lambda i=i: order.append(i)) for i in range(8)
            ]
            pipe.drain()
            assert order == list(range(8)), f"seed {seed}"

    def test_writes_interleave_with_reads_in_order(self):
        net, server = build_network()
        conn = connect(net, server.url)
        pipe = conn.pipeline()
        pipe.submit(conn.modify, "cn=E0,o=xyz", [Modification.replace("sn", "Z")])
        read = pipe.submit(conn.search, SearchRequest("o=xyz", Scope.SUB, "(cn=E0)"))
        # The read was submitted after the write on the same connection,
        # so it must observe it.
        assert read.result().entries[0].first("sn") == "Z"

    def test_error_delivered_through_result(self):
        net, server = build_network()
        conn = connect(net, server.url)
        pipe = conn.pipeline()
        ok = pipe.submit(conn.search, REQUEST)
        bad = pipe.submit(conn.delete, "cn=missing,o=xyz")
        after = pipe.submit(conn.search, REQUEST)
        assert len(ok.result().entries) == 4
        with pytest.raises(LdapError):
            bad.result()
        # a failed op does not wedge the pipeline
        assert len(after.result().entries) == 4


class TestLatencyAmortization:
    def test_pipeline_costs_one_rtt_plus_service(self):
        net, server = build_network(round_trip_latency_ms=10.0)
        conn = connect(net, server.url)
        pipe = conn.pipeline(service_ms=1.0)
        ops = [pipe.submit(conn.search, REQUEST) for _ in range(5)]
        for op in ops:
            op.result()
        # max(rtt, ...) + 4 × service — not 5 × rtt.
        assert net.scheduler.now == pytest.approx(14.0)

    def test_synchronous_equivalent_traffic_counters(self):
        # Pipelining changes *when* ops run, not what they cost in
        # round trips/PDUs: counters match the synchronous loop.
        net_p, server_p = build_network(round_trip_latency_ms=10.0)
        conn_p = connect(net_p, server_p.url)
        pipe = conn_p.pipeline()
        ops = [pipe.submit(conn_p.search, REQUEST) for _ in range(5)]
        for op in ops:
            op.result()

        net_s = SimulatedNetwork(round_trip_latency_ms=10.0)
        server_s = DirectoryServer("M")
        server_s.add_naming_context("o=xyz")
        server_s.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        for i in range(4):
            server_s.add(
                Entry(
                    f"cn=E{i},o=xyz",
                    {"objectClass": ["person"], "cn": f"E{i}", "sn": "T"},
                )
            )
        net_s.register(server_s)
        conn_s = connect(net_s, server_s.url)
        for _ in range(5):
            conn_s.search(REQUEST)
        assert net_p.stats.as_dict() == net_s.stats.as_dict()


class TestInstruments:
    def test_depth_and_latency_metrics(self):
        net, server = build_network(round_trip_latency_ms=10.0)
        conn = connect(net, server.url)
        pipe = conn.pipeline(service_ms=2.0)
        ops = [pipe.submit(conn.search, REQUEST) for _ in range(3)]
        assert pipe.depth == 3
        assert net.registry.gauge("net.pipeline.depth").value == 3
        for op in ops:
            op.result()
        assert pipe.depth == 0
        assert net.registry.counter("net.pipeline.submitted").value == 3
        assert net.registry.counter("net.pipeline.completed").value == 3
        assert net.registry.gauge("net.pipeline.depth_max").value == 3
        hist = net.registry.histogram("net.pipeline.latency_ms")
        assert hist.mean > 0

    def test_pipeline_needs_network(self):
        server = DirectoryServer("M")
        server.add_naming_context("o=xyz")
        from repro.server.connection import Connection, RequestPipeline

        conn = Connection(server)  # no network attached
        with pytest.raises(ValueError):
            RequestPipeline(conn)
